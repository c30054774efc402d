"""Co-signing a chained record and surviving the store's gate.

A free-text note is tokenized into blocks, the blocks are linked into
a pointer chain, and two parties co-sign every stored row.  The open
database only accepts batches whose signatures all verify, so a forged
row poisons its whole batch, and each accepted write reshuffles the
table so storage order says nothing about arrival order.
"""

import random
from dataclasses import replace

from etenon import mlabe, musig, policy, tdb, tenon
from etenon.algebra import get_suite
from etenon.tdb import OpenRow, SecretEntry, TenonDb


def cosigned_rows(suite, pp, sks, structure, rng, t):
    """Every row of the chain, co-signed in one run under one roster."""
    digests = [tdb.row_digest(pp.encode(), triple, t) for triple in structure.triples]
    sigs, _ = musig.cosign(suite, sks, digests, rng)
    return [
        OpenRow(pointer=triple.pointer, block=triple.block, next=triple.next,
                sig=sig, roster_ref="visit-1", timestamp=t)
        for triple, sig in zip(structure.triples, sigs)
    ]


def main():
    rng = random.Random(11)
    suite = get_suite("mock")
    pp, msk = mlabe.setup(suite, rng)
    t = 1_700_000_000

    stopwords = tenon.load_stopwords()
    note = "Pain in the chest and a cough"
    blocks = tenon.tokenize(note, stopwords)
    print("note:   %r" % note)
    print("blocks: %s" % blocks)
    structure = tenon.build_structure(blocks, rng)

    owner = mlabe.keygen(pp, msk, ["holder"], rng)
    provider = mlabe.keygen(pp, msk, ["doctor"], rng)
    sks = [owner.signing, provider.signing]
    roster = (owner.verification, provider.verification)

    rows = cosigned_rows(suite, pp, sks, structure, rng, t)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:doctor")
    ct = mlabe.encrypt(pp, {1: b"\x01" + structure.head.bytes}, tree, rng)
    digest = tdb.entry_digest(pp.encode(), "visit-1", "clinical", mlabe.ct_canonical_bytes(ct), t)
    (sig,), _ = musig.cosign(suite, sks, [digest], rng)
    secret = SecretEntry(entry_id="visit-1", ciphertext=ct, sig=sig,
                         roster_ref="visit-1", access_label="clinical", timestamp=t)

    db = TenonDb(pp)
    result = db.ingest(rows, secret, rosters={"visit-1": roster}, rng=rng)
    print("honest batch accepted:", result.accepted)
    print("stored order:", [db.find_row(r.pointer) is not None for r in rows])

    forged = [replace(rows[0], block=rows[0].block + " (edited)",
                      pointer=tenon.make_pointer(rng))]
    result = db.ingest(forged, rosters={"visit-1": roster}, rng=rng)
    print("forged batch accepted:", result.accepted, "(%s)" % result.reason)

    before = [r.pointer.hex[:8] for r in db.read_open()]
    db.shuffle(rng)
    after = [r.pointer.hex[:8] for r in db.read_open()]
    print("order before shuffle:", before)
    print("order after shuffle: ", after)
    print("row multiset unchanged:", sorted(before) == sorted(after))


if __name__ == "__main__":
    main()
