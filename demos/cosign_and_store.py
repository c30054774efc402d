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


def cosigned_visit(suite, pp, sks, visit, note, rng, t):
    """One agreement's batch: every row of the note's chain and the entry
    sealing its head, co-signed in one run under the new roster ``visit``."""
    structure = tenon.build_structure(tenon.tokenize(note, tenon.load_stopwords()), rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:doctor")
    ct = mlabe.encrypt(pp, {1: b"\x01" + structure.head.bytes}, tree, rng)
    digests = [tdb.row_digest(pp.encode(), triple, t) for triple in structure.triples]
    digests.append(tdb.entry_digest(pp.encode(), visit, "clinical", mlabe.ct_canonical_bytes(ct), t))
    (*sigs, entry_sig), roster = musig.cosign(suite, sks, digests, rng)
    rows = [
        OpenRow(pointer=triple.pointer, block=triple.block, next=triple.next,
                sig=sig, roster_ref=visit, timestamp=t)
        for triple, sig in zip(structure.triples, sigs)
    ]
    secret = SecretEntry(entry_id=visit, ciphertext=ct, sig=entry_sig,
                         roster_ref=visit, access_label="clinical", timestamp=t)
    return rows, secret, roster


def main():
    rng = random.Random(11)
    suite = get_suite("mock")
    pp, _ = mlabe.setup(suite, rng)
    t = 1_700_000_000

    note = "Pain in the chest and a cough"
    print("note:   %r" % note)
    print("blocks: %s" % tenon.tokenize(note, tenon.load_stopwords()))

    # owner and provider each draw their own signing key; the authority
    # that issues decryption keys issues none
    owner_sk, _ = musig.keypair(suite, rng)
    provider_sk, _ = musig.keypair(suite, rng)
    sks = [owner_sk, provider_sk]

    db = TenonDb(pp)
    rows, secret, roster = cosigned_visit(suite, pp, sks, "visit-1", note, rng, t)
    result = db.ingest(rows, secret, roster, rng=rng)
    print("honest batch accepted:", result.accepted)
    print("stored order:", [db.find_row(r.pointer) is not None for r in rows])

    # a second visit's batch, with one row's text edited after signing
    rows, secret, roster = cosigned_visit(suite, pp, sks, "visit-2", "Fever since Monday", rng, t)
    forged = [replace(rows[0], block=rows[0].block + " (edited)")] + rows[1:]
    result = db.ingest(forged, secret, roster, rng=rng)
    print("forged batch accepted:", result.accepted, "(%s)" % result.reason)

    before = [r.pointer.hex[:8] for r in db.read_open()]
    db.shuffle(rng)
    after = [r.pointer.hex[:8] for r in db.read_open()]
    print("order before shuffle:", before)
    print("order after shuffle: ", after)
    print("row multiset unchanged:", sorted(before) == sorted(after))


if __name__ == "__main__":
    main()
