import fcntl
import gc
import json
import multiprocessing
import random
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from etenon import cli, mlabe, musig, policy, tdb, tenon
from etenon.algebra import get_suite
from etenon.codec import b64, canonical_json
from etenon.musig import SignedMessage
from etenon.tdb import (
    AccessDeniedError,
    OpenRow,
    SecretEntry,
    TdbError,
    TenonDb,
    UnknownEntryError,
)
from test_musig import FORGED_ROSTERS, forged_signature


@pytest.fixture
def system(mock, rng):
    pp, msk = mlabe.setup(mock, rng)
    return mock, pp, msk, rng


@pytest.fixture
def large_system(rng):
    """A mock system for tests that need an edited message to fail: on
    mock-101 one verifies with probability 1/101, here 1/999983."""
    suite = get_suite("mock-999983")
    pp, msk = mlabe.setup(suite, rng)
    return suite, pp, msk, rng


def sign_keys(suite, rng, n=2):
    keys = []
    while len(keys) < n:
        k = suite.rand_scalar_nonzero(rng)
        if k not in keys:
            keys.append(k)
    return keys, tuple(suite.generator ** k for k in keys)


def make_batch(suite, pp, rng, blocks=("alpha", "beta", "gamma"), entry_id="entry-1",
               roster_ref="batch-1", label="clinical", timestamp=1_700_000_000):
    """A correctly signed batch: one chain of open rows plus one secret."""
    sks, roster = sign_keys(suite, rng)
    pp_bytes = pp.encode()
    structure = tenon.build_structure(list(blocks), rng)
    rows = []
    for t in structure.chain_order():
        sig, _ = musig.cosign(suite, sks, tdb.row_digest(pp_bytes, t, timestamp), rng)
        rows.append(OpenRow(
            pointer=t.pointer, block=t.block, next=t.next, sig=sig,
            roster_ref=roster_ref, timestamp=timestamp,
        ))
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    ct = mlabe.encrypt(pp, {1: b"\x01" + structure.head.bytes}, tree, rng)
    digest = tdb.entry_digest(pp_bytes, entry_id, label, mlabe.ct_canonical_bytes(ct), timestamp)
    sig, _ = musig.cosign(suite, sks, digest, rng)
    secret = SecretEntry(
        entry_id=entry_id, ciphertext=ct, sig=sig,
        roster_ref=roster_ref, access_label=label, timestamp=timestamp,
    )
    return rows, secret, {roster_ref: roster}


def test_ingest_accepts_valid_batch(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(suite, pp, rng)
    result = db.ingest(rows, secret, rosters=rosters, rng=rng)
    assert result.accepted
    assert result.reason is None
    assert len(db.read_open()) == 3
    assert db.secret_ids() == ("entry-1",)
    assert db.roster("batch-1") == rosters["batch-1"]


def test_rows_only_batch(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, _, rosters = make_batch(suite, pp, rng)
    assert db.ingest(rows, rosters=rosters, rng=rng).accepted
    assert db.secret_ids() == ()


def test_gate_rejects_each_defect(large_system):
    suite, pp, _, rng = large_system
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(suite, pp, rng)

    # tampered block text
    bad = [replace(rows[0], block=rows[0].block + "!")] + rows[1:]
    r = db.ingest(bad, secret, rosters=rosters, rng=rng)
    assert not r.accepted and "signature invalid" in r.reason

    # tampered timestamp
    bad = [replace(rows[0], timestamp=rows[0].timestamp + 1)] + rows[1:]
    r = db.ingest(bad, secret, rosters=rosters, rng=rng)
    assert not r.accepted and "signature invalid" in r.reason

    # unknown roster reference
    bad = [replace(rows[0], roster_ref="nobody")] + rows[1:]
    r = db.ingest(bad, secret, rosters=rosters, rng=rng)
    assert not r.accepted and "unknown roster" in r.reason

    bad = replace(secret, roster_ref="nobody")
    r = db.ingest(rows, bad, rosters=rosters, rng=rng)
    assert not r.accepted and "unknown roster" in r.reason

    # duplicate pointer inside the batch
    r = db.ingest(rows + [rows[0]], secret, rosters=rosters, rng=rng)
    assert not r.accepted and "already present" in r.reason

    # tampered ciphertext under the secret's signature
    other = make_batch(suite, pp, rng, entry_id="entry-1", roster_ref="batch-1")[1]
    forged = replace(secret, ciphertext=other.ciphertext)
    r = db.ingest(rows, forged, rosters=rosters, rng=rng)
    assert not r.accepted and "signature invalid" in r.reason

    # nothing was stored by any of the rejected attempts
    assert db.read_open() == ()
    assert db.secret_ids() == ()
    with pytest.raises(TdbError):
        db.roster("batch-1")


@pytest.mark.parametrize(
    "payload",
    [b"not json", b'{"next":null,"nino":"QQ123456C","text":"x"}'],
    ids=["not-json", "extra-key"],
)
def test_gate_refuses_a_signed_row_no_reader_can_walk(large_system, tmp_path, payload):
    """A signature over bytes that are no chain element's cannot verify
    against the bytes a row's fields give."""
    suite, pp, _, rng = large_system
    sks, roster = sign_keys(suite, rng)
    pointer = tenon.make_pointer(rng)
    digest = SignedMessage(
        kind="block", payload=payload, pointer=pointer.bytes, pp_bytes=pp.encode(), timestamp=7
    ).digest()
    sig, _ = musig.cosign(suite, sks, digest, rng)
    row = OpenRow(pointer, "x", None, sig, "r", 7)

    db = TenonDb(pp, root=tmp_path)
    r = db.ingest([row], rosters={"r": roster}, rng=rng)
    assert not r.accepted
    assert r.reason == "row 0 (pointer %s): signature invalid" % pointer
    assert db.read_open() == () and not (tmp_path / "log.jsonl").exists()

    # a log line that holds such a row fails the load, named by its number
    rows, secret, rosters = make_batch(suite, pp, rng)
    assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    line = canonical_json(tdb.batch_to_json(suite, [row], None, {"r": roster}))
    with open(tmp_path / "log.jsonl", "ab") as fh:
        fh.write(line + b"\n")
    where = r"^log line 2: .*row 0 \(pointer %s\): signature invalid" % pointer
    with pytest.raises(TdbError, match=where):
        TenonDb(pp, root=tmp_path)


@pytest.mark.parametrize("shape, problem", FORGED_ROSTERS, ids=[s for s, _ in FORGED_ROSTERS])
def test_gate_refuses_a_roster_one_party_can_pose_as(any_system, shape, problem):
    """A new roster that is empty, holds the identity or repeats a key is
    refused by its ref, although the row's signature equation holds."""
    suite, pp, _, rng = any_system
    t = tenon.Triple(tenon.make_pointer(rng), "alone", None)
    sig, roster = forged_signature(suite, shape, tdb.row_digest(pp.encode(), t, 7), rng)
    row = OpenRow(t.pointer, t.block, t.next, sig, "forged", 7)
    db = TenonDb(pp)
    r = db.ingest([row], rosters={"forged": roster}, rng=rng)
    assert not r.accepted
    assert r.reason == "roster 'forged': %s" % problem
    assert db.read_open() == ()


def test_rejected_batch_after_accept_changes_nothing(large_system):
    suite, pp, _, rng = large_system
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(suite, pp, rng)
    assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    before = db.snapshot()

    rows2, secret2, rosters2 = make_batch(
        suite, pp, rng, blocks=("x", "y"), entry_id="entry-2", roster_ref="batch-2"
    )
    bad = [replace(rows2[0], block=rows2[0].block + "!")] + rows2[1:]
    assert not db.ingest(bad, secret2, rosters=rosters2, rng=rng).accepted

    after = db.snapshot()
    assert after.rows == before.rows
    assert after.entry_ids == before.entry_ids
    assert after.order_digest == before.order_digest


def test_duplicate_entry_id_rejected(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(suite, pp, rng)
    assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    rows2, secret2, rosters2 = make_batch(
        suite, pp, rng, blocks=("p", "q"), entry_id="entry-1", roster_ref="batch-2"
    )
    r = db.ingest(rows2, secret2, rosters=rosters2, rng=rng)
    assert not r.accepted and "already present" in r.reason


def test_read_secret_label_gate(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(suite, pp, rng, label="clinical")
    assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    assert db.read_secret("entry-1", "clinical") == secret
    with pytest.raises(AccessDeniedError) as exc:
        db.read_secret("entry-1", "research")
    # the refusal must not leak what the right label would have been
    assert str(exc.value) == "access denied"
    with pytest.raises(UnknownEntryError):
        db.read_secret("entry-9", "clinical")


def test_find_row_and_payload_decode(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    row = db.find_row(rows[1].pointer)
    assert row == rows[1]
    assert row.block == "beta" and row.next == rows[2].pointer
    assert db.find_row(tenon.make_pointer(rng)) is None


def test_shuffle_preserves_multiset_and_changes_order(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(
        suite, pp, rng, blocks=("a", "b", "c", "d", "e")
    )
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    want = Counter(r.pointer for r in rows)
    for _ in range(50):
        before = db.order_digest()
        db.shuffle(rng)
        assert Counter(r.pointer for r in db.read_open()) == want
        assert db.order_digest() != before


def test_shuffle_two_rows_always_flips(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, _, rosters = make_batch(suite, pp, rng, blocks=("a", "b"))
    db.ingest(rows, rosters=rosters, rng=rng)
    for _ in range(100):
        order = [r.pointer for r in db.read_open()]
        db.shuffle(rng)
        assert [r.pointer for r in db.read_open()] == order[::-1]


def test_shuffle_single_row_is_noop(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, _, rosters = make_batch(suite, pp, rng, blocks=("only",))
    db.ingest(rows, rosters=rosters, rng=rng)
    before = db.order_digest()
    db.shuffle(rng)
    assert db.order_digest() == before


# ----------------------------------------------------------------------
# persistence


def test_log_replay_restores_state(system, tmp_path):
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    rows2, _, rosters2 = make_batch(
        suite, pp, rng, blocks=("x", "y"), entry_id="entry-2", roster_ref="batch-2"
    )
    db.ingest(rows2, rosters=rosters2, rng=rng)

    again = TenonDb(pp, root=tmp_path)
    assert {r.pointer for r in again.read_open()} == {
        r.pointer for r in db.read_open()
    }
    assert again.secret_ids() == db.secret_ids()
    assert again.roster("batch-1") == rosters["batch-1"]
    got = again.read_secret("entry-1", "clinical")
    assert mlabe.ct_canonical_bytes(got.ciphertext) == mlabe.ct_canonical_bytes(
        secret.ciphertext
    )


def test_snapshot_plus_tail_replay(system, tmp_path):
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    db.save_snapshot()
    rows2, _, rosters2 = make_batch(
        suite, pp, rng, blocks=("x", "y"), entry_id="entry-2", roster_ref="batch-2"
    )
    db.ingest(rows2, rosters=rosters2, rng=rng)  # after the snapshot

    again = TenonDb(pp, root=tmp_path)
    assert len(again.read_open()) == 5
    assert again.secret_ids() == ("entry-1",)
    # snapshot preserves the shuffled storage order it captured
    db.save_snapshot()
    third = TenonDb(pp, root=tmp_path)
    assert [r.pointer for r in third.read_open()] == [
        r.pointer for r in db.read_open()
    ]


def test_rejected_ingest_leaves_files_untouched(large_system, tmp_path):
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    db.save_snapshot()
    log_bytes = (tmp_path / "log.jsonl").read_bytes()
    snap_bytes = (tmp_path / "snapshot.json").read_bytes()

    rows2, secret2, rosters2 = make_batch(
        suite, pp, rng, blocks=("x",), entry_id="entry-2", roster_ref="batch-2"
    )
    bad = [replace(rows2[0], block=rows2[0].block + "!")]
    assert not db.ingest(bad, secret2, rosters=rosters2, rng=rng).accepted

    assert (tmp_path / "log.jsonl").read_bytes() == log_bytes
    assert (tmp_path / "snapshot.json").read_bytes() == snap_bytes


def _resigned(kwargs):
    return lambda suite, pp, rng: make_batch(suite, pp, rng, **kwargs)


def _edited(row=None, secret=None):
    """A batch signed as usual, then given other fields in its first row
    or its secret entry."""
    def build(suite, pp, rng):
        rows, entry, rosters = make_batch(suite, pp, rng)
        if row:
            rows = [replace(rows[0], **row)] + rows[1:]
        if secret:
            entry = replace(entry, **secret)
        return rows, entry, rosters
    return build


def _unreduced_s(suite, pp, rng):
    """A batch whose first row's signature scalar is given as s + order:
    it verifies, but the log writes a scalar only below the order."""
    rows, entry, rosters = make_batch(suite, pp, rng)
    sig = replace(rows[0].sig, s=rows[0].sig.s + suite.order)
    return [replace(rows[0], sig=sig)] + rows[1:], entry, rosters


def _spaced_entry(suite, pp, rng):
    """An entry whose roster signed its ciphertext document with spaces,
    bytes that the log's canonical line does not carry."""
    sks, roster = sign_keys(suite, rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    ct = mlabe.encrypt(pp, {1: b"x"}, tree, rng)
    ct_bytes = json.dumps(mlabe.ct_to_json(ct), sort_keys=True).encode()
    sig, _ = musig.cosign(suite, sks, tdb.entry_digest(pp.encode(), "spaced", "c", ct_bytes, 7), rng)
    entry = SecretEntry("spaced", ct, sig, "spaced", "c", 7, ct_bytes=ct_bytes)
    return [], entry, {"spaced": roster}


@pytest.mark.parametrize(
    "build, reason",
    [
        (_resigned({"timestamp": True}), r"^row 0: malformed row: expected int, found bool$"),
        (_resigned({"label": 5}), r"^malformed secret entry: expected str, found int$"),
        (_resigned({"entry_id": 7}), r"^malformed secret entry: expected str, found int$"),
        (_edited(row={"roster_ref": ("batch-1",)}), r"^row 0: malformed row: expected str, found list$"),
        (_edited(row={"timestamp": -1}), r"^row 0: malformed row: timestamp -1 does not fit 8 bytes$"),
        # the encoder refuses this one before any line exists to decode
        (_edited(row={"block": b"alpha"}),
         r"^row 0: malformed row: Object of type bytes is not JSON serializable$"),
        (_edited(row={"next": "beta"}), r"^row 0: malformed row: badly formed hexadecimal UUID"),
        (_edited(secret={"timestamp": 1 << 64}), r"^malformed secret entry: timestamp \d+ does not fit"),
        # replay would key this roster "5", so a later "5" could bind other keys
        (lambda suite, pp, rng: ([], None, {5: sign_keys(suite, rng)[1]}),
         r"^malformed batch: expected str, found int$"),
        (_unreduced_s, r"^row 0: malformed row: scalar out of range$"),
        (_spaced_entry, r"^secret entry 'spaced': signature invalid$"),
    ],
    ids=[
        "bool-time", "int-label", "int-entry-id", "tuple-roster-ref", "time-below-0",
        "bytes-text", "str-next", "time-2**64", "int-roster-key", "s-above-order",
        "noncanonical-ct",
    ],
)
def test_gate_refuses_fields_replay_would_refuse(large_system, tmp_path, build, reason):
    """A batch the log could not carry back as it was given is refused
    with the decoder's or the checks' reason, and the store still opens
    afterwards."""
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    first = make_batch(suite, pp, rng, entry_id="first", roster_ref="first")
    assert db.ingest(*first, rng=rng).accepted
    rows, secret, rosters = build(suite, pp, rng)
    log_bytes = (tmp_path / "log.jsonl").read_bytes()
    r = db.ingest(rows, secret, rosters=rosters, rng=rng)
    assert not r.accepted
    assert re.search(reason, r.reason), r.reason
    assert (tmp_path / "log.jsonl").read_bytes() == log_bytes
    assert TenonDb(pp, root=tmp_path).secret_ids() == ("first",)


@pytest.fixture(params=["mock", "bn256"])
def any_system(request, rng):
    suite = get_suite(request.param)
    pp, msk = mlabe.setup(suite, rng)
    return suite, pp, msk, rng


@pytest.fixture
def ct_from_json_calls(monkeypatch):
    """One entry per ciphertext decode, counted through the module attribute."""
    calls = []
    ct_from_json = mlabe.ct_from_json
    monkeypatch.setattr(mlabe, "ct_from_json", lambda *a: calls.append(1) or ct_from_json(*a))
    return calls


def test_open_decodes_no_ciphertext_until_it_is_read(any_system, tmp_path, ct_from_json_calls):
    suite, pp, _, rng = any_system
    rows, secret, rosters = make_batch(suite, pp, rng)
    assert TenonDb(pp, root=tmp_path).ingest(rows, secret, rosters=rosters, rng=rng).accepted

    db = TenonDb(pp, root=tmp_path)
    entry = db.read_secret("entry-1", "clinical")
    assert ct_from_json_calls == []
    assert entry.ct_bytes == mlabe.ct_canonical_bytes(secret.ciphertext)
    assert mlabe.ct_canonical_bytes(entry.ciphertext) == entry.ct_bytes
    assert len(ct_from_json_calls) == 1
    # the decoded bundle is kept
    assert db.read_secret("entry-1", "clinical").ciphertext is entry.ciphertext
    assert len(ct_from_json_calls) == 1


def _store_of_entries(suite, pp, rng, root, n):
    """A store at ``root`` of n batches, with entries entry-0 .. entry-(n-1)."""
    db = TenonDb(pp, root=root)
    for i in range(n):
        rows, secret, rosters = make_batch(
            suite, pp, rng, blocks=("block",), entry_id="entry-%d" % i, roster_ref="batch-%d" % i)
        assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    return db


def test_open_store_drops_the_least_recently_read_ciphertext(system, tmp_path, ct_from_json_calls):
    """An open store keeps the decoded ciphertexts of the entries read
    last: a third entry read drops the first's, which decodes again."""
    suite, pp, _, rng = system
    db = _store_of_entries(suite, pp, rng, tmp_path, tdb.DECODED_ENTRIES + 1)
    first = db.read_secret("entry-0", "clinical")
    kept = first.ciphertext
    for i in range(1, tdb.DECODED_ENTRIES):
        db.read_secret("entry-%d" % i, "clinical").ciphertext
    # re-reading the first makes it the most recent
    assert db.read_secret("entry-0", "clinical").ciphertext is kept
    ct_from_json_calls.clear()
    db.read_secret("entry-%d" % tdb.DECODED_ENTRIES, "clinical").ciphertext
    assert first.ciphertext is kept and len(ct_from_json_calls) == 1
    db.read_secret("entry-%d" % tdb.DECODED_ENTRIES, "clinical")
    db.read_secret("entry-0", "clinical")
    for i in range(1, tdb.DECODED_ENTRIES + 1):
        db.read_secret("entry-%d" % i, "clinical")
    again = first.ciphertext
    assert again is not kept and len(ct_from_json_calls) == 2
    assert mlabe.ct_canonical_bytes(again) == first.ct_bytes


def test_reading_more_entries_retains_no_more_memory(bn256, tmp_path):
    """On bn256, where a decoded leaf keeps about 35 KB of prepared Miller
    lines, reading 8 entries of an open store retains no more memory than
    reading 2, within 16 KB (tracemalloc)."""
    rng = random.Random(0x1B5)
    pp, msk = mlabe.setup(bn256, rng)
    key = mlabe.keygen(pp, msk, ["a"], rng).decryption
    writer = _store_of_entries(bn256, pp, rng, tmp_path, 8)
    # the key's own lines are prepared before anything is measured
    mlabe.decrypt(pp, writer.read_secret("entry-0", "clinical").ciphertext, key)
    del writer

    def retained(n):
        db = TenonDb(pp, root=tmp_path)
        gc.collect()
        tracemalloc.start()
        try:
            for i in range(n):
                assert mlabe.decrypt(pp, db.read_secret("entry-%d" % i, "clinical").ciphertext, key)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    two, eight = retained(2), retained(8)
    assert two > 2 * 30_000  # the two entries' lines are held
    assert eight <= two + 16 * 1024, (two, eight)


def _entry_with_unsigned_bundle(suite, pp, rng, entry_id="e"):
    """An entry whose ``ciphertext`` is not the ``ct_bytes`` its roster
    signed; returns the entry, its roster and the signed bytes."""
    sks, roster = sign_keys(suite, rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    unsigned, signed = (mlabe.encrypt(pp, {1: m}, tree, rng) for m in (b"unsigned", b"signed"))
    ct_bytes = mlabe.ct_canonical_bytes(signed)
    digest = tdb.entry_digest(pp.encode(), entry_id, "clinical", ct_bytes, 7)
    sig, _ = musig.cosign(suite, sks, digest, rng)
    entry = SecretEntry(entry_id, unsigned, sig, entry_id, "clinical", 7, ct_bytes=ct_bytes)
    return entry, roster, ct_bytes


def test_live_store_reads_the_ciphertext_its_roster_signed(large_system, tmp_path):
    """The gate stores an entry as the bytes its roster signed, not as the
    bundle it was handed: the live store reads what a reopen reads."""
    suite, pp, _, rng = large_system
    entry, roster, ct_bytes = _entry_with_unsigned_bundle(suite, pp, rng)
    db = TenonDb(pp, root=tmp_path)
    assert db.ingest([], entry, rosters={"e": roster}, rng=rng).accepted
    for store in (db, TenonDb(pp, root=tmp_path)):
        read = store.read_secret("e", "clinical")
        assert read.ct_bytes == ct_bytes
        assert mlabe.ct_canonical_bytes(read.ciphertext) == ct_bytes


def test_live_store_holds_what_a_reopen_holds(large_system, tmp_path):
    suite, pp, _, rng = large_system
    entry, roster, _ = _entry_with_unsigned_bundle(suite, pp, rng)
    batches = [
        make_batch(suite, pp, rng),
        make_batch(suite, pp, rng, blocks=("x",), entry_id="entry-2", roster_ref="batch-2"),
        ([], entry, {"e": roster}),
    ]
    db = TenonDb(pp, root=tmp_path)
    for rows, secret, rosters in batches:
        assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted

    def view(store):
        rows = {row.pointer: tdb.row_to_json(suite, row) for row in store.read_open()}
        entries = {
            i: (e.ct_bytes, mlabe.ct_canonical_bytes(e.ciphertext))
            for i in store.secret_ids() for e in [store.read_secret(i, "clinical")]
        }
        rosters = {
            ref: [vk.encode() for vk in store.roster(ref)] for ref in ("batch-1", "batch-2", "e")
        }
        return rows, entries, rosters

    assert view(db) == view(TenonDb(pp, root=tmp_path))


def _undecodable(suite, doc):
    """``doc`` with its first leaf's right-side element replaced by bytes
    that do not decode: out of range on mock, off the subgroup on bn256."""
    if suite.name == "bn256":
        from test_algebra import _twist_point_off_the_subgroup

        x, y, _ = _twist_point_off_the_subgroup()
        raw = b"\x01" + b"".join(c.to_bytes(32, "big") for c in x + y)
    else:
        raw = b"\xff" * suite.scalar_bytes
    return dict(doc, leaves=[dict(doc["leaves"][0], c=b64(raw))] + doc["leaves"][1:])


def test_signed_entry_that_does_not_decode_fails_when_read(any_system, tmp_path, capsys):
    """Replay checks the signature over the stored bytes; the decode and
    its subgroup checks come when the entry is first read."""
    suite, pp, msk, rng = any_system
    sks, roster = sign_keys(suite, rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    doc = _undecodable(suite, mlabe.ct_to_json(mlabe.encrypt(pp, {1: b"x"}, tree, rng)))
    ct_bytes = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    digest = tdb.entry_digest(pp.encode(), "bad", "clinical", ct_bytes, 7)
    sig, _ = musig.cosign(suite, sks, digest, rng)
    batch = {
        "rows": [],
        "secret": {"entry_id": "bad", "ciphertext": doc, "sig": musig.sig_to_json(suite, sig),
                   "roster_ref": "r", "access_label": "clinical", "t": 7},
        "rosters": tdb.rosters_to_json({"r": roster}),
    }
    # the gate decodes in full and refuses it, as it refuses any batch
    result = TenonDb(pp).ingest(*tdb.batch_from_json(suite, batch))
    assert not result.accepted
    assert result.reason.startswith("malformed ciphertext of secret entry 'bad'")

    store = tmp_path / "store"
    store.mkdir()
    (store / "log.jsonl").write_text(json.dumps(batch, sort_keys=True, separators=(",", ":")) + "\n")
    db = TenonDb(pp, root=store)
    assert db.secret_ids() == ("bad",)
    entry = db.read_secret("bad", "clinical")
    assert tdb.verify_entry(suite, pp.encode(), entry, roster)
    with pytest.raises(TdbError, match="ciphertext of secret entry 'bad'"):
        entry.ciphertext

    (tmp_path / "pp.json").write_text(json.dumps(mlabe.pp_to_json(pp)))
    key = mlabe.keygen(pp, msk, ["a"], rng)
    (tmp_path / "key.json").write_text(json.dumps(mlabe.key_to_json(suite, key)))
    code = cli.main(["retrieve", "--pp", str(tmp_path / "pp.json"), "--db", str(store),
                     "--key", str(tmp_path / "key.json"), "--entry", "bad"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "TdbError"


def _open_then_ingest(root, pp_doc, batch_doc, barrier, results):
    """One writer process: open the store, wait for the others, ingest."""
    pp = mlabe.pp_from_json(pp_doc)
    db = TenonDb(pp, root=root)
    barrier.wait(timeout=60)
    rows, secret, rosters = tdb.batch_from_json(pp.suite, batch_doc)
    res = db.ingest(rows, secret, rosters=rosters)
    results.put((res.accepted, res.reason))


def test_second_writer_waits_then_sees_the_first(system, tmp_path):
    """Two processes open the store and both ingest an entry with the same
    id.  Opening takes no lock; a writer waits for the store's write lock,
    then replays what the other appended, so the second batch is refused
    and the store still opens."""
    suite, pp, _, rng = system
    docs = [
        tdb.batch_to_json(suite, *make_batch(suite, pp, rng, roster_ref=ref))
        for ref in ("batch-a", "batch-b")
    ]
    mp = multiprocessing.get_context("spawn")
    barrier, results = mp.Barrier(3), mp.Queue()
    writers = [
        mp.Process(target=_open_then_ingest,
                   args=(str(tmp_path), mlabe.pp_to_json(pp), doc, barrier, results))
        for doc in docs
    ]
    with open(tmp_path / "lock", "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for w in writers:
            w.start()
        barrier.wait(timeout=60)  # both opened while the lock was held
        time.sleep(0.5)
        assert results.empty()  # and both wait for it to ingest
    got = sorted(results.get(timeout=60) for _ in writers)
    for w in writers:
        w.join(timeout=60)
        assert not w.is_alive() and w.exitcode == 0
    assert [accepted for accepted, _ in got] == [False, True]
    assert "entry id already present" in got[0][1]
    reopened = TenonDb(pp, root=tmp_path)
    assert reopened.secret_ids() == ("entry-1",)
    assert len(reopened.read_open()) == 3
    assert len((tmp_path / "log.jsonl").read_text().splitlines()) == 1


def test_tampered_log_fails_load(large_system, tmp_path):
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)

    log = tmp_path / "log.jsonl"
    genuine = log.read_text()
    doc = json.loads(genuine)
    doc["rows"][0]["t"] = doc["rows"][0]["t"] + 1
    log.write_text(json.dumps(doc) + "\n")
    where = r"^log line 1: row 0 \(pointer %s\): signature invalid$" % doc["rows"][0]["pointer"]
    with pytest.raises(TdbError, match=where):
        TenonDb(pp, root=tmp_path)

    # every replay failure names its line, after any good lines too
    for line in ("not json", "[1]", "[" * 100_000 + "]" * 100_000):
        for prefix, number in (("", 1), (genuine, 2)):
            log.write_text(prefix + line + "\n")
            with pytest.raises(TdbError, match="^log line %d: " % number):
                TenonDb(pp, root=tmp_path)


def test_gate_names_the_one_forged_signature_among_many(bn256, rng, tmp_path):
    """On bn256 the batch check refuses a batch of 20 rows with one
    forged signature, and the refusal names exactly that row; a batch
    whose only bad signature is the entry's names the entry."""
    pp, _ = mlabe.setup(bn256, rng)
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(bn256, pp, rng, blocks=["b%d" % i for i in range(20)])
    forged = list(rows)
    forged[13] = replace(rows[13], sig=rows[5].sig)
    r = db.ingest(forged, secret, rosters=rosters, rng=rng)
    assert r.reason == "row 13 (pointer %s): signature invalid" % rows[13].pointer
    r = db.ingest(rows, replace(secret, sig=rows[0].sig), rosters=rosters, rng=rng)
    assert r.reason == "secret entry 'entry-1': signature invalid"
    assert not (tmp_path / "log.jsonl").exists()
    assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    assert len(TenonDb(pp, root=tmp_path).read_open()) == 20


@pytest.mark.parametrize("field", ["entry_id", "access_label"])
def test_entry_edited_in_the_log_fails_replay(large_system, tmp_path, field):
    """An entry's co-signature covers its id and its access label, so the
    label gate of ``read_secret`` does not rest on the log file alone."""
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    for i in (1, 2):
        batch = make_batch(suite, pp, rng, blocks=("b%d" % i,), entry_id="entry-%d" % i,
                           roster_ref="batch-%d" % i)
        assert db.ingest(*batch, rng=rng).accepted
    log = tmp_path / "log.jsonl"
    first, second = log.read_text().splitlines()
    doc = json.loads(second)
    doc["secret"][field] = "public"
    log.write_text(first + "\n" + json.dumps(doc) + "\n")
    where = r"^log line 2: .*secret entry '.*': signature invalid$"
    with pytest.raises(TdbError, match=where):
        TenonDb(pp, root=tmp_path)


def test_store_of_an_older_envelope_version_fails_at_open(system, tmp_path, monkeypatch):
    """Every version-4 document is refused: a store fails on its first line,
    not when an entry is first read."""
    suite, pp, _, rng = system
    with monkeypatch.context() as m:
        m.setattr(mlabe, "ENVELOPE_VERSION", 4)
        rows, secret, rosters = make_batch(suite, pp, rng)
        db = TenonDb(pp, root=tmp_path)
        assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    with pytest.raises(TdbError, match="^log line 1: .*unsupported document version 4"):
        TenonDb(pp, root=tmp_path)


def test_torn_final_log_line_is_dropped(system, tmp_path):
    """A crash inside an append leaves a last line with no newline."""
    suite, pp, _, rng = system
    a, b, c = (
        make_batch(suite, pp, rng, blocks=(name,), entry_id=name, roster_ref=name)
        for name in "abc"
    )
    db = TenonDb(pp, root=tmp_path)
    for rows, secret, rosters in (a, b):
        assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    log = tmp_path / "log.jsonl"
    data = log.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    rows, secret, rosters = c
    for cut in range(last, len(data)):
        log.write_bytes(data[:cut])
        reopened = TenonDb(pp, root=tmp_path)
        assert reopened.read_open() == tuple(a[0]) and reopened.secret_ids() == ("a",)
        assert log.read_bytes() == data[:cut]
        assert reopened.ingest(rows, secret, rosters=rosters, rng=rng).accepted
        assert log.read_bytes().startswith(data[:last])
        again = TenonDb(pp, root=tmp_path)
        assert {r.pointer for r in again.read_open()} == {r.pointer for r in a[0] + rows}
        assert again.secret_ids() == ("a", "c")

    # only the final line may be torn, and only by a missing newline
    for broken in (data[: last - 10] + b"\n" + data[last:], data[:-10] + b"\n"):
        log.write_bytes(broken)
        with pytest.raises(TdbError):
            TenonDb(pp, root=tmp_path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: "{not json",
        lambda doc: json.dumps(dict(doc, order=",".join(doc["order"]))),
        lambda doc: json.dumps(dict(doc, order=doc["order"] + [5])),
        lambda doc: json.dumps([doc]),
    ],
    ids=["not-json", "order-not-a-list", "order-holds-a-non-string", "not-an-object"],
)
def test_malformed_snapshot_fails_load(system, tmp_path, corrupt):
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    db.save_snapshot()
    snap = tmp_path / "snapshot.json"
    snap.write_text(corrupt(json.loads(snap.read_text())))
    with pytest.raises(TdbError):
        TenonDb(pp, root=tmp_path)


def test_snapshot_order_must_match_the_log(system, tmp_path):
    """The snapshot holds only the storage order: it may name each row
    the log holds once, and nothing else."""
    from etenon import tdb

    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    db.save_snapshot()
    snap = tmp_path / "snapshot.json"
    genuine = json.loads(snap.read_text())
    order = genuine["order"]
    assert sorted(order) == sorted(str(row.pointer) for row in rows)

    unknown = {"order": order + [str(tenon.make_pointer(rng))]}
    repeated = {"order": order + order[:1]}
    # the format that copied every row, entry and roster
    old_format = {
        "log_lines": 1,
        "rows": [tdb.row_to_json(suite, row) for row in db.read_open()],
        "secrets": {secret.entry_id: tdb.secret_to_json(suite, secret)},
        "rosters": tdb.rosters_to_json(rosters),
    }
    for doc, match in [
        (unknown, "does not hold"),
        (repeated, "repeats a pointer"),
        (old_format, "malformed snapshot"),
    ]:
        snap.write_text(json.dumps(doc))
        with pytest.raises(TdbError, match=match):
            TenonDb(pp, root=tmp_path)

    snap.write_text(json.dumps(genuine))
    reopened = TenonDb(pp, root=tmp_path)
    assert reopened.read_open() == db.read_open()
    assert reopened.read_secret("entry-1", "clinical") == secret


def test_snapshot_does_not_stand_in_for_the_log(system, tmp_path):
    """Every log line is replayed and re-verified, also the lines written
    before the snapshot was saved."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    db.ingest(rows, secret, rosters=rosters, rng=rng)
    db.save_snapshot()
    log = tmp_path / "log.jsonl"
    genuine = log.read_text()

    doc = json.loads(genuine)
    doc["rows"][0]["t"] += 1
    for line, match in [("[1]", "malformed batch"), (json.dumps(doc), "signature invalid")]:
        log.write_text(line + "\n")
        with pytest.raises(TdbError, match=match):
            TenonDb(pp, root=tmp_path)

    log.unlink()
    with pytest.raises(TdbError, match="does not hold"):
        TenonDb(pp, root=tmp_path)

    log.write_text(genuine)
    assert TenonDb(pp, root=tmp_path).read_open() == db.read_open()


def test_roster_ref_is_write_once(system, tmp_path):
    """A batch may repeat a stored roster ref with the same keys but not
    redefine it, so every stored row keeps the roster it was signed under."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, rosters = make_batch(suite, pp, rng)
    assert db.ingest(rows, secret, rosters=rosters, rng=rng).accepted
    rows2, secret2, rosters2 = make_batch(
        suite, pp, rng, blocks=("p", "q"), entry_id="entry-2", roster_ref="batch-1"
    )
    r = db.ingest(rows2, secret2, rosters=rosters2, rng=rng)
    assert not r.accepted and "already defined" in r.reason
    assert db.roster("batch-1") == rosters["batch-1"]
    assert db.ingest([], rosters=rosters, rng=rng).accepted  # same keys: fine
    db.save_snapshot()
    reopened = TenonDb(pp, root=tmp_path)
    assert reopened.find_row(rows[0].pointer) == rows[0]
    assert reopened.roster("batch-1") == rosters["batch-1"]


def test_snapshot_requires_root(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    with pytest.raises(TdbError):
        db.save_snapshot()


def test_secret_suite_mismatch_rejected(system, rng):
    suite, pp, _, _ = system
    from etenon.algebra import get_suite

    other = get_suite("mock-7")
    pp7, msk7 = mlabe.setup(other, rng)
    db = TenonDb(pp)
    rows, secret, rosters = make_batch(other, pp7, rng)
    r = db.ingest([], secret, rosters=rosters, rng=rng)
    assert not r.accepted and "suite mismatch" in r.reason


def test_json_decoders_raise_only_tdb_errors(system):
    from etenon import tdb
    from etenon.codec import b64

    suite, pp, _, rng = system
    rows, secret, rosters = make_batch(suite, pp, rng)
    row = tdb.row_to_json(suite, rows[0])
    entry = tdb.secret_to_json(suite, secret)
    roster_doc = tdb.rosters_to_json(rosters)
    ref = next(iter(roster_doc))
    # the well-formed documents round-trip
    assert tdb.row_from_json(suite, row) == rows[0]
    assert tdb.rosters_from_json(suite, roster_doc) == rosters

    bad_rows = [
        dict(row, pointer="not-a-uuid"),
        dict(row, pointer=7),
        dict(row, pointer="{%s}" % row["pointer"]),
        dict(row, next="not-a-uuid"),
        dict(row, next=7),
        dict(row, next="{%s}" % row["next"]),
        dict(row, text=None),
        {k: v for k, v in row.items() if k != "next"},
        dict(row, sig={"rc": "AAAA"}),
        dict(row, roster_ref=3),
        dict(row, t="soon"),
        dict(row, t=-1),
        dict(row, t=1 << 64),
        {k: v for k, v in row.items() if k != "t"},
        [row],
        None,
    ]
    for bad in bad_rows:
        with pytest.raises(TdbError):
            tdb.row_from_json(suite, bad)
    bad_entries = [
        dict(entry, ciphertext={}),
        dict(entry, entry_id=None),
        dict(entry, access_label=["clinical"]),
        dict(entry, t=1.5),
        dict(entry, t=True),
        dict(entry, t=-1),
        "entry",
    ]
    for bad in bad_entries:
        with pytest.raises(TdbError):
            tdb.secret_from_json(suite, bad)
    bad_rosters = [
        {ref: ["!!!"]},
        {ref: [17]},
        {ref: "AAAA"},
        {ref: [b64(b"\x00" * 99)]},
        ["not", "a", "mapping"],
    ]
    for bad in bad_rosters:
        with pytest.raises(TdbError):
            tdb.rosters_from_json(suite, bad)


# sha256 of the files a seeded mock store writes; see the test below
PINNED_STORE_FILES = {
    "log.jsonl": "ea582c0af2e7e2ce325af76813735000aa70135fe24063451abf3c435e6987db",
    "snapshot.json": "082210802749f54dbfd8a499fe72ae89bf45938721e0c02fe11d0481faf60fe4",
    "reopened snapshot.json": "d3da3652a142f730ec184dcceb84baeb85a91805af6390da608cffa71a8f66d4",
}


def test_seeded_store_files_are_pinned(system, tmp_path):
    """The log line and snapshot formats are fixed byte for byte.

    Two batches (the second without a secret entry) are logged and
    snapshotted, a third is logged after the snapshot; the store is then
    reopened (log replay, then the snapshot's order) and snapshotted again.
    """
    import hashlib

    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    for i, blocks in enumerate((("alpha", "beta", "gamma"), ("x", "y"), ("p", "q", "r"))):
        rows, secret, rosters = make_batch(
            suite, pp, rng, blocks=blocks, entry_id="entry-%d" % i,
            roster_ref="batch-%d" % i,
        )
        assert db.ingest(rows, secret if i != 1 else None, rosters=rosters, rng=rng).accepted
        if i == 1:
            db.save_snapshot()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("log.jsonl", "snapshot.json")
    }
    TenonDb(pp, root=tmp_path).save_snapshot()
    digests["reopened snapshot.json"] = hashlib.sha256(
        (tmp_path / "snapshot.json").read_bytes()
    ).hexdigest()
    assert digests == PINNED_STORE_FILES
