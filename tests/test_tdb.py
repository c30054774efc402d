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
               roster_ref="batch-1", label="clinical", timestamp=1_700_000_000, keys=None):
    """A correctly signed batch: one chain of open rows plus one secret,
    signed under ``keys`` (a :func:`sign_keys` pair) or fresh keys."""
    sks, roster = keys or sign_keys(suite, rng)
    pp_bytes = pp.encode()
    structure = tenon.build_structure(list(blocks), rng)
    rows = []
    for t in structure.triples:
        (sig,), _ = musig.cosign(suite, sks, [tdb.row_digest(pp_bytes, t, timestamp)], rng)
        rows.append(OpenRow(
            pointer=t.pointer, block=t.block, next=t.next, sig=sig,
            roster_ref=roster_ref, timestamp=timestamp,
        ))
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    ct = mlabe.encrypt(pp, {1: b"\x01" + structure.head.bytes}, tree, rng)
    digest = tdb.entry_digest(pp_bytes, entry_id, label, mlabe.ct_canonical_bytes(ct), timestamp)
    (sig,), _ = musig.cosign(suite, sks, [digest], rng)
    secret = SecretEntry(
        entry_id=entry_id, ciphertext=ct, sig=sig,
        roster_ref=roster_ref, access_label=label, timestamp=timestamp,
    )
    return rows, secret, roster


def test_ingest_accepts_valid_batch(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(suite, pp, rng)
    result = db.ingest(rows, secret, roster=roster, rng=rng)
    assert result.accepted
    assert result.reason is None
    assert len(db.read_open()) == 3
    assert db.secret_ids() == ("entry-1",)
    assert db.roster("batch-1") == roster


def test_rows_only_batch(system):
    """A batch is one agreement: rows without their entry are refused."""
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, _, roster = make_batch(suite, pp, rng)
    r = db.ingest(rows, None, roster=roster, rng=rng)
    assert not r.accepted and r.reason == "batch has no entry"
    assert db.read_open() == () and db.secret_ids() == ()


def test_gate_rejects_each_defect(large_system):
    suite, pp, _, rng = large_system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(suite, pp, rng)

    # tampered block text
    bad = [replace(rows[0], block=rows[0].block + "!")] + rows[1:]
    r = db.ingest(bad, secret, roster=roster, rng=rng)
    assert not r.accepted and "signature invalid" in r.reason

    # tampered timestamp, which the batch states once, in its entry
    bad = [replace(row, timestamp=row.timestamp + 1) for row in rows]
    r = db.ingest(bad, replace(secret, timestamp=secret.timestamp + 1), roster=roster, rng=rng)
    assert not r.accepted and "signature invalid" in r.reason

    # a row under a roster other than its entry's
    bad = [replace(rows[0], roster_ref="nobody")] + rows[1:]
    r = db.ingest(bad, secret, roster=roster, rng=rng)
    assert not r.accepted and "roster 'nobody' is not its entry's" in r.reason

    # an entry under a roster other than its rows'
    bad = replace(secret, roster_ref="nobody")
    r = db.ingest(rows, bad, roster=roster, rng=rng)
    assert not r.accepted and "roster 'batch-1' is not its entry's" in r.reason

    # duplicate pointer inside the batch
    r = db.ingest(rows + [rows[0]], secret, roster=roster, rng=rng)
    assert not r.accepted and "already present" in r.reason

    # tampered ciphertext under the secret's signature
    other = make_batch(suite, pp, rng, entry_id="entry-1", roster_ref="batch-1")[1]
    forged = replace(secret, ciphertext=other.ciphertext)
    r = db.ingest(rows, forged, roster=roster, rng=rng)
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
    _, entry, _ = make_batch(suite, pp, rng, entry_id="r", roster_ref="r", timestamp=7,
                             keys=(sks, roster))
    pointer = tenon.make_pointer(rng)
    digest = tdb.signed_digest("block", payload, pointer.bytes, pp.encode(), 7)
    (sig,), _ = musig.cosign(suite, sks, [digest], rng)
    row = OpenRow(pointer, "x", None, sig, "r", 7)

    db = TenonDb(pp, root=tmp_path)
    r = db.ingest([row], entry, roster=roster, rng=rng)
    assert not r.accepted
    assert r.reason == "row 0 (pointer %s): signature invalid" % pointer
    assert db.read_open() == () and not (tmp_path / "log.jsonl").exists()

    # a log line that holds such a row fails the load, named by its number
    rows, secret, roster = make_batch(suite, pp, rng)
    assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
    line = canonical_json(tdb.batch_to_json(pp, [row], entry, roster))
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
    # the roster is refused before any signature is checked, the entry's too
    _, entry, _ = make_batch(suite, pp, rng, blocks=("e",), roster_ref="forged", timestamp=7)
    db = TenonDb(pp)
    r = db.ingest([row], entry, roster=roster, rng=rng)
    assert not r.accepted
    assert r.reason == "roster 'forged': %s" % problem
    assert db.read_open() == ()


def test_rejected_batch_after_accept_changes_nothing(large_system):
    suite, pp, _, rng = large_system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(suite, pp, rng)
    assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
    open_rows, entry_ids, order = db.read_open(), db.secret_ids(), db.order_digest()

    rows2, secret2, roster2 = make_batch(
        suite, pp, rng, blocks=("x", "y"), entry_id="entry-2", roster_ref="batch-2"
    )
    bad = [replace(rows2[0], block=rows2[0].block + "!")] + rows2[1:]
    assert not db.ingest(bad, secret2, roster=roster2, rng=rng).accepted

    assert db.read_open() == open_rows
    assert db.secret_ids() == entry_ids
    assert db.order_digest() == order


def test_duplicate_entry_id_rejected(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(suite, pp, rng)
    assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
    rows2, secret2, roster2 = make_batch(
        suite, pp, rng, blocks=("p", "q"), entry_id="entry-1", roster_ref="batch-2"
    )
    r = db.ingest(rows2, secret2, roster=roster2, rng=rng)
    assert not r.accepted and "already present" in r.reason


def test_read_secret_label_gate(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(suite, pp, rng, label="clinical")
    assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
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
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)
    row = db.find_row(rows[1].pointer)
    assert row == rows[1]
    assert row.block == "beta" and row.next == rows[2].pointer
    assert db.find_row(tenon.make_pointer(rng)) is None


def test_shuffle_preserves_multiset_and_changes_order(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(
        suite, pp, rng, blocks=("a", "b", "c", "d", "e")
    )
    db.ingest(rows, secret, roster=roster, rng=rng)
    want = Counter(r.pointer for r in rows)
    for _ in range(50):
        before = db.order_digest()
        db.shuffle(rng)
        assert Counter(r.pointer for r in db.read_open()) == want
        assert db.order_digest() != before


def test_shuffle_two_rows_always_flips(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(suite, pp, rng, blocks=("a", "b"))
    db.ingest(rows, secret, roster=roster, rng=rng)
    for _ in range(100):
        order = [r.pointer for r in db.read_open()]
        db.shuffle(rng)
        assert [r.pointer for r in db.read_open()] == order[::-1]


def test_shuffle_single_row_is_noop(system):
    suite, pp, _, rng = system
    db = TenonDb(pp)
    rows, secret, roster = make_batch(suite, pp, rng, blocks=("only",))
    db.ingest(rows, secret, roster=roster, rng=rng)
    before = db.order_digest()
    db.shuffle(rng)
    assert db.order_digest() == before


# ----------------------------------------------------------------------
# persistence


def test_log_replay_restores_state(system, tmp_path):
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)
    rows2, secret2, roster2 = make_batch(
        suite, pp, rng, blocks=("x", "y"), entry_id="entry-2", roster_ref="batch-2"
    )
    db.ingest(rows2, secret2, roster=roster2, rng=rng)

    again = TenonDb(pp, root=tmp_path)
    assert {r.pointer for r in again.read_open()} == {
        r.pointer for r in db.read_open()
    }
    assert again.secret_ids() == db.secret_ids()
    assert again.roster("batch-1") == roster
    got = again.read_secret("entry-1", "clinical")
    assert mlabe.ct_canonical_bytes(got.ciphertext) == mlabe.ct_canonical_bytes(
        secret.ciphertext
    )


def test_opening_a_missing_store_creates_nothing(system, tmp_path):
    """Opening a store only reads it: a missing path opens as an empty
    store and stays missing, a batch the gate refuses before it writes
    makes nothing either, and the first accepted ingest makes the
    directory."""
    suite, pp, _, rng = system
    root = tmp_path / "missing" / "store"
    db = TenonDb(pp, root=root)
    assert (db.read_open(), db.secret_ids()) == ((), ())
    rows, secret, roster = make_batch(suite, pp, rng)
    assert not db.ingest(rows, None, roster, rng=rng).accepted
    assert list(tmp_path.iterdir()) == []
    assert db.ingest(rows, secret, roster, rng=rng).accepted
    assert TenonDb(pp, root=root).secret_ids() == ("entry-1",)


def test_snapshot_plus_tail_replay(system, tmp_path):
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)
    db.save_snapshot()
    rows2, secret2, roster2 = make_batch(
        suite, pp, rng, blocks=("x", "y"), entry_id="entry-2", roster_ref="batch-2"
    )
    db.ingest(rows2, secret2, roster=roster2, rng=rng)  # after the snapshot

    again = TenonDb(pp, root=tmp_path)
    assert len(again.read_open()) == 5
    assert again.secret_ids() == ("entry-1", "entry-2")
    # snapshot preserves the shuffled storage order it captured
    db.save_snapshot()
    third = TenonDb(pp, root=tmp_path)
    assert [r.pointer for r in third.read_open()] == [
        r.pointer for r in db.read_open()
    ]


def test_rejected_ingest_leaves_files_untouched(large_system, tmp_path):
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)
    db.save_snapshot()
    log_bytes = (tmp_path / "log.jsonl").read_bytes()
    snap_bytes = (tmp_path / "snapshot.json").read_bytes()

    rows2, secret2, roster2 = make_batch(
        suite, pp, rng, blocks=("x",), entry_id="entry-2", roster_ref="batch-2"
    )
    bad = [replace(rows2[0], block=rows2[0].block + "!")]
    assert not db.ingest(bad, secret2, roster=roster2, rng=rng).accepted

    assert (tmp_path / "log.jsonl").read_bytes() == log_bytes
    assert (tmp_path / "snapshot.json").read_bytes() == snap_bytes


def _resigned(kwargs):
    return lambda suite, pp, rng: make_batch(suite, pp, rng, **kwargs)


def _edited(row=None, secret=None):
    """A batch signed as usual, then given other fields in its first row
    or its secret entry."""
    def build(suite, pp, rng):
        rows, entry, roster = make_batch(suite, pp, rng)
        if row:
            rows = [replace(rows[0], **row)] + rows[1:]
        if secret:
            entry = replace(entry, **secret)
        return rows, entry, roster
    return build


def _restated(**fields):
    """A batch signed as usual, then given other values of the fields its
    rows share with its entry, on every row and on the entry alike."""
    def build(suite, pp, rng):
        rows, entry, roster = make_batch(suite, pp, rng)
        return [replace(row, **fields) for row in rows], replace(entry, **fields), roster
    return build


def _unreduced_s(suite, pp, rng):
    """A batch whose first row's signature scalar is given as s + order:
    it verifies, but the log writes a scalar only below the order."""
    rows, entry, roster = make_batch(suite, pp, rng)
    sig = replace(rows[0].sig, s=rows[0].sig.s + suite.order)
    return [replace(rows[0], sig=sig)] + rows[1:], entry, roster


def _spaced_entry(suite, pp, rng):
    """An entry whose roster signed its ciphertext document with spaces,
    bytes that the log's canonical line does not carry."""
    sks, roster = sign_keys(suite, rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    ct = mlabe.encrypt(pp, {1: b"x"}, tree, rng)
    ct_bytes = json.dumps(mlabe.ct_to_json(ct), sort_keys=True).encode()
    digest = tdb.entry_digest(pp.encode(), "spaced", "c", ct_bytes, 7)
    (sig,), _ = musig.cosign(suite, sks, [digest], rng)
    entry = SecretEntry("spaced", ct, sig, "spaced", "c", 7, ct_bytes=ct_bytes)
    return [], entry, roster


@pytest.mark.parametrize(
    "build, reason",
    [
        (_resigned({"timestamp": True}), r"^malformed secret entry: expected int, found bool$"),
        (_resigned({"label": 5}), r"^malformed secret entry: expected str, found int$"),
        (_resigned({"entry_id": 7}), r"^malformed secret entry: expected str, found int$"),
        (_restated(roster_ref=("batch-1",)), r"^malformed secret entry: expected str, found list$"),
        (_restated(timestamp=-1), r"^malformed secret entry: timestamp -1 does not fit 8 bytes$"),
        # the encoder refuses this one before any line exists to decode
        (_edited(row={"block": b"alpha"}),
         r"^row 0: malformed row: Object of type bytes is not JSON serializable$"),
        (_edited(row={"next": "beta"}), r"^row 0: malformed row: badly formed hexadecimal UUID"),
        (_restated(timestamp=1 << 64), r"^malformed secret entry: timestamp \d+ does not fit"),
        # replay would key this roster 5, so a later 5 could bind other keys
        (_restated(roster_ref=5), r"^malformed secret entry: expected str, found int$"),
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
    rows, secret, roster = build(suite, pp, rng)
    log_bytes = (tmp_path / "log.jsonl").read_bytes()
    r = db.ingest(rows, secret, roster=roster, rng=rng)
    assert not r.accepted
    assert re.search(reason, r.reason), r.reason
    assert (tmp_path / "log.jsonl").read_bytes() == log_bytes
    assert TenonDb(pp, root=tmp_path).secret_ids() == ("first",)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("roster_ref", "nobody", "roster 'nobody' is not its entry's"),
        ("roster_ref", "first", "roster 'first' is not its entry's"),
        ("timestamp", 1, "timestamp 1 is not its entry's"),
    ],
    ids=["unknown-ref", "another-entry's-ref", "timestamp"],
)
def test_encoder_refuses_a_row_unlike_its_entry(large_system, tmp_path, field, value, reason):
    """A batch line states its roster ref and timestamp once, in its
    entry, so the encoder refuses a row with another ref or timestamp,
    naming the row by its index and pointer, before any line exists."""
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    assert db.ingest(*make_batch(suite, pp, rng, entry_id="first", roster_ref="first"),
                     rng=rng).accepted
    log_bytes = (tmp_path / "log.jsonl").read_bytes()
    rows, secret, roster = _second(suite, pp, rng)
    rows[1] = replace(rows[1], **{field: value})
    where = "row 1 (pointer %s): %s" % (rows[1].pointer, reason)
    with pytest.raises(TdbError) as err:
        tdb.batch_to_json(pp, rows, secret, roster)
    assert str(err.value) == where
    r = db.ingest(rows, secret, roster=roster, rng=rng)
    assert not r.accepted and r.reason == where
    assert (tmp_path / "log.jsonl").read_bytes() == log_bytes


@pytest.mark.parametrize("bad", ["int-key", "right-key", "not-a-row"])
def test_gate_refuses_a_roster_key_or_row_of_the_wrong_kind(system, tmp_path, bad):
    """A roster item that is not a left element of the store's suite, or a
    row that is not an :class:`OpenRow`, is refused by its index, not
    raised, and the store's files do not change."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    assert db.ingest(*make_batch(suite, pp, rng, entry_id="first", roster_ref="first"),
                     rng=rng).accepted
    rows, secret, roster = make_batch(suite, pp, rng, entry_id="second", roster_ref="second")
    if bad == "int-key":
        roster, reason = (roster[0], 5), "roster key 1: not a left element of %s" % suite.name
    elif bad == "right-key":
        roster = (suite.right_generator ** 3,) + roster[1:]
        reason = "roster key 0: not a left element of %s" % suite.name
    else:
        rows[2] = tenon.Triple(rows[2].pointer, rows[2].block, rows[2].next)
        reason = "row 2: not an open row"
    files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    r = db.ingest(rows, secret, roster=roster, rng=rng)
    assert not r.accepted and r.reason == reason
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == files
    assert TenonDb(pp, root=tmp_path).secret_ids() == ("first",)


def test_a_line_made_under_other_parameters_is_refused_as_such(system, tmp_path, monkeypatch):
    """Each line names the public parameters it was made under, so a store
    opened under others is refused as such before a row is decoded or a
    signature checked, and a batch made under others is refused too."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    assert db.ingest(*make_batch(suite, pp, rng), rng=rng).accepted
    other, _ = mlabe.setup(suite, rng)
    log_bytes = (tmp_path / "log.jsonl").read_bytes()
    monkeypatch.setattr(musig, "verify_batch", None)  # never reached
    monkeypatch.setattr(tdb, "row_from_json", None)
    with pytest.raises(TdbError, match=r"^log line 1: made under other public parameters$"):
        TenonDb(other, root=tmp_path)
    monkeypatch.undo()
    batch = tdb.batch_to_json(other, *make_batch(suite, other, rng, entry_id="e", roster_ref="e"))
    with pytest.raises(tdb.OtherParamsError, match=r"^made under other public parameters$"):
        tdb.batch_from_json(pp, batch)
    assert (tmp_path / "log.jsonl").read_bytes() == log_bytes
    assert TenonDb(pp, root=tmp_path).secret_ids() == ("entry-1",)


def test_store_of_the_earlier_line_format_fails_at_open(system, tmp_path):
    """A line of the earlier format, a ``rosters`` map with the roster ref
    and timestamp on every row, is refused at open by its line number, so
    the store never loads in part."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    for i in (1, 2):
        batch = make_batch(suite, pp, rng, entry_id="entry-%d" % i, roster_ref="batch-%d" % i)
        assert db.ingest(*batch, rng=rng).accepted
    log = tmp_path / "log.jsonl"
    first, second = log.read_text().splitlines()
    for lines, number in (([second], 1), ([first, second], 2)):
        doc = json.loads(lines[-1])
        ref, t = doc["secret"]["roster_ref"], doc["secret"]["t"]
        old = {
            "rows": [dict(row, roster_ref=ref, t=t) for row in doc["rows"]],
            "secret": doc["secret"],
            "rosters": {ref: doc["roster"]},
        }
        log.write_text("".join(line + "\n" for line in lines[:-1] + [json.dumps(old)]))
        earlier = r'written in the earlier line format \("rosters"\); rebuild the store'
        with pytest.raises(TdbError, match=r"^log line %d: %s$" % (number, earlier)):
            TenonDb(pp, root=tmp_path)


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
    rows, secret, roster = make_batch(suite, pp, rng)
    assert TenonDb(pp, root=tmp_path).ingest(rows, secret, roster=roster, rng=rng).accepted

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
        rows, secret, roster = make_batch(
            suite, pp, rng, blocks=("block",), entry_id="entry-%d" % i, roster_ref="batch-%d" % i)
        assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
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
    """On bn256, where a decoded leaf keeps about 23 KB of prepared Miller
    lines, reading 8 entries of an open store retains no more memory than
    reading 2, within 16 KB (tracemalloc)."""
    rng = random.Random(0x1B5)
    pp, msk = mlabe.setup(bn256, rng)
    key = mlabe.keygen(pp, msk, ["a"], rng)
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
    assert two > 2 * 20_000  # the two entries' lines are held
    assert eight <= two + 16 * 1024, (two, eight)


def _entry_with_unsigned_bundle(suite, pp, rng, entry_id="e"):
    """An entry whose ``ciphertext`` is not the ``ct_bytes`` its roster
    signed; returns the entry, its roster and the signed bytes."""
    sks, roster = sign_keys(suite, rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    unsigned, signed = (mlabe.encrypt(pp, {1: m}, tree, rng) for m in (b"unsigned", b"signed"))
    ct_bytes = mlabe.ct_canonical_bytes(signed)
    digest = tdb.entry_digest(pp.encode(), entry_id, "clinical", ct_bytes, 7)
    (sig,), _ = musig.cosign(suite, sks, [digest], rng)
    entry = SecretEntry(entry_id, unsigned, sig, entry_id, "clinical", 7, ct_bytes=ct_bytes)
    return entry, roster, ct_bytes


def test_live_store_reads_the_ciphertext_its_roster_signed(large_system, tmp_path):
    """The gate stores an entry as the bytes its roster signed, not as the
    bundle it was handed: the live store reads what a reopen reads."""
    suite, pp, _, rng = large_system
    entry, roster, ct_bytes = _entry_with_unsigned_bundle(suite, pp, rng)
    db = TenonDb(pp, root=tmp_path)
    assert db.ingest([], entry, roster=roster, rng=rng).accepted
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
        ([], entry, roster),
    ]
    db = TenonDb(pp, root=tmp_path)
    for rows, secret, roster in batches:
        assert db.ingest(rows, secret, roster=roster, rng=rng).accepted

    def view(store):
        rows = {row.pointer: row for row in store.read_open()}
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
    (sig,), _ = musig.cosign(suite, sks, [digest], rng)
    batch = {
        "pp": b64(pp.fingerprint()),
        "roster": [b64(vk.encode()) for vk in roster],
        "rows": [],
        "secret": {"entry_id": "bad", "ciphertext": doc, "sig": musig.sig_to_json(suite, sig),
                   "roster_ref": "r", "access_label": "clinical", "t": 7},
    }
    # the gate decodes in full and refuses it, as it refuses any batch
    result = TenonDb(pp).ingest(*tdb.batch_from_json(pp, batch))
    assert not result.accepted
    assert result.reason.startswith("malformed ciphertext of secret entry 'bad'")

    store = tmp_path / "store"
    store.mkdir()
    (store / "log.jsonl").write_text(json.dumps(batch, sort_keys=True, separators=(",", ":")) + "\n")
    db = TenonDb(pp, root=store)
    assert db.secret_ids() == ("bad",)
    entry = db.read_secret("bad", "clinical")
    assert musig.verify(suite, entry.sig, roster, tdb.entry_digest(
        pp.encode(), entry.entry_id, entry.access_label, entry.ct_bytes, entry.timestamp))
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
    rows, secret, roster = tdb.batch_from_json(pp, batch_doc)
    res = db.ingest(rows, secret, roster=roster)
    results.put((res.accepted, res.reason))


def test_second_writer_waits_then_sees_the_first(system, tmp_path):
    """Two processes open the store and both ingest an entry with the same
    id.  Opening takes no lock; a writer waits for the store's write lock,
    then replays what the other appended, so the second batch is refused
    and the store still opens."""
    suite, pp, _, rng = system
    docs = [
        tdb.batch_to_json(pp, *make_batch(suite, pp, rng, roster_ref=ref))
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


def test_a_refused_batch_takes_no_lock(large_system, tmp_path, monkeypatch):
    """The gate checks a batch before it takes the write lock: a refused
    batch never calls ``flock``, into a new path or into a store, and the
    new path is not made."""
    suite, pp, _, rng = large_system
    store = tmp_path / "store"
    db = TenonDb(pp, root=store)
    assert db.ingest(*make_batch(suite, pp, rng), rng=rng).accepted
    rows, secret, roster = make_batch(
        suite, pp, rng, blocks=("x", "y"), entry_id="entry-2", roster_ref="batch-2")
    bad = [replace(rows[0], block=rows[0].block + "!")] + rows[1:]
    locks = []
    monkeypatch.setattr(fcntl, "flock", lambda *args: locks.append(args))
    fresh = tmp_path / "fresh"
    for target in (TenonDb(pp, root=fresh), db):
        r = target.ingest(bad, secret, roster=roster, rng=rng)
        assert not r.accepted and r.reason.endswith("signature invalid")
    assert locks == []
    assert not fresh.exists()


def test_two_stores_on_one_root_admit_one_claim_of_a_roster_ref(system, tmp_path):
    """Two store objects on one root each pass the gate with a batch that
    claims one roster ref.  The second, catching up under the lock on the
    first's line, checks its batch again and refuses it."""
    suite, pp, _, rng = system
    a, b = TenonDb(pp, root=tmp_path), TenonDb(pp, root=tmp_path)
    first = make_batch(suite, pp, rng, roster_ref="shared")
    second = make_batch(
        suite, pp, rng, blocks=("p", "q"), entry_id="entry-2", roster_ref="shared")
    assert a.ingest(*first, rng=rng).accepted
    r = b.ingest(*second, rng=rng)
    assert not r.accepted and r.reason == "roster 'shared' already present"
    for db in (a, b, TenonDb(pp, root=tmp_path)):
        assert db.secret_ids() == ("entry-1",)
    assert len((tmp_path / "log.jsonl").read_text().splitlines()) == 1


def test_a_writer_that_catches_up_reshuffles(large_system, tmp_path):
    """A store object that shuffles and saves after another object
    ingested a batch replays that batch first; the order it saves is not
    its own order followed by the new rows in chain order."""
    suite, pp, _, rng = large_system
    blocks = ("one", "two", "three", "four", "five")
    first = make_batch(suite, pp, rng, blocks=blocks)
    writer = TenonDb(pp, root=tmp_path)
    assert writer.ingest(*first[:2], roster=first[2], rng=rng).accepted
    writer.save_snapshot()
    a = TenonDb(pp, root=tmp_path)
    b = TenonDb(pp, root=tmp_path)
    rows, secret, roster = make_batch(
        suite, pp, rng, blocks=blocks, entry_id="entry-2", roster_ref="batch-2")
    assert b.ingest(rows, secret, roster=roster, rng=rng).accepted
    b.save_snapshot()
    a.shuffle(rng)  # as ``etenon shuffle`` does
    mine = [row.pointer for row in a.read_open()]
    a.save_snapshot()
    saved = [row.pointer for row in TenonDb(pp, root=tmp_path).read_open()]
    assert len(saved) == 10
    assert sorted(saved, key=str) == sorted(mine + [row.pointer for row in rows], key=str)
    assert saved != mine + [row.pointer for row in rows]


def test_tampered_log_fails_load(large_system, tmp_path):
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)

    log = tmp_path / "log.jsonl"
    genuine = log.read_text()
    doc = json.loads(genuine)
    doc["secret"]["t"] += 1
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
    rows, secret, roster = make_batch(bn256, pp, rng, blocks=["b%d" % i for i in range(20)])
    forged = list(rows)
    forged[13] = replace(rows[13], sig=rows[5].sig)
    r = db.ingest(forged, secret, roster=roster, rng=rng)
    assert r.reason == "row 13 (pointer %s): signature invalid" % rows[13].pointer
    r = db.ingest(rows, replace(secret, sig=rows[0].sig), roster=roster, rng=rng)
    assert r.reason == "secret entry 'entry-1': signature invalid"
    assert not (tmp_path / "log.jsonl").exists()
    assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
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


@pytest.mark.parametrize("forged", [(0,), (100,), (199,), (60, 140)],
                         ids=["first", "middle", "last", "two"])
def test_gate_names_the_first_forged_row_among_200(large_system, tmp_path, forged):
    """Among 200 row signatures, checked in one run, the gate names the
    first forged row and stores nothing."""
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, roster = make_batch(suite, pp, rng, blocks=["b%d" % i for i in range(200)])
    bad = list(rows)
    for i in forged:
        bad[i] = replace(rows[i], sig=rows[i - 1].sig)
    r = db.ingest(bad, secret, roster=roster, rng=rng)
    first = forged[0]
    assert r.reason == "row %d (pointer %s): signature invalid" % (first, rows[first].pointer)
    assert not (tmp_path / "log.jsonl").exists()
    assert db.read_open() == ()


def _spy_batches(monkeypatch):
    """Record the (m, d, exponentiations) of every ``musig.verify_batch``
    call: its signatures, the distinct keys of their rosters and the
    exponentiations it counted."""
    calls = []
    real = musig.verify_batch

    def spy(suite, items):
        with suite.measure() as span:
            ok = real(suite, items)
        keys = {vk.encode() for _, roster, _ in items for vk in roster}
        calls.append((len(items), len(keys), span.exponentiations))
        return ok

    monkeypatch.setattr(musig, "verify_batch", spy)
    return calls


def _line_batches(suite, pp, rng, count):
    """``count`` batches of two rows and an entry, each under its own roster."""
    return [
        make_batch(suite, pp, rng, blocks=("a%d" % i, "b%d" % i), entry_id="entry-%d" % i,
                   roster_ref="batch-%d" % i)
        for i in range(1, count + 1)
    ]


def test_open_checks_every_line_in_one_batch(system, tmp_path, monkeypatch):
    """A replay checks the signatures of all its lines in one batch of m
    signatures over d keys, m + d exponentiations, and a batch closes at
    ``tdb.BATCH_SIGNATURES`` signatures."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    for batch in _line_batches(suite, pp, rng, 3):
        assert db.ingest(*batch, rng=rng).accepted
    db.save_snapshot()
    calls = _spy_batches(monkeypatch)
    reopened = TenonDb(pp, root=tmp_path)
    [(m, d, exps)] = calls
    assert m == 9 and exps == m + d
    assert reopened.read_open() == db.read_open()
    assert reopened.secret_ids() == db.secret_ids()

    # three lines of 3 signatures: 9 signatures in runs of 4, across lines
    monkeypatch.setattr(tdb, "BATCH_SIGNATURES", 4)
    calls.clear()
    assert TenonDb(pp, root=tmp_path).read_open() == db.read_open()
    assert [m for m, _, _ in calls] == [4, 4, 1]
    assert all(exps == m + d for m, d, exps in calls)


def test_replay_refuses_a_line_whose_run_spans_lines(large_system, tmp_path, monkeypatch):
    """With runs of 4 signatures over lines of 3, the run that fails holds
    line 1's signatures and line 2's first: a writer catching up, after
    the gate checked its own batch, names line 2's forged row, rescans
    only that run, and holds line 1."""
    suite, pp, _, rng = large_system
    monkeypatch.setattr(tdb, "BATCH_SIGNATURES", 4)
    batches = _line_batches(suite, pp, rng, 4)
    a = TenonDb(pp, root=tmp_path)
    b = TenonDb(pp, root=tmp_path)
    for batch in batches[:3]:
        assert b.ingest(*batch, rng=rng).accepted
    log = tmp_path / "log.jsonl"
    docs = [json.loads(text) for text in log.read_text().splitlines()]
    _forge_row(docs, 1)
    log.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    calls = _spy_batches(monkeypatch)
    with pytest.raises(TdbError) as err:
        a.ingest(*batches[3], rng=rng)
    pointer = docs[1]["rows"][0]["pointer"]
    assert str(err.value) == "log line 2: row 0 (pointer %s): signature invalid" % pointer
    # its own batch, then the failed run and that run one by one
    assert [m for m, _, _ in calls] == [3, 4, 1, 1, 1, 1]
    assert a.secret_ids() == ("entry-1",)
    assert len(a.read_open()) == 2


def _repeat_pointer(docs, i, j):
    """Line i's first row takes the pointer of line j's first row."""
    docs[i]["rows"][0]["pointer"] = docs[j]["rows"][0]["pointer"]


def _forge_row(docs, i, row=0):
    docs[i]["rows"][row]["text"] += "!"


@pytest.mark.parametrize(
    "edit, line, reason",
    [
        (lambda docs: _forge_row(docs, 0), 1, "row 0 (pointer {0[0]}): signature invalid"),
        (lambda docs: _forge_row(docs, 2, 1), 3, "row 1 (pointer {2[1]}): signature invalid"),
        (lambda docs: _repeat_pointer(docs, 2, 0), 3, "row 0 (pointer {0[0]}): pointer already present"),
        (lambda docs: (_forge_row(docs, 1), _repeat_pointer(docs, 2, 0)), 2,
         "row 0 (pointer {1[0]}): signature invalid"),
        (lambda docs: docs[1]["secret"].update(access_label="public"), 2,
         "secret entry 'entry-2': signature invalid"),
    ],
    ids=["forged-first", "forged-last", "repeated-pointer", "forged-then-repeat", "entry-edit"],
)
def test_replay_refusal_names_the_first_bad_line(large_system, tmp_path, edit, line, reason):
    """A replay that fails its one batch names the line and row that a
    replay line by line names."""
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    for batch in _line_batches(suite, pp, rng, 3):
        assert db.ingest(*batch, rng=rng).accepted
    log = tmp_path / "log.jsonl"
    docs = [json.loads(text) for text in log.read_text().splitlines()]
    pointers = [[row["pointer"] for row in doc["rows"]] for doc in docs]
    edit(docs)
    log.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    with pytest.raises(TdbError) as err:
        TenonDb(pp, root=tmp_path)
    assert str(err.value) == "log line %d: %s" % (line, reason.format(*pointers))


def _second(suite, pp, rng, entry_id="second", roster_ref="second"):
    return make_batch(suite, pp, rng, blocks=("delta", "epsilon", "zeta"),
                      entry_id=entry_id, roster_ref=roster_ref)


def _forged_at(i, field):
    """The second batch with row i's block edited, or given another row's
    signature."""
    def build(suite, pp, rng, first):
        rows, secret, roster = _second(suite, pp, rng)
        edit = {"block": rows[i].block + "!", "sig": rows[i - 1].sig}[field]
        rows[i] = replace(rows[i], **{field: edit})
        return rows, secret, roster
    return build


def _replayed_pointer(suite, pp, rng, first):
    """The second batch, led by a row of the first restated under its ref."""
    rows, secret, roster = _second(suite, pp, rng)
    return [replace(first[0][1], roster_ref=secret.roster_ref)] + rows, secret, roster


def _no_entry(suite, pp, rng, first):
    rows, _, roster = _second(suite, pp, rng)
    return rows, None, roster


def _reused_roster(suite, pp, rng, first):
    """A batch under the first batch's ref, restating that roster's keys;
    the ref is refused before any signature is checked."""
    rows, secret, _ = _second(suite, pp, rng, roster_ref="first")
    return rows, secret, first[2]


def _log_line(pp, rows, secret, roster) -> bytes:
    """The log line of a batch, also of one without its entry, which the
    store's encoder never writes."""
    doc = {
        "pp": b64(pp.fingerprint()),
        "roster": [b64(vk.encode()) for vk in roster],
        "rows": [tdb.row_to_json(pp.suite, row) for row in rows],
        "secret": None if secret is None else tdb.secret_to_json(pp.suite, secret),
    }
    return canonical_json(doc)


POINTER = r"\(pointer [0-9a-f-]{36}\)"


@pytest.mark.parametrize(
    "build, reason",
    [
        (_forged_at(0, "block"), r"row 0 %s: signature invalid" % POINTER),
        (_forged_at(2, "sig"), r"row 2 %s: signature invalid" % POINTER),
        (_replayed_pointer, r"row 0 %s: pointer already present" % POINTER),
        (lambda suite, pp, rng, first: _second(suite, pp, rng, roster_ref="first"),
         r"roster 'first' already present"),
        (_reused_roster, r"roster 'first' already present"),
        (_no_entry, r"batch has no entry"),
        (lambda suite, pp, rng, first: _second(suite, pp, rng, entry_id="first"),
         r"secret entry 'first': entry id already present"),
    ],
    ids=["forged-row-0", "forged-row-2", "replayed-pointer", "redefined-roster",
         "reused-roster-same-keys", "no-entry", "reused-entry-id"],
)
def test_gate_and_replay_refuse_a_line_alike(large_system, tmp_path, build, reason):
    """The gate refuses a batch with the words a reopen uses for the
    batch's log line, and a writer that catches up on that line holds
    what the live store holds."""
    suite, pp, _, rng = large_system
    live = TenonDb(pp, root=tmp_path / "live")
    first = make_batch(suite, pp, rng, entry_id="first", roster_ref="first")
    assert live.ingest(*first, rng=rng).accepted
    rows, secret, roster = build(suite, pp, rng, first)
    result = live.ingest(rows, secret, roster=roster, rng=rng)
    assert not result.accepted
    assert re.fullmatch(reason, result.reason), result.reason

    copy = tmp_path / "copy"
    copy.mkdir()
    (copy / "log.jsonl").write_bytes((tmp_path / "live" / "log.jsonl").read_bytes())
    behind = TenonDb(pp, root=copy)
    with open(copy / "log.jsonl", "ab") as fh:
        fh.write(_log_line(pp, rows, secret, roster) + b"\n")
    with pytest.raises(TdbError) as reopened:
        TenonDb(pp, root=copy)
    with pytest.raises(TdbError) as caught_up:
        behind.save_snapshot()
    assert str(reopened.value) == str(caught_up.value) == "log line 2: " + result.reason
    by_pointer = lambda row: row.pointer
    assert sorted(behind.read_open(), key=by_pointer) == sorted(live.read_open(), key=by_pointer)
    assert behind.secret_ids() == live.secret_ids() == ("first",)


@pytest.mark.parametrize("edited", [False, True], ids=["honest", "edited"])
def test_writer_catches_up_on_lines_in_one_batch(large_system, tmp_path, monkeypatch, edited):
    """A writer whose batch passed the gate replays what another store
    object appended, both lines in one batch, then checks its own batch
    again.  If the second of them was edited on disk, the writer refuses
    it by its log line and holds the lines before it."""
    suite, pp, _, rng = large_system
    batches = _line_batches(suite, pp, rng, 4)
    a = TenonDb(pp, root=tmp_path)
    assert a.ingest(*batches[0], rng=rng).accepted
    b = TenonDb(pp, root=tmp_path)
    for batch in batches[1:3]:
        assert b.ingest(*batch, rng=rng).accepted
    calls = _spy_batches(monkeypatch)
    if not edited:
        assert a.ingest(*batches[3], rng=rng).accepted
        # its own batch, lines 2 and 3, then its own batch again
        assert [m for m, _, _ in calls] == [3, 6, 3]
        assert a.secret_ids() == ("entry-1", "entry-2", "entry-3", "entry-4")
        return
    log = tmp_path / "log.jsonl"
    lines = log.read_text().splitlines()
    doc = json.loads(lines[2])
    doc["rows"][0]["text"] += "!"
    log.write_text("\n".join(lines[:2] + [json.dumps(doc)]) + "\n")
    where = "log line 3: row 0 (pointer %s): signature invalid" % doc["rows"][0]["pointer"]
    with pytest.raises(TdbError) as err:
        a.ingest(*batches[3], rng=rng)
    assert str(err.value) == where
    assert a.secret_ids() == ("entry-1", "entry-2")
    assert len(a.read_open()) == 4


def test_store_of_an_older_envelope_version_fails_at_open(system, tmp_path, monkeypatch):
    """Every version-4 document is refused: a store fails on its first line,
    not when an entry is first read."""
    suite, pp, _, rng = system
    with monkeypatch.context() as m:
        m.setattr(mlabe, "ENVELOPE_VERSION", 4)
        rows, secret, roster = make_batch(suite, pp, rng)
        db = TenonDb(pp, root=tmp_path)
        assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
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
    for rows, secret, roster in (a, b):
        assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
    log = tmp_path / "log.jsonl"
    data = log.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    rows, secret, roster = c
    for cut in range(last, len(data)):
        log.write_bytes(data[:cut])
        reopened = TenonDb(pp, root=tmp_path)
        assert reopened.read_open() == tuple(a[0]) and reopened.secret_ids() == ("a",)
        assert log.read_bytes() == data[:cut]
        assert reopened.ingest(rows, secret, roster=roster, rng=rng).accepted
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
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)
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
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)
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
        "rosters": {"batch-1": [b64(vk.encode()) for vk in roster]},
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


def test_snapshot_does_not_stand_in_for_the_log(large_system, tmp_path):
    """Every log line is replayed and re-verified, also the lines written
    before the snapshot was saved."""
    suite, pp, _, rng = large_system
    db = TenonDb(pp, root=tmp_path)
    rows, secret, roster = make_batch(suite, pp, rng)
    db.ingest(rows, secret, roster=roster, rng=rng)
    db.save_snapshot()
    log = tmp_path / "log.jsonl"
    genuine = log.read_text()

    doc = json.loads(genuine)
    doc["secret"]["t"] += 1
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
    """A batch may not restate a stored roster ref, with other keys or
    with the same ones, so every stored row keeps the roster it was
    signed under."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    keys = sign_keys(suite, rng)
    rows, secret, roster = make_batch(suite, pp, rng, keys=keys)
    assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
    for same_keys in (None, keys):
        rows2, secret2, roster2 = make_batch(
            suite, pp, rng, blocks=("p", "q"), entry_id="entry-2", roster_ref="batch-1",
            keys=same_keys,
        )
        r = db.ingest(rows2, secret2, roster=roster2, rng=rng)
        assert not r.accepted and r.reason == "roster 'batch-1' already present"
    assert db.roster("batch-1") == roster
    db.save_snapshot()
    reopened = TenonDb(pp, root=tmp_path)
    assert reopened.find_row(rows[0].pointer) == rows[0]
    assert reopened.roster("batch-1") == roster
    assert reopened.secret_ids() == ("entry-1",)


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda suite, pp, rng: ([], None, ()), "batch has no entry"),
        (lambda suite, pp, rng: ([], None, sign_keys(suite, rng)[1]), "batch has no entry"),
    ],
    ids=["empty", "roster-only"],
)
def test_a_batch_claims_only_the_rosters_it_signs_under(system, tmp_path, build, reason):
    """A batch without its entry, with or without a roster, is refused by
    the gate and by replay: the entry names the roster's ref, so no ref is
    claimed without a signature."""
    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    assert db.ingest(*make_batch(suite, pp, rng), rng=rng).accepted
    log = tmp_path / "log.jsonl"
    log_bytes = log.read_bytes()
    rows, secret, roster = build(suite, pp, rng)
    r = db.ingest(rows, secret, roster=roster, rng=rng)
    assert not r.accepted and r.reason == reason
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
        "lock": b"", "log.jsonl": log_bytes,
    }
    log.write_bytes(log_bytes + _log_line(pp, rows, secret, roster) + b"\n")
    with pytest.raises(TdbError, match=r"^log line 2: %s$" % re.escape(reason)):
        TenonDb(pp, root=tmp_path)


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
    rows, secret, roster = make_batch(other, pp7, rng)
    r = db.ingest([], secret, roster=roster, rng=rng)
    assert not r.accepted and "suite mismatch" in r.reason


def test_json_decoders_raise_only_tdb_errors(system):
    from etenon import tdb
    from etenon.codec import b64

    suite, pp, _, rng = system
    rows, secret, roster = make_batch(suite, pp, rng)
    row = tdb.row_to_json(suite, rows[0])
    entry = tdb.secret_to_json(suite, secret)
    batch = tdb.batch_to_json(pp, rows, secret, roster)
    # the well-formed documents round-trip; a row takes its entry's ref and time
    assert tdb.row_from_json(suite, row, secret) == rows[0]
    assert tdb.batch_from_json(pp, batch) == (rows, secret, roster)

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
        dict(row, junk="unsigned"),
        dict(row, sig=dict(row["sig"], junk="unsigned")),
        [row],
        None,
    ]
    for bad in bad_rows:
        with pytest.raises(TdbError):
            tdb.row_from_json(suite, bad, secret)
    bad_entries = [
        dict(entry, ciphertext={}),
        dict(entry, entry_id=None),
        dict(entry, access_label=["clinical"]),
        dict(entry, t=1.5),
        dict(entry, t=True),
        dict(entry, t=-1),
        dict(entry, t=1 << 64),
        {k: v for k, v in entry.items() if k != "t"},
        dict(entry, roster_ref=3),
        dict(entry, junk="unsigned"),
        "entry",
    ]
    for bad in bad_entries:
        with pytest.raises(TdbError):
            tdb.secret_from_json(suite, bad)
    bad_batches = [
        dict(batch, roster=["!!!"]),
        dict(batch, roster=[17]),
        dict(batch, roster="AAAA"),
        dict(batch, roster=[b64(b"\x00" * 99)]),
        dict(batch, roster={"batch-1": batch["roster"]}),
        dict(batch, pp="!!!"),
        dict(batch, pp=None),
        {k: v for k, v in batch.items() if k != "pp"},
        dict(batch, junk="unsigned"),
    ]
    for bad in bad_batches:
        with pytest.raises(TdbError):
            tdb.batch_from_json(pp, bad)


@pytest.mark.parametrize(
    "place, reason",
    [
        ("batch", "malformed batch: unknown keys ['junk']"),
        ("row", "row 0: malformed row: unknown keys ['junk']"),
        ("secret", "malformed secret entry: unknown keys ['junk']"),
    ],
    ids=["batch", "row", "secret"],
)
def test_a_log_line_with_an_unknown_field_stops_the_open(system, tmp_path, place, reason):
    """No signature covers a field the line format does not hold, so a
    log line edited to carry one, at the top, in a row or in the entry,
    stops the open, named by its line and by the field."""
    suite, pp, _, rng = system
    rows, secret, roster = make_batch(suite, pp, rng)
    assert TenonDb(pp, root=tmp_path).ingest(rows, secret, roster=roster, rng=rng).accepted
    log = tmp_path / "log.jsonl"
    doc = json.loads(log.read_text())
    {"batch": doc, "row": doc["rows"][0], "secret": doc["secret"]}[place]["junk"] = "unsigned"
    log.write_text(json.dumps(doc) + "\n")
    with pytest.raises(TdbError) as err:
        TenonDb(pp, root=tmp_path)
    assert str(err.value) == "log line 1: " + reason


# sha256 of the files a seeded mock store writes; see the test below
PINNED_STORE_FILES = {
    "log.jsonl": "e650237db2f2351627685a58c06e4dccf95ebbd27ac63626421ada1c87f01243",
    "snapshot.json": "29f7b8aca986cd41b20e20398311695af75209e099653f73afc3f46a5603ad70",
    "reopened snapshot.json": "6657744a398cbd515030fddc87bc8046559b5e6cf02a01aa13a6aed929dc096d",
}


def test_seeded_store_files_are_pinned(system, tmp_path):
    """The log line and snapshot formats are fixed byte for byte.

    Two batches are logged and snapshotted, a third is logged after the
    snapshot; the store is then reopened (log replay, then the snapshot's
    order) and snapshotted again.
    """
    import hashlib

    suite, pp, _, rng = system
    db = TenonDb(pp, root=tmp_path)
    for i, blocks in enumerate((("alpha", "beta", "gamma"), ("x", "y"), ("p", "q", "r"))):
        rows, secret, roster = make_batch(
            suite, pp, rng, blocks=blocks, entry_id="entry-%d" % i,
            roster_ref="batch-%d" % i,
        )
        assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
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


# what a roster co-signs, fixed byte for byte on fixed inputs
PINNED_DIGESTS = {
    "row with next": "c427d99e51ae4655400a4c65efcd87ec647ffd5fbdfe61f1675759e6bb881e78",
    "row without next": "b1bb90e887d1912c3a50525faffcb11f8ea21c1bef339be3e7fa0b608d20395a",
    "entry": "8fe23823234e63e69462b48b67d9a77f48ea9ff9d20093d796b6054753bb95e4",
}


def test_signed_digests_are_pinned():
    """The signed-row format is fixed: a row's and an entry's co-signed
    digests on fixed inputs, with and without a ``next`` pointer."""
    pp_bytes, t = b"public-params", 1_700_000_000
    first, last = tenon.Pointer(int=1), tenon.Pointer(int=2)
    digests = {
        "row with next": tdb.row_digest(pp_bytes, tenon.Triple(first, "fever since monday", last), t),
        "row without next": tdb.row_digest(pp_bytes, tenon.Triple(last, "ibuprofen", None), t),
        "entry": tdb.entry_digest(pp_bytes, "entry-1", "clinical", b'{"ct":1}', t),
    }
    assert {name: d.hex() for name, d in digests.items()} == PINNED_DIGESTS


def test_signed_digest_separates_kinds():
    block = dict(kind="block", payload=b"p", pointer=b"\x01" * 16, pp_bytes=b"pp", timestamp=7)
    a = tdb.signed_digest(**block)
    b = tdb.signed_digest(kind="ciphertext", payload=b"p", pointer=None, pp_bytes=b"pp",
                          timestamp=7)
    assert a != b
    assert a == tdb.signed_digest(**block)
    # every field participates in the digest
    assert a != tdb.signed_digest(**{**block, "payload": b"q"})
    assert a != tdb.signed_digest(**{**block, "pointer": b"\x02" * 16})
    assert a != tdb.signed_digest(**{**block, "pp_bytes": b"qq"})
    assert a != tdb.signed_digest(**{**block, "timestamp": 8})


def test_signed_digest_resists_field_splicing():
    """Moving bytes between adjacent fields must change the digest."""
    a = tdb.signed_digest(kind="block", payload=b"ab", pointer=b"c", pp_bytes=b"d", timestamp=1)
    b = tdb.signed_digest(kind="block", payload=b"a", pointer=b"bc", pp_bytes=b"d", timestamp=1)
    assert a != b
