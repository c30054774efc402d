"""Command-line front end.

Subcommands cover the deployment lifecycle: ``setup`` mints parameters,
``keygen`` issues a decryption key, ``ingest`` pushes a signed batch through
the verification gate, ``retrieve`` opens a store (verifying its log),
decrypts one entry and follows its chains, ``shuffle`` permutes the open
table, ``run-scenario`` drives a whole configured multi-party run, and
``bench`` times the primitives on a (levels, leaves, signers) grid
while checking the operation counts against the scheme's cost model,
then times the group operations underneath them one by one.

``bench`` prints one ``{"suite", "trials", "rows"}`` document whose
rows each carry their ``kind``: ``abe``, ``musig`` or ``layer``;
``--csv`` also writes the same rows as CSV.  It asserts that a
ciphertext has 2(k+l) elements, that an encryption takes 2(k+l)
exponentiations and k multiplications and a decryption 3k pairings,
and that a check of m signatures by n signers takes m + n
exponentiations; a count that disagrees is an error, so exit 0 means
every count held.  Every row of every kind gives ``ref_ms``, a
host-speed reference timed right before each of its trials.

Only ``ingest`` and ``run-scenario`` create a store directory,
``ingest`` only once the gate admits its batch; ``retrieve`` and ``shuffle``
refuse a path that holds no store log.  ``setup``, ``keygen`` and
``run-scenario`` check every output file before they write anything:
its directory must exist, and it must not be another of the command's
files (another output, an input, or a file inside ``--db`` or
``--keys``).
``--seed`` makes every key public, so ``setup``, ``keygen``, ``ingest``
and ``shuffle`` refuse it on a suite other than mock unless
``--insecure-seed`` is given too.
Everything speaks JSON on disk and on stdout; failures print a
machine-readable error object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import os
import random
import statistics
import sys
import time

from . import _bn256, mlabe, musig, policy, tdb, workflow
from .algebra import HASH_TABLE_AFTER, LEFT, RIGHT, TARGET, G0Element, get_suite, is_mock
from .codec import decoding, write_json
from .errors import EtenonError


class InputError(EtenonError):
    """An input file is missing, unreadable or not the expected JSON."""


def _load_json(path: str):
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    with fh, decoding(InputError, path):
        return json.load(fh)


def _existing_store(pp, path: str) -> tdb.TenonDb:
    """The store at ``path``, which must already hold a log: only
    ``ingest`` and ``run-scenario`` create a store, and a path with no
    log holds no rows to read or shuffle.  Opening a store writes
    nothing, so a refused path, or one only read, is left as it was."""
    if not os.path.exists(os.path.join(path, tdb.LOG_NAME)):
        raise InputError("no store at %s: it holds no %s" % (path, tdb.LOG_NAME))
    return tdb.TenonDb(pp, root=path)


def _writable(*outputs: str, inputs=(), dirs=()) -> None:
    """Refuse, before a command writes anything, an output file whose
    directory does not exist or that is a directory, with the error that
    writing it would raise; so a command that writes several files never
    leaves some of them without the rest.  Refuse too an output that
    would write over another of the command's files: one that resolves
    to another output or to one of ``inputs``, or that lies inside one
    of ``dirs``, the directories the command writes."""
    claimed = [(os.path.realpath(path), path) for path in inputs]
    for path in outputs:
        real = os.path.realpath(path)
        for other_real, other in claimed:
            if real == other_real:
                raise InputError("%s and %s are one file: one would write over the other"
                                 % (path, other))
        for directory in dirs:
            root = os.path.realpath(directory)
            if os.path.commonpath([real, root]) == root:
                raise InputError("%s lies inside %s, which the command writes" % (path, directory))
        claimed.append((real, path))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _rng(args, suite):
    """The generator that ``--seed`` asks for, or None.  A seed makes
    every key public, so on a suite other than mock it is refused unless
    ``--insecure-seed`` is given."""
    if args.seed is None:
        return None
    if not (is_mock(suite.name) or args.insecure_seed):
        raise InputError(
            "--seed makes every key public; on suite %s it needs --insecure-seed"
            % suite.name
        )
    return random.Random(args.seed)


def _positive(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError("expected a positive integer, found %r" % text)
    return int(text)


def _positives(text: str) -> list[int]:
    return [_positive(x) for x in text.split(",")]


# ----------------------------------------------------------------------
# subcommands


def cmd_setup(args) -> int:
    _writable(args.pp, args.msk)
    suite = get_suite(args.suite)
    pp, msk = mlabe.setup(suite, _rng(args, suite))
    write_json(args.pp, mlabe.pp_to_json(pp))
    write_json(args.msk, mlabe.msk_to_json(suite, msk), secret=True)
    _emit({"suite": suite.name, "pp": args.pp, "msk": args.msk})
    return 0


def cmd_keygen(args) -> int:
    _writable(args.out, inputs=(args.pp, args.msk))
    pp = mlabe.pp_from_json(_load_json(args.pp))
    msk = mlabe.msk_from_json(_load_json(args.msk), pp.suite)
    key = mlabe.keygen(pp, msk, args.attr, _rng(args, pp.suite))
    write_json(args.out, mlabe.key_to_json(pp.suite, key), secret=True)
    _emit({"attrs": sorted(key.attrs), "out": args.out})
    return 0


def cmd_ingest(args) -> int:
    pp = mlabe.pp_from_json(_load_json(args.pp))
    rng = _rng(args, pp.suite)
    batch = _load_json(args.batch)
    if not isinstance(batch, dict):
        raise InputError("batch must be a JSON object")
    db = tdb.TenonDb(pp, root=args.db)
    try:
        rows, secret, roster = tdb.batch_from_json(pp, batch)
    except tdb.OtherParamsError as exc:
        # refused as the gate refuses a batch
        result = tdb.IngestResult(accepted=False, reason=str(exc))
    else:
        result = db.ingest(rows, secret, roster, rng=rng)
    if result.accepted:
        db.save_snapshot()
    _emit(
        {
            "accepted": result.accepted,
            "reason": result.reason,
            "rows": len(db.read_open()),
            "secrets": len(db.secret_ids()),
        }
    )
    return 0 if result.accepted else 1


def cmd_retrieve(args) -> int:
    pp = mlabe.pp_from_json(_load_json(args.pp))
    key = mlabe.key_from_json(_load_json(args.key), pp.suite)
    db = _existing_store(pp, args.db)
    report = workflow.retrieve_entry(pp, db, key, args.entry, args.label)
    _emit(workflow.report_to_json(report))
    return 0


def cmd_shuffle(args) -> int:
    pp = mlabe.pp_from_json(_load_json(args.pp))
    rng = _rng(args, pp.suite)
    db = _existing_store(pp, args.db)
    before = db.order_digest().hex()
    db.shuffle(rng)
    db.save_snapshot()
    _emit({"rows": len(db.read_open()), "before": before, "after": db.order_digest().hex()})
    return 0


def cmd_run_scenario(args) -> int:
    if args.out:
        dirs = [path for path in (args.db, args.keys) if path is not None]
        _writable(args.out, inputs=(args.scenario,), dirs=dirs)
    doc = _load_json(args.scenario)
    result = workflow.run_scenario(doc, db_root=args.db, keys_dir=args.keys)
    if args.out:
        write_json(args.out, result)
    _emit(result)
    return 0


# ----------------------------------------------------------------------
# benchmark


class BenchError(EtenonError):
    """A grid the suite cannot run, or an operation count that
    disagreed with the cost model."""


def _bench_policy(k: int, l: int) -> str:
    lines = ["level %d requires [%d]" % (i, i) for i in range(1, k + 1)]
    lines.append("tree: " + ", ".join("attr:a%d" % i for i in range(1, l + 1)))
    return "\n".join(lines)


def _ms(times) -> float:
    """The median of timings in seconds, in milliseconds."""
    return 1000 * statistics.median(times)


def _iqr_ms(times) -> float:
    """The distance between the quartiles of timings in seconds, in
    milliseconds; 0 for a single timing."""
    if len(times) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return 1000 * (q3 - q1)


_A, _B, _P = _bn256.p - 3, _bn256.p - 5, _bn256.p


def _fp_mul():
    """1000 products of two fixed 254-bit values mod p: no group code."""
    return [_A * _B % _P for _ in range(1000)]


def _ref_sample() -> float:
    """One timing of :func:`_fp_mul` in seconds.  Every row of the bench
    takes one right before each of its trials, and its ``ref_ms`` is the
    median of its samples, so a row's ratio to it tracks the host's
    speed during that row."""
    t0 = time.perf_counter()
    _fp_mul()
    return time.perf_counter() - t0


def _expect(label: str, got: int, want: int) -> None:
    if got != want:
        raise BenchError("%s: counted %d, cost model says %d" % (label, got, want))


def _ct_points(ct) -> list:
    """The points of a ciphertext's elements; reading them finishes them."""
    return [c.point for c, _ in ct.levels.values()] + [
        e.point for pair in ct.leaves.values() for e in pair
    ]


def bench_abe(suite, k: int, l: int, trials: int, rng) -> dict:
    """Encrypt/decrypt timings and counts for k levels over l leaves.

    ``dec_ms`` decrypts each fresh ciphertext under one key held across
    the trials, as a reader does; ``dec_cold_ms`` decrypts a freshly
    decoded copy of the key and the ciphertext, with nothing prepared
    for their Miller loops yet, as a first retrieval does."""
    tree = policy.parse_policy(_bench_policy(k, l))
    pp, msk = mlabe.setup(suite, rng)
    payloads = {
        level: bytes([1]) + bytes(16 * [level % 256]) for level in range(1, k + 1)
    }
    key = mlabe.keygen(pp, msk, ["a%d" % i for i in range(1, l + 1)], rng)
    # on bn256 a power is pending until its point is read: encoding
    # finishes the parameters and the key before timing, as if they had
    # been loaded from their files, and each encryption is timed with
    # its elements finished
    mlabe.pp_to_json(pp)
    key_doc = mlabe.key_to_json(suite, key)

    enc_times, dec_times, cold_times, refs = [], [], [], []
    enc_span = dec_span = None
    ct = None
    for _ in range(trials):
        refs.append(_ref_sample())
        with suite.measure() as enc_span:
            t0 = time.perf_counter()
            ct = mlabe.encrypt(pp, payloads, tree, rng)
            _ct_points(ct)
            enc_times.append(time.perf_counter() - t0)
        with suite.measure() as dec_span:
            t0 = time.perf_counter()
            out = mlabe.decrypt(pp, ct, key)
            dec_times.append(time.perf_counter() - t0)
        cold_key = mlabe.key_from_json(key_doc, suite)
        cold_ct = mlabe.ct_from_json(mlabe.ct_to_json(ct), suite)
        t0 = time.perf_counter()
        cold = mlabe.decrypt(pp, cold_ct, cold_key)
        cold_times.append(time.perf_counter() - t0)
        if out != payloads or cold != payloads:
            raise BenchError("round trip failed at k=%d l=%d" % (k, l))

    elems = mlabe.element_count(ct)
    _expect("ciphertext elements", elems, 2 * (k + l))
    _expect("encryption exponentiations", enc_span.exponentiations, 2 * (k + l))
    _expect("encryption multiplications", enc_span.multiplications, k)
    # each level opens with one pairing with d and two for its one leaf
    _expect("decryption pairings", dec_span.pairings, 3 * k)
    return {
        "k": k,
        "l": l,
        "elements": elems,
        "enc_exp": enc_span.exponentiations,
        "enc_mul": enc_span.multiplications,
        "enc_ms": _ms(enc_times),
        "dec_pair": dec_span.pairings,
        "dec_ms": _ms(dec_times),
        "dec_cold_ms": _ms(cold_times),
        "ref_ms": _ms(refs),
    }


def _distinct_keys(suite, n: int, rng) -> list[int]:
    """n distinct signing keys; the tiny mock order can repeat draws."""
    keys: list[int] = []
    while len(keys) < n:
        k = suite.rand_scalar_nonzero(rng)
        if k not in keys:
            keys.append(k)
    return keys


BATCH_ITEMS = (5, 50, 200)  # signatures in each row that checks more than one
BATCH_SIGNERS = 2  # one roster of two, as an agreement signs


def bench_musig(suite, n: int, m: int, trials: int, rng) -> dict:
    """Co-signing of m messages by one n-party roster in one run, timed
    per signature, and one check of all m signatures: m + n
    exponentiations, g's power and one pass of the other m - 1 + n,
    which is n + 1 for a single signature."""
    msgs = [b"benchmark message %d" % i for i in range(m)]
    sign_times, verify_times, refs = [], [], []
    span = None
    for _ in range(trials):
        refs.append(_ref_sample())
        keys = _distinct_keys(suite, n, rng)
        t0 = time.perf_counter()
        sigs, roster = musig.cosign(suite, keys, msgs, rng)
        # a time per signature, the roster's derivation shared among them
        sign_times.append((time.perf_counter() - t0) / m)
        if not all(isinstance(sig.rc, G0Element) and isinstance(sig.s, int) for sig in sigs):
            raise BenchError("signature is not one group element plus one scalar")
        # one roster object for the check, as the store holds one per ref
        items = [(sig, roster, msg) for sig, msg in zip(sigs, msgs)]
        with suite.measure() as span:
            t0 = time.perf_counter()
            ok = musig.verify_batch(suite, items)
            verify_times.append(time.perf_counter() - t0)
        if not ok:
            raise BenchError("verification failed at n=%d m=%d" % (n, m))
    _expect("verification exponentiations", span.exponentiations, m + n)
    return {
        "n": n,
        "m": m,
        "verify_exp": span.exponentiations,
        "verify_hashes": span.hash_calls,
        "sign_ms": _ms(sign_times),
        "verify_ms": _ms(verify_times),
        "ref_ms": _ms(refs),
    }


def _table_cost(suite, side: str, values) -> dict:
    """The median build time of the tables of fixed bases whose payloads
    are ``values``, one build each, and the retained size of a table:
    the ``sys.getsizeof`` sum over its tuples and ints, each object
    counted once; ``refs`` holds a host-speed sample before each build."""
    times, refs = [], []
    for value in values:
        refs.append(_ref_sample())
        t0 = time.perf_counter()
        table = _bn256.table(suite.groups[side], value)
        times.append(time.perf_counter() - t0)
    seen, todo, size = set(), [table], 0
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            size += sys.getsizeof(obj)
            if isinstance(obj, tuple):
                todo.extend(obj)
    return {"table_ms": _ms(times), "table_kb": size / 1024, "refs": refs}


def bench_layers(suite, trials: int, rng) -> list[dict]:
    """Median time, and the spread between its quartiles, of each group
    operation the protocols are built from.

    ``fp_mul`` times the host-speed reference itself.
    ``g1_exp``, ``g2_exp`` and ``gt_exp`` raise bases that carry no table.
    ``g1_batch`` is one pass shaped like a store's batch check of
    signatures (see ``musig.verify_batch``): nine decoded points by
    weights below 2**128 and three keys by full-length exponents, one
    ``_bn256.split_mul`` on the suite's left record.
    The ``_fixed`` rows raise fixed bases whose tables were built before
    the timing, and give the median time to build a table by
    ``_bn256.table``, over ``trials`` builds from fresh bases, and a
    table's retained size.
    ``g1_hashed`` does the same for a memoised H(a) that has been hashed
    ``HASH_TABLE_AFTER`` times, and so has earned its table (see
    ``GroupSuite.hash_to_group``); ``hash_to_g1`` times the suite's
    ``hash_point``, the map itself, and the element built around it."""
    # decoded copies of the generators carry no table
    g1 = suite.decode_g0(suite.generator.encode(), LEFT)
    g2 = suite.decode_g0(suite.right_generator.encode(), RIGHT)
    egg = suite.decode_gt(suite.gt_generator.encode())
    k = suite.rand_scalar_nonzero(rng)
    right_raw, gt_raw = (g2 ** k).encode(), (egg ** k).encode()
    # fixed bases other than the generators, as g_delta and egg_gamma are
    j = suite.rand_scalar_nonzero(rng)
    fixed = {
        LEFT: suite.fixed_base(suite.decode_g0((g1 ** j).encode(), LEFT)),
        RIGHT: suite.fixed_base(suite.decode_g0((g2 ** j).encode(), RIGHT)),
        TARGET: suite.fixed_base(suite.decode_gt((egg ** j).encode())),
    }
    for _ in range(HASH_TABLE_AFTER):
        hashed = suite.hash_to_group(b"bench attribute")
    for x in (*fixed.values(), hashed):
        x ** 1  # builds the table
    # each timed build starts from a fresh base
    scalars = [suite.rand_scalar_nonzero(rng) for _ in range(trials)]
    bound = min(suite.order, 1 << 128)
    batch = [
        (suite.decode_g0((g1 ** suite.rand_scalar_nonzero(rng)).encode(), LEFT).point,
         suite.rand_scalar(rng) % bound if i < 9 else suite.rand_scalar(rng))
        for i in range(12)
    ]
    costs = {
        "g1_fixed": _table_cost(suite, LEFT, [(g1 ** s).point for s in scalars]),
        "g2_fixed": _table_cost(suite, RIGHT, [(g2 ** s).point for s in scalars]),
        "gt_fixed": _table_cost(suite, TARGET, [(egg ** s).value for s in scalars]),
        "g1_hashed": _table_cost(
            suite, LEFT, [suite.hash_point(b"attribute %d" % i) for i in range(trials)]
        ),
    }
    cases = [
        ("fp_mul", _fp_mul),
        # a bn256 power is pending until read; reading its point finishes it
        ("g1_exp", lambda: (g1 ** k).point),
        ("g2_exp", lambda: (g2 ** k).point),
        ("gt_exp", lambda: egg ** k),
        ("g1_batch", lambda: _bn256.split_mul(suite.groups[LEFT], batch)),
        ("g1_fixed", lambda: (fixed[LEFT] ** k).point),
        ("g2_fixed", lambda: (fixed[RIGHT] ** k).point),
        ("gt_fixed", lambda: fixed[TARGET] ** k),
        ("g1_hashed", lambda: (hashed ** k).point),
        # the map itself: hash_to_group would answer from its memo
        ("hash_to_g1", lambda: G0Element(suite, LEFT, suite.hash_point(b"bench attribute"))),
        ("right_decode", lambda: suite.decode_g0(right_raw, RIGHT)),
        ("gt_decode", lambda: suite.decode_gt(gt_raw)),
    ]
    if suite.name == "bn256":
        # the two halves of a pairing, called as the suite calls them:
        # one pair with its lines prepared inside the timing, one pair
        # with prepared lines, and three pairs in one loop
        left, right = g1.point, g2.point
        lines = _bn256.prepare(right)
        three = [
            (_bn256.prepare((g2 ** (j + 2)).point), (g1 ** (j + 5)).point) for j in range(3)
        ]
        f = _bn256.miller([(lines, left)])
        cases += [
            ("miller", lambda: _bn256.miller([(_bn256.prepare(right), left)])),
            ("miller_prepared", lambda: _bn256.miller([(lines, left)])),
            ("miller_product3", lambda: _bn256.miller(three)),
            ("final_exp", lambda: _bn256.final_exp(f)),
        ]
    rows = []
    for layer, op in cases:
        cost = costs.get(layer, {})
        times, refs = [], cost.pop("refs", [])
        for _ in range(trials):
            refs.append(_ref_sample())
            t0 = time.perf_counter()
            op()
            times.append(time.perf_counter() - t0)
        rows.append({"layer": layer, "layer_ms": _ms(times), "layer_iqr_ms": _iqr_ms(times),
                     "ref_ms": _ms(refs), **cost})
    return rows


def cmd_bench(args) -> int:
    suite = get_suite(args.suite)
    # bench draws no key that outlives it, so any suite takes a seed
    rng = random.Random(args.seed) if args.seed is not None else None

    checks = [(n, 1) for n in args.signers] + [(BATCH_SIGNERS, m) for m in BATCH_ITEMS]
    # a roster's keys are distinct nonzero scalars, of which a small
    # mock order has too few
    most = max(n for n, _ in checks)
    if most >= suite.order:
        raise BenchError(
            "a roster of %d signers needs %d distinct nonzero keys, but %s has order %d"
            % (most, most, suite.name, suite.order)
        )
    # the CSV file is opened first, so a path that cannot be written
    # is refused before the grid runs
    csv_file = open(args.csv, "w", encoding="utf-8", newline="") if args.csv else None
    with csv_file or contextlib.nullcontext():
        rows = (
            [
                {"kind": "abe", **bench_abe(suite, k, l, args.trials, rng)}
                for k in args.levels
                for l in args.leaves
                if l >= k
            ]
            + [{"kind": "musig", **bench_musig(suite, n, m, args.trials, rng)} for n, m in checks]
            + [{"kind": "layer", **r} for r in bench_layers(suite, args.trials, rng)]
        )
        if csv_file:
            # each column once, in the order the rows first name it
            fields = list(dict.fromkeys(name for r in rows for name in r))
            writer = csv.DictWriter(csv_file, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    _emit({"suite": suite.name, "trials": args.trials, "rows": rows})
    return 0


# ----------------------------------------------------------------------
# wiring


SEED_HELP = "for tests and demos only: a seed makes every key public"


def _seed_options(p) -> None:
    p.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    p.add_argument(
        "--insecure-seed", action="store_true", help="accept --seed on a suite other than mock"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etenon",
        description="Levelled EHR sharing: sealed chain heads, open shuffled blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="mint public parameters and the master key")
    p.add_argument("--suite", default="bn256", help="bn256, mock, or mock-<prime>")
    p.add_argument("--pp", required=True, help="where to write the public parameters")
    p.add_argument("--msk", required=True, help="where to write the master key")
    _seed_options(p)
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("keygen", help="issue a decryption key")
    p.add_argument("--pp", required=True)
    p.add_argument("--msk", required=True)
    p.add_argument(
        "--attr", action="append", required=True, help="attribute (repeatable)"
    )
    p.add_argument("--out", required=True, help="where to write the decryption key")
    _seed_options(p)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("ingest", help="push a signed batch through the gate")
    p.add_argument("--pp", required=True)
    p.add_argument("--db", required=True, help="store directory")
    p.add_argument("--batch", required=True, help="JSON with pp, roster, rows, secret")
    _seed_options(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("retrieve", help="decrypt one entry and follow its chains")
    p.add_argument("--pp", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--key", required=True, help="decryption key JSON")
    p.add_argument("--entry", required=True, help="secret entry id")
    p.add_argument("--label", default="clinical", help="access label to present")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("shuffle", help="re-permute the open table")
    p.add_argument("--pp", required=True)
    p.add_argument("--db", required=True)
    _seed_options(p)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("run-scenario", help="drive a configured multi-party run")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--db", default=None, help="persist a new store, and pp.json, here")
    p.add_argument(
        "--keys", default=None, help="write every decryption key here, outside --db (needs --db)"
    )
    p.add_argument("--out", default=None, help="also write the summary here")
    p.set_defaults(func=cmd_run_scenario)

    p = sub.add_parser("bench", help="time the primitives and check op counts")
    p.add_argument("--suite", default="mock")
    p.add_argument(
        "--levels", type=_positives, default="1,2,3,4,5", help="comma-separated k values"
    )
    p.add_argument(
        "--leaves", type=_positives, default="2,4,6,8,10", help="comma-separated l values"
    )
    p.add_argument(
        "--signers", type=_positives, default="1,2,3,5", help="comma-separated n values"
    )
    p.add_argument("--trials", type=_positive, default=3)
    p.add_argument("--csv", default=None, help="also write the grid as CSV")
    p.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EtenonError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
