"""Command-line front end.

Subcommands cover the deployment lifecycle: ``setup`` mints parameters,
``keygen`` issues a key bundle, ``ingest`` pushes a signed batch through
the verification gate, ``retrieve`` runs the full fetch-verify-decrypt
path, ``shuffle`` permutes the open table, ``run-scenario`` drives a
whole configured multi-party run, and ``bench`` times the primitives on
a (levels, leaves, signers) grid while checking the operation counts
against the scheme's cost model, then times the group operations
underneath them one by one.  Its signature rows are checks of m
signatures by n signers, m + n exponentiations each.

Everything speaks JSON on disk and on stdout; failures print a
machine-readable error object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import statistics
import sys
import time
import tracemalloc

from . import _bn256, mlabe, musig, policy, tdb, workflow
from .algebra import LEFT, RIGHT, TARGET, G0Element, get_suite
from .codec import decoding
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


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _rng(args):
    return random.Random(args.seed) if args.seed is not None else None


def _positive(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError("expected a positive integer, found %r" % text)
    return int(text)


def _positives(text: str) -> list[int]:
    return [_positive(x) for x in text.split(",")]


# ----------------------------------------------------------------------
# subcommands


def cmd_setup(args) -> int:
    suite = get_suite(args.suite)
    pp, msk = mlabe.setup(suite, _rng(args))
    _write_json(args.pp, mlabe.pp_to_json(pp))
    _write_json(args.msk, mlabe.msk_to_json(suite, msk))
    _emit({"suite": suite.name, "pp": args.pp, "msk": args.msk})
    return 0


def cmd_keygen(args) -> int:
    pp = mlabe.pp_from_json(_load_json(args.pp))
    _, msk = mlabe.msk_from_json(_load_json(args.msk), pp.suite)
    bundle = mlabe.keygen(pp, msk, args.attr, _rng(args))
    _write_json(args.out, mlabe.key_to_json(pp.suite, bundle))
    _emit({"attrs": sorted(args.attr), "out": args.out})
    return 0


def cmd_ingest(args) -> int:
    pp = mlabe.pp_from_json(_load_json(args.pp))
    db = tdb.TenonDb(pp, root=args.db)
    batch = _load_json(args.batch)
    if not isinstance(batch, dict):
        raise InputError("batch must be a JSON object")
    rows, secret, rosters = tdb.batch_from_json(pp.suite, batch)
    result = db.ingest(rows, secret, rosters=rosters, rng=_rng(args))
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
    _, bundle = mlabe.key_from_json(_load_json(args.key), pp.suite)
    db = tdb.TenonDb(pp, root=args.db)
    report = workflow.retrieve_entry(pp, db, bundle, args.entry, args.label)
    _emit(workflow.report_to_json(report))
    return 0 if report.entry_sig_ok else 1


def cmd_shuffle(args) -> int:
    pp = mlabe.pp_from_json(_load_json(args.pp))
    db = tdb.TenonDb(pp, root=args.db)
    before = db.order_digest().hex()
    db.shuffle(_rng(args))
    db.save_snapshot()
    _emit({"rows": len(db.read_open()), "before": before, "after": db.order_digest().hex()})
    return 0


def cmd_run_scenario(args) -> int:
    doc = _load_json(args.scenario)
    result = workflow.run_scenario(doc, db_root=args.db, emit_dir=args.db)
    if args.out:
        _write_json(args.out, result)
    _emit(result)
    return 0


# ----------------------------------------------------------------------
# benchmark


class BenchError(EtenonError):
    """An operation count disagreed with the cost model."""


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
    bundle = mlabe.keygen(pp, msk, ["a%d" % i for i in range(1, l + 1)], rng)
    # on bn256 a power is pending until its point is read: encoding
    # finishes the parameters and the key before timing, as if they had
    # been loaded from their files, and each encryption is timed with
    # its elements finished
    mlabe.pp_to_json(pp)
    key_doc = mlabe.key_to_json(suite, bundle)

    enc_times, dec_times, cold_times = [], [], []
    enc_span = dec_span = None
    ct = None
    for _ in range(trials):
        with suite.measure() as enc_span:
            t0 = time.perf_counter()
            ct = mlabe.encrypt(pp, payloads, tree, rng)
            _ct_points(ct)
            enc_times.append(time.perf_counter() - t0)
        with suite.measure() as dec_span:
            t0 = time.perf_counter()
            out = mlabe.decrypt(pp, ct, bundle.decryption)
            dec_times.append(time.perf_counter() - t0)
        _, cold_key = mlabe.key_from_json(key_doc, suite)
        cold_ct = mlabe.ct_from_json(mlabe.ct_to_json(ct), suite)
        t0 = time.perf_counter()
        cold = mlabe.decrypt(pp, cold_ct, cold_key.decryption)
        cold_times.append(time.perf_counter() - t0)
        if out != payloads or cold != payloads:
            raise BenchError("round trip failed at k=%d l=%d" % (k, l))

    elems = mlabe.element_count(ct)
    _expect("ciphertext elements", elems, 2 * (k + l))
    _expect("encryption exponentiations", enc_span.exponentiations, 2 * (k + l))
    _expect("encryption multiplications", enc_span.multiplications, k)
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
    }


def _distinct_keys(suite, n: int, rng) -> list[int]:
    """n distinct signing keys; the tiny mock order can repeat draws."""
    keys: list[int] = []
    while len(keys) < n:
        k = suite.rand_scalar_nonzero(rng)
        if k not in keys:
            keys.append(k)
    return keys


BATCH_ITEMS = 5  # signatures in the row that checks more than one
BATCH_SIGNERS = 2  # one roster of two, as an agreement signs


def bench_musig(suite, n: int, m: int, trials: int, rng) -> dict:
    """Co-signing of m messages by one n-party roster, and one check of
    all m signatures: m + n exponentiations, g's power and one pass of
    the other m - 1 + n, which is n + 1 for a single signature."""
    msgs = [b"benchmark message %d" % i for i in range(m)]
    sign_times, verify_times = [], []
    span = None
    for _ in range(trials):
        keys = _distinct_keys(suite, n, rng)
        sigs = []
        for msg in msgs:
            t0 = time.perf_counter()
            sig, roster = musig.cosign(suite, keys, msg, rng)
            sign_times.append(time.perf_counter() - t0)
            if not (isinstance(sig.rc, G0Element) and isinstance(sig.s, int)):
                raise BenchError("signature is not one group element plus one scalar")
            sigs.append(sig)
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
    }


def _table_cost(suite, side: str, value) -> dict:
    """The build time and the retained size (tracemalloc) of the table of
    a fixed base whose payload is ``value``."""
    t0 = time.perf_counter()
    suite._fixed_table(side, value)
    ms = 1000 * (time.perf_counter() - t0)
    tracemalloc.start()
    try:
        table = suite._fixed_table(side, value)  # held while it is measured
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"table_ms": ms, "table_kb": size / 1024}


def bench_layers(suite, trials: int, rng) -> list[dict]:
    """Median time, and the spread between its quartiles, of each group
    operation the protocols are built from.

    ``fp_mul``, 1000 products of two fixed 254-bit values mod p, runs no
    group code: it is the host-speed reference.  One sample of it is
    timed right before each trial of every row, and a row's ``ref_ms``
    is the median of its samples, so a row's ratio to it tracks the
    host's speed during that row.
    ``g1_exp``, ``g2_exp`` and ``gt_exp`` raise bases that carry no table.
    The ``_fixed`` rows raise fixed bases whose tables were built before
    the timing, and give each table's build time and retained size."""
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
    for x in fixed.values():
        x ** 1  # builds the table
    costs = {
        "g1_fixed": _table_cost(suite, LEFT, fixed[LEFT].point),
        "g2_fixed": _table_cost(suite, RIGHT, fixed[RIGHT].point),
        "gt_fixed": _table_cost(suite, TARGET, fixed[TARGET].value),
    }
    a, b, p = _bn256.p - 3, _bn256.p - 5, _bn256.p

    def fp_mul():
        return [a * b % p for _ in range(1000)]

    cases = [
        ("fp_mul", fp_mul),
        # a bn256 power is pending until read; reading its point finishes it
        ("g1_exp", lambda: (g1 ** k).point),
        ("g2_exp", lambda: (g2 ** k).point),
        ("gt_exp", lambda: egg ** k),
        ("g1_fixed", lambda: (fixed[LEFT] ** k).point),
        ("g2_fixed", lambda: (fixed[RIGHT] ** k).point),
        ("gt_fixed", lambda: fixed[TARGET] ** k),
        ("hash_to_g1", lambda: suite.hash_to_group(b"bench attribute")),
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
        times, refs = [], []
        for _ in range(trials):
            t0 = time.perf_counter()
            fp_mul()
            t1 = time.perf_counter()
            op()
            refs.append(t1 - t0)
            times.append(time.perf_counter() - t1)
        rows.append({"layer": layer, "layer_ms": _ms(times), "layer_iqr_ms": _iqr_ms(times),
                     "ref_ms": _ms(refs), **costs.get(layer, {})})
    return rows


# each row kind's columns, in the order the tables print them; the CSV
# holds every column of every kind after ``kind``
COLUMNS = {
    "abe": [
        ("k", "%d"),
        ("l", "%d"),
        ("elements", "%d"),
        ("enc_exp", "%d"),
        ("enc_mul", "%d"),
        ("enc_ms", "%.2f"),
        ("dec_pair", "%d"),
        ("dec_ms", "%.2f"),
        ("dec_cold_ms", "%.2f"),
    ],
    "musig": [
        ("n", "%d"),
        ("m", "%d"),
        ("verify_exp", "%d"),
        ("verify_hashes", "%d"),
        ("sign_ms", "%.2f"),
        ("verify_ms", "%.2f"),
    ],
    "layer": [
        ("layer", "%s"),
        ("layer_ms", "%.3f"),
        ("layer_iqr_ms", "%.3f"),
        ("ref_ms", "%.3f"),
        ("table_ms", "%.1f"),
        ("table_kb", "%.1f"),
    ],
}


def _print_table(rows, columns) -> None:
    rendered = [
        [fmt % r[name] if name in r else "" for name, fmt in columns] for r in rows
    ]
    widths = [
        max(len(cell) for cell in [name] + [row[i] for row in rendered])
        for i, (name, _fmt) in enumerate(columns)
    ]
    header = "  ".join(name.rjust(w) for (name, _), w in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for row in rendered:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def cmd_bench(args) -> int:
    suite = get_suite(args.suite)
    rng = _rng(args)

    checks = [(n, 1) for n in args.signers] + [(BATCH_SIGNERS, BATCH_ITEMS)]
    rows = {
        "abe": [
            bench_abe(suite, k, l, args.trials, rng)
            for k in args.levels
            for l in args.leaves
            if l >= k
        ],
        "musig": [bench_musig(suite, n, m, args.trials, rng) for n, m in checks],
        "layer": bench_layers(suite, args.trials, rng),
    }

    print("suite: %s, median of %d trials per cell" % (suite.name, args.trials))
    print()
    for kind, columns in COLUMNS.items():
        _print_table(rows[kind], columns)
        print()
    print(
        "counts hold: elements = 2(k+l), encrypt = 2(k+l) exp + k mask mul,"
        " a check of m signatures by n signers = m+n exp"
    )

    if args.csv:
        fields = ["kind"] + [name for columns in COLUMNS.values() for name, _ in columns]
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for kind, kind_rows in rows.items():
                for r in kind_rows:
                    writer.writerow({"kind": kind, **r})
        print("wrote %s" % args.csv)
    return 0


# ----------------------------------------------------------------------
# wiring


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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("keygen", help="issue a decryption and signing bundle")
    p.add_argument("--pp", required=True)
    p.add_argument("--msk", required=True)
    p.add_argument(
        "--attr", action="append", required=True, help="attribute (repeatable)"
    )
    p.add_argument("--out", required=True, help="where to write the key bundle")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("ingest", help="push a signed batch through the gate")
    p.add_argument("--pp", required=True)
    p.add_argument("--db", required=True, help="store directory")
    p.add_argument("--batch", required=True, help="JSON with rows, secret, rosters")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("retrieve", help="fetch, verify and decrypt one entry")
    p.add_argument("--pp", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--key", required=True, help="key bundle JSON")
    p.add_argument("--entry", required=True, help="secret entry id")
    p.add_argument("--label", default="clinical", help="access label to present")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("shuffle", help="re-permute the open table")
    p.add_argument("--pp", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("run-scenario", help="drive a configured multi-party run")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--db", default=None, help="persist the store here")
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
    p.add_argument("--seed", type=int, default=None)
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
