#!/usr/bin/env python3
"""Outside-in benchmark of etenon on bn256.

Run from the root of a checkout:

    python3 perfbench/run.py --workload publish --seed 1 --seconds 8 --trace 0

Workloads are ``publish``, ``retrieve`` and ``reopen`` (see
``perfbench/README.md``).  With ``--trace 0`` one timed pass reports the
end-to-end metrics; with ``--trace 1`` an untraced pass is followed by
a traced pass over identical inputs, and the per-layer metrics come
from the traced one.  The metric names and units are the ones declared
in ``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output and count checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"


def _fail(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def timed_pass(workloads, name, seed, seconds, work):
    p = workloads.Pass(seed, work, setups=workloads.PUBLISH_SETUPS)
    with p.cost_model():
        workloads.WORKLOADS[name](p, seconds)
    return [p], workloads.end_to_end(p)


def traced_passes(workloads, tracing, name, seed, seconds, work):
    base = workloads.Pass(seed, work / "untraced")
    base.workdir.mkdir()
    t0 = time.perf_counter_ns()
    with base.cost_model():
        workloads.WORKLOADS[name](base, seconds)
    base_ns = time.perf_counter_ns() - t0

    tracer = tracing.Tracer()
    traced = workloads.Pass(seed, work / "traced", tracer=tracer)
    traced.workdir.mkdir()
    with traced.cost_model():
        try:
            tracer.install()
            t0 = time.perf_counter_ns()
            workloads.WORKLOADS[name](traced, seconds, rounds=base.rounds)
            traced_ns = time.perf_counter_ns() - t0
        finally:
            tracer.uninstall()
    tracer.write(OUT / ("trace-%s-%d.json" % (name, seed)))

    # identical inputs must give identical counts and store bytes
    for key in sorted(set(base.counts) | set(traced.counts)):
        if base.counts[key] != traced.counts[key]:
            traced.violations.append(
                "traced pass diverged on %s: %d against %d"
                % (key, traced.counts[key], base.counts[key])
            )
    if workloads.dir_bytes(base.store_root) != workloads.dir_bytes(traced.store_root):
        traced.violations.append("traced pass left a different store")

    self_ns, roots_ns = tracer.self_times()
    if sum(self_ns.values()) != roots_ns:
        traced.violations.append("span self times do not add up to the root spans")
    metrics = {}
    for point in tracing.ENTRY_POINTS:
        if point in tracer.absent:
            continue
        metrics[point + ".calls"] = tracer.calls[point]
        if point not in tracing.COUNT_ONLY:
            metrics[point + ".self_s"] = self_ns[point] / 1e9
    for layer in tracing.LAYERS:
        if any(p.split(".")[0] == layer and p not in tracer.absent for p in tracing.ENTRY_POINTS):
            metrics[layer + ".self_s"] = (
                sum(ns for p, ns in self_ns.items() if p.split(".")[0] == layer) / 1e9
            )
    c = traced.counts
    metrics.update(
        {
            "musig.verifies_per_row": c["musig.verifies"] / max(1, len(traced.digests)),
            "tdb.bytes_written_per_text_byte": c["tdb.bytes_written"] / max(1, c["text_bytes"]),
            "tdb.batches": c["tdb.batches"],
            "tdb.rejected_batches": c["tdb.rejected_batches"],
            "trace.wall_s": traced_ns / 1e9,
            "trace.unattributed_s": (traced_ns - roots_ns) / 1e9,
            # both walls at the host's fast-phase speed, as the timed metrics are
            "trace.overhead_ratio": (traced_ns / traced.clock.slowdown())
            / (base_ns / base.clock.slowdown()),
            "trace.spans": len(tracer.spans),
        }
    )
    for key in ("encrypt_exp", "encrypt_mul", "ct_elements", "verify_exp", "checks"):
        metrics["cost." + key] = c["cost." + key]
    metrics.update(workloads.step_means(base))
    return [base, traced], metrics, tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "etenon" / "__init__.py").is_file():
        return _fail("no etenon sources under %s" % SRC)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail("cannot read BENCHMARK.json: %s" % exc)
    sys.path.insert(0, str(SRC))
    import etenon

    if not Path(etenon.__file__).resolve().is_relative_to(SRC):
        return _fail("imported etenon from %s, not from %s" % (etenon.__file__, SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail("unknown workload %r" % args.workload)

    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="stores-", dir=OUT))
    absent = {}
    try:
        if args.trace:
            passes, metrics, absent = traced_passes(
                workloads, tracing, args.workload, args.seed, args.seconds, work
            )
            wanted = declared["per_layer"]
        else:
            passes, metrics = timed_pass(workloads, args.workload, args.seed, args.seconds, work)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [msg for p in passes for msg in p.problems + p.violations]
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": spec["unit"]}
            continue
        prefix = name.rsplit(".", 1)[0]
        reason = absent.get(prefix) or (
            "every %s entry point is absent" % prefix if prefix in tracing.LAYERS else None
        )
        if reason is None:
            problems.append("metric %s was not measured" % name)
        out[name] = {"value": None, "unit": spec["unit"], "absent": reason or "not measured"}

    last = passes[-1]
    print(
        "perfbench: workload=%s seed=%d suite=%s python=%s nproc=%d trace=%d rounds=%d"
        % (
            args.workload,
            args.seed,
            workloads.SUITE,
            platform.python_version(),
            os.cpu_count() or 0,
            args.trace,
            last.rounds,
        )
    )
    for line in workloads.log_lines(last):
        print("perfbench: %s" % line)
    for msg in problems[:10]:
        print("perfbench: problem: %s" % msg)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems and failed == 0 and attempted > 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
