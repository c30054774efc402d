"""The publish, retrieve and reopen workloads on bn256.

One single-threaded, closed-loop client with no think time drives the
public API of ``workflow`` and ``tdb``.  Every operation runs under
exactly one outermost ``suite.measure()`` span and its output is
checked; the paper's cost model is checked on every encryption and
every signature verification inside it.

``GroupSuite.measure()`` keeps one counter slot per suite, and a nested
span hides its counts from the outer one, so this file never nests
spans: per-call counts come from differencing the single outer span's
counters at the entry and exit of a wrapped call.  A span tree inside
the program would make this unnecessary.
"""

from __future__ import annotations

import random
import resource
import statistics
import time

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace

from etenon import algebra, mlabe, musig, tdb, workflow
from etenon.errors import EtenonError

from inputs import (
    FORGED_POSITION,
    PATIENTS,
    PROVIDER,
    PROVIDER_ATTRS,
    PUBLISH_CYCLE,
    READERS,
    ROSTER_SIZE,
    SNAPSHOT_BATCHES,
    STORE_SHAPES,
    RecordStream,
    forged_rows,
)
from tracing import CROSS_CHECK

SUITE = "bn256"
PUBLISH_SETUPS = 3  # publish's set-up is cheap enough to repeat for a median


def dir_stat(root) -> dict:
    return {f.name: (f.stat().st_ino, f.stat().st_size) for f in root.iterdir() if f.is_file()}


def dir_bytes(root) -> dict:
    return {f.name: f.read_bytes() for f in root.iterdir() if f.is_file()}


def bytes_written(before: dict, after: dict) -> int:
    """Appended bytes of files kept in place, full size of replaced files."""
    total = 0
    for name, (ino, size) in after.items():
        old = before.get(name)
        total += size if old is None or old[0] != ino else max(0, size - old[1])
    return total


def row_key(row) -> tuple:
    sig = row.sig
    return (row.pointer.bytes, row.block, sig.rc.encode(), sig.s, row.roster_ref, row.timestamp)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def _reference() -> int:
    """Fixed big-int work in the style of the curve code, sharing none of it."""
    p = 2**255 - 19
    x, y = _Cell(3), _Cell(5)
    for _ in range(18000):
        x = _Cell((x.v * y.v + 7) % p)
        y = _Cell((y.v * y.v) % p)
    return x.v


class SpeedClock:
    """Host-speed reference, sampled between operations.

    The 2-core host this was tuned on runs fast or up to 1.7x slower,
    in phases that last from seconds to many minutes.  A fixed reference loop that
    shares no code with the program is timed after every operation, and
    each reported time is divided by the mean slowdown sampled during the
    phase -- set-up or loop -- that it measures.  Reported times are
    therefore seconds in the host's fast phase, and a phase change
    between runs moves them far less than it moves raw time.  The raw
    figures are printed beside them.
    """

    NOMINAL_S = 0.033  # the reference's duration in the host's fast phase
    PER_GAP = 3  # reference timings per sample, to average out jitter

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, slowdown)
        self.sampling_s = 0.0
        self.sample()

    def sample(self) -> None:
        for _ in range(self.PER_GAP):
            t0 = time.perf_counter()
            _reference()
            t1 = time.perf_counter()
            self.sampling_s += t1 - t0
            self.samples.append((t1, (t1 - t0) / self.NOMINAL_S))

    def slowdown(self, start=None, end=None) -> float:
        """Mean slowdown sampled in [start, end] and just either side of it."""
        if start is None:
            return statistics.fmean(s for _t, s in self.samples)
        before = [s for t, s in self.samples if t < start][-self.PER_GAP:]
        inside = [s for t, s in self.samples if start <= t <= end]
        after = [s for t, s in self.samples if t > end][: self.PER_GAP]
        return statistics.fmean(before + inside + after)


class Pass:
    """One pass over a workload: its context, samples, counts and checks."""

    def __init__(self, seed: int, workdir, tracer=None, setups: int = 1):
        self.seed = seed
        self.setups = setups
        self.workdir = workdir
        self.tracer = tracer
        self.stream = RecordStream(seed)
        self.clock = SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.violations: list[str] = []
        self.samples = defaultdict(list)  # raw seconds per timed step
        self.counts = Counter()
        self.digests: set[bytes] = set()
        self.busy = 0.0  # seconds inside timed operations of the loop
        self.span = None  # OpCounters of the operation in progress
        self.template = None  # template of the record being encrypted
        self.store_root = None
        self.store_bytes = 0.0
        self.snapshot_order = []
        self.setup_s = 0.0  # raw seconds, reference sampling excluded
        self.setup_window = self.loop_window = (0.0, 0.0)
        self.rounds = 0  # loop rounds: cycles of records, pairs or reopens
        self._dirs = 0

    # ------------------------------------------------------------------
    # bookkeeping

    def record(self, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @contextmanager
    def operation(self, suite):
        """Exactly one outermost measure() span around one operation."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op += 1
            before = Counter(tracer.calls)
        with suite.measure() as span:
            self.span = span
            try:
                yield span
            finally:
                self.span = None
        if tracer is not None:
            counted = span.as_dict()
            for field, names in CROSS_CHECK.items():
                if any(n in tracer.absent for n in names):
                    continue
                seen = sum(tracer.calls[n] - before[n] for n in names)
                if seen != counted[field]:
                    self.violations.append(
                        "cross-check: suite counted %d %s, wrappers %d"
                        % (counted[field], field, seen)
                    )

    @contextmanager
    def cost_model(self):
        """Check 2(k+l) exps, k muls, 2(k+l) elements and n+1 verify exps."""
        orig_encrypt, orig_verify = mlabe.encrypt, musig.verify

        def encrypt(*args, **kwargs):
            span, tpl = self.span, self.template
            if span is None or tpl is None:
                self.violations.append("encryption outside a checked operation")
                return orig_encrypt(*args, **kwargs)
            e0, m0 = span.exponentiations, span.multiplications
            ct = orig_encrypt(*args, **kwargs)
            want = 2 * (tpl.levels + tpl.leaves)
            got = {
                "encrypt_exp": (span.exponentiations - e0, want),
                "encrypt_mul": (span.multiplications - m0, tpl.levels),
                "ct_elements": (2 * len(ct.levels) + 2 * len(ct.leaves), want),
            }
            for what, (n, expected) in got.items():
                self.counts["cost." + what] += n
                if n != expected:
                    self.violations.append(
                        "%s on %s: counted %d, cost model says %d"
                        % (what, tpl.name, n, expected)
                    )
            self.counts["cost.checks"] += 1
            return ct

        def verify(suite, sig, roster, msg):
            span = self.span
            if span is None:
                self.violations.append("verification outside a checked operation")
                return orig_verify(suite, sig, roster, msg)
            e0 = span.exponentiations
            ok = orig_verify(suite, sig, roster, msg)
            n = span.exponentiations - e0
            self.counts["cost.verify_exp"] += n
            self.counts["cost.checks"] += 1
            self.counts["musig.verifies"] += 1
            self.digests.add(msg)
            if len(roster) != ROSTER_SIZE or n != ROSTER_SIZE + 1:
                self.violations.append(
                    "verification with n=%d: counted %d exps, cost model says %d"
                    % (len(roster), n, len(roster) + 1)
                )
            return ok

        mlabe.encrypt, musig.verify = encrypt, verify
        try:
            yield
        finally:
            mlabe.encrypt, musig.verify = orig_encrypt, orig_verify

    # ------------------------------------------------------------------
    # steps shared by the workloads

    def setup(self, readers: bool):
        """Parameters, the provider's full key, patients' signing pairs."""
        if self.tracer is not None:
            self.tracer.op += 1
        participants = {PROVIDER: {"role": "SP", "attrs": list(PROVIDER_ATTRS)}}
        for name in PATIENTS:
            participants[name] = {"role": "DO", "attrs": None}
        if readers:
            for name, attrs in READERS.items():
                participants[name] = {"role": "DU", "attrs": list(attrs)}
        self._dirs += 1
        self.store_root = self.workdir / ("store%d" % self._dirs)
        return workflow.phase_setup(
            SUITE,
            participants,
            rng=random.Random("perfbench-program:%d" % self.seed),
            db_root=self.store_root,
        )

    def publish(self, ctx, rec, forge: bool = False, snapshot: bool = True):
        """Agree, submit a forged batch first if asked, then ingest.

        Returns the transcript and the seconds spent in the program, or
        None when a step failed its check.
        """
        suite, tpl = ctx.suite, rec.template
        self.template = tpl
        try:
            with self.operation(suite):
                t0 = time.perf_counter()
                tr = workflow.run_agreement(
                    ctx,
                    rec.owner,
                    PROVIDER,
                    rec.record,
                    tpl.policy,
                    tpl.level_columns,
                    identifiable_level=tpl.identifiable_level,
                    timestamp=rec.timestamp,
                )
                agree = time.perf_counter() - t0
        except EtenonError as exc:
            self.record(["agreement raised %s: %s" % (type(exc).__name__, exc)])
            return None
        finally:
            self.template = None
        self.timed("agree", agree)
        problems = []
        if tr.verdict != "identical":
            problems.append("agreement verdict %r" % tr.verdict)
        elif tr.signature_count != rec.block_count + 1 or len(tr.rows) != rec.block_count:
            problems.append(
                "%d signatures over %d rows for %d blocks"
                % (tr.signature_count, len(tr.rows), rec.block_count)
            )
        if not self.record(problems):
            return None
        spent = agree

        if forge:
            rows, bad = forged_rows(tr.rows, self.stream.rng)
            before = dir_bytes(self.store_root)
            try:
                with self.operation(suite):
                    t0 = time.perf_counter()
                    res = workflow.ingest_transcript(ctx, replace(tr, rows=rows))
                    forged = time.perf_counter() - t0
            except EtenonError as exc:
                self.record(["forged batch raised %s: %s" % (type(exc).__name__, exc)])
            else:
                self.timed("forged", forged)
                spent += forged
                problems = []
                if res.accepted:
                    problems.append("forged batch accepted")
                elif str(tr.rows[bad].pointer) not in (res.reason or ""):
                    problems.append("rejection %r does not name row %d" % (res.reason, bad))
                if dir_bytes(self.store_root) != before:
                    problems.append("rejected batch changed the store files")
                if self.record(problems):
                    self.counts["tdb.rejected_batches"] += 1

        rows_before = len(ctx.db.read_open())
        stat_before = dir_stat(self.store_root)
        try:
            with self.operation(suite):
                t0 = time.perf_counter()
                res = workflow.ingest_transcript(ctx, tr)
                if res.accepted and snapshot:
                    ctx.db.save_snapshot()
                ingest = time.perf_counter() - t0
        except EtenonError as exc:
            self.record(["ingest raised %s: %s" % (type(exc).__name__, exc)])
            return None
        self.timed("ingest", ingest)
        problems = []
        if not res.accepted:
            problems.append("genuine batch rejected: %s" % res.reason)
        elif len(ctx.db.read_open()) != rows_before + rec.block_count:
            problems.append("store holds the wrong number of rows after ingest")
        if not self.record(problems):
            return None
        self.counts["tdb.batches"] += 1
        self.counts["tdb.bytes_written"] += bytes_written(stat_before, dir_stat(self.store_root))
        self.counts["text_bytes"] += rec.text_bytes
        self.counts["blocks"] += rec.block_count
        return tr, spent + ingest

    def timed(self, key: str, seconds: float) -> None:
        """Keep a raw duration that ended just now, then sample the host."""
        self.samples[key].append(seconds)
        self.clock.sample()

    def store_per_block(self) -> float:
        size = sum(size for _ino, size in dir_stat(self.store_root).values())
        return size / self.counts["blocks"] if self.counts["blocks"] else 0.0

    def stop(self, start: float, seconds: float, rounds) -> bool:
        self.rounds += 1
        if rounds is not None:
            return self.rounds >= rounds
        return time.perf_counter() - start >= seconds


# ----------------------------------------------------------------------
# workloads; ``rounds`` replays a measured pass's length in the traced pass


def run_publish(p: Pass, seconds: float, rounds=None):
    times = []
    first = time.perf_counter()
    for _ in range(p.setups):
        t0 = time.perf_counter()
        ctx = p.setup(readers=False)
        times.append(time.perf_counter() - t0)
        p.timed("setup", times[-1])
    p.setup_s = median(times)
    start = time.perf_counter()
    p.setup_window = (first, start)
    while True:
        # whole cycles only, so every run has the same mix of shapes
        for pos, shape in enumerate(PUBLISH_CYCLE):
            out = p.publish(ctx, p.stream.make(shape), forge=pos == FORGED_POSITION)
            if out is not None:
                tr, spent = out
                p.samples["op"].append(spent)
                p.busy += spent
                p.counts["op_blocks"] += len(tr.rows)
        if p.stop(start, seconds, rounds):
            break
    p.loop_window = (start, time.perf_counter())
    p.store_bytes = p.store_per_block()


def _publish_store(p: Pass, readers: bool, snapshots: int):
    """Set-up shared by retrieve and reopen: keys plus a published store
    whose snapshot covers the first ``snapshots`` batches."""
    ctx = p.setup(readers=readers)
    published = []
    for i, shape in enumerate(STORE_SHAPES):
        rec = p.stream.make(shape)
        out = p.publish(ctx, rec, snapshot=i < snapshots)
        if i == snapshots - 1:
            p.snapshot_order = [row.pointer for row in ctx.db.read_open()]
        if out is not None:
            published.append((rec, out[0]))
    p.store_bytes = p.store_per_block()
    return ctx, published


def check_retrieval(rep, rec, reader) -> list[str]:
    tpl = rec.template
    want = tpl.opens[reader]
    problems = []
    if not rep.entry_sig_ok:
        return ["entry signature rejected"]
    if rep.levels_in_ciphertext != tpl.levels:
        problems.append("ciphertext has %d levels" % rep.levels_in_ciphertext)
    if set(rep.recovered) != want:
        problems.append(
            "%s opened %s, expected %s" % (reader, sorted(rep.recovered), sorted(want))
        )
    if rep.row_failures:
        problems.append("row failures: %s" % rep.row_failures[:3])
    for level, got in rep.recovered.items():
        if level == tpl.identifiable_level:
            if got.kind != "identifiable" or got.identifiable != rec.identifiable:
                problems.append("identifiable payload differs")
        elif level in tpl.level_columns:
            if got.kind != "chain" or got.complete is not True:
                problems.append("level %d chain incomplete" % level)
            elif got.text != rec.level_text(level):
                problems.append("level %d text differs" % level)
    return problems


def run_retrieve(p: Pass, seconds: float, rounds=None):
    sampled, t0 = p.clock.sampling_s, time.perf_counter()
    ctx, published = _publish_store(p, readers=True, snapshots=len(STORE_SHAPES))
    p.setup_window = (t0, time.perf_counter())
    p.setup_s = p.setup_window[1] - t0 - (p.clock.sampling_s - sampled)
    pairs = [(rec, tr.entry_id, reader) for rec, tr in published for reader in READERS]
    start = time.perf_counter()
    while pairs:
        order = list(pairs)
        p.stream.rng.shuffle(order)
        for rec, entry_id, reader in order:
            keys = ctx.entity(reader).keys
            try:
                with p.operation(ctx.suite):
                    t0 = time.perf_counter()
                    rep = workflow.retrieve_entry(ctx.pp, ctx.db, keys, entry_id)
                    dt = time.perf_counter() - t0
            except EtenonError as exc:
                p.record(["retrieval raised %s: %s" % (type(exc).__name__, exc)])
                continue
            p.timed("op", dt)
            if p.record(check_retrieval(rep, rec, reader)):
                p.busy += dt
                p.counts["op_blocks"] += sum(
                    len(r.blocks) for r in rep.recovered.values() if r.kind == "chain"
                )
        if p.stop(start, seconds, rounds):
            break
    p.loop_window = (start, time.perf_counter())


def _store_state(db, roster_refs) -> dict:
    """What a reopen must reproduce; differing keys name the failure."""
    rows = db.read_open()
    return {
        "order": [row.pointer for row in rows],
        "order_digest": db.order_digest(),
        "rows": sorted(row_key(row) for row in rows),
        "secrets": db.secret_ids(),
        "rosters": [[vk.encode() for vk in db.roster(ref)] for ref in roster_refs],
    }


def run_reopen(p: Pass, seconds: float, rounds=None):
    sampled, t0 = p.clock.sampling_s, time.perf_counter()
    ctx, published = _publish_store(p, readers=False, snapshots=SNAPSHOT_BATCHES)
    p.setup_window = (t0, time.perf_counter())
    p.setup_s = p.setup_window[1] - t0 - (p.clock.sampling_s - sampled)
    # replay appends the log tail, in batch order, after the snapshot's rows
    order = list(p.snapshot_order)
    for _rec, tr in published[SNAPSHOT_BATCHES:]:
        order.extend(row.pointer for row in tr.rows)
    refs = [tr.roster_ref for _rec, tr in published]
    expected = _store_state(ctx.db, refs)
    expected["order"] = order
    expected["order_digest"] = algebra.hash_commit(b"".join(ptr.bytes for ptr in order))
    start = time.perf_counter()
    while published:
        try:
            with p.operation(ctx.suite):
                t0 = time.perf_counter()
                db = tdb.TenonDb(ctx.pp, p.store_root)
                dt = time.perf_counter() - t0
        except EtenonError as exc:
            p.record(["reopen raised %s: %s" % (type(exc).__name__, exc)])
        else:
            p.timed("op", dt)
            try:
                state = _store_state(db, refs)
            except EtenonError as exc:
                state = {"rosters": "missing: %s" % exc}
            differs = [key for key in expected if state.get(key) != expected[key]]
            if p.record(["reopened store: %s differ" % ", ".join(differs)] if differs else []):
                p.busy += dt
                p.counts["op_blocks"] += len(state["order"])
        if p.stop(start, seconds, rounds):
            break
    p.loop_window = (start, time.perf_counter())


WORKLOADS = {"publish": run_publish, "retrieve": run_retrieve, "reopen": run_reopen}


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(p: Pass) -> dict:
    """Times are raw seconds divided by their phase's mean host slowdown.

    The operation latency is a mean over whole rounds: a run holds 2 to
    6 samples of mixed shapes, so a median would carry one sample's
    host jitter.
    """
    setup_slow = p.clock.slowdown(*p.setup_window)
    loop_slow = p.clock.slowdown(*p.loop_window)
    return {
        "setup_s": p.setup_s / setup_slow,
        "op_mean_s": mean(p.samples["op"]) / loop_slow,
        "blocks_per_s": p.counts["op_blocks"] / p.busy * loop_slow if p.busy else 0.0,
        "store_bytes_per_block": p.store_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def step_means(p: Pass) -> dict:
    """Mean seconds of each publication step, over the whole pass."""
    slow = p.clock.slowdown()
    return {
        "step.%s_mean_s" % key: mean(p.samples[key]) / slow
        for key in ("agree", "forged", "ingest")
    }


def log_lines(p: Pass) -> list[str]:
    """Sample counts and raw medians behind the reported figures."""
    return [
        "samples %s" % {name: len(v) for name, v in sorted(p.samples.items())},
        "raw p50 s %s" % {name: round(median(v), 4) for name, v in sorted(p.samples.items())},
        "host slowdown %.3f in set-up, %.3f in the loop, over %d reference timings"
        % (
            p.clock.slowdown(*p.setup_window),
            p.clock.slowdown(*p.loop_window),
            len(p.clock.samples),
        ),
    ]
