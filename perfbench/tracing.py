"""Outside-in tracing: wrappers on the program's public entry points.

The program has no span tree of its own yet, so the traced run
installs wrappers, by attribute name, on the public functions of each
module and on the methods of the pairing suite and the store.  Each
wrapped call records one span -- name, start, end, parent span and
operation id -- in memory; the spans are written out when the run ends.
A span's self time is its duration minus the time its child spans
cover.  Cheap, very frequent calls (group multiplications and hashes)
are counted without a span, so their time stays with their caller.

An entry point that no longer exists is reported as an absent layer
metric, with the reason, rather than stopping the run.
"""

from __future__ import annotations

import functools
import json
import time

from collections import Counter

from etenon import _bn256, algebra, mlabe, musig, policy, tdb, tenon, workflow

_SUITE_CLASS = type(algebra.get_suite("bn256"))

# metric prefix -> [(owner, attribute)]; spans unless listed in COUNT_ONLY
ENTRY_POINTS = {
    "algebra.exp": [(_SUITE_CLASS, "g0_exp")],
    "algebra.gt_exp": [(_SUITE_CLASS, "gt_exp")],
    "algebra.pairing": [(_SUITE_CLASS, "pairing")],
    "algebra.miller": [(_bn256, "miller")],
    "algebra.final_exp": [(_bn256, "final_exp")],
    "algebra.hash_to_group": [(_SUITE_CLASS, "hash_to_group")],
    "algebra.decode": [(_SUITE_CLASS, "decode_g0")],
    "algebra.encode": [(_SUITE_CLASS, "encode_g0")],
    "algebra.mul": [
        (_SUITE_CLASS, "g0_mul"),
        (_SUITE_CLASS, "gt_mul"),
        (_SUITE_CLASS, "gt_div"),
        (_SUITE_CLASS, "seal"),  # tallied as the masking multiplication
    ],
    "algebra.hash": [(_SUITE_CLASS, "hash_commit"), (_SUITE_CLASS, "hash_challenge")],
    "policy.parse_policy": [(policy, "parse_policy")],
    "policy.validate_tree": [(policy, "validate_tree")],
    "policy.assign_shares": [(policy, "assign_shares")],
    "policy.satisfies": [(policy, "satisfies")],
    "policy.lagrange_coeff": [(policy, "lagrange_coeff")],
    "policy.tree_to_json": [(policy, "tree_to_json")],
    "policy.tree_from_json": [(policy, "tree_from_json")],
    "mlabe.setup": [(mlabe, "setup")],
    "mlabe.keygen": [(mlabe, "keygen")],
    "mlabe.encrypt": [(mlabe, "encrypt")],
    "mlabe.decrypt": [(mlabe, "decrypt")],
    "mlabe.ct_to_json": [(mlabe, "ct_to_json")],
    "mlabe.ct_from_json": [(mlabe, "ct_from_json")],
    "mlabe.ct_canonical_bytes": [(mlabe, "ct_canonical_bytes")],
    "musig.cosign": [(musig, "cosign")],
    "musig.verify": [(musig, "verify")],
    "musig.sig_to_json": [(musig, "sig_to_json")],
    "musig.sig_from_json": [(musig, "sig_from_json")],
    "tenon.classify": [(tenon, "classify")],
    "tenon.column_blocks": [(tenon, "column_blocks")],
    "tenon.tokenize": [(tenon, "tokenize")],
    "tenon.build_structure": [(tenon, "build_structure")],
    "tenon.reconstruct": [(tenon, "reconstruct")],
    "tenon.make_pointer": [(tenon, "make_pointer")],
    "tdb.open": [(tdb.TenonDb, "__init__")],
    "tdb.ingest": [(tdb.TenonDb, "ingest")],
    "tdb.save_snapshot": [(tdb.TenonDb, "save_snapshot")],
    "workflow.phase_setup": [(workflow, "phase_setup")],
    "workflow.run_agreement": [(workflow, "run_agreement")],
    "workflow.ingest_transcript": [(workflow, "ingest_transcript")],
    "workflow.retrieve_entry": [(workflow, "retrieve_entry")],
}
COUNT_ONLY = {"algebra.mul", "algebra.hash"}
LAYERS = ("algebra", "policy", "mlabe", "musig", "tenon", "tdb", "workflow")

# OpCounters field -> wrapped entry points whose calls it tallies
CROSS_CHECK = {
    "exponentiations": ("algebra.exp", "algebra.gt_exp"),
    "multiplications": ("algebra.mul",),
    "pairings": ("algebra.pairing",),
    "hash_calls": ("algebra.hash", "algebra.hash_to_group"),
}


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # [name id, start ns, end ns, parent index, op id]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.absent: dict[str, str] = {}
        self.op = 0
        self._undo: list = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        for name, targets in ENTRY_POINTS.items():
            for owner, attr in targets:
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.absent[name] = "%s has no attribute %r" % (
                        getattr(owner, "__name__", owner),
                        attr,
                    )
                    continue
                wrapper = (
                    self._counter(name, orig)
                    if name in COUNT_ONLY
                    else self._spanner(name, orig)
                )
                self._undo.append((owner, attr, attr in vars(owner), orig))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, orig = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def _counter(self, name, orig):
        calls = self.calls

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _spanner(self, name, orig):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = [nid, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> tuple[dict[str, int], int]:
        """Self ns per span name, and the ns covered by root spans."""
        covered = [0] * len(self.spans)
        roots = 0
        for _nid, start, end, parent, _op in self.spans:
            if parent < 0:
                roots += end - start
            else:
                # one thread, properly nested: siblings never overlap
                covered[parent] += end - start
        out: Counter = Counter()
        for i, (nid, start, end, _parent, _op) in enumerate(self.spans):
            out[self.names[nid]] += end - start - covered[i]
        return out, roots

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
