"""The outside-in tracer of ``perfbench/`` sees every counted operation.

The tracer counts calls of wrapped entry points and checks them against
the suite's ``OpCounters`` (its ``CROSS_CHECK`` table); a pair that
entered a Miller loop without a ``GroupSuite.pairing`` call would show
as a mismatch.  The module is loaded from its file and not changed.
"""

import importlib.util
import random

from collections import Counter
from pathlib import Path

import pytest

from etenon import mlabe, policy, tenon, workflow
from etenon.algebra import GroupSuite

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

GATED = """
level 1 requires [1]
level 2 requires [1, 2]
tree: threshold(2, attr:a, attr:b, attr:c), attr:d
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced(tracing):
    """Install a tracer on the benchmark's entry points, which cover
    every suite, since every suite is a GroupSuite; yields the tracer
    and uninstalls it afterwards."""
    installed = []

    def install():
        tracer = tracing.Tracer()
        tracer.install()
        installed.append(tracer)
        checked = {n for names in tracing.CROSS_CHECK.values() for n in names}
        assert not (checked | {"algebra.miller"}) & set(tracer.absent)
        return tracer

    yield install
    for tracer in installed:
        tracer.uninstall()


def _assert_cross_check(tracing, tracer, before, span):
    counted = span.as_dict()
    for field, names in tracing.CROSS_CHECK.items():
        seen = sum(tracer.calls[n] - before[n] for n in names)
        assert seen == counted[field], field
    assert counted["pairings"] > 0


def test_a_gated_bn256_decryption_is_seen_by_the_tracer(tracing, traced, bn256):
    rng = random.Random(0x7AC)
    pp, msk = mlabe.setup(bn256, rng)
    tree = policy.parse_policy(GATED)
    ct = mlabe.encrypt(pp, {1: b"one", 2: b"two"}, tree, rng)
    dk = mlabe.keygen(pp, msk, {"a", "b", "c", "d"}, rng)
    tracer = traced()
    before = Counter(tracer.calls)
    with bn256.measure() as span:
        assert mlabe.decrypt(pp, ct, dk) == {1: b"one", 2: b"two"}
    _assert_cross_check(tracing, tracer, before, span)
    # two root loops, each carrying one level's element, however many
    # pairs they hold
    assert tracer.calls["algebra.miller"] - before["algebra.miller"] == 2
    assert span.pairings == 8


def test_a_mock_scenario_is_seen_by_the_tracer(tracing, traced):
    ctx = workflow.phase_setup(
        "mock",
        {
            "patient": {"role": "DO", "attrs": ["holder"]},
            "hospital": {"role": "SP", "attrs": ["a", "b", "c", "d"]},
            "reader": {"role": "DU", "attrs": ["b", "c", "d"]},
        },
        rng=random.Random(5),
    )
    tracer = traced()
    before = Counter(tracer.calls)
    with ctx.suite.measure() as span:
        transcript = workflow.run_agreement(
            ctx, "patient", "hospital",
            tenon.record_from_json([
                {"name": "symptom", "value": "Pain in the chest and a cough"},
                {"name": "history", "value": "No known allergies"},
            ]),
            GATED, {1: ["symptom"], 2: ["history"]},
            timestamp=1_700_000_000,
        )
        assert workflow.ingest_transcript(ctx, transcript).accepted
        report = workflow.phase_retrieval(ctx, "reader", transcript.entry_id)
    assert set(report.recovered) == {1, 2}
    _assert_cross_check(tracing, tracer, before, span)


def test_the_tracer_leaves_nothing_installed(tracing, traced):
    # The tracer replaces GroupSuite's own methods, so a wrapper left
    # behind would count in every later test.
    assert tracing._SUITE_CLASS is GroupSuite
    names = ("pairing", "g0_mul")  # one span, one count-only entry point
    originals = {name: vars(GroupSuite)[name] for name in names}
    tracer = traced()
    for name in names:
        assert vars(GroupSuite)[name] is not originals[name]
    tracer.uninstall()
    for name in names:
        assert vars(GroupSuite)[name] is originals[name]
