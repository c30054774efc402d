"""Products of pairings in one Miller loop, and prepared right arguments.

The bn256 loop is checked against the one-pair Miller loop kept in
``oracles``, which shares no line function with it: its lines are not
monic, so the two agree up to a factor in Fp2 before the final
exponentiation and exactly after it.
"""

import functools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etenon import _bn256 as b
from etenon.algebra import LEFT, RIGHT, AlgebraError, G1Element, get_suite

import oracles

THREADS = 4  # more than the cores of a small host, to interleave the reads

LEFTS = [
    b.curve_G,
    b.multi_mul(b.CURVE, [(b.curve_G, 0xE7E)]),  # Jacobian, z != 1
    b.g1_hash_to_point(b"pairing product"),
    b.G1_INFINITY,
]
RIGHTS = [
    b.twist_G,
    b.multi_mul(b.TWIST, [(b.twist_G, 0x51DE)]),  # Jacobian, z != 1
    b.G2_INFINITY,
]


@functools.lru_cache(maxsize=None)
def _lines(j):
    return b.prepare(RIGHTS[j])


@functools.lru_cache(maxsize=None)
def _oracle(i, j):
    return oracles.optimal_ate(RIGHTS[j], LEFTS[i])


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(0, len(LEFTS) - 1), st.integers(0, len(RIGHTS) - 1), st.booleans()
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=10, deadline=None)
def test_one_loop_equals_the_product_of_oracle_pairings(pairs):
    """One loop over 1 to 5 pairs, points at infinity and negated left
    points (a divisor) among them, finishes to the product of the
    oracle's pairings, a divisor's inverted."""
    got = b.miller(
        [(_lines(j), b.g1_neg(LEFTS[i]) if inverse else LEFTS[i]) for i, j, inverse in pairs]
    )
    want = b.FP12_ONE
    for i, j, inverse in pairs:
        e = _oracle(i, j)
        want = b.fp12_mul(want, b.fp12_inv(e) if inverse else e)
    assert b.final_exp(got) == want


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1), st.booleans()), min_size=1, max_size=5
    )
)
@settings(max_examples=10, deadline=None)
def test_loop_value_is_the_oracle_miller_value_times_an_fp2_factor(pairs):
    """Before any final exponentiation, a loop over 1 to 5 pairs of
    finite points, Jacobian and negated left points among them, is the
    product of the oracle's Miller values times a nonzero factor in Fp2,
    which the final exponentiation maps to one."""
    left = [b.g1_neg(LEFTS[i]) if inverse else LEFTS[i] for i, _, inverse in pairs]
    got = b.miller([(_lines(j), pt) for (_, j, _), pt in zip(pairs, left)])
    want = b.FP12_ONE
    for (_, j, _), pt in zip(pairs, left):
        want = b.fp12_mul(want, oracles.miller(RIGHTS[j], pt))
    factor = b.fp12_mul(got, b.fp12_inv(want))
    assert factor[0] == b.FP6_ZERO and factor[1][:2] == (b.FP2_ZERO, b.FP2_ZERO)
    assert factor[1][2] != b.FP2_ZERO
    assert b.final_exp(got) == b.final_exp(want)


def test_prepare_lays_out_four_ints_per_line():
    lines = b.prepare(b.twist_G)
    assert len(lines) == 4 * len(b._SQUARE_FIRST)
    assert all(type(c) is int and 0 <= c < b.p for c in lines)
    assert b.prepare(b.G2_INFINITY) == ()
    assert b.miller([]) == b.FP12_ONE


def test_prepare_raises_on_a_zero_denominator(monkeypatch):
    """An inversion that returns zero, as inv_mod_p does for a zero
    denominator, raises rather than giving wrong lines."""
    monkeypatch.setattr(b, "inv_mod_p", lambda a: 0)
    with pytest.raises(ZeroDivisionError, match="vertical"):
        b.prepare(b.twist_G)


def test_a_prepared_right_element_serves_two_left_points(bn256):
    """A right element prepares its lines on its first loop and keeps
    them; a second pairing with another left point reuses them, and both
    values match the oracle."""
    right = bn256.right_generator ** 0x51DE
    first, second = bn256.generator ** 3, bn256.hash_to_group(b"second")
    e1 = bn256.pairing(first, right)
    assert right.lines is None  # pending: nothing is prepared yet
    e1.encode()
    lines = right.lines
    assert lines is not None
    e2 = bn256.pairing(right, second)
    assert e2.encode() == bn256.encode_gt(
        G1Element(bn256, oracles.optimal_ate(right.point, second.point))
    )
    assert right.lines is lines
    assert e1 == G1Element(bn256, oracles.optimal_ate(right.point, first.point))


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_identity_pairs_contribute_nothing(name):
    suite = get_suite(name)
    g, g2 = suite.generator, suite.right_generator
    a, c = g ** 5, g2 ** 7
    base = suite.pairing_product([suite.pairing(a, c)], [suite.pairing(g, g2 ** 2)])
    with_identities = suite.pairing_product(
        [suite.pairing(a, c), suite.pairing(suite.identity(LEFT), c)],
        [suite.pairing(g, g2 ** 2), suite.pairing(g ** 3, suite.identity(RIGHT))],
    )
    assert with_identities == base
    assert base == suite.gt_generator ** (5 * 7 - 2)


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_products_nest_and_divide(name):
    """A product of products is one loop over all their pairs, and a
    divisor's own divisors multiply."""
    suite = get_suite(name)
    g, g2 = suite.generator, suite.right_generator
    inner = suite.pairing_product([suite.pairing(g ** 2, g2)], [suite.pairing(g, g2 ** 5)])
    outer = suite.pairing_product([suite.pairing(g ** 11, g2)], [inner])
    assert len(outer.pairs) == 3
    assert outer == suite.gt_generator ** (11 - (2 - 5))


def test_a_product_refuses_what_is_not_a_pending_pairing(mock):
    other = get_suite("mock-7")
    g, g2 = mock.generator, mock.right_generator
    read = mock.pairing(g, g2)
    read.value
    for bad in (read, mock.gt_generator, mock.gt_identity, mock.pairing(g, g2) * read):
        with pytest.raises(AlgebraError, match="pending pairings"):
            mock.pairing_product([bad])
        with pytest.raises(AlgebraError, match="pending pairings"):
            mock.pairing_product([], [bad])
    with pytest.raises(AlgebraError, match="suite mock-7"):
        mock.pairing_product([other.pairing(other.generator, other.right_generator)])
    with pytest.raises(AlgebraError, match="target-group elements"):
        mock.pairing_product([g])


def test_products_tick_nothing_of_their_own(mock):
    g, g2 = mock.generator, mock.right_generator
    with mock.measure() as span:
        pairs = [mock.pairing(g, g2) for _ in range(3)]
        assert span.pairings == 3
        mock.pairing_product(pairs[:2], pairs[2:]).encode()
    assert (span.pairings, span.exponentiations, span.multiplications) == (3, 0, 0)


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_threads_reading_one_pending_pairing_agree(name):
    """Threads that read the same pending pairing, and so prepare the
    same right element's lines, all get the same value and lines."""
    suite = get_suite(name)
    right = suite.right_generator ** 9
    shared = suite.pairing_product(
        [suite.pairing(suite.generator ** 4, right)], [suite.pairing(suite.generator, right)]
    )
    start = threading.Barrier(THREADS, timeout=60)
    values, lines = [], []

    def read():
        start.wait()
        values.append(shared.value)
        lines.append(right.lines)

    threads = [threading.Thread(target=read) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(values) == THREADS and all(v == values[0] for v in values)
    assert all(x is not None and x == right.lines for x in lines)
    assert shared == suite.gt_generator ** (3 * 9)
