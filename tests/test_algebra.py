import hashlib
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etenon import _bn256, mlabe, musig
from etenon.algebra import (
    LEFT,
    RIGHT,
    TARGET,
    AlgebraError,
    G0Element,
    G1Element,
    GroupSuite,
    HASH_MEMO_SIZE,
    HASH_TABLE_AFTER,
    SEAL_TAG_BYTES,
    IntegrityError,
    OpCounters,
    get_suite,
    hash_commit,
    kdf_stream,
)

import oracles


def test_get_suite_variants():
    assert get_suite("mock").order == 101
    assert get_suite("mock-101").order == 101
    assert get_suite("mock-7").order == 7
    assert get_suite("bn256").name == "bn256"
    with pytest.raises(AlgebraError):
        get_suite("nope")
    with pytest.raises(AlgebraError):
        get_suite("mock-10")  # not prime


def test_mock_pairing_multiplies_exponents(mock):
    g = mock.generator
    left = mock.pairing(g ** 7, mock.right_generator ** 11)
    assert mock.dlog_gt(left) == 77
    assert left == mock.gt_generator ** 77


def test_mock_hash_point_rule(mock):
    h = mock.hash_to_group(b"a")
    digest = hashlib.sha256(b"ETN-H0" + b"a").digest()
    want = int.from_bytes(digest, "big") % 101
    assert mock.dlog_g0(h) == (want if want else 1)


def test_hash_domains_are_separated(mock):
    data = b"same input"
    assert hash_commit(data) != hashlib.sha256(data).digest()
    assert hash_commit(data) != hashlib.sha256(b"ETN-H1" + data).digest()
    assert mock.hash_challenge(data) < mock.order


def test_mock_group_is_exponent_arithmetic(mock):
    g = mock.generator
    assert mock.dlog_g0((g ** 5) * (g ** 9)) == 14
    assert (g ** 5) ** 9 == g ** 45
    assert g ** 101 == g ** 0
    assert (g ** 3) != (g ** 4)


@pytest.mark.parametrize("name", ["mock-101", "mock-103"])
def test_mock_runs_the_shared_power_code_on_every_scalar(name):
    """A mock group is Z_q under addition, raised by bn256's Straus pass
    and table walk, so every scalar is checked against k*x mod q."""
    suite = get_suite(name)
    q, z = suite.order, suite.groups[LEFT]
    assert suite.groups[RIGHT] is suite.groups[TARGET] is z
    x, y, w = 7, q - 2, q // 3
    marked = suite.fixed_base(G0Element(suite, LEFT, x))
    for k in range(q):
        want = k * x % q
        assert _bn256.multi_mul(z, [(x, k)]) == want, k
        terms = [(x, k), (y, k * k % q), (w, q - 1 - k)]
        assert _bn256.multi_mul(z, terms) == sum(a * j for a, j in terms) % q, k
        assert (marked ** k).point == want, k
    assert len(marked.table[0]) == -(-z.half_bits // z.window)  # rows cover a half
    assert _bn256.table(z, 0) is None


def test_mock_hash_points_are_one_sided(mock):
    h = mock.hash_to_group(b"attr")
    assert h.side == LEFT
    g2 = mock.right_generator
    # a left and a right element pair in either argument order
    assert mock.pairing(h, g2 ** 3) == mock.pairing(g2 ** 3, h)
    with pytest.raises(AlgebraError):
        mock.pairing(h, mock.hash_to_group(b"other"))


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_hash_to_group_maps_each_label_once_per_suite(name, monkeypatch):
    """H(a) is memoised per suite and label, but every call still ticks
    ``hash_calls``; the memo holds at most HASH_MEMO_SIZE labels."""
    suite, other = get_suite(name), get_suite(name)
    mapped = []
    for s in (suite, other):
        monkeypatch.setattr(
            s, "_hash_to_group", lambda label, f=s._hash_to_group: mapped.append(label) or f(label)
        )
    with suite.measure() as span:
        first = suite.hash_to_group("doctor")
        again = suite.hash_to_group(b"doctor")
        nurse = suite.hash_to_group("nurse")
    assert span.hash_calls == 3
    assert mapped == [b"doctor", b"nurse"]
    assert again == first and nurse != first
    assert other.hash_to_group("doctor") == first
    assert mapped == [b"doctor", b"nurse", b"doctor"]
    if name == "mock":  # a full memo is cheap to reach only on mock
        # a label that has earned its table leaves with it
        for _ in range(HASH_TABLE_AFTER):
            suite.hash_to_group(b"label 0") ** 2
        for i in range(HASH_MEMO_SIZE + 5):
            suite.hash_to_group(b"label %d" % i)
            assert len(suite._hashed) <= HASH_MEMO_SIZE
        del mapped[:]
        assert suite.hash_to_group("doctor") == first
        assert mapped == [b"doctor"]
        assert suite.hash_to_group(b"label 0").table is None


def test_a_hashed_label_earns_its_table_at_call_HASH_TABLE_AFTER(monkeypatch):
    """Through call ``HASH_TABLE_AFTER`` - 1 a label's element carries no
    table and its powers take Straus passes; that call marks it as a fixed
    base, so the power after it builds the table, once, and later powers
    walk it.  The map runs once throughout."""
    suite = get_suite("mock")  # a fresh memo
    mapped, builds = [], []
    hash_to_group, table = suite._hash_to_group, _bn256.table
    monkeypatch.setattr(suite, "_hash_to_group",
                        lambda label: mapped.append(label) or hash_to_group(label))
    monkeypatch.setattr(_bn256, "table",
                        lambda group, value: builds.append(value) or table(group, value))
    for call in range(1, HASH_TABLE_AFTER):
        h = suite.hash_to_group(b"ward")
        assert h.table is None and suite.dlog_g0(h ** 5) == 5 * h.point % suite.order, call
    assert builds == []
    h = suite.hash_to_group(b"ward")
    for k in (5, 6, 0):
        assert suite.dlog_g0(h ** k) == k * h.point % suite.order
    assert builds == [h.point] and h.table is not None
    assert mapped == [b"ward"]


def test_threads_hashing_one_label_agree_on_its_powers():
    """Threads that hash and raise one label race on its call count and
    table; every power is right, and the label ends with its table."""
    suite, threads_n, calls = get_suite("mock"), 4, 30
    start = threading.Barrier(threads_n, timeout=60)
    wrong = []

    def work(k):
        start.wait()
        for _ in range(calls):
            h = suite.hash_to_group(b"shared")
            if suite.dlog_g0(h ** k) != k * h.point % suite.order:
                wrong.append(k)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2, 2 + threads_n)]
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
    assert wrong == [] and suite.hash_to_group(b"shared").table is not None


def test_bn256_powers_of_a_tabled_hash_match_straus_and_the_ladder():
    """A hashed element that has earned its table gives the power that a
    Straus pass over the same point gives, and the ladder's."""
    suite = get_suite("bn256")  # a fresh memo
    for _ in range(HASH_TABLE_AFTER):
        h = suite.hash_to_group(b"tabled attribute")
    plain = suite.decode_g0(h.encode(), LEFT)  # the same point, no table
    curve, rng = _bn256.CURVE, random.Random(0x7AB)
    scalars = [0, 1, 2, suite.order - 1] + [rng.randrange(suite.order) for _ in range(3)]
    for k in scalars:
        want = oracles.ladder(h.point, k, curve.add, curve.double, curve.identity)
        tabled = (h ** k).point
        assert curve.normal(tabled) == curve.normal((plain ** k).point) == curve.normal(want), k
    assert h.table is not None and plain.table is None


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_an_element_keeps_its_encoding(name, monkeypatch):
    """A second encode() of an element, or the first of a decoded one,
    returns the same bytes without calling the group codec."""
    suite = get_suite(name)
    encodes = []
    suite.groups = {
        side: group._replace(encode=lambda v, f=group.encode: encodes.append(v) or f(v))
        for side, group in suite.groups.items()
    }
    for side, gen in ((LEFT, suite.generator), (RIGHT, suite.right_generator)):
        x = gen ** 12345
        raw = x.encode()
        assert len(encodes) == 1
        assert x.encode() is raw and suite.encode_g0(x) is raw
        decoded = suite.decode_g0(raw, side)
        assert decoded.encode() == raw and decoded == x
        assert len(encodes) == 1
        del encodes[:]


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_sides_never_mix(name):
    suite = get_suite(name)
    g1, g2 = suite.generator, suite.right_generator
    assert g1.side == LEFT and g2.side == RIGHT
    assert (g1 ** 5).side == LEFT and (g2 ** 5).side == RIGHT
    for same in ((g1, g1), (g2, g2)):
        with pytest.raises(AlgebraError):
            suite.pairing(*same)
    with pytest.raises(AlgebraError):
        g1 * g2
    with pytest.raises(AlgebraError):
        g1 == g2
    with pytest.raises(AlgebraError):
        suite.decode_g0(g1.encode(), "both")


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_inequality_is_the_negation_of_equality(name):
    suite = get_suite(name)
    for g in (suite.generator, suite.right_generator, suite.gt_generator):
        x, same, other = g ** 3, g ** 3, g ** 4
        assert x == same and not x != same
        assert x != other and not x == other
        for foreign in (3, None, b"\x01"):
            assert x != foreign and foreign != x and not x == foreign
    assert suite.generator != suite.gt_generator


def test_scalar_codec(mock):
    for k in (0, 1, 57, 100):
        assert mock.decode_scalar(mock.encode_scalar(k)) == k
    with pytest.raises(AlgebraError):
        mock.encode_scalar(101)
    with pytest.raises(AlgebraError):
        mock.encode_scalar(-1)
    with pytest.raises(AlgebraError):
        mock.decode_scalar(b"\x00" * 99)


def test_g0_codec_mock(mock, rng):
    for g in (mock.generator, mock.right_generator):
        for k in (0, 1, 50, 100):
            el = g ** k
            back = mock.decode_g0(el.encode(), g.side)
            assert back.side == g.side and back == el
    h = mock.hash_to_group(b"left only")
    assert mock.decode_g0(h.encode(), LEFT) == h


def test_gt_codec_mock(mock):
    egg = mock.gt_generator
    for k in (0, 1, 33):
        el = egg ** k
        assert mock.decode_gt(el.encode()) == el


def test_rand_scalar_seeded_is_reproducible(mock):
    import random

    a = [mock.rand_scalar(random.Random(5)) for _ in range(10)]
    b = [mock.rand_scalar(random.Random(5)) for _ in range(10)]
    assert a == b
    assert all(0 <= x < mock.order for x in a)


def test_measure_counts_operations(mock):
    g = mock.generator
    with mock.measure() as span:
        _ = g ** 4
        _ = g * g
        _ = mock.pairing(g, mock.right_generator)
        _ = mock.hash_to_group(b"x")
    assert span.exponentiations == 1
    assert span.multiplications == 1
    assert span.pairings == 1
    assert span.hash_calls == 1
    # spans do not leak outside their block
    _ = g ** 2
    assert span.exponentiations == 1


def test_measure_rolls_nested_counts_up(mock):
    g = mock.generator
    with mock.measure() as outer:
        _ = g ** 2
        with mock.measure() as inner:
            _ = g ** 3
            _ = g ** 4
            _ = g * g
        assert inner.exponentiations == 2
        _ = mock.hash_to_group(b"after")
    assert inner.exponentiations == 2 and inner.hash_calls == 0
    assert outer.exponentiations == 3
    assert outer.multiplications == 1
    assert outer.hash_calls == 1


def test_measure_spans_are_per_thread(mock):
    barrier = threading.Barrier(2, timeout=30)
    counts = {}

    def work(name, n):
        with mock.measure() as span:
            barrier.wait()  # both spans are open before either thread works
            for _ in range(n):
                _ = mock.generator ** 2
            barrier.wait()
        counts[name] = span.exponentiations

    threads = [
        threading.Thread(target=work, args=(name, n)) for name, n in (("a", 3), ("b", 5))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert counts == {"a": 3, "b": 5}


def test_seal_roundtrip_and_tag(mock):
    key = mock.gt_generator ** 21
    blob = mock.seal(key, b"payload bytes", b"ctx")
    assert mock.unseal(key, blob, b"ctx") == b"payload bytes"
    with pytest.raises(IntegrityError):
        mock.unseal(mock.gt_generator ** 22, blob, b"ctx")
    with pytest.raises(IntegrityError):
        mock.unseal(key, blob, b"other ctx")
    with pytest.raises(IntegrityError):
        mock.unseal(key, blob[:-1] + bytes([blob[-1] ^ 1]), b"ctx")
    with pytest.raises(IntegrityError):
        mock.unseal(key, blob[:4], b"ctx")


def test_seal_tag_is_keyed(mock):
    """A reader without the key cannot confirm a guessed payload by its tag."""
    payload, context = b"Alice Smith", b"level:1"
    tags = {
        mock.seal(mock.gt_generator ** k, payload, context)[-SEAL_TAG_BYTES:]
        for k in (5, 6)
    }
    assert len(tags) == 2
    assert hash_commit(payload + b"|" + context)[:SEAL_TAG_BYTES] not in tags


def test_seal_handles_empty_payload(mock):
    key = mock.gt_generator ** 3
    assert mock.unseal(key, mock.seal(key, b"", b"c"), b"c") == b""


@given(payload=st.binary(max_size=200), context=st.binary(max_size=32))
@settings(max_examples=50, deadline=None)
def test_seal_roundtrip_property(payload, context):
    suite = get_suite("mock")
    key = suite.gt_generator ** 17
    assert suite.unseal(key, suite.seal(key, payload, context), context) == payload


def test_kdf_stream_properties():
    a = kdf_stream(b"key", b"ctx", 100)
    assert len(a) == 100
    assert kdf_stream(b"key", b"ctx", 100) == a
    assert kdf_stream(b"key", b"ctx", 40) == a[:40]
    assert kdf_stream(b"key", b"other", 100) != a
    assert kdf_stream(b"yek", b"ctx", 100) != a


def test_dlog_unavailable_on_bn256(bn256):
    with pytest.raises(AlgebraError):
        bn256.dlog_g0(bn256.generator)
    with pytest.raises(AlgebraError):
        bn256.dlog_gt(bn256.gt_generator)


def test_bn256_bilinearity(bn256, rng):
    g1, g2 = bn256.generator, bn256.right_generator
    a = bn256.rand_scalar_nonzero(rng)
    b = bn256.rand_scalar_nonzero(rng)
    assert bn256.pairing(g1 ** a, g2 ** b) == bn256.gt_generator ** ((a * b) % bn256.order)


def test_bn256_pairing_orientation(bn256, rng):
    h = bn256.hash_to_group(b"attribute")
    assert h.side == LEFT
    k = bn256.rand_scalar_nonzero(rng)
    g2 = bn256.right_generator
    assert bn256.pairing(h, g2 ** k) == bn256.pairing(g2 ** k, h)
    assert bn256.pairing(h, g2) ** k == bn256.pairing(h ** k, g2)


def test_bn256_g0_codec(bn256, rng):
    k = bn256.rand_scalar_nonzero(rng)
    # a compressed base-curve point, and an affine twist point; no flags byte
    for g, size in ((bn256.generator, 33), (bn256.right_generator, 129)):
        el = g ** k
        raw = el.encode()
        assert len(raw) == size
        back = bn256.decode_g0(raw, g.side)
        assert back.side == g.side and back == el
        # identity (point at infinity) must survive the codec too
        ident = g ** 0
        assert bn256.decode_g0(ident.encode(), g.side) == ident
        with pytest.raises(AlgebraError):
            bn256.decode_g0(b"\xff" * size, g.side)
    h = bn256.hash_to_group(b"one sided")
    assert bn256.decode_g0(h.encode(), LEFT) == h
    # the caller's side decides; an encoding of the other side is refused
    with pytest.raises(AlgebraError):
        bn256.decode_g0(h.encode(), RIGHT)
    with pytest.raises(AlgebraError):
        bn256.decode_g0((bn256.right_generator ** k).encode(), LEFT)


def test_bn256_left_decode_refuses_x_off_the_curve(bn256):
    """An x whose x^3 + 3 is not a square mod p is refused under either
    tag; one whose x^3 + 3 is a square decodes to a point on the curve."""
    b = _bn256
    off, on = [], []
    for x in range(1, 40):
        (on if b.legendre(x**3 + 3) == 1 else off).append(x)
    assert off and on
    for x in off:
        for tag in (2, 3):
            with pytest.raises(AlgebraError, match="not on the curve"):
                bn256.decode_g0(bytes([tag]) + x.to_bytes(32, "big"), LEFT)
    for x in on:
        pt = bn256.decode_g0(b"\x02" + x.to_bytes(32, "big"), LEFT).point
        assert pt[0] == x and (pt[1] ** 2 - x**3 - 3) % b.p == 0 and pt[1] % 2 == 0


def _fp2_sqrt(a):
    """A square root in Fp2 for p = 3 mod 4, or None when there is none."""
    from etenon import _bn256 as b

    def power(x, k):
        return oracles.ladder(x, k, b.fp2_mul, b.fp2_square, b.FP2_ONE)

    a1 = power(a, (b.p - 3) // 4)
    alpha = b.fp2_mul(b.fp2_square(a1), a)
    x0 = b.fp2_mul(a1, a)
    if alpha == (0, b.p - 1):
        root = b.fp2_mul((1, 0), x0)  # i * x0
    else:
        root = b.fp2_mul(power(b.fp2_add(alpha, (0, 1)), (b.p - 1) // 2), x0)
    return root if b.fp2_square(root) == a else None


def _twist_point_off_the_subgroup():
    """A point on the twist found by trial.  The twist's cofactor is
    about p, so with overwhelming probability it lies outside the
    order-r group."""
    from etenon import _bn256 as b

    n = 1
    while True:
        x = (0, n)
        y = _fp2_sqrt(b.fp2_add(b.fp2_mul(b.fp2_square(x), x), b.twist_B))
        if y is not None:
            return (x, y, (0, 1))
        n += 1


def test_bn256_right_decode_checks_the_subgroup(bn256):
    from etenon import _bn256 as b

    pt = _twist_point_off_the_subgroup()
    assert b.g2_on_curve(pt)
    assert b.multi_mul(b.TWIST, [(pt, bn256.order)])[2] != (0, 0)
    coords = pt[0] + pt[1]
    raw = b"\x01" + b"".join(c.to_bytes(32, "big") for c in coords)
    with pytest.raises(AlgebraError, match="subgroup"):
        bn256.decode_g0(raw, RIGHT)
    # the same layout for a subgroup point decodes
    assert bn256.decode_g0(bn256.right_generator.encode(), RIGHT) == bn256.right_generator


def _edge_scalars():
    """Scalars around the window width, u and the order, and seeded
    random ones; r - 2 and r - 3 end on an add of equal points (the
    doubling fallback)."""
    r = _bn256.order
    rng = random.Random(0xB256)
    scalars = [0, 1, 2, 15, 16, 17, 31, 32, 33, _bn256.u, r - 3, r - 2, r - 1, r, r + 1, 2**256 - 1]
    scalars += [rng.randrange(r) for _ in range(4)]
    scalars += [rng.randrange(2**300) for _ in range(2)]
    return scalars


def test_bn256_windows_match_the_ladder():
    """One-term Straus passes agree with the plain ladder of the oracles
    on edge scalars around the window width, u and the order, and on
    seeded random ones, for subgroup points, a twist point outside the
    subgroup, and in the target group for a finished pairing value and
    for another member of the cyclotomic subgroup, of an order other
    than r."""
    from etenon import _bn256 as b

    scalars = _edge_scalars()
    twist = _twist_point_off_the_subgroup()
    finished = b.final_exp(oracles.miller(b.twist_G, b.curve_G))
    cyclotomic = _cyclotomic(_random_fp12(random.Random(0xC7C)))
    cases = [
        (b.CURVE, b.curve_G, b.g1_add, b.g1_double),
        (b.TWIST, b.twist_G, b.g2_add, b.g2_double),
        (b.TWIST, twist, b.g2_add, b.g2_double),
        (b.CYCLOTOMIC, finished, b.fp12_mul, b.fp12_square),
        (b.CYCLOTOMIC, cyclotomic, b.fp12_mul, b.fp12_square),
    ]
    for k in scalars:
        for group, x, add, double in cases:
            want = oracles.ladder(x, k, add, double, group.identity)
            assert group.normal(b.multi_mul(group, [(x, k)])) == group.normal(want), k


def _random_fp12(rng):
    return _bn256.gt_unmarshall(*(rng.randrange(_bn256.p) for _ in range(12)))


def _cyclotomic(f):
    """f^((p^6 - 1)(p^2 + 1)), the easy part of the final exponentiation:
    a value of the cyclotomic subgroup, almost never of order r."""
    b = _bn256
    t = b.fp12_mul(b.fp12_conj(f), b.fp12_inv(f))
    return b.fp12_mul(t, b.fp12_frobenius_p2(t))


def test_bn256_cyclotomic_square_matches_fp12_square():
    """On finished pairing values and on other members of the cyclotomic
    subgroup the cyclotomic squaring equals the generic one."""
    b = _bn256
    rng = random.Random(0xC7C)
    egg = b.final_exp(oracles.miller(b.twist_G, b.curve_G))
    values = [b.FP12_ONE, egg, b.multi_mul(b.CYCLOTOMIC, [(egg, rng.randrange(b.order))])]
    values += [_cyclotomic(_random_fp12(rng)) for _ in range(3)]
    for f in values:
        assert b.fp12_cyclotomic_square(f) == b.fp12_square(f)


def test_bn256_final_exp_matches_the_ladder():
    """The final exponentiation is f^((p^12 - 1)/r) exactly, on one and
    on seeded random Fp12 values."""
    b = _bn256
    rng = random.Random(0xF1E)
    for f in [b.FP12_ONE] + [_random_fp12(rng) for _ in range(2)]:
        want = oracles.ladder(f, (b.p**12 - 1) // b.order, b.fp12_mul, b.fp12_square, b.FP12_ONE)
        assert b.final_exp(f) == want


def test_bn256_straus_matches_the_ladder():
    """One Straus pass over 1 to 4 terms equals the sum of the terms'
    ladder products: on the edge scalars, on equal bases and equal
    terms, on the point at infinity and on a twist point outside the
    subgroup."""
    from etenon import _bn256 as b

    scalars = _edge_scalars()
    curves = [
        (b.CURVE, [b.curve_G, b.g1_hash_to_point(b"straus"), b.G1_INFINITY]),
        (b.TWIST, [b.twist_G, _twist_point_off_the_subgroup(), b.G2_INFINITY]),
    ]
    for group, bases in curves:
        add, affine, infinity = group.add, group.normal, group.identity
        ladders = {}

        def product(i, k):
            if (i, k) not in ladders:
                ladders[i, k] = oracles.ladder(bases[i], k, add, group.double, infinity)
            return ladders[i, k]

        for n in range(1, 5):
            for j in range(len(scalars)):
                # base 0 recurs in every sum of 3 or more terms, and the
                # last term of a 4-term sum repeats the first
                picks = [(t % len(bases), scalars[(j + 7 * t) % len(scalars)]) for t in range(n)]
                if n == 4:
                    picks[3] = picks[0]
                want = infinity
                for i, k in picks:
                    want = add(want, product(i, k))
                got = b.multi_mul(group, [(bases[i], k) for i, k in picks])
                assert affine(got) == affine(want), picks
        assert b.multi_mul(group, []) == infinity


_MIXED_SCALARS = st.one_of(
    st.sampled_from([
        0, 1, 2, 2**127, 2**128 - 3, 2**128 - 2, 2**128 - 1, 2**128,
        _bn256.order - 2, _bn256.order - 1,
    ]),
    st.integers(0, 2**128 - 1),
    st.integers(0, _bn256.order - 1),
)


@given(
    side=st.sampled_from([LEFT, RIGHT]),
    picks=st.lists(st.tuples(st.integers(0, 2), _MIXED_SCALARS), min_size=1, max_size=20),
)
@settings(max_examples=20, deadline=None)
def test_bn256_straus_matches_the_ladder_on_mixed_lengths(side, picks):
    """A pass of 1 to 20 terms whose scalars mix 0, 1, short (below and
    around 2**128, entering at their own 128-bit window) and full-size
    ones equals the sum of the terms' ladder products."""
    b = _bn256
    if side == LEFT:
        group, bases = b.CURVE, [b.curve_G, b.g1_hash_to_point(b"mixed")]
    else:
        group, bases = b.TWIST, [b.twist_G, _twist_point_off_the_subgroup()]
    bases.append(b.multi_mul(group, [(bases[0], 3)]))
    add, infinity = group.add, group.identity
    want = infinity
    for i, k in picks:
        want = add(want, oracles.ladder(bases[i], k, add, group.double, infinity))
    got = b.multi_mul(group, [(bases[i], k) for i, k in picks])
    assert group.normal(got) == group.normal(want)


def _fixed_bases(suite, rng):
    """g, g2 and a fresh parameter set's g_delta and egg_gamma: the bases
    that carry tables, with the side each lives on."""
    pp, _ = mlabe.setup(suite, rng)
    return [(suite.generator, LEFT), (suite.right_generator, RIGHT),
            (pp.g_delta, LEFT), (pp.egg_gamma, TARGET)]


def test_bn256_table_powers_match_the_ladder(bn256):
    """On the edge scalars, a power of each fixed base is taken from its
    table and equals the plain ladder's."""
    b = _bn256
    for x, side in _fixed_bases(bn256, random.Random(0x7AB)):
        for k in _edge_scalars():
            got = x ** k
            assert type(x.table) is tuple, side  # the table is built and kept
            if side == LEFT:
                want = oracles.ladder(x.point, k, b.g1_add, b.g1_double, b.G1_INFINITY)
                assert b.g1_affine(got.point) == b.g1_affine(want), k
            elif side == RIGHT:
                want = oracles.ladder(x.point, k, b.g2_add, b.g2_double, b.G2_INFINITY)
                assert b.g2_affine(got.point) == b.g2_affine(want), k
            else:
                want = oracles.ladder(x.value, k, b.fp12_mul, b.fp12_square, b.FP12_ONE)
                assert got.value == want and not got.owed, k


_TABLE_GROUPS = {"g1": _bn256.CURVE, "g2": _bn256.TWIST, "gt": _bn256.CYCLOTOMIC}


@given(
    name=st.sampled_from(sorted(_TABLE_GROUPS)),
    j=st.integers(1, _bn256.order - 1),
    k=st.integers(0, _bn256.order - 1),
)
@example(name="g1", j=1, k=0)
@example(name="g2", j=1, k=_bn256.order - 1)
@example(name="gt", j=1, k=2**128 + 1)
@settings(max_examples=6, deadline=None)
def test_bn256_column_tables_match_the_row_oracle(bn256, name, j, k):
    """A table built a column at a time holds the ints, fixes included,
    of the row-by-row Jacobian build, on the generators (j = 1) and on
    random bases of each group, and a power taken from it equals the
    ladder's."""
    group = _TABLE_GROUPS[name]
    generator = bn256.gt_generator.value if group is _bn256.CYCLOTOMIC else group.generator
    x = group.normal(_bn256.multi_mul(group, [(generator, j)]))
    table = _bn256._table(group, x)
    assert table == oracles.fixed_base_table(group, x)
    want = group.normal(oracles.ladder(x, k, group.add, group.double, group.identity))
    assert group.normal(_bn256.fixed_mul(group, table, k)) == want


@pytest.mark.parametrize("group", [_bn256.CURVE, _bn256.TWIST], ids=["g1", "g2"])
def test_bn256_a_zero_denominator_stops_a_table_build(group):
    """A zero denominator raises, where the inverse of zero, which
    inv_mod_p gives as 0, would corrupt a row.  With negation for
    doubling each row's step is minus its first entry, so the first
    column step has vertical slopes; with a doubling to infinity a row
    base has no affine form."""
    b = _bn256
    with pytest.raises(ZeroDivisionError):
        b._table(group._replace(double=group.neg), group.generator)
    with pytest.raises(ZeroDivisionError):
        b._table(group._replace(double=lambda a: group.identity), group.generator)


def test_bn256_generator_tables_are_shared(bn256):
    """The tables of g and g2 are built once per process, whichever
    element raises them, a decoded copy of the parameters included; each
    parameter set's g_delta has a table of its own."""
    pp, _ = mlabe.setup(bn256, random.Random(0x5A7))
    again = mlabe.pp_from_json(mlabe.pp_to_json(pp))
    g, g2 = bn256.generator, bn256.right_generator
    for x in (g, g2, again.g, pp.g_delta, again.g_delta):
        x ** 3
    assert g.table is again.g.table is _bn256.table(bn256.groups[LEFT], _bn256.curve_G)
    assert g2.table is _bn256.table(bn256.groups[RIGHT], _bn256.twist_G)
    assert again.g_delta.table is not pp.g_delta.table
    assert again.g_delta.table == pp.g_delta.table


def test_bn256_suite_computes_with_the_curve_modules_own_groups(bn256):
    """The suite's group records, codecs included, are the ones the curve
    module defines, checks at import and tests membership with; every
    suite shares them."""
    records = {LEFT: _bn256.CURVE, RIGHT: _bn256.TWIST, TARGET: _bn256.CYCLOTOMIC}
    for suite in (bn256, get_suite("bn256")):
        assert all(suite.groups[side] is group for side, group in records.items())


def test_bn256_endomorphisms_act_as_their_eigenvalues():
    """phi, psi and the Frobenius map raise the generators of G1, G2 and
    GT to their lambdas, by the plain ladder: LAMBDA_1, a cube root of
    unity mod r, and p mod r = 6u^2."""
    b = _bn256
    r, u = b.order, b.u
    assert (b.LAMBDA_1**2 + b.LAMBDA_1 + 1) % r == 0
    assert b.LAMBDA_P == 6 * u * u == b.p % r
    assert pow(b.BETA, 3, b.p) == 1 != b.BETA
    egg = b.final_exp(oracles.miller(b.twist_G, b.curve_G))
    for group, x, lam in [
        (b.CURVE, b.curve_G, b.LAMBDA_1),
        (b.TWIST, b.twist_G, b.LAMBDA_P),
        (b.CYCLOTOMIC, egg, b.LAMBDA_P),
    ]:
        want = oracles.ladder(x, lam, group.add, group.double, group.identity)
        assert group.normal(group.endo(x)) == group.normal(want)


def _glv_extremes():
    """Scalars whose G1 halves lie near the corners of the rounding cell,
    one for each pair of signs: the halves there are largest."""
    b = _bn256
    scalars = []
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            h0 = (s1 * b._A1 + s2 * b._A2) // 2
            h1 = (s1 * b._B1 + s2 * b._B2) // 2
            scalars.append((h0 + b.LAMBDA_1 * h1) % b.order)
    return scalars


def test_bn256_glv_halves_are_short():
    """The G1 halves of a scalar add up to it, have at most 127 bits and
    lie below 2**127 + 2**63, the bound the basis gives, on seeded draws
    and at the corners of the rounding cell, where both signs occur."""
    b = _bn256
    bound = max(abs(b._A1) + abs(b._A2), abs(b._B1) + abs(b._B2)) // 2
    assert bound < 2**127 + 2**63
    rng = random.Random(0x61F)
    scalars = _glv_extremes() + [rng.randrange(b.order) for _ in range(2000)]
    signs = set()
    for k in scalars:
        k0, k1 = b.g1_split(k)
        assert (k0 + b.LAMBDA_1 * k1 - k) % b.order == 0, k
        assert max(abs(k0), abs(k1)) <= bound and max(abs(k0), abs(k1)).bit_length() <= 127, k
        signs.add((k0 < 0, k1 < 0))
    assert len(signs) == 4
    # at the corners both halves are within a few bits of the bound
    for k in _glv_extremes():
        assert min(abs(h) for h in b.g1_split(k)).bit_length() >= 120, k


def _split_scalars():
    """The edge scalars, the scalars next to each lambda and r - lambda,
    and scalars whose G1 halves are negative or near their bound."""
    b = _bn256
    scalars = _edge_scalars() + _glv_extremes()
    for lam in (b.LAMBDA_1, b.LAMBDA_P):
        scalars += [lam - 1, lam, lam + 1, b.order - lam]
    # the first seeded scalar for each pair of G1 half signs
    rng = random.Random(0x5B1)
    signs = {}
    while len(signs) < 4:
        k = rng.randrange(b.order)
        k0, k1 = b.g1_split(k)
        signs.setdefault((k0 < 0, k1 < 0), k)
    return scalars + list(signs.values())


def test_bn256_split_powers_match_the_ladder():
    """In each group, for subgroup elements, a split one-term pass and a
    split table power equal the plain ladder on every split scalar (a
    scalar of r or more reduced first, as the suite does), and a split
    pass of mixed long, short and zero scalars equals the sum of its
    ladders."""
    b = _bn256
    egg = b.final_exp(oracles.miller(b.twist_G, b.curve_G))
    cases = [
        (b.CURVE, [b.curve_G, b.g1_hash_to_point(b"split")]),
        (b.TWIST, [b.twist_G, b.multi_mul(b.TWIST, [(b.twist_G, 0x5B1)])]),
        (b.CYCLOTOMIC, [egg, b.multi_mul(b.CYCLOTOMIC, [(egg, 0x5B1)])]),
    ]
    scalars = _split_scalars()
    for group, bases in cases:
        x = bases[1]
        table = b.table(group, x)
        for k in scalars:
            want = group.normal(oracles.ladder(x, k, group.add, group.double, group.identity))
            k %= b.order
            assert group.normal(b.split_mul(group, [(x, k)])) == want, (group.window, k)
            assert group.normal(b.fixed_mul(group, table, k)) == want, (group.window, k)
        picks = [(0, scalars[-1]), (1, 2**100 + 7), (0, 0), (1, b.order - 1), (1, scalars[-2])]
        want = group.identity
        for i, k in picks:
            want = group.add(want, oracles.ladder(bases[i], k, group.add, group.double, group.identity))
        got = b.split_mul(group, [(bases[i], k) for i, k in picks])
        assert group.normal(got) == group.normal(want)


def test_bn256_split_is_wrong_off_the_subgroup():
    """psi acts as 6u^2 only on G2, so a split pass on a twist point
    outside it misses the plain product; membership checks therefore
    take the plain pass, which equals the ladder there, at k = r too."""
    b = _bn256
    pt = _twist_point_off_the_subgroup()
    k = random.Random(0x0FF).randrange(b.order)
    for j in (k, b.order):
        want = oracles.ladder(pt, j, b.g2_add, b.g2_double, b.G2_INFINITY)
        assert b.g2_affine(b.multi_mul(b.TWIST, [(pt, j)])) == b.g2_affine(want), j
    assert b.g2_affine(b.split_mul(b.TWIST, [(pt, k)])) != b.g2_affine(want)


def _row_formats():
    """Per row format in use, its group, the format and a base x: the
    formats of split passes and tables in each group and on mock, and
    the value format that multi_mul builds, on a twist point outside
    the subgroup and in Fp2 under multiplication."""
    b = _bn256
    mock = get_suite("mock").groups[LEFT]

    def values(group):
        return b.value_columns(group.add, group.neg, group.identity, group.endo)

    g2 = b.multi_mul(b.TWIST, [(b.twist_G, 0x5B1)])
    return {
        "g1": (b.CURVE, b.CURVE.columns, b.g1_hash_to_point(b"rows")),
        "g2": (b.TWIST, b.TWIST.columns, b.g2_affine(g2)),
        "gt": (b.CYCLOTOMIC, b.CYCLOTOMIC.columns, b.final_exp(oracles.miller(g2, b.curve_G))),
        "mock": (mock, mock.columns, 7),
        "g1-values": (b.CURVE, values(b.CURVE), b.g1_hash_to_point(b"values")),
        "g2-values": (b.TWIST, values(b.TWIST), _twist_point_off_the_subgroup()),
        "fp2-values": (b._FP2_UNITS, values(b._FP2_UNITS), b.xi),
    }


@pytest.mark.parametrize("name", ["g1", "g2", "gt", "mock", "g1-values", "g2-values", "fp2-values"])
def test_every_row_format_adds_each_signed_digit_as_the_ladder(name):
    """For a row that _rows builds, entry(r, row, d) equals r + d*x by
    the ladder for every odd d in +-[1, 2**WINDOW - 1], from the
    identity, from 3x (an add of equal or opposite values at d = +-3)
    and from a multiple of x that is not in normal form."""
    b = _bn256
    group, columns, x = _row_formats()[name]
    add, neg, identity = group.add, group.neg, group.identity
    normal = group.normal or (lambda v: v)

    def times(k):
        return oracles.ladder(x, k, add, group.double, identity)

    rows, _ = b._rows(columns, [x], [group.double(x)], 1 << (b.WINDOW - 1))
    row = b._coords(columns, rows[0])
    for r in (identity, times(3), times(0x5B1)):
        for d in range(1 - (1 << b.WINDOW), 1 << b.WINDOW, 2):
            want = add(r, times(d) if d > 0 else neg(times(-d)))
            assert normal(columns.entry(r, row, d)) == normal(want), d


def _counting_columns(group):
    """The group with its add and its column inverse counted."""
    b = _bn256
    calls = {"add": 0, "inv": 0}

    def add(x, y):
        calls["add"] += 1
        return group.add(x, y)

    def counted(inv):
        def inverse(a):
            calls["inv"] += 1
            return inv(a)
        return inverse

    if group is b.CURVE:
        columns = b._affine_columns(
            lambda x, y: x * y % b.p, lambda x, y: (x - y) % b.p, counted(b.inv_mod_p), 1,
            lambda q: q, b.g1_phi, b._g1_entry, b._g1_pick,
        )
    else:
        columns = b._affine_columns(
            b.fp2_mul, b.fp2_sub, counted(b.fp2_inv), b.FP2_ONE, lambda q: q[0] + q[1], b.g2_psi,
            b._g2_entry, b._g2_pick,
        )
    return group._replace(add=add, columns=columns), calls


@pytest.mark.parametrize("group", [_bn256.CURVE, _bn256.TWIST], ids=["g1", "g2"])
def test_a_split_pass_adds_affine_rows_built_with_one_inversion_per_column(group):
    """A pass with a split term makes no Jacobian add and 2**(WINDOW - 1)
    inversions, one per column of its rows, whatever its number of terms;
    a pass of short scalars alone keeps Jacobian multiples and inverts
    nothing.  Both equal the sum of their ladders."""
    b = _bn256
    counting, calls = _counting_columns(group)
    rng = random.Random(0xAFF)
    generator = group.generator
    bases = [b.multi_mul(group, [(generator, rng.randrange(1, b.order))]) for _ in range(13)]

    def ladders(terms):
        want = group.identity
        for x, k in terms:
            want = group.add(want, oracles.ladder(x, k, group.add, group.double, group.identity))
        return group.normal(want)

    for n in (1, 3, 13):
        # one full-length scalar, then short, r - short and zero ones
        scalars = [rng.randrange(b.order), 2**100 + 5, b.order - 9, 0]
        terms = [(x, scalars[i % 4]) for i, x in enumerate(bases[:n])]
        calls.update(add=0, inv=0)
        got = b.split_mul(counting, terms)
        assert calls == {"add": 0, "inv": 1 << (b.WINDOW - 1)}, n
        assert group.normal(got) == ladders(terms), n
    terms = [(bases[0], 2), (bases[1], 3), (bases[2], b.order - 1)]
    calls.update(add=0, inv=0)
    got = b.split_mul(counting, terms)
    assert calls["inv"] == 0 and calls["add"] > 0
    assert group.normal(got) == ladders(terms)


def _split_groups():
    """Per group, bases in its subgroup and identities; on a curve the
    last identity is not in the form of ``group.identity``."""
    b = _bn256
    g1, g2 = b.g1_hash_to_point(b"split mixed"), b.multi_mul(b.TWIST, [(b.twist_G, 0x5B1)])
    return {
        "g1": (b.CURVE, [b.curve_G, g1, b.G1_INFINITY, b.g1_add(g1, b.g1_neg(g1))]),
        "g2": (b.TWIST, [b.twist_G, g2, b.G2_INFINITY, b.g2_add(g2, b.g2_neg(g2))]),
        "mock": (get_suite("mock").groups[LEFT], [1, 7, 0, 0]),
    }


_SPLIT_GROUPS = _split_groups()


@given(
    name=st.sampled_from(sorted(_SPLIT_GROUPS)),
    picks=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(["zero", "short", "negated", "full"]),
            st.one_of(st.integers(0, 2**130), st.sampled_from([1, 2**128 - 3, 2**128 - 2])),
        ),
        min_size=1, max_size=20,
    ),
)
# both identities beside a split term
@example(name="g1", picks=[(3, "full", 2**129 + 7), (2, "full", 5), (1, "negated", 9)])
@example(name="g2", picks=[(2, "short", 3), (3, "full", 2**130 - 1), (0, "full", 11)])
@settings(max_examples=20, deadline=None)
def test_split_passes_match_the_ladder_on_mixed_lengths(name, picks):
    """A split pass of 1 to 20 terms whose scalars mix 0, short ones
    (below and around half_bits), r minus short ones and full-length
    ones, over subgroup bases and identities (a Jacobian infinity with
    nonzero x and y among them), equals the sum of the terms' ladder
    products."""
    group, bases = _SPLIT_GROUPS[name]
    q, edge = group.order, 2**group.half_bits
    terms = []
    for i, kind, v in picks:
        k = {"zero": 0, "short": v % edge, "negated": (q - v % edge) % q, "full": v % q}[kind]
        terms.append((bases[i], k))
    add, identity = group.add, group.identity
    want = identity
    for x, k in terms:
        want = add(want, oracles.ladder(x, k, add, group.double, identity))
    assert group.normal(_bn256.split_mul(group, terms)) == group.normal(want)


def test_twist_generator_is_a_twist_point_of_order_r():
    """twist_G is a constant taken from elsewhere, not derived here."""
    b = _bn256
    assert b.g2_on_curve(b.twist_G)
    ladder = oracles.ladder(b.twist_G, b.order, b.g2_add, b.g2_double, b.G2_INFINITY)
    assert ladder[2] == b.FP2_ZERO


def _short_edges(order, bits):
    """Scalars a split pass leaves whole and their neighbours that it
    splits: 0 to 3, r - 1 to r - 3, and 3 either side of 2**bits and of
    r - 2**bits."""
    edge = 2**bits
    return [0, 1, 2, 3, order - 1, order - 2, order - 3,
            edge - 3, edge + 3, order - edge - 3, order - edge + 3]


def test_split_passes_of_short_and_negated_scalars_match_the_ladder():
    """In each group of both suites, a scalar near either end of the
    order, or either side of half_bits from either end, equals the
    ladder alone and beside a full-length term."""
    b = _bn256
    egg = b.final_exp(oracles.miller(b.twist_G, b.curve_G))
    cases = [
        (b.CURVE, b.multi_mul(b.CURVE, [(b.curve_G, 0x5B1)])),
        (b.TWIST, b.multi_mul(b.TWIST, [(b.twist_G, 0x5B1)])),
        (b.CYCLOTOMIC, b.multi_mul(b.CYCLOTOMIC, [(egg, 0x5B1)])),
        (get_suite("mock").groups[LEFT], 7),
    ]
    for group, x in cases:
        q, y = group.order, group.double(x)
        long = q // 3  # split from either end
        for k in _short_edges(q, group.half_bits):
            for terms, total in (([(x, k)], k), ([(x, long), (y, k)], long + 2 * k)):
                want = oracles.ladder(x, total % q, group.add, group.double, group.identity)
                got = b.split_mul(group, terms)
                assert group.normal(got) == group.normal(want), (group.window, terms)


def test_a_split_pass_runs_every_window_of_a_half_whatever_its_short_scalars():
    """A pass with a full-length term makes HALF_BITS doublings past its
    first window, whatever its other scalars are, plus one per term for
    its table; a pass of short scalars runs only its longest one's
    windows, so a Lagrange power of 2, 3 or -1 makes no doubling past
    its table's."""
    b = _bn256
    doublings = []

    def double(a):
        doublings.append(a)
        return b.g1_double(a)

    group = b.CURVE._replace(double=double)

    def count(terms):
        doublings.clear()
        b.split_mul(group, terms)
        return len(doublings)

    x, long = b.curve_G, b.order // 3
    full = (b.HALF_BITS // b.WINDOW - 1) * b.WINDOW
    for k in _short_edges(b.order, b.HALF_BITS) + [long]:
        assert count([(x, long), (x, k)]) == full + 2, k
        assert count([(x, k), (x, 3), (x, long)]) == full + 3, k
    for k in (2, 3, b.order - 1, b.order - 4):
        assert count([(x, k)]) == 1, k
    assert count([(x, 2), (x, 2**20)]) == 5 * b.WINDOW + 2


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_negation_is_the_exact_inverse_and_ticks_nothing(name):
    suite = get_suite(name)
    for x in (suite.hash_to_group(b"negated") ** 5, suite.right_generator ** 5):
        with suite.measure() as span:
            y = -x
        assert span.as_dict() == OpCounters().as_dict()
        assert x * y == suite.identity(x.side) and -y == x


@pytest.mark.parametrize("name", ["mock-101", "mock-103", "mock-7"])
def test_mock_split_covers_every_scalar(name):
    """The mock record splits by its lambda of about sqrt(q): on every
    scalar the halves add up, fit half_bits, and a split pass equals
    k*x mod q."""
    suite = get_suite(name)
    q, z = suite.order, suite.groups[LEFT]
    lam = z.endo(1)
    assert 1 < lam < q and lam * lam >= q
    for k in range(q):
        k0, k1 = z.split(k)
        assert k0 + lam * k1 == k and max(k0, k1) + 2 < 2**z.half_bits, k
        assert _bn256.split_mul(z, [(3, k), (q - 1, k * k % q)]) == (3 * k - k * k) % q, k


@pytest.mark.parametrize("name", ["mock", "bn256"])
def test_pending_products_mix_table_and_straus_terms(name, monkeypatch):
    """A pending product of table powers, Straus powers and finished
    points is one evaluation that equals its plain evaluation.  Equality
    of two such products evaluates each, and a short Straus scalar stays
    short in both."""
    suite = get_suite(name)
    passes = _evaluated_terms(suite, monkeypatch)
    rng = random.Random(0x313)
    pp, _ = mlabe.setup(suite, rng)
    a, b, c, d = (suite.rand_scalar(rng) for _ in range(4))
    h = suite.hash_to_group(b"mixed")
    point = suite.decode_g0((suite.generator ** 9).encode(), LEFT)  # no table
    g = suite.generator
    product = (g ** a) * (h ** b) * (pp.g_delta ** c) * (point ** d) * h
    plain = [G0Element(suite, LEFT, x.point) for x in (g, h, pp.g_delta, point)]
    want = (plain[0] ** a) * (plain[1] ** b) * (plain[2] ** c) * (plain[3] ** d) * h
    passes.clear()
    assert product.encode() == want.encode()
    assert passes[0] == 4  # two table powers and two Straus terms
    g2 = suite.right_generator
    right = suite.decode_g0((g2 ** 7).encode(), RIGHT)
    assert ((g2 ** a) * (right ** b)).encode() == (
        (G0Element(suite, RIGHT, g2.point) ** a) * (right ** b)).encode()
    # x == y with both pending evaluates x, then y
    scalars = []
    split_mul = _bn256.split_mul
    monkeypatch.setattr(_bn256, "split_mul", lambda group, terms: scalars.extend(
        k for _, k in terms) or split_mul(group, terms))
    passes.clear()
    assert (g ** (a + b)) * (h ** 7) == (g ** a) * (g ** b) * (h ** 7)
    assert passes == [2, 3] and scalars == [7, 7]
    assert not (g ** (a + b + 1)) * (h ** 7) == (g ** a) * (g ** b) * (h ** 7)


def _settle_bases(suite, side):
    """Bases of one side: the generator, another fixed base, a base with
    no table, whose powers are Straus terms, and on the left a hashed
    label that has earned its table."""
    g = suite.generator if side == LEFT else suite.right_generator
    bases = [
        g,
        suite.fixed_base(suite.decode_g0((g ** 7).encode(), side)),
        suite.decode_g0((g ** 11).encode(), side),
    ]
    if side == LEFT:
        for _ in range(HASH_TABLE_AFTER):
            hashed = suite.hash_to_group(b"settle")
        bases.append(hashed)
    return bases


def _settled(scalars):
    """Per element: its side, its factors as (base, scalar), None for
    the finished base itself, and whether the element before it, if of
    the same side, is a factor too, which makes that one shared."""
    factor = st.tuples(st.integers(0, 3), st.one_of(st.none(), scalars))
    return st.lists(
        st.tuples(st.sampled_from([LEFT, RIGHT]), st.lists(factor, min_size=1, max_size=3),
                  st.booleans()),
        min_size=1, max_size=6,
    )


# full-length scalars, which walk in lockstep: hypothesis favours
# small integers, whose zero halves would send every batch to the
# one-at-a-time walk, so they are spread over 256 bits
_SPREAD = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95
_FULL_LENGTH = st.integers(1, 2**64).map(lambda i: i * _SPREAD % 2**256)
# a batch with an edge scalar is walked one power at a time
_SETTLED = st.one_of(
    _settled(_FULL_LENGTH),
    _settled(st.one_of(_FULL_LENGTH, st.sampled_from([0, 1, 2, -1, -2]))),
)


def _check_settled(suite, spec):
    """Elements built by ``spec`` and settled together encode byte for
    byte as their twins, built from table-less decoded copies of the
    bases, so that every power of a twin is a term of its own Straus
    pass, and settling them ticks nothing."""
    bases = {side: _settle_bases(suite, side) for side in (LEFT, RIGHT)}
    plain = {side: [suite.decode_g0(x.encode(), side) for x in xs] for side, xs in bases.items()}

    def build(bases):
        out = []
        for side, factors, shared in spec:
            x = None
            for i, k in factors:
                base = bases[side][i % len(bases[side])]
                y = base if k is None else base ** k
                x = y if x is None else x * y
            if shared and out and out[-1].side == side:
                x = x * out[-1]
            out.append(x)
        return out

    settled = build(bases)
    with suite.measure() as span:
        suite.settle(settled)
    assert span.as_dict() == OpCounters().as_dict()
    for x, twin in zip(settled, build(plain)):
        assert x.encode() == twin.encode()


def _lockstep_always(suite):
    """``suite`` whose source groups walk every batch in lockstep."""
    suite.groups = {side: g._replace(lockstep=1) for side, g in suite.groups.items()}
    return suite


@given(spec=_SETTLED)
@settings(max_examples=25, deadline=None)
def test_bn256_settled_elements_encode_as_lone_evaluations(spec):
    _check_settled(_lockstep_always(get_suite("bn256")), spec)


@given(spec=_SETTLED)
@settings(max_examples=60, deadline=None)
def test_mock_settled_elements_encode_as_lone_evaluations(spec):
    _check_settled(get_suite("mock"), spec)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_bn256_settle_walks_in_lockstep_and_falls_back_on_edge_scalars(bn256, side, monkeypatch):
    """A batch of the group's ``lockstep`` minimum of full-length
    scalars walks in lockstep, each result in normal form; one power
    fewer walks one at a time.  A batch with a scalar that has a zero
    half, among them 0, 1, 2 and on the left r - 1 and r - 2, meets a
    zero denominator (the half's lane adds its fix to its opposite) and
    is walked one power at a time.  Every power, also of r - 1 and
    r - 2 on the right, whose halves are long, equals the ladder's."""
    b = _bn256
    group = bn256.groups[side]
    g = bn256.generator if side == LEFT else bn256.right_generator
    lam = b.LAMBDA_1 if side == LEFT else b.LAMBDA_P
    lone = []
    fixed_mul = b.fixed_mul
    monkeypatch.setattr(b, "fixed_mul", lambda *args: lone.append(1) or fixed_mul(*args))
    rng = random.Random(0x10C)
    full = [rng.randrange(b.order) for _ in range(group.lockstep)]
    bn256.settle([g ** k for k in full[1:]])
    assert len(lone) == group.lockstep - 1
    order = bn256.order
    for edge in (None, 0, 1, 2, order - 1, order - 2, lam, 5 * lam % order, 2**100 + 7):
        scalars = full + ([] if edge is None else [edge])
        elements = [g ** k for k in scalars]
        lone.clear()
        bn256.settle(elements)
        assert len(lone) == (len(scalars) if edge is not None and 0 in group.split(edge) else 0)
        for x, k in zip(elements, scalars):
            want = oracles.ladder(group.generator, k, group.add, group.double, group.identity)
            assert group.normal(x.point) == group.normal(want), (edge, k)
            if not lone:
                assert x.point == group.normal(x.point)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_bn256_reading_a_product_of_table_powers_walks_them_in_lockstep(bn256, side, monkeypatch):
    """Reading the point of one product of the group's ``lockstep``
    minimum of full-length table powers settles it: the powers walk in
    lockstep, each in normal form, none alone, and the product equals
    the ladder's power by the sum of the scalars."""
    b = _bn256
    group = bn256.groups[side]
    g = bn256.generator if side == LEFT else bn256.right_generator
    lone, walked = [], []
    fixed_mul, fixed_muls = b.fixed_mul, b.fixed_muls

    def spied_fixed_muls(group, items):
        out = fixed_muls(group, items)
        walked.extend(out)
        return out

    monkeypatch.setattr(b, "fixed_mul", lambda *args: lone.append(1) or fixed_mul(*args))
    monkeypatch.setattr(b, "fixed_muls", spied_fixed_muls)
    rng = random.Random(0x9EAD)
    scalars = [rng.randrange(b.order) for _ in range(group.lockstep)]
    x = g ** scalars[0]
    for k in scalars[1:]:
        x = x * g ** k
    point = x.point
    assert lone == [] and len(walked) == group.lockstep
    assert all(q == group.normal(q) for q in walked)
    want = oracles.ladder(
        group.generator, sum(scalars) % b.order, group.add, group.double, group.identity
    )
    assert group.normal(point) == group.normal(want)


def test_bn256_gt_table_powers_walk_in_lockstep_and_fall_back_on_edge_scalars(bn256, monkeypatch):
    """A target-group power from a table walks its two halves in
    lockstep, as the group's minimum is one power; one with a zero
    half, among them 0, 1, 2, multiples of LAMBDA_P and 2**100 + 7,
    walks alone.  Every power equals the ladder's in the cyclotomic
    subgroup."""
    b = _bn256
    group = bn256.groups[TARGET]
    base = bn256.fixed_base(bn256.decode_gt(bn256.gt_generator.encode()))
    lone = []
    fixed_mul = b.fixed_mul
    monkeypatch.setattr(b, "fixed_mul", lambda *args: lone.append(1) or fixed_mul(*args))
    order, lam = b.order, b.LAMBDA_P
    full = random.Random(0x6E7).randrange(order)
    for k in (full, 0, 1, 2, order - 1, order - 2, lam, 5 * lam % order, 2**100 + 7):
        lone.clear()
        power = (base ** k).value
        assert lone == ([1] if 0 in group.split(k) else []), k
        assert power == oracles.ladder(base.value, k, group.add, group.double, group.identity), k


def test_bn256_gt_codec(bn256, rng):
    k = bn256.rand_scalar_nonzero(rng)
    el = bn256.gt_generator ** k
    assert bn256.decode_gt(el.encode()) == el


def test_bn256_gt_decode_checks_the_subgroup(bn256):
    raw = bn256.gt_generator.encode()
    perturbed = raw[:-1] + bytes([raw[-1] ^ 1])  # still below p, off the subgroup
    rng = random.Random(0xDEC)
    # zero passes the cyclotomic test and fails the order check; a random
    # value fails the cyclotomic test, and a cyclotomic value of another
    # order the order check
    values = [_random_fp12(rng), _cyclotomic(_random_fp12(rng))]
    wire = [b"".join(c.to_bytes(32, "big") for c in _bn256.gt_marshall(f)) for f in values]
    for bad in [b"\0" * 384, perturbed] + wire:
        with pytest.raises(AlgebraError, match="subgroup"):
            bn256.decode_gt(bad)
    assert bn256.decode_gt(bn256.gt_identity.encode()) == bn256.gt_identity


def test_bn256_exponent_reduction(bn256):
    g = bn256.generator
    assert g ** bn256.order == g ** 0
    assert g ** (-1) == g ** (bn256.order - 1)
    assert bn256.gt_generator ** (-2) == bn256.gt_generator ** (bn256.order - 2)


def _source_points(suite):
    """Left and right pairing arguments, the points at infinity among them."""
    lefts = [suite.generator ** 7, suite.hash_to_group(b"deferred"), suite.generator ** 0]
    rights = [suite.right_generator ** 11, suite.right_generator, suite.right_generator ** 0]
    return lefts, rights


def _finished_operands(suite):
    """Target-group values that never were Miller values."""
    return [
        suite.decode_gt((suite.gt_generator ** 5).encode()),
        suite.gt_generator ** 3,
        suite.gt_identity,
    ]


def _apply(program, values):
    values = list(values)
    for op, i, arg in program:
        a = values[i % len(values)]
        if op == "mul":
            values.append(a * values[arg % len(values)])
        elif op == "div":
            values.append(a / values[arg % len(values)])
        else:
            values.append(a ** arg)
    return values


_EXPONENTS = st.sampled_from([0, 1, 2, -1, 65537, _bn256.order - 1, _bn256.order + 3])
_PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["mul", "div"]), st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.just("exp"), st.integers(0, 20), _EXPONENTS),
    ),
    min_size=1,
    max_size=5,
)


@given(
    pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3),
    program=_PROGRAMS,
)
# a Miller value squared: it must be finished before the cyclotomic pass
@example(pairs=[(0, 0)], program=[("exp", 0, 2)])
# a quotient of Miller values, by the conjugate of the divisor
@example(pairs=[(0, 0), (1, 1)], program=[("div", 0, 1), ("div", 5, 0)])
@settings(max_examples=12, deadline=None)
def test_bn256_deferred_final_exponentiation_matches_eager_pairings(bn256, pairs, program):
    """Products, quotients and powers of pairings, mixed with finished
    values, encode and compare exactly as the same expressions over
    pairings finished on the spot."""
    lefts, rights = _source_points(bn256)
    finished = _finished_operands(bn256)
    deferred = [bn256.pairing(lefts[i], rights[j]) for i, j in pairs]
    eager = [
        G1Element(bn256, oracles.optimal_ate(rights[j].point, lefts[i].point))
        for i, j in pairs
    ]
    got = _apply(program, deferred + finished)
    want = _apply(program, eager + finished)
    for x, y in zip(got, want):
        assert x.encode() == y.encode()
        assert x == y and y == x
    # equality of a deferred result agrees with equality of the eager ones
    for y in want:
        assert (got[-1] == y) == (want[-1].encode() == y.encode())


def test_bn256_deferred_values_stay_inside_the_suite(bn256, final_exp_calls):
    """Products and quotients of pairings are finished only when they are
    compared or encoded, and a power of a pairing finishes it first,
    while the generator and decoded values arrive finished."""
    egg = bn256.gt_generator
    decoded = bn256.decode_gt((egg ** 9).encode())
    calls = final_exp_calls
    calls.clear()
    assert (decoded * egg) ** 2 == egg ** 20 and not calls
    e3 = bn256.pairing(bn256.generator ** 3, bn256.right_generator)
    e = e3 * bn256.pairing(bn256.generator, bn256.right_generator) / e3
    assert not calls
    assert e.encode() == egg.encode() and len(calls) == 1
    assert e == egg and len(calls) == 2
    # a deferred value meeting a finished one is finished first
    assert (e * decoded).encode() == (egg ** 10).encode() and len(calls) == 3
    cubed = bn256.pairing(bn256.generator ** 3, bn256.right_generator) ** 3
    assert not cubed.owed and len(calls) == 4
    assert cubed == egg ** 9 and len(calls) == 4
    key = bn256.pairing(bn256.generator, bn256.right_generator ** 9)
    assert bn256.unseal(key, bn256.seal(egg ** 9, b"data", b"ctx"), b"ctx") == b"data"


def test_bn256_deferred_powers_match_finished_powers(bn256):
    """A power of an owed pairing is finished and equals the same power
    of the finished pairing: a Miller value lies outside the cyclotomic
    subgroup that powers are taken in, so it is finished first, by the
    Straus pass or, when it is marked as a fixed base, from the table of
    its finished value."""
    def pairing():
        return bn256.pairing(bn256.generator ** 3, bn256.right_generator ** 5)

    marked, plain = bn256.fixed_base(pairing()), pairing()
    finished = bn256.fixed_base(bn256.decode_gt(plain.encode()))
    for k in (2, 3, 17, 65537, _bn256.u, bn256.order - 1):
        want = (finished ** k).encode()
        for e in (marked, plain):
            assert not (e ** k).owed
            assert (e ** k).encode() == want, k
    assert marked.table == finished.table and type(marked.table) is tuple


def _g0_values(suite, side):
    """Pending, finished, hashed and infinite elements of one side."""
    g = suite.generator if side == LEFT else suite.right_generator
    values = [g ** 7, g, suite.decode_g0((g ** 5).encode(), side), g ** 0]
    if side == LEFT:
        values.append(suite.hash_to_group(b"pending"))
    return values


def _eager_points(side):
    """The points of ``_g0_values``, computed on the spot."""
    b = _bn256
    group = b.CURVE if side == LEFT else b.TWIST
    add, base = group.add, group.generator

    def mul(pt, k):
        return b.multi_mul(group, [(pt, k)])

    points = [mul(base, 7), base, mul(base, 5), mul(base, 0)]
    if side == LEFT:
        points.append(b.g1_hash_to_point(hash_commit(b"pending")))
    return points, add, mul


def _apply_g0(program, values, mul, power):
    values = list(values)
    for op, i, arg in program:
        a = values[i % len(values)]
        if op == "mul":
            values.append(mul(a, values[arg % len(values)]))
        elif op == "div":
            values.append(mul(a, power(values[arg % len(values)], -1)))
        else:
            values.append(power(a, arg))
    return values


def _check_pending_against(suite, side, program, want):
    """Pending elements built by ``program`` encode and compare exactly
    as the finished elements ``want``."""
    def run():
        return _apply_g0(program, _g0_values(suite, side), lambda a, b: a * b, lambda a, k: a ** k)

    for x, y in zip(run(), want):
        assert x.encode() == y.encode()
    # fresh pending values, compared before anything encodes them
    got = run()
    for i, y in enumerate(want):
        same = want[-1].encode() == y.encode()
        assert (got[-1] == got[i]) == same and (got[i] == got[-1]) == same
        assert (got[i] == y) and (y == got[i])
    assert got[-1] == got[-1]


@given(side=st.sampled_from([LEFT, RIGHT]), program=_PROGRAMS)
@settings(max_examples=16, deadline=None)
def test_bn256_pending_elements_match_eager_points(bn256, side, program):
    """Products, quotients and powers of pending elements, mixed with
    finished ones, encode and compare exactly as the same expressions
    over points computed on the spot."""
    order = bn256.order
    points, add, mul = _eager_points(side)
    want = _apply_g0(program, points, add, lambda a, k: mul(a, k % order))
    _check_pending_against(bn256, side, program, [G0Element(bn256, side, pt) for pt in want])


@given(side=st.sampled_from([LEFT, RIGHT]), program=_PROGRAMS)
@settings(max_examples=50, deadline=None)
def test_mock_pending_elements_match_exponent_arithmetic(side, program):
    """The mock suite defers by the same rules: pending elements encode
    and compare exactly as exponents computed on the spot mod the order."""
    mock = get_suite("mock")
    order = mock.order
    logs = [7, 1, 5, 0]
    if side == LEFT:
        logs.append(mock.hash_to_group(b"pending").point)
    want = _apply_g0(program, logs, lambda a, b: (a + b) % order, lambda a, k: a * k % order)
    _check_pending_against(mock, side, program, [G0Element(mock, side, x) for x in want])


def _evaluated_terms(suite, monkeypatch):
    """For every pending source-group element that ``suite.settle``
    evaluates, the number of its terms: its powers through
    ``_bn256.fixed_muls`` plus its terms of the ``_bn256.split_mul``
    pass.  The elements of one call are settled one at a time, so that
    each one's work is told apart; a target-group power, which no
    settle makes, is not counted."""
    passes, frames = [], []
    settle, split_mul, fixed_muls = suite.settle, _bn256.split_mul, _bn256.fixed_muls

    def counted_settle(elements):
        for x in elements:
            if x.factors is None:
                continue
            frames.append(0)
            try:
                settle((x,))
            finally:
                passes.append(frames.pop())

    def count(n):
        if frames:
            frames[-1] += n

    def counted_split_mul(group, terms):
        count(len(terms))
        return split_mul(group, terms)

    def counted_fixed_muls(group, items):
        count(len(items))
        return fixed_muls(group, items)

    monkeypatch.setattr(suite, "settle", counted_settle)
    monkeypatch.setattr(_bn256, "split_mul", counted_split_mul)
    monkeypatch.setattr(_bn256, "fixed_muls", counted_fixed_muls)
    return passes


@pytest.fixture
def bn256_terms(bn256, monkeypatch):
    """The term count of every evaluation the pairing suite makes."""
    return _evaluated_terms(bn256, monkeypatch)


def test_bn256_elements_are_evaluated_once(bn256, bn256_terms):
    """A key is evaluated once however often it is encoded, paired or
    compared, and a factor of several products once on its own."""
    g, g2 = bn256.generator, bn256.right_generator
    vk = g ** 12345
    others = [g ** 5, bn256.decode_g0((g ** 6).encode(), LEFT)]
    bn256_terms.clear()
    for _ in range(3):
        vk.encode()
        assert not any(vk == other for other in others)
        assert vk == vk
        bn256.pairing(vk, g2)
    assert bn256_terms == [1, 1]  # vk, and g ** 5 when first compared
    # keygen's g ** r is a factor of one product per attribute
    bn256_terms.clear()
    g_r = g ** 777
    parts = [g_r * (bn256.hash_to_group(a) ** 3) for a in (b"a", b"b", b"c")]
    for part in parts:
        part.encode()
    assert bn256_terms == [1, 1, 1, 1]
    # factors of one product only are joined into its pass
    bn256_terms.clear()
    ((g ** 2) * (g ** 3) * (g ** 4) * g).encode()
    assert bn256_terms == [3]


def test_bn256_verification_is_one_pass(bn256, bn256_terms):
    """Verifying an n-signer signature is n + 1 terms: g's power from its
    table, then one pass over the n key terms."""
    rng = random.Random(7)
    keys = [bn256.rand_scalar_nonzero(rng) for _ in range(3)]
    (sig,), roster = musig.cosign(bn256, keys, [b"one pass"], rng)
    bn256_terms.clear()
    assert musig.verify(bn256, sig, roster, b"one pass")
    assert bn256_terms == [1, 3]
    assert not musig.verify(bn256, sig, roster, b"another message")


@pytest.fixture
def mock_terms(mock, monkeypatch):
    """The term count of every evaluation the mock suite makes."""
    return _evaluated_terms(mock, monkeypatch)


def test_mock_elements_are_evaluated_once(mock, mock_terms):
    """On mock too a key is evaluated once however often it is used, and
    keygen's g ** r once on its own for all the products it is part of."""
    g, g2 = mock.generator, mock.right_generator
    vk = g ** 12345
    for _ in range(3):
        vk.encode()
        assert vk == vk and not vk == g ** 5
        mock.pairing(vk, g2)
    assert mock_terms == [1, 1, 1, 1]  # vk, then a fresh g ** 5 per round
    mock_terms.clear()
    g_r = g ** 777
    parts = [g_r * (mock.hash_to_group(a) ** 3) for a in (b"a", b"b", b"c")]
    for part in parts:
        part.encode()
    assert mock_terms == [1, 1, 1, 1]
    mock_terms.clear()
    ((g ** 2) * (g ** 3) * (g ** 4) * g).encode()
    assert mock_terms == [3]


def test_mock_verification_is_one_pass(mock, mock_terms):
    """On mock too verifying an n-signer signature is n + 1 terms: g's
    power, then one multi-exponentiation of the n key terms."""
    rng = random.Random(7)
    keys = [mock.rand_scalar_nonzero(rng) for _ in range(3)]
    (sig,), roster = musig.cosign(mock, keys, [b"one pass"], rng)
    mock_terms.clear()
    assert musig.verify(mock, sig, roster, b"one pass")
    assert mock_terms == [1, 3]


def test_batch_verification_is_one_pass(bn256, bn256_terms, mock, mock_terms):
    """A batch of m signatures over d distinct keys is m + d terms on both
    suites, g's power and one pass of the other m - 1 + d, as the first
    RC joins the product unraised, and makes the m * n challenge hashes
    of its n-signer rosters.  Here m = 4 over two rosters that share a
    key, so d = 3; and a batch of one by n = 2 keys is the n + 1 terms of
    a single verification."""
    for suite, passes in ((bn256, bn256_terms), (mock, mock_terms)):
        rng = random.Random(7)
        k1, k2, k3 = (suite.rand_scalar_nonzero(rng) for _ in range(3))
        items, rosters = [], {}
        for i, keys in enumerate([(k1, k2)] * 3 + [(k2, k3)]):
            msg = b"item %d" % i
            (sig,), roster = musig.cosign(suite, keys, [msg], rng)
            items.append((sig, rosters.setdefault(keys, roster), msg))
        for batch, terms, hashes in ((items, [1, 3 + 3], 4 * 2), (items[:1], [1, 2], 2)):
            passes.clear()
            with suite.measure() as span:
                assert musig.verify_batch(suite, batch)
            assert passes == terms, suite.name
            assert span.exponentiations == sum(terms)
            assert span.hash_calls == hashes


def test_every_suite_is_a_group_suite():
    """A suite is its records and hooks, not a subclass: the rules of
    deferral and every group operation live in GroupSuite alone."""
    for name in ("mock", "mock-7", "bn256"):
        assert type(get_suite(name)) is GroupSuite, name


def test_elements_refuse_foreign_suites(mock):
    other = get_suite("mock-7")
    with pytest.raises(AlgebraError):
        mock.g0_mul(mock.generator, other.generator)
