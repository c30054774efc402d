import random

from dataclasses import replace

import pytest

from etenon import mlabe, musig, policy
from etenon.algebra import HASH_TABLE_AFTER, get_suite
from etenon.mlabe import MlabeError

import channel
import oracles


TWO_LEVELS = """
level 1 requires [1]
level 2 requires [1, 2]
tree: attr:basic, threshold(1, attr:doctor, attr:admin)
"""


@pytest.fixture
def mock_setup(mock, rng):
    pp, msk = mlabe.setup(mock, rng)
    return mock, pp, msk, rng


def test_setup_publishes_consistent_parameters(mock_setup):
    suite, pp, msk, _ = mock_setup
    # pp commits to g^delta and e(g,g)^gamma for the master scalars
    assert pp.g_delta == suite.generator ** msk.delta
    gamma = suite.dlog_g0(msk.g_gamma)
    assert pp.egg_gamma == suite.gt_generator ** gamma
    assert pp.encode() == pp.encode()


@pytest.mark.parametrize(
    "attrs, found", [("doctor", "str"), (["a", 5], "int")], ids=["text", "non-string-name"]
)
def test_keygen_refuses_attributes_that_are_not_names(mock_setup, monkeypatch, attrs, found):
    """A string is refused rather than read as the set of its letters,
    and so is a name that is not a string, before any scalar is drawn."""
    suite, pp, msk, rng = mock_setup
    draws = []
    monkeypatch.setattr(suite, "rand_scalar", lambda rng=None: draws.append(rng))
    with pytest.raises(MlabeError, match="found %s$" % found):
        mlabe.keygen(pp, msk, attrs, rng)
    assert draws == []


def test_keygen_draws_r_and_one_scalar_per_attribute(mock_setup, monkeypatch):
    """The authority issues a decryption key and nothing else: keygen
    draws r and one r_a per attribute, and no signing scalar."""
    suite, pp, msk, rng = mock_setup
    draws = []

    def draw(rng=None):
        draws.append(rng)
        return rng.randrange(1, suite.order)

    monkeypatch.setattr(suite, "rand_scalar", draw)
    monkeypatch.setattr(suite, "rand_scalar_nonzero", draw)
    dk = mlabe.keygen(pp, msk, ["doctor", "basic", "records"], rng)
    assert isinstance(dk, mlabe.DecryptionKey)
    assert len(draws) == 1 + 3
    assert not hasattr(mlabe, "KeyBundle")


def test_keygen_key_algebra_on_mock(mock_setup):
    suite, pp, msk, rng = mock_setup
    dk = mlabe.keygen(pp, msk, ["doctor", "basic"], rng)
    assert dk.attrs == {"doctor", "basic"}
    gamma = suite.dlog_g0(msk.g_gamma)
    p = suite.order
    # d = g^((gamma + r) / delta) for the randomizer r
    r = (suite.dlog_g0(dk.d) * msk.delta - gamma) % p
    for attr, (da, da_prime) in dk.components.items():
        r_a = suite.dlog_g0(da_prime)
        h = suite.dlog_g0(suite.hash_to_group(attr.encode()))
        assert suite.dlog_g0(da) == (r + h * r_a) % p


@pytest.mark.parametrize("suite_name", ["mock-999983", "bn256"])
def test_key_cannot_stand_in_for_attributes_it_lacks(suite_name):
    """A key holder who knew its randomizer r could pair g^r with a leaf
    element for any attribute: the components (g^r * H(a), g2) pass for
    issued ones.  Built from the holder's verification key, drawn right
    after its decryption key as setup draws one for an owner who also
    reads, such a forged key must open exactly the levels the honest key
    opens.  (A mock order this large keeps a chance equal draw of r and
    the signing key negligible.)
    """
    suite = get_suite(suite_name)
    rng = random.Random(0xF0)
    pp, msk = mlabe.setup(suite, rng)
    tree = policy.parse_policy(
        "level 1 requires [1]\nlevel 2 requires [1, 2]\nlevel 3 requires [1, 2, 3]\n"
        "tree: attr:basic, threshold(2, attr:doctor, attr:records, attr:research), attr:admin"
    )
    ct = mlabe.encrypt(pp, {1: b"one", 2: b"two", 3: b"three"}, tree, rng)
    dk = mlabe.keygen(pp, msk, ["basic"], rng)
    _, vk = musig.keypair(suite, rng)
    components = dict(dk.components)
    for _, leaf in policy.iter_leaves(tree):
        components.setdefault(
            leaf.attribute, (vk * suite.hash_to_group(leaf.attribute), suite.right_generator)
        )
    forged = mlabe.DecryptionKey(attrs=frozenset(components), d=dk.d, components=components)
    assert mlabe.decrypt(pp, ct, dk) == {1: b"one"}
    assert mlabe.decrypt(pp, ct, forged) == {1: b"one"}


def test_roundtrip_two_levels(mock_setup):
    suite, pp, msk, rng = mock_setup
    tree = policy.parse_policy(TWO_LEVELS)
    payloads = {1: b"level one payload", 2: b"two"}
    ct = mlabe.encrypt(pp, payloads, tree, rng)

    full = mlabe.keygen(pp, msk, ["basic", "doctor"], rng)
    assert mlabe.decrypt(pp, ct, full) == payloads

    # a level whose seal fails authentication, in its masked bytes or in
    # its tag, is omitted; the others open
    for level, at in ((2, 0), (1, -1)):
        c_l, sealed = ct.levels[level]
        flipped = bytearray(sealed)
        flipped[at] ^= 1
        bad = replace(ct, levels={**ct.levels, level: (c_l, bytes(flipped))})
        assert mlabe.decrypt(pp, bad, full) == {
            other: payloads[other] for other in payloads if other != level
        }

    partial = mlabe.keygen(pp, msk, ["basic"], rng)
    assert mlabe.decrypt(pp, ct, partial) == {1: payloads[1]}

    unrelated = mlabe.keygen(pp, msk, ["visitor"], rng)
    assert mlabe.decrypt(pp, ct, unrelated) == {}


def test_roundtrip_matches_satisfaction_oracle(mock_setup):
    suite, pp, msk, rng = mock_setup
    for trial in range(60):
        tree = oracles.random_tree(rng, policy, max_leaves=6)
        attrs = oracles.random_attr_subset(rng, tree)
        payloads = {
            level: bytes([trial % 251, level]) * rng.randint(1, 9)
            for level in tree.levels
        }
        ct = mlabe.encrypt(pp, payloads, tree, rng)
        bundle = mlabe.keygen(pp, msk, attrs, rng)
        got = mlabe.decrypt(pp, ct, bundle)
        want_levels = oracles.levels_satisfied(tree, attrs)
        assert got == {level: payloads[level] for level in want_levels}


def test_variable_length_payloads(mock_setup):
    suite, pp, msk, rng = mock_setup
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    bundle = mlabe.keygen(pp, msk, ["a"], rng)
    for payload in (b"", b"x", b"y" * 3000):
        ct = mlabe.encrypt(pp, {1: payload}, tree, rng)
        assert mlabe.decrypt(pp, ct, bundle) == {1: payload}


def test_encrypt_validates_payload_levels(mock_setup):
    _, pp, _, rng = mock_setup
    tree = policy.parse_policy(TWO_LEVELS)
    with pytest.raises(MlabeError):
        mlabe.encrypt(pp, {1: b"x"}, tree, rng)
    with pytest.raises(MlabeError):
        mlabe.encrypt(pp, {1: b"x", 2: b"y", 3: b"z"}, tree, rng)


def test_element_count_formula(mock_setup):
    _, pp, _, rng = mock_setup
    tree = policy.parse_policy(TWO_LEVELS)  # k=2 levels, l=3 leaves
    ct = mlabe.encrypt(pp, {1: b"a", 2: b"b"}, tree, rng)
    assert mlabe.element_count(ct) == 2 * (2 + 3)
    assert len(ct.levels) == 2
    assert len(ct.leaves) == 3


def test_encryption_operation_counts(mock, rng):
    pp, msk = mlabe.setup(mock, rng)
    tree = policy.parse_policy(TWO_LEVELS)
    with mock.measure() as span:
        mlabe.encrypt(pp, {1: b"a", 2: b"b"}, tree, rng)
    assert span.exponentiations == 2 * (2 + 3)
    assert span.multiplications == 2  # one masking per level


@pytest.mark.parametrize("suite_name", ["mock", "bn256"])
def test_encryption_counts_stay_once_its_labels_earn_tables(suite_name):
    """A label hashed ``HASH_TABLE_AFTER`` times raises its element from a
    table, but an encryption still counts 2(k+l) exponentiations and one
    hash per leaf, and still decrypts."""
    suite, rng = get_suite(suite_name), random.Random(4)  # a fresh memo
    pp, msk = mlabe.setup(suite, rng)
    tree = policy.parse_policy(TWO_LEVELS)
    counts = []
    for _ in range(HASH_TABLE_AFTER + 1):
        with suite.measure() as span:
            ct = mlabe.encrypt(pp, {1: b"a", 2: b"b"}, tree, rng)
        counts.append(span.as_dict())
    assert all(suite._hashed[a.encode()][0].table is not None
               for a in oracles.tree_attributes(tree))
    assert counts == [counts[0]] * len(counts)
    assert counts[0]["exponentiations"] == 2 * (2 + 3) and counts[0]["hash_calls"] == 3
    bundle = mlabe.keygen(pp, msk, ["basic", "admin"], rng)
    assert mlabe.decrypt(pp, ct, bundle) == {1: b"a", 2: b"b"}


def test_decryption_no_partial_leakage(mock_setup):
    """A key failing a level's gate must see nothing for that level."""
    suite, pp, msk, rng = mock_setup
    tree = policy.parse_policy(
        "level 1 requires [1, 2]\ntree: attr:a, attr:b"
    )
    ct = mlabe.encrypt(pp, {1: b"secret"}, tree, rng)
    for attrs in (["a"], ["b"], ["c"]):
        bundle = mlabe.keygen(pp, msk, attrs, rng)
        assert mlabe.decrypt(pp, ct, bundle) == {}


def test_gt_variant_identity(mock_setup):
    suite, pp, msk, rng = mock_setup
    tree = policy.parse_policy(TWO_LEVELS)
    elems = {
        1: suite.gt_generator ** 37,
        2: suite.gt_generator ** 90,
    }
    ct = mlabe.encrypt_gt(pp, elems, tree, rng)
    bundle = mlabe.keygen(pp, msk, ["basic", "admin"], rng)
    got = mlabe.decrypt_gt(pp, ct, bundle)
    assert set(got) == {1, 2}
    assert got[1] == elems[1]
    assert got[2] == elems[2]


def test_gt_variant_identity_bn256(bn256):
    rng = random.Random(4242)
    pp, msk = mlabe.setup(bn256, rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    x = bn256.gt_generator ** bn256.rand_scalar_nonzero(rng)
    ct = mlabe.encrypt_gt(pp, {1: x}, tree, rng)
    bundle = mlabe.keygen(pp, msk, ["a"], rng)
    got = mlabe.decrypt_gt(pp, ct, bundle)
    assert got[1] == x


def test_bn256_roundtrip(bn256):
    rng = random.Random(77)
    pp, msk = mlabe.setup(bn256, rng)
    tree = policy.parse_policy(TWO_LEVELS)
    payloads = {1: b"open note", 2: b"restricted note"}
    ct = mlabe.encrypt(pp, payloads, tree, rng)
    full = mlabe.keygen(pp, msk, ["basic", "doctor"], rng)
    assert mlabe.decrypt(pp, ct, full) == payloads
    partial = mlabe.keygen(pp, msk, ["basic"], rng)
    assert mlabe.decrypt(pp, ct, partial) == {1: payloads[1]}


def test_distinct_setups_use_distinct_master_scalars(bn256):
    rng = random.Random(31337)
    pp1, msk1 = mlabe.setup(bn256, rng)
    pp2, msk2 = mlabe.setup(bn256, rng)
    assert msk1.delta != msk2.delta
    assert pp1.g_delta != pp2.g_delta
    assert pp1.egg_gamma != pp2.egg_gamma


def test_key_from_one_system_fails_in_another(mock, rng):
    pp1, msk1 = mlabe.setup(mock, rng)
    pp2, msk2 = mlabe.setup(mock, rng)
    if msk1.delta == msk2.delta:  # tiny field, skip the rare collision
        pytest.skip("mock master scalars collided")
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    ct = mlabe.encrypt(pp1, {1: b"msg"}, tree, rng)
    foreign = mlabe.keygen(pp2, msk2, ["a"], rng)
    assert mlabe.decrypt(pp1, ct, foreign) == {}


# ----------------------------------------------------------------------
# serialization envelopes


def test_decrypt_refuses_a_ciphertext_of_another_suite(mock_setup):
    suite, pp, msk, rng = mock_setup
    pp7, _ = mlabe.setup(get_suite("mock-7"), rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:a")
    ct = mlabe.encrypt(pp7, {1: b"msg"}, tree, rng)
    key = mlabe.keygen(pp, msk, ["a"], rng)
    for decrypt in (mlabe.decrypt, mlabe.decrypt_gt):
        with pytest.raises(MlabeError, match="^ciphertext was made on suite mock-7, not mock-101$"):
            decrypt(pp, ct, key)


def test_pp_envelope_roundtrip(mock_setup):
    suite, pp, _, _ = mock_setup
    doc = mlabe.pp_to_json(pp)
    assert doc["kind"] == "public-params"
    back = mlabe.pp_from_json(doc)
    assert back.g == pp.g
    assert back.g_delta == pp.g_delta
    assert back.egg_gamma == pp.egg_gamma
    assert back.encode() == pp.encode()


def test_msk_envelope_roundtrip(mock_setup):
    suite, pp, msk, _ = mock_setup
    back = mlabe.msk_from_json(mlabe.msk_to_json(suite, msk), suite)
    assert back.delta == msk.delta
    assert back.g_gamma == msk.g_gamma


def test_key_envelope_roundtrip(mock_setup):
    suite, pp, msk, rng = mock_setup
    bundle = mlabe.keygen(pp, msk, ["doctor", "basic"], rng)
    doc = mlabe.key_to_json(suite, bundle)
    assert not {"sk", "vk"} & set(doc)
    back = mlabe.key_from_json(doc, suite)
    assert back.attrs == bundle.attrs
    assert back.d == bundle.d
    for attr in bundle.attrs:
        assert back.components[attr] == bundle.components[attr]


def test_ct_envelope_roundtrip(mock_setup):
    suite, pp, msk, rng = mock_setup
    tree = policy.parse_policy(TWO_LEVELS)
    payloads = {1: b"alpha", 2: b"beta"}
    ct = mlabe.encrypt(pp, payloads, tree, rng)
    back = mlabe.ct_from_json(mlabe.ct_to_json(ct), suite)
    bundle = mlabe.keygen(pp, msk, ["basic", "doctor"], rng)
    assert mlabe.decrypt(pp, back, bundle) == payloads
    assert mlabe.ct_canonical_bytes(back) == mlabe.ct_canonical_bytes(ct)


def test_ct_from_json_refuses_levels_its_policy_does_not_declare(mock_setup):
    suite, pp, _, rng = mock_setup
    ct = mlabe.encrypt(pp, {1: b"alpha", 2: b"beta"}, policy.parse_policy(TWO_LEVELS), rng)
    doc = mlabe.ct_to_json(ct)
    first, second = doc["levels"]
    for levels in ([first], [first, dict(second, level=3)]):
        with pytest.raises(MlabeError, match="^ciphertext levels do not match its policy$"):
            mlabe.ct_from_json(dict(doc, levels=levels), suite)


def test_envelope_rejects_wrong_kind_and_suite(mock_setup):
    suite, pp, msk, rng = mock_setup
    doc = mlabe.pp_to_json(pp)
    bad_kind = dict(doc, kind="msk")
    with pytest.raises(MlabeError):
        mlabe.pp_from_json(bad_kind)
    bad_version = dict(doc, version=99)
    with pytest.raises(MlabeError):
        mlabe.pp_from_json(bad_version)
    other = get_suite("mock-7")
    with pytest.raises(MlabeError):
        mlabe.pp_from_json(doc, other)


def test_ct_canonical_bytes_is_stable(mock_setup):
    suite, pp, msk, rng = mock_setup
    tree = policy.parse_policy(TWO_LEVELS)
    ct = mlabe.encrypt(pp, {1: b"a", 2: b"b"}, tree, rng)
    assert mlabe.ct_canonical_bytes(ct) == mlabe.ct_canonical_bytes(ct)
    ct2 = mlabe.encrypt(pp, {1: b"a", 2: b"b"}, tree, rng)
    assert mlabe.ct_canonical_bytes(ct2) != mlabe.ct_canonical_bytes(ct)



@pytest.mark.parametrize("suite_name", ["mock", "bn256"])
def test_coefficients_drawn_from_a_seed_encrypt_as_the_seed_does(suite_name):
    """Encrypting under coefficients drawn from a generator gives the
    bytes that drawing inside the encryption gives, and the coefficients
    open every level without any attribute key."""
    suite = get_suite(suite_name)
    pp, _ = mlabe.setup(suite, random.Random(1))
    tree = policy.parse_policy(SHARED_GATE)
    payloads = {1: b"one", 2: b"two"}
    for seed in (7, 8):
        coefficients = policy.draw_coefficients(tree, suite.order, random.Random(seed))
        with suite.measure() as span:
            given = mlabe.encrypt(pp, payloads, tree, coefficients=coefficients)
        by_rng = mlabe.encrypt(pp, payloads, tree, rng=random.Random(seed))
        assert mlabe.ct_canonical_bytes(given) == mlabe.ct_canonical_bytes(by_rng)
        assert span.exponentiations == 2 * (2 + 4)
        assert channel.open_with_coefficients(pp, given, coefficients) == payloads

SHARED_GATE = """
level 1 requires [1]
level 2 requires [1, 2]
tree: threshold(2, attr:a, attr:b, attr:c), attr:d
"""


# attrs, opened levels, pairings, exponentiations, divisions and
# multiplications of one decryption under SHARED_GATE.  A gate's
# Lagrange coefficients are G1 powers of its leaves' two left arguments
# (none is 1 here); leaf d sits right under the root and raises nothing.
# Each root sub-tree is one product of pairings that carries the first
# level to reach it, so the multiplications are level 2's: c_2 over the
# left element level 1 carries, and the product of its two roots.
SHARED_GATE_COUNTS = [
    # every leaf held: the gate uses a and b, c is never paired
    ({"a", "b", "c", "d"}, {1, 2}, 8, 4, 2),
    # b fails the satisfaction check and is skipped unpaired
    ({"a", "c", "d"}, {1, 2}, 8, 4, 2),
    # the gate opens, level 2 stops at the missing leaf d
    ({"b", "c"}, {1}, 5, 4, 0),
    # one leaf of the gate: the gate is not satisfied, so nothing is
    # paired and level 2 stops at its first child without touching d
    ({"a", "d"}, set(), 0, 0, 0),
    # none of the gate: nothing is paired at all
    ({"d"}, set(), 0, 0, 0),
]


@pytest.mark.parametrize(
    "attrs, levels, pairings, exps, divs_and_muls", SHARED_GATE_COUNTS
)
def test_decryption_operation_counts(mock, rng, attrs, levels, pairings, exps, divs_and_muls):
    """Pairings, exponentiations and multiplications of one decryption, pinned.

    The gate is shared by both levels and evaluated once; a level whose
    first root child cannot be opened is abandoned there.
    """
    pp, msk = mlabe.setup(mock, rng)
    tree = policy.parse_policy(SHARED_GATE)
    payloads = {1: b"one", 2: b"two"}
    elems = {1: mock.gt_generator ** 5, 2: mock.gt_generator ** 8}
    ct = mlabe.encrypt(pp, payloads, tree, rng)
    ct_gt = mlabe.encrypt_gt(pp, elems, tree, rng)
    dk = mlabe.keygen(pp, msk, attrs, rng)
    with mock.measure() as span:
        got = mlabe.decrypt(pp, ct, dk)
    assert got == {level: payloads[level] for level in levels}
    assert (span.pairings, span.exponentiations, span.multiplications) == (
        pairings, exps, divs_and_muls,
    )
    with mock.measure() as span:
        got = mlabe.decrypt_gt(pp, ct_gt, dk)
    assert got == {level: elems[level] for level in levels}
    # the GT variant divides the mask out once per opened level
    assert (span.pairings, span.exponentiations, span.multiplications) == (
        pairings, exps, divs_and_muls + len(levels),
    )


# Miller loops of one decryption per row of SHARED_GATE_COUNTS: one per
# root sub-tree an opened level uses, each carrying the element of the
# first level to reach it
SHARED_GATE_LOOPS = [2, 2, 1, 0, 0]


# Policies whose levels share root sub-trees in the two ways a
# decryption folds them: levels that are not nested, so that level 3
# reaches no new root sub-tree, and a first level that needs two new
# ones, so that level 2 reaches none.  Per key: the opened levels, the
# pairings (one per opened level and two per used leaf) and the Miller
# loops (one per used root sub-tree and one per opened level that
# reached no new one).
UNNESTED = """
level 1 requires [1]
level 2 requires [2]
level 3 requires [1, 2]
level 4 requires [1, 2, 3]
tree: threshold(2, attr:a, attr:b, attr:c), attr:d, attr:e
"""
TWO_NEW_ROOTS = """
level 1 requires [1, 2]
level 2 requires [2]
level 3 requires [1, 2, 3]
tree: attr:a, threshold(2, attr:b, attr:c, attr:d), attr:e
"""
FOLDS = [
    # leaves a, b, d and e; roots 1, 2 and 3, and level 3's own loop
    (UNNESTED, {"a", "b", "c", "d", "e"}, {1, 2, 3, 4}, 4 + 2 * 4, 3 + 1),
    # level 4 stops at e: leaves a, b and d; roots 1 and 2, and level 3
    (UNNESTED, {"a", "b", "d"}, {1, 2, 3}, 3 + 2 * 3, 2 + 1),
    # leaves a, b, c and e; roots 1, 2 and 3, and level 2's own loop
    (TWO_NEW_ROOTS, {"a", "b", "c", "d", "e"}, {1, 2, 3}, 3 + 2 * 4, 3 + 1),
    # the gate takes c and d, level 3 stops at e; roots 1 and 2, and level 2
    (TWO_NEW_ROOTS, {"a", "c", "d"}, {1, 2}, 2 + 2 * 3, 2 + 1),
]


@pytest.mark.parametrize("suite_name", ["mock", "bn256"])
@pytest.mark.parametrize("text, attrs, levels, pairings, loops", FOLDS)
def test_each_root_sub_tree_is_one_loop_that_carries_a_level(
    suite_name, text, attrs, levels, pairings, loops, monkeypatch
):
    """Every payload of an opened level comes back when levels share
    root sub-trees; the pairings are as counted before the loops were
    folded, and the loops are one per used root sub-tree plus one per
    level that reached no new sub-tree."""
    from etenon import _bn256

    suite = get_suite(suite_name)
    counted = []
    if suite_name == "bn256":
        miller = _bn256.miller
        monkeypatch.setattr(_bn256, "miller", lambda pairs: counted.append(1) or miller(pairs))
    else:
        # the mock suite's loop is its pair-product hook
        product = suite._pair_product
        monkeypatch.setattr(suite, "_pair_product", lambda pairs: counted.append(1) or product(pairs))
    rng = random.Random(0xF01D)
    pp, msk = mlabe.setup(suite, rng)
    tree = policy.parse_policy(text)
    payloads = {level: b"level %d" % level for level in tree.levels}
    ct = mlabe.ct_from_json(mlabe.ct_to_json(mlabe.encrypt(pp, payloads, tree, rng)), suite)
    dk = mlabe.keygen(pp, msk, attrs, rng)
    counted.clear()
    with suite.measure() as span:
        got = mlabe.decrypt(pp, ct, dk)
    assert got == {level: payloads[level] for level in levels}
    assert span.pairings == pairings
    assert len(counted) == loops


def test_bn256_decryption_finishes_one_pairing_per_opened_level(
    bn256, final_exp_calls, monkeypatch
):
    """On bn256 a decryption pays one final exponentiation per opened
    level and none for a key that opens nothing; encryption pays none.
    The counters still tick once per pairing, as in the table above,
    while each root sub-tree is one Miller loop over all its pairs."""
    from etenon import _bn256

    loops = []
    miller = _bn256.miller
    monkeypatch.setattr(_bn256, "miller", lambda pairs: loops.append(1) or miller(pairs))
    rng = random.Random(0xF1)
    pp, msk = mlabe.setup(bn256, rng)
    tree = policy.parse_policy(SHARED_GATE)
    payloads = {1: b"one", 2: b"two"}
    elems = {1: bn256.gt_generator ** 5, 2: bn256.gt_generator ** 8}
    calls = final_exp_calls
    calls.clear()
    ct = mlabe.encrypt(pp, payloads, tree, rng)
    ct_gt = mlabe.encrypt_gt(pp, elems, tree, rng)
    assert calls == []
    for (attrs, levels, pairings, exps, divs_and_muls), want_loops in zip(
        SHARED_GATE_COUNTS, SHARED_GATE_LOOPS
    ):
        dk = mlabe.keygen(pp, msk, attrs, rng)
        for decrypt, sealed, want, masks in (
            (mlabe.decrypt, ct, payloads, 0),
            (mlabe.decrypt_gt, ct_gt, elems, len(levels)),
        ):
            calls.clear()
            loops.clear()
            with bn256.measure() as span:
                got = decrypt(pp, sealed, dk)
            assert len(calls) == len(levels), attrs
            assert len(loops) == want_loops, attrs
            assert (span.pairings, span.exponentiations, span.multiplications) == (
                pairings, exps, divs_and_muls + masks,
            )
            assert got == {level: want[level] for level in levels}
