import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from etenon import policy
from etenon.policy import (
    AccessTree,
    Gate,
    Leaf,
    PolicyError,
    assign_shares,
    format_policy,
    lagrange_coeff,
    parse_policy,
    poly_eval,
    satisfies,
    validate_tree,
)

import oracles


SAMPLE = """
level 1 requires [1]
level 2 requires [1, 2]
level 3 requires [1, 2, 3]
tree: attr:basic, threshold(2, attr:doctor, attr:nurse, attr:records), attr:audit
"""


def test_parse_sample():
    tree = parse_policy(SAMPLE)
    assert len(tree.children) == 3
    assert tree.levels == {1: (1,), 2: (1, 2), 3: (1, 2, 3)}
    assert isinstance(tree.children[0], Leaf)
    gate = tree.children[1]
    assert isinstance(gate, Gate)
    assert gate.threshold == 2
    assert len(gate.children) == 3
    assert oracles.tree_attributes(tree) == {"basic", "doctor", "nurse", "records", "audit"}


def test_format_roundtrip():
    tree = parse_policy(SAMPLE)
    again = parse_policy(format_policy(tree))
    assert again == tree


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,5}", fullmatch=True).filter(
    lambda name: name not in {"level", "tree", "requires", "attr", "threshold"}
)

SUBTREES = st.recursive(
    NAMES.map(Leaf),
    lambda inner: st.lists(inner, min_size=1, max_size=4).flatmap(
        lambda kids: st.integers(1, len(kids)).map(lambda t: Gate(t, tuple(kids)))
    ),
    max_leaves=12,
)


@st.composite
def trees(draw):
    children = tuple(draw(st.lists(SUBTREES, min_size=1, max_size=4)))
    wanted = st.lists(st.integers(1, len(children)), min_size=1, unique=True).map(tuple)
    level_ids = st.integers(0, (1 << 64) - 1)
    levels = draw(st.dictionaries(level_ids, wanted, min_size=1, max_size=4))
    return AccessTree(children=children, levels=levels)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(tree=trees())
def test_format_roundtrips_every_valid_tree(tree):
    validate_tree(tree)
    assert parse_policy(format_policy(tree)) == tree


def _nested(depth, closed=True):
    inner = "threshold(1, " * depth + ("attr:a" + ")" * depth if closed else "")
    return "level 1 requires [1]\ntree: " + inner


def test_parse_refuses_nesting_too_deep_to_walk():
    tree = parse_policy(_nested(policy.MAX_DEPTH))
    assert parse_policy(format_policy(tree)) == tree
    for text in (_nested(policy.MAX_DEPTH + 1), _nested(3000), _nested(3000, closed=False)):
        with pytest.raises(PolicyError):
            parse_policy(text)


def test_parse_rejects_bad_inputs():
    cases = [
        ("tree:", "empty tree"),
        ("level 1 requires [1]", "no tree"),
        ("level 1 requires [2]\ntree: attr:a", "level references missing child"),
        ("level 1 requires [1]\nlevel 1 requires [1]\ntree: attr:a", "duplicate level"),
        ("level 1 requires [1]\ntree: attr:level", "reserved word"),
        ("level 1 requires [1]\ntree: threshold(3, attr:a, attr:b)", "threshold too high"),
        ("level 1 requires [1]\ntree: threshold(0, attr:a)", "threshold too low"),
        ("level 1 requires [1]\ntree: attr:a,, attr:b", "stray comma"),
        ("level 1 requires []\ntree: attr:a", "empty requirement"),
        ("level \u0663 requires [\u0661]\ntree: attr:a", "non-ASCII digits"),
        (None, "not a string"),
        (b"level 1 requires [1]\ntree: attr:a", "bytes"),
    ]
    for text, label in cases:
        with pytest.raises(PolicyError):
            parse_policy(text)
    # only validate_tree makes these checks
    for text, reason in [
        ("tree: attr:a", "declares no levels"),
        ("level 1 requires [1, 1]\ntree: attr:a", "repeats a sub-tree index"),
        ("level 1 requires [1]\ntree: threshold(1)", "gate has no children"),
    ]:
        with pytest.raises(PolicyError, match=reason):
            parse_policy(text)


def test_parse_errors_carry_position():
    try:
        parse_policy("level 1 requires [1]\ntree: attr:a, %")
    except PolicyError as exc:
        assert exc.line == 2
        assert exc.col is not None
        assert "line 2" in str(exc)
    else:
        pytest.fail("expected a parse error")


def test_validate_rejects_unknown_child_reference():
    tree = AccessTree(children=(Leaf("a"),), levels={1: (2,)})
    with pytest.raises(PolicyError):
        validate_tree(tree)


@pytest.mark.parametrize(
    "children, levels",
    [
        ((Leaf("a"),), {True: (1,)}),
        ((Leaf("a"),), {-1: (1,)}),
        ((Leaf("a"),), {10**5000: (1,)}),
        ((Leaf("a"),), {"1": (1,)}),
        ((Leaf("a"),), {1: (True,)}),
        ((Leaf("a"),), {1: (10**5000,)}),
        ((Gate(True, (Leaf("a"),)),), {1: (1,)}),
        ((Gate(1.5, (Leaf("a"), Leaf("b"))),), {1: (1,)}),
        ((Gate(10**5000, (Leaf("a"),)),), {1: (1,)}),
    ],
    ids=["level-bool", "level-negative", "level-huge", "level-text", "index-bool",
         "index-huge", "threshold-bool", "threshold-float", "threshold-huge"],
)
def test_validate_refuses_what_the_text_cannot_spell(children, levels):
    with pytest.raises(PolicyError):
        validate_tree(AccessTree(children=children, levels=levels))


def test_satisfies_matches_oracle_on_random_trees():
    rng = random.Random(101)
    for _ in range(200):
        tree = oracles.random_tree(rng, policy)
        attrs = oracles.random_attr_subset(rng, tree)
        for child in tree.children:
            assert satisfies(child, attrs) == oracles.node_satisfied(child, attrs)


def test_poly_eval_matches_oracle():
    rng = random.Random(7)
    p = 2_147_483_647
    for _ in range(50):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        x = rng.randrange(p)
        assert poly_eval(coeffs, x, p) == oracles.poly_at(coeffs, x, p)


def test_lagrange_reconstructs_constant_term():
    rng = random.Random(8)
    p = 1_000_003
    for _ in range(50):
        degree = rng.randint(0, 4)
        coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        xs = rng.sample(range(1, 50), degree + 1)
        points = [(x, oracles.poly_at(coeffs, x, p)) for x in xs]
        # package coefficients against the oracle interpolation
        via_pkg = sum(
            y * lagrange_coeff(x, xs, p) for x, y in points
        ) % p
        assert via_pkg == coeffs[0]
        assert oracles.interpolate_at_zero(points, p) == coeffs[0]


def test_assign_shares_structure():
    rng = random.Random(9)
    tree = parse_policy(SAMPLE)
    order = 1_000_003
    plan = assign_shares(tree, order, rng)
    # the root polynomial has one coefficient per root child
    assert len(plan.root_coeffs) == len(tree.children)
    # each level secret is the sum of root evaluations over its members
    for level, members in tree.levels.items():
        want = sum(oracles.poly_at(plan.root_coeffs, i, order) for i in members) % order
        assert plan.level_secrets[level] == want
    # every leaf got exactly one share
    leaf_paths = {path for path, _ in policy.iter_leaves(tree)}
    assert set(plan.leaf_shares) == leaf_paths


def test_assign_shares_gate_polynomials_interpolate():
    rng = random.Random(10)
    order = 1_000_003
    for _ in range(100):
        tree = oracles.random_tree(rng, policy)
        plan = assign_shares(tree, order, rng)
        for path, gate in oracles.iter_gates(tree):
            if path == ():
                continue
            coeffs = plan.gate_coeffs[path]
            assert len(coeffs) == gate.threshold
        # reconstructing any gate's constant from threshold many children
        # must equal that gate's own assigned value
        for path, gate in oracles.iter_gates(tree):
            coeffs = plan.gate_coeffs[path] if path else plan.root_coeffs
            child_values = {}
            for idx in range(1, len(gate.children) + 1):
                child_values[idx] = oracles.poly_at(coeffs, idx, order)
            take = (
                gate.threshold
                if path
                else len(gate.children)
            )
            pts = sorted(child_values.items())[:take]
            got = oracles.interpolate_at_zero(pts, order)
            if take == len(child_values):
                assert got == coeffs[0]


def test_assign_shares_leaf_values_lie_on_parent_polynomial():
    rng = random.Random(11)
    order = 1_000_003
    tree = parse_policy(SAMPLE)
    plan = assign_shares(tree, order, rng)
    for path, leaf in policy.iter_leaves(tree):
        parent_path, idx = path[:-1], path[-1]
        coeffs = plan.gate_coeffs[parent_path] if parent_path else plan.root_coeffs
        assert plan.leaf_shares[path] == oracles.poly_at(coeffs, idx, order)


def test_assign_shares_varies_with_rng():
    tree = parse_policy(SAMPLE)
    a = assign_shares(tree, 1_000_003, random.Random(1))
    b = assign_shares(tree, 1_000_003, random.Random(2))
    assert a.root_coeffs != b.root_coeffs
    c = assign_shares(tree, 1_000_003, random.Random(1))
    assert a.root_coeffs == c.root_coeffs
