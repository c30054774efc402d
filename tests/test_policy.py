import random

import pytest

from etenon import policy
from etenon.policy import (
    AccessTree,
    Gate,
    Leaf,
    PolicyError,
    assign_shares,
    format_policy,
    lagrange_coeff,
    level_satisfied,
    lint_tree,
    parse_policy,
    poly_eval,
    satisfied_levels,
    satisfies,
    tree_from_json,
    tree_to_json,
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
    assert tree.attributes() == {"basic", "doctor", "nurse", "records", "audit"}


def test_format_roundtrip():
    tree = parse_policy(SAMPLE)
    again = parse_policy(format_policy(tree))
    assert again == tree


def test_json_roundtrip():
    tree = parse_policy(SAMPLE)
    assert tree_from_json(tree_to_json(tree)) == tree


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
    ]
    for text, label in cases:
        with pytest.raises(PolicyError):
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


def test_lint_flags_duplicate_attribute_in_gate():
    tree = AccessTree(
        children=(Gate(threshold=1, children=(Leaf("a"), Leaf("a"))),),
        levels={1: (1,)},
    )
    warnings = lint_tree(tree)
    assert any("a" in w for w in warnings)
    assert lint_tree(parse_policy(SAMPLE)) == []


def test_satisfies_matches_oracle_on_random_trees():
    rng = random.Random(101)
    for _ in range(200):
        tree = oracles.random_tree(rng, policy)
        attrs = oracles.random_attr_subset(rng, tree)
        for child in tree.children:
            assert satisfies(child, attrs) == oracles.node_satisfied(child, attrs)
        assert satisfied_levels(tree, attrs) == oracles.levels_satisfied(tree, attrs)
        for level in tree.levels:
            assert level_satisfied(tree, level, attrs) == (
                level in oracles.levels_satisfied(tree, attrs)
            )


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
        for path, gate in policy.iter_gates(tree):
            if path == ():
                continue
            coeffs = plan.gate_coeffs[path]
            assert len(coeffs) == gate.threshold
        # reconstructing any gate's constant from threshold many children
        # must equal that gate's own assigned value
        for path, gate in policy.iter_gates(tree):
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
