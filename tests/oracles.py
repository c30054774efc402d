"""Independent reference implementations used to cross-check the package.

Everything in this file is written from the definitions alone, favouring
the most literal possible formulation over speed and sharing no code
with the package internals; the one exception is the pairing, finished
at once from the curve's own Miller loop and final exponentiation.  When
a test disagrees with an oracle, the oracle is presumed right.
"""

from __future__ import annotations

import random

from etenon import _bn256


# ----------------------------------------------------------------------
# access-structure satisfaction


def node_satisfied(node, attrs) -> bool:
    """Literal recursive evaluation of one sub-tree."""
    children = getattr(node, "children", None)
    if children is None:
        return node.attribute in set(attrs)
    hits = sum(1 for child in children if node_satisfied(child, attrs))
    return hits >= node.threshold


def levels_satisfied(tree, attrs) -> set[int]:
    """A level opens iff every root child it references is satisfied."""
    out = set()
    for level, members in tree.levels.items():
        if all(node_satisfied(tree.children[i - 1], attrs) for i in members):
            out.add(level)
    return out


def tree_attributes(tree) -> set[str]:
    """Every attribute named by a leaf of the tree."""
    out = set()
    stack = list(tree.children)
    while stack:
        node = stack.pop()
        children = getattr(node, "children", None)
        if children is None:
            out.add(node.attribute)
        else:
            stack.extend(children)
    return out


def iter_gates(tree):
    """(path, gate) for every threshold gate, depth first; a path is the
    1-based child indices from the root."""
    def walk(node, path):
        children = getattr(node, "children", None)
        if children is not None:
            yield path, node
            for j, child in enumerate(children, start=1):
                yield from walk(child, path + (j,))

    for i, child in enumerate(tree.children, start=1):
        yield from walk(child, (i,))


# ----------------------------------------------------------------------
# polynomials over a prime field


def poly_at(coeffs, x: int, p: int) -> int:
    """Plain power-sum evaluation (no Horner, as a cross-check)."""
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def interpolate_at_zero(points, p: int) -> int:
    """Lagrange interpolation at x = 0 from (x, y) pairs."""
    total = 0
    for xi, yi in points:
        num, den = 1, 1
        for xj, _ in points:
            if xj == xi:
                continue
            num = (num * -xj) % p
            den = (den * (xi - xj)) % p
        total = (total + yi * num * pow(den, p - 2, p)) % p
    return total


# ----------------------------------------------------------------------
# scalar multiplication and exponentiation


def ladder(x, k: int, mul, square, one):
    """x**k (or k*x) by the Montgomery ladder over the bits of k >= 0."""
    r0, r1 = one, x
    for bit in bin(k)[2:]:
        if bit == "1":
            r0, r1 = mul(r1, r0), square(r1)
        else:
            r0, r1 = square(r0), mul(r0, r1)
    return r0


# ----------------------------------------------------------------------
# pairings


def optimal_ate(a, b):
    """e(b, a) for a bn256 twist point a and curve point b, finished on the
    spot: the eager value that deferred final exponentiation must match."""
    if a[2] == _bn256.FP2_ZERO or b[2] == 0:
        return _bn256.FP12_ONE
    return _bn256.final_exp(_bn256.miller(a, b))


# ----------------------------------------------------------------------
# block tokenization

_EXAMPLES = [
    # (text, blocks) pairs fixed ahead of time
    ("pain in the chest", ["pain", "in the chest"]),
    ("in the", ["in the"]),
    ("fever", ["fever"]),
    ("a high fever and a dry cough", ["a high", "fever", "and a dry", "cough"]),
]


def blocks_reference(text: str, stopwords) -> list[str]:
    """One non-stopword per block, led by the stopwords before it; a
    trailing all-stopword run folds into the final block."""
    words = text.split()
    blocks: list[str] = []
    run: list[str] = []
    for word in words:
        run.append(word)
        if word.lower() not in stopwords:
            blocks.append(" ".join(run))
            run = []
    if run:
        if blocks:
            blocks[-1] = blocks[-1] + " " + " ".join(run)
        else:
            blocks.append(" ".join(run))
    return blocks


# ----------------------------------------------------------------------
# random policy trees (generation only; evaluation stays above)


def random_tree(rng: random.Random, policy_mod, max_leaves: int = 10):
    """A random levelled tree with at most ``max_leaves`` leaves."""
    n_children = rng.randint(1, 4)
    budget = max(n_children, rng.randint(n_children, max_leaves))
    sizes = [1] * n_children
    for _ in range(budget - n_children):
        sizes[rng.randrange(n_children)] += 1

    attr_pool = ["a%d" % i for i in range(1, max_leaves + 3)]
    rng.shuffle(attr_pool)
    pool = iter(attr_pool)

    def subtree(size: int):
        if size == 1:
            return policy_mod.Leaf(attribute=next(pool))
        split = rng.randint(1, size - 1) if size > 1 else 1
        parts = []
        left = size
        while left > 0:
            take = min(left, rng.randint(1, max(1, split)))
            parts.append(subtree(take))
            left -= take
        if len(parts) == 1:
            return parts[0]
        return policy_mod.Gate(
            threshold=rng.randint(1, len(parts)), children=tuple(parts)
        )

    children = tuple(subtree(s) for s in sizes)
    n_levels = rng.randint(1, min(4, n_children) if n_children else 1)
    levels = {}
    for level in range(1, n_levels + 1):
        k = rng.randint(1, n_children)
        levels[level] = tuple(sorted(rng.sample(range(1, n_children + 1), k)))
    return policy_mod.AccessTree(children=children, levels=levels)


def random_attr_subset(rng: random.Random, tree) -> list[str]:
    """A random subset of the tree's own attributes, sometimes with noise."""
    attrs = sorted(tree_attributes(tree))
    take = rng.randint(0, len(attrs))
    chosen = rng.sample(attrs, take)
    if rng.random() < 0.3:
        chosen.append("zz-unrelated")
    return chosen
