"""Independent reference implementations used to cross-check the package.

Everything in this file is written from the definitions alone, favouring
the most literal possible formulation over speed and sharing no code
with the package internals; the one exception is the pairing, whose
one-pair Miller loop is kept here (line functions included) and which
uses only the curve's field arithmetic and final exponentiation.  When
a test disagrees with an oracle, the oracle is presumed right.
"""

from __future__ import annotations

import random

from etenon import _bn256
from etenon._bn256 import (
    FP2_ONE,
    FP2_ZERO,
    FP12_ONE,
    fp2_add,
    fp2_conj,
    fp2_mul,
    fp2_neg,
    fp2_scalar,
    fp2_square,
    fp2_sub,
    fp6_add,
    fp6_mul,
    fp6_mul_tau,
    fp6_sub,
    fp12_square,
    g1_affine,
    g2_affine,
    naf_6up2,
    xi1,
    xi2,
)


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


def shares_from_coefficients(tree, coefficients, p: int):
    """(leaf shares, level secrets) recomputed from drawn coefficients.

    The root polynomial is ``coefficients[()]``; a gate's polynomial is
    its own share followed by ``coefficients[path]``, and child j of any
    node gets that polynomial at j.  A level's secret is the sum of its
    selected root children's shares."""
    root = coefficients[()]
    leaf_shares = {}

    def walk(node, path, share):
        children = getattr(node, "children", None)
        if children is None:
            leaf_shares[path] = share
            return
        poly = (share,) + tuple(coefficients[path])
        for j, child in enumerate(children, start=1):
            walk(child, path + (j,), poly_at(poly, j, p))

    for i, child in enumerate(tree.children, start=1):
        walk(child, (i,), poly_at(root, i, p))
    level_secrets = {
        level: sum(poly_at(root, i, p) for i in members) % p
        for level, members in tree.levels.items()
    }
    return leaf_shares, level_secrets


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


def fixed_base_table(group, a):
    """The fixed-base table of a, as ``_bn256.table`` lays it out, built
    a row at a time: each row's odd multiples summed with the group's
    own adds, each entry normalised by ``group.normal`` on its own, and
    the next row's base as the last odd multiple plus a."""
    def coords(v):
        # a curve point's x and y (z == 1 dropped) as the ints of its
        # nested tuples in order, or an Fp12 value itself
        v = group.normal(v)
        if len(v) != 3:
            return [v]
        stack, out = [v[:2]], []
        while stack:
            c = stack.pop()
            if isinstance(c, int):
                out.append(c)
            else:
                stack.extend(reversed(c))
        return out

    a2 = group.double(a)
    fixes = ((group.neg(a), group.neg(a2)), (a, a2))
    rows = []
    for _ in range(-(-group.half_bits // group.window)):
        a2 = group.double(a)
        odd = [a]
        for _ in range((1 << (group.window - 1)) - 1):
            odd.append(group.add(odd[-1], a2))
        rows.append(tuple(c for q in odd for c in coords(q)))
        a = group.add(odd[-1], a)  # 2**window * a
    return tuple(rows), fixes


# ----------------------------------------------------------------------
# pairings


def _line_func_add(r, pt, q, r2):
    # r: Jacobian twist point, pt: affine twist point, q: affine curve
    # point, r2: pt's y squared
    rx, ry, rz = r
    px, py = pt[0], pt[1]
    r_t = fp2_square(rz)
    B = fp2_mul(px, r_t)
    D = fp2_sub(fp2_sub(fp2_square(fp2_add(py, rz)), r2), r_t)
    D = fp2_mul(D, r_t)

    H = fp2_sub(B, rx)
    I = fp2_square(H)
    E = fp2_scalar(I, 4)
    J = fp2_mul(H, E)
    L1 = fp2_sub(fp2_sub(D, ry), ry)
    V = fp2_mul(rx, E)

    r_x = fp2_sub(fp2_sub(fp2_square(L1), J), fp2_add(V, V))
    r_z = fp2_sub(fp2_sub(fp2_square(fp2_add(rz, H)), r_t), I)
    t = fp2_mul(fp2_sub(V, r_x), L1)
    r_y = fp2_sub(t, fp2_scalar(fp2_mul(ry, J), 2))

    t = fp2_sub(fp2_sub(fp2_square(fp2_add(py, r_z)), r2), fp2_square(r_z))
    a = fp2_sub(fp2_scalar(fp2_mul(L1, px), 2), t)
    b = fp2_scalar(L1, -2 * q[0])
    c = fp2_scalar(r_z, 2 * q[1])
    return (a, b, c, (r_x, r_y, r_z))


def _line_func_double(r, q):
    rx, ry, rz = r
    r_t = fp2_square(rz)
    A = fp2_square(rx)
    B = fp2_square(ry)
    C = fp2_square(B)
    D = fp2_scalar(fp2_sub(fp2_sub(fp2_square(fp2_add(rx, B)), A), C), 2)
    E = fp2_scalar(A, 3)
    F = fp2_square(E)

    r_x = fp2_sub(F, fp2_add(D, D))
    r_y = fp2_sub(fp2_mul(E, fp2_sub(D, r_x)), fp2_scalar(C, 8))
    # (y+z)*(y+z) - (y*y) - (z*z) = 2*y*z
    r_z = fp2_sub(fp2_sub(fp2_square(fp2_add(ry, rz)), B), r_t)

    a = fp2_sub(fp2_square(fp2_add(rx, E)), fp2_add(fp2_add(A, F), fp2_scalar(B, 4)))
    b = fp2_scalar(fp2_mul(E, r_t), -2 * q[0])
    c = fp2_scalar(fp2_mul(r_z, r_t), 2 * q[1])
    return (a, b, c, (r_x, r_y, r_z))


def _fp6_mul_fp2(a, k):
    return (fp2_mul(a[0], k), fp2_mul(a[1], k), fp2_mul(a[2], k))


def _mul_line(f, a, b, c):
    # See function fp12e_mul_line in dclxvi
    fx, fy = f
    t1 = fp6_mul((FP2_ZERO, a, b), fx)
    t2 = (FP2_ZERO, a, fp2_add(b, c))
    t3 = _fp6_mul_fp2(fy, c)
    x = fp6_sub(fp6_sub(fp6_mul(fp6_add(fx, fy), t2), t1), t3)
    return (x, fp6_add(t3, fp6_mul_tau(t1)))


def miller(q, p):
    """The Miller value of one pair, twist point q and curve point p, as
    the curve computed it pairwise before products: its lines evaluated
    on the spot at p."""
    Q = g2_affine(q)
    P = g1_affine(p)
    qx, qy = Q[0], Q[1]
    mQ = (qx, fp2_neg(qy), FP2_ONE)

    f = FP12_ONE
    T = Q
    Qp = fp2_square(qy)
    for naf_i in naf_6up2:
        f = fp12_square(f)
        a, b, c, T = _line_func_double(T, P)
        f = _mul_line(f, a, b, c)
        if naf_i == 1:
            a, b, c, T = _line_func_add(T, Q, P, Qp)
            f = _mul_line(f, a, b, c)
        elif naf_i == -1:
            a, b, c, T = _line_func_add(T, mQ, P, Qp)
            f = _mul_line(f, a, b, c)

    # Q1 = pi(Q)
    Q1 = (fp2_mul(fp2_conj(qx), xi1[1]), fp2_mul(fp2_conj(qy), xi1[2]), FP2_ONE)
    # Q2 = pi2(Q)
    Q2 = (fp2_scalar(qx, xi2[1][1]), qy, FP2_ONE)

    a, b, c, T = _line_func_add(T, Q1, P, fp2_square(Q1[1]))
    f = _mul_line(f, a, b, c)
    a, b, c, T = _line_func_add(T, Q2, P, fp2_square(Q2[1]))
    return _mul_line(f, a, b, c)


def optimal_ate(a, b):
    """e(b, a) for a bn256 twist point a and curve point b, finished on the
    spot: the eager value that deferred final exponentiation must match."""
    if a[2] == FP2_ZERO or b[2] == 0:
        return FP12_ONE
    return _bn256.final_exp(miller(a, b))


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
