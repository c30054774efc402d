#!/usr/bin/python

"""Pairings over a 256-bit BN curve
(C) 2017 Jack Lloyd <jack@randombit.net>

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are
met:

1. Redistributions of source code must retain the above copyright
notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above copyright
notice, this list of conditions and the following disclaimer in the
documentation and/or other materials provided with the distribution.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
HOLDER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

# Representation: an Fp value is an int in [0, p).  An Fp2 value is a
# pair (x, y) standing for x*i + y with i^2 = -1; Fp6 is a triple
# (x, y, z) of Fp2 values standing for x*tau^2 + y*tau + z with
# tau^3 = xi; Fp12 is a pair (x, y) of Fp6 values standing for
# x*omega + y with omega^2 = tau.  Points are Jacobian (x, y, z)
# triples, with z == 0 at infinity: ints on the curve (G1), Fp2 values
# on the twist (G2).  Every value is an immutable tuple and every
# function returns reduced coordinates, so equal values compare equal.
#
# The formulas follow Beuchat et al., "High-speed software
# implementation of the optimal ate pairing over BN curves"
# (https://eprint.iacr.org/2010/354); algorithm numbers refer to it.

import functools
import hashlib

from typing import Callable, NamedTuple

from .errors import AlgebraError

v = 1868033
u = pow(v, 3)

p = (((u + 1)*6*u + 4)*u + 1)*6*u + 1
order = p - 6*u*u


def sqrt_mod_p(a):
    # p = 3 mod 4
    return pow(a, (p+1)//4, p)


def inv_mod_p(a):
    # maps 0 to 0, as Fermat's a^(p-2) does
    return pow(a, -1, p) if a % p else 0


def legendre(a):
    x = pow(a, (p-1)//2, p)
    return -1 if x == p-1 else x


def to_naf(x):
    z = []
    while x > 0:
        if x % 2 == 0:
            z.append(0)
        else:
            zi = 2 - (x % 4)
            x -= zi
            z.append(zi)
        x = x // 2
    return z


# 6u+2 in NAF
naf_6up2 = list(reversed(to_naf(6*u+2)))[1:]


# A Straus pass takes WINDOW bits of every scalar per step.  The adds
# and doublings of a plain pass (multi_mul) depend only on how many
# terms there are and how many windows the longest scalar spans, never
# on the digits: a digit only picks a row entry, and its sign only
# whether that entry is negated before the add.  A split pass
# (split_mul) leaves a short scalar whole: one whose odd form fits
# HALF_BITS bits, or whose r - k does, taken as r - k times the negated
# base.  With a split term in it, the pass recodes every half and every
# short scalar over HALF_BITS bits, and a half's sign only negates
# entries, so its adds and doublings depend on the count and on which
# scalars are short.  Such a pass takes its odd multiples from rows in
# the group's format (Columns), built by the row builder of fixed-base
# tables (_rows): on a curve one inversion per column, 2**(WINDOW - 1)
# for the whole pass.  With no split term it is a plain pass.  For
# uniformly drawn secret scalars none is short except with probability
# about 2**-125.
# (Python ints are not constant-time, so this avoids secret-dependent
# branches but gives no timing guarantee.)
WINDOW = 4

# The width of a half of a split scalar in every bn256 group (see
# split_mul): a split pass runs HALF_BITS / WINDOW = 32 windows, and a
# table's rows cover one half.
HALF_BITS = 128


def _windows(k):
    """The number of WINDOW-bit windows that cover k >= 0, at least 1."""
    return max(1, -(-k.bit_length() // WINDOW))


def _digits(k, window, top):
    """The signed digits of k >= 0 plus one or two, least significant
    first.

    The recoding is the regular signed fixed window of Joye and Tunstall
    ("Exponent recoding and regular exponentiation algorithms",
    AFRICACRYPT 2009).  It needs an odd scalar, so it takes k' = k + 1
    or k + 2, whichever is odd; the caller subtracts the base or twice
    the base at the end.  Every digit is odd and lies in
    [1 - 2**window, 2**window - 1], and the top one is positive.  There
    are ``top`` digits, which must cover k'."""
    k += 1 + (k & 1)
    base = 1 << window
    digits = []
    for _ in range(top - 1):
        m = k & (2 * base - 1)
        digits.append(m - base)
        k = (k - m + base) >> window
    # what is left is the top digit, odd and in [1, base - 1]; past a
    # scalar's own windows the padding digits are 1 - base under a top
    # digit of 1, which sum to 1
    digits.append(k)
    return digits


class Group(NamedTuple):
    """One group's arithmetic, as :func:`multi_mul`, :func:`split_mul`,
    :func:`table` and :func:`fixed_mul` use it, written additively: for
    the target group ``add`` multiplies, ``double`` squares and ``neg``
    inverts.

    ``normal`` maps a value to the form in which equal values are equal.
    ``endo`` is a map that acts on the subgroup of order ``order`` as
    multiplication by a constant lambda, and ``split(k)`` gives signed
    halves (k0, k1) with k = k0 + lambda*k1 mod order, each with
    |k_i| + 2 below 2**``half_bits`` for 0 <= k < order (see
    :func:`split_mul`).  ``columns`` is the row format of split passes
    and fixed-base tables (see :class:`Columns`); ``window`` and the
    ``generator``, whose table is built once, describe tables (see
    :func:`table`).  ``encode`` and ``decode`` are the wire codec; a
    decoder accepts only the bytes its encoder writes and raises
    AlgebraError on any others.  ``lockstep`` is the fewest table powers
    that :func:`fixed_muls` walks in lockstep; 1 in GT and on mock."""

    add: Callable
    double: Callable
    neg: Callable
    identity: tuple
    order: int = None
    normal: Callable = None
    endo: Callable = None
    split: Callable = None
    half_bits: int = None
    window: int = None
    columns: "Columns" = None
    generator: tuple = None
    encode: Callable = None
    decode: Callable = None
    lockstep: int = 1


class Columns(NamedTuple):
    """A group's row format: how :func:`_rows` builds rows a column at a
    time and how a pass or a table walk adds from them.

    ``normal(values)`` gives the values' normal forms, ``add(column,
    steps)`` the normal forms of column[i] + steps[i] for normal values,
    and ``coords(value)`` a normal value's entries in a row, a tuple.
    ``finite(value)`` tells whether a value is not the identity, which
    may have no normal form, and ``endo`` is the group's endomorphism on
    normal values.  ``entry(r, row, d)`` is r plus d times the row's
    value x for an odd digit d: r plus the row's |d|*x or its negation;
    ``pick(row, d)`` is that d*x itself, in normal form, and
    ``value(q)`` is the group value of a normal q."""

    normal: Callable
    add: Callable
    coords: Callable
    finite: Callable
    endo: Callable
    entry: Callable
    pick: Callable
    value: Callable


def value_columns(add, neg, identity, endo):
    """The row format of a group whose values are their own normal
    forms: a column step is one ``add`` per row, a row holds the values
    themselves, and a negative digit adds the ``neg`` of its entry."""
    def pick(row, d):
        q = row[abs(d) >> 1]
        return q if d > 0 else neg(q)

    return Columns(
        list, lambda column, steps: list(map(add, column, steps)), lambda q: (q,),
        lambda q: q != identity, endo, lambda r, row, d: add(r, pick(row, d)), pick,
        lambda q: q,
    )


def _rows(columns, firsts, steps, width):
    """Rows whose row i holds firsts[i] + j*steps[i] for j < width, each
    value in normal form, and the steps' normal forms.  It costs one
    normalisation and width - 1 column steps, one inversion each on a
    curve."""
    column = columns.normal(firsts + steps)
    column, steps = column[:len(firsts)], column[len(firsts):]
    rows = [[q] for q in column]
    for _ in range(width - 1):
        column = columns.add(column, steps)
        for row, q in zip(rows, column):
            row.append(q)
    return rows, steps


def _coords(columns, values):
    """The entries of normal values, as one flat tuple: a row."""
    return tuple(c for q in values for c in columns.coords(q))


def multi_mul(group, terms):
    """The sum of k*x over the (x, k) terms, each k >= 0, in one pass of
    shared doublings (Straus, "Addition chains of vectors", 1964).

    Each scalar is recoded by :func:`_digits` over the longest term's
    window count: every window costs WINDOW doublings, shared by all
    terms, and one add per term from its row of odd multiples, built
    with ``group.add`` and negated with ``group.neg``, which a value of
    any order has.  Exact on any value on which ``group.neg`` is the
    exact inverse: any curve point, but only the cyclotomic subgroup in
    Fp12."""
    top = max((_windows(k + 1 + (k & 1)) for _, k in terms), default=1)
    columns = value_columns(group.add, group.neg, group.identity, group.endo)
    xs = [x for x, _ in terms]
    rows, steps = _rows(columns, xs, [group.double(x) for x in xs], 1 << (WINDOW - 1))
    return _straus(group, columns, zip(rows, steps, (k for _, k in terms)), top)


def split_mul(group, terms):
    """The sum of k*x over the (x, k) terms, each x in the subgroup of
    order ``group.order`` and 0 <= k < order, in one Straus pass over
    halves.

    A term whose odd form has ``group.half_bits`` bits or more becomes
    two terms, x by k0 and endo(x) by k1, where (k0, k1) = split(k), and
    a negative half negates its digits.  A term whose order - k is
    shorter than that is the power order - k of -x instead, and stays
    whole, as a short k does.  Every half and every short scalar is
    recoded over half_bits bits, so the pass costs about half the
    doublings of :func:`multi_mul`.  Such a pass drops identity bases,
    which may have no normal form and add nothing, builds every other
    base's odd multiples as one row in the group's row format
    (``group.columns``), all rows a column at a time as a table's (see
    :func:`_rows`), maps a row by the endomorphism entry by entry, which
    is cheaper than building it, and adds each digit and each recoding
    fix as a table walk does.  A pass with no split term is a plain
    pass: for a window or two an affine row costs more than it saves.
    On a value outside that subgroup the endomorphism is not the
    multiplication by lambda and the result is wrong, and a column step
    may meet a zero denominator and raise ZeroDivisionError: membership
    checks take :func:`multi_mul`."""
    neg, bits, order = group.neg, group.half_bits, group.order

    def short(k):
        return not (k + 1 + (k & 1)) >> bits

    terms = [(neg(x), order - k) if not short(k) and short(order - k) else (x, k)
             for x, k in terms]
    if all(short(k) for _, k in terms):
        return multi_mul(group, terms)
    columns = group.columns
    endo = columns.endo
    terms = [(x, k) for x, k in terms if columns.finite(x)]
    xs = [x for x, _ in terms]
    rows, steps = _rows(columns, xs, [group.double(x) for x in xs], 1 << (WINDOW - 1))
    halves = []
    for (_, k), row, step in zip(terms, rows, steps):
        if short(k):
            halves.append((row, step, k))
            continue
        h0, h1 = group.split(k)
        halves += [(row, step, h0), ([endo(q) for q in row], endo(step), h1)]
    return _straus(group, columns, halves, -(-bits // WINDOW))


def _straus(group, columns, terms, top):
    """The sum of h*x over the (row of x, 2x, h) terms in one pass, every
    |h| recoded over ``top`` windows: a row holds x, 3x, ...,
    (2**WINDOW - 1)x, normal in ``columns``, whose ``entry`` makes
    every add."""
    entry, recoded, fixes = columns.entry, [], []
    for row, twice, h in terms:
        sign = -1 if h < 0 else 1
        row = _coords(columns, row)
        recoded.append((row, [sign * d for d in _digits(abs(h), WINDOW, top)]))
        # the recoding took |h| + 1 or |h| + 2: take x or 2x back off
        fixes.append((_coords(columns, [twice]) if h & 1 else row, -sign))
    r = group.identity
    for i in reversed(range(top)):
        if i < top - 1:
            for _ in range(WINDOW):
                r = group.double(r)
        for row, digits in recoded:
            r = entry(r, row, digits[i])
    for row, d in fixes:
        r = entry(r, row, d)
    return r


# ----------------------------------------------------------------------
# Fp2

FP2_ZERO = (0, 0)
FP2_ONE = (0, 1)


def fp2_add(a, b):
    return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)


def fp2_sub(a, b):
    return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)


def fp2_neg(a):
    return (-a[0] % p, -a[1] % p)


def fp2_conj(a):
    # (x*i + y)^p = -x*i + y
    return (-a[0] % p, a[1])


def fp2_scalar(a, k):
    """a times the integer k."""
    return (a[0] * k % p, a[1] * k % p)


def fp2_mul(a, b):
    # Karatsuba
    ax, ay = a
    bx, by = b
    vy = ay * by
    vx = ax * bx
    return (((ax + ay) * (bx + by) - vy - vx) % p, (vy - vx) % p)


def fp2_square(a):
    # complex squaring
    x, y = a
    return (2 * x * y % p, (y - x) * (y + x) % p)


def fp2_mul_xi(a):
    # (x*i + y)(i + 3) = (3x + y)*i + (3y - x)
    x, y = a
    return ((3 * x + y) % p, (3 * y - x) % p)


def fp2_inv(a):
    # Algorithm 8
    x, y = a
    inv = inv_mod_p(x * x + y * y)
    return (-x * inv % p, y * inv % p)


xi = (1, 3)  # i + 3

# the nonzero elements of Fp2 under multiplication
_FP2_UNITS = Group(fp2_mul, fp2_square, fp2_inv, FP2_ONE)
xi1 = [multi_mul(_FP2_UNITS, [(xi, j * (p-1) // 6)]) for j in range(1, 6)]
xi2 = [fp2_mul(x, fp2_conj(x)) for x in xi1]


# ----------------------------------------------------------------------
# Fp6 = Fp2[tau] / (tau^3 - xi)

FP6_ZERO = (FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE = (FP2_ZERO, FP2_ZERO, FP2_ONE)


def fp6_add(a, b):
    return (fp2_add(a[0], b[0]), fp2_add(a[1], b[1]), fp2_add(a[2], b[2]))


def fp6_sub(a, b):
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_neg(a):
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


def fp6_mul_tau(a):
    return (a[1], a[2], fp2_mul_xi(a[0]))


def _fp2_mul_wide(ax, ay, bx, by):
    """(ax*i + ay)(bx*i + by) by Karatsuba, as an unreduced pair."""
    vy = ay * by
    vx = ax * bx
    return (ax + ay) * (bx + by) - vy - vx, vy - vx


def fp6_mul(a, b):
    # Algorithm 13; the Fp2 products stay unreduced until the end
    (axx, axy), (ayx, ayy), (azx, azy) = a
    (bxx, bxy), (byx, byy), (bzx, bzy) = b
    t0x, t0y = _fp2_mul_wide(azx, azy, bzx, bzy)
    t1x, t1y = _fp2_mul_wide(ayx, ayy, byx, byy)
    t2x, t2y = _fp2_mul_wide(axx, axy, bxx, bxy)
    # tz = xi*((ax + ay)(bx + by) - t1 - t2) + t0
    sx, sy = _fp2_mul_wide(axx + ayx, axy + ayy, bxx + byx, bxy + byy)
    sx -= t1x + t2x
    sy -= t1y + t2y
    tz = ((3*sx + sy + t0x) % p, (3*sy - sx + t0y) % p)
    # ty = (ay + az)(by + bz) - t0 - t1 + xi*t2
    sx, sy = _fp2_mul_wide(ayx + azx, ayy + azy, byx + bzx, byy + bzy)
    ty = ((sx - t0x - t1x + 3*t2x + t2y) % p, (sy - t0y - t1y + 3*t2y - t2x) % p)
    # tx = (ax + az)(bx + bz) - t0 + t1 - t2
    sx, sy = _fp2_mul_wide(axx + azx, axy + azy, bxx + bzx, bxy + bzy)
    tx = ((sx - t0x + t1x - t2x) % p, (sy - t0y + t1y - t2y) % p)
    return (tx, ty, tz)


def fp6_inv(a):
    # Algorithm 17
    ax, ay, az = a
    A = fp2_sub(fp2_square(az), fp2_mul_xi(fp2_mul(ax, ay)))
    B = fp2_sub(fp2_mul_xi(fp2_square(ax)), fp2_mul(ay, az))
    # There is an error in the paper for this line
    C = fp2_sub(fp2_square(ay), fp2_mul(ax, az))
    F = fp2_mul_xi(fp2_mul(C, ay))
    F = fp2_add(F, fp2_mul(A, az))
    F = fp2_add(F, fp2_mul_xi(fp2_mul(B, ax)))
    F = fp2_inv(F)
    return (fp2_mul(C, F), fp2_mul(B, F), fp2_mul(A, F))


# ----------------------------------------------------------------------
# Fp12 = Fp6[omega] / (omega^2 - tau); the target group GT lives here

FP12_ONE = (FP6_ZERO, FP6_ONE)


def fp12_conj(a):
    return (fp6_neg(a[0]), a[1])


def fp12_mul(a, b):
    # Karatsuba, algorithm 20
    ax, ay = a
    bx, by = b
    v0 = fp6_mul(ay, by)
    v1 = fp6_mul(ax, bx)
    cx = fp6_sub(fp6_sub(fp6_mul(fp6_add(ax, ay), fp6_add(bx, by)), v0), v1)
    return (cx, fp6_add(v0, fp6_mul_tau(v1)))


def fp12_square(a):
    ax, ay = a
    v0 = fp6_mul(ax, ay)
    t = fp6_add(fp6_mul_tau(ax), ay)
    ty = fp6_sub(fp6_sub(fp6_mul(fp6_add(ax, ay), t), v0), fp6_mul_tau(v0))
    return (fp6_add(v0, v0), ty)


def fp12_inv(a):
    ax, ay = a
    t = fp6_inv(fp6_sub(fp6_mul(ay, ay), fp6_mul_tau(fp6_mul(ax, ax))))
    return (fp6_mul(fp6_neg(ax), t), fp6_mul(ay, t))


def fp12_frobenius(a):
    (xx, xy, xz), (yx, yy, yz) = a
    return (
        (fp2_mul(fp2_conj(xx), xi1[4]),
         fp2_mul(fp2_conj(xy), xi1[2]),
         fp2_mul(fp2_conj(xz), xi1[0])),
        (fp2_mul(fp2_conj(yx), xi1[3]),
         fp2_mul(fp2_conj(yy), xi1[1]),
         fp2_conj(yz)),
    )


def fp12_frobenius_p2(a):
    (xx, xy, xz), (yx, yy, yz) = a
    return (
        (fp2_mul(xx, xi2[4]), fp2_mul(xy, xi2[2]), fp2_mul(xz, xi2[0])),
        (fp2_mul(yx, xi2[3]), fp2_mul(yy, xi2[1]), yz),
    )


# ----------------------------------------------------------------------
# the cyclotomic subgroup: the Fp12 values f with f^(p^4 - p^2 + 1) == 1,
# among them every finished pairing value.  There the conjugate is the
# inverse and a squaring costs about half of fp12_square (Granger and
# Scott, "Faster squaring in the cyclotomic subgroup of sixth degree
# extensions", PKC 2010).  These routines are exact only on that
# subgroup; on any other value their results are wrong.


def _fp4_square_wide(ax, ay, bx, by):
    """(a + b*s)^2 = (a^2 + xi*b^2) + 2ab*s for Fp2 a, b and s^2 = xi,
    as four unreduced ints."""
    t0x = 2 * ax * ay
    t0y = (ay - ax) * (ay + ax)
    t1x = 2 * bx * by
    t1y = (by - bx) * (by + bx)
    cx, cy = ax + bx, ay + by
    return (
        t0x + 3 * t1x + t1y, t0y + 3 * t1y - t1x,
        2 * cx * cy - t0x - t1x, (cy - cx) * (cy + cx) - t0y - t1y,
    )


def fp12_cyclotomic_square(a):
    """a^2 for a in the cyclotomic subgroup.

    With w = omega and s = omega^3 (so s^2 = xi), a = A0 + A1*w + A2*w^2
    over Fp4 = Fp2[s], where A0 = y0 + x1*s, A1 = x0 + y2*s and
    A2 = y1 + x2*s; then a^2 = (3*A0^2 - 2*conj(A0))
    + (3*s*A2^2 + 2*conj(A1))*w + (3*A1^2 - 2*conj(A2))*w^2, conj
    mapping s to -s."""
    ((x2x, x2y), (x1x, x1y), (x0x, x0y)), ((y2x, y2y), (y1x, y1y), (y0x, y0y)) = a
    # A_j^2 = P_j + Q_j*s
    p0x, p0y, q0x, q0y = _fp4_square_wide(y0x, y0y, x1x, x1y)
    p1x, p1y, q1x, q1y = _fp4_square_wide(x0x, x0y, y2x, y2y)
    p2x, p2y, q2x, q2y = _fp4_square_wide(y1x, y1y, x2x, x2y)
    return (
        (((3 * q1x + 2 * x2x) % p, (3 * q1y + 2 * x2y) % p),
         ((3 * q0x + 2 * x1x) % p, (3 * q0y + 2 * x1y) % p),
         # s*(P2 + Q2*s) = xi*Q2 + P2*s
         ((3 * (3 * q2x + q2y) + 2 * x0x) % p, (3 * (3 * q2y - q2x) + 2 * x0y) % p)),
        (((3 * p2x - 2 * y2x) % p, (3 * p2y - 2 * y2y) % p),
         ((3 * p1x - 2 * y1x) % p, (3 * p1y - 2 * y1y) % p),
         ((3 * p0x - 2 * y0x) % p, (3 * p0y - 2 * y0y) % p)),
    )


# v in NAF, most significant digit first, the leading 1 dropped
naf_v = list(reversed(to_naf(v)))[1:]


def _cyclotomic_exp_u(a):
    """a**u for a in the cyclotomic subgroup, as ((a^v)^v)^v: each power
    walks the NAF of v, a -1 digit multiplying by the conjugate."""
    for _ in range(3):
        inv = fp12_conj(a)
        r = a
        for d in naf_v:
            r = fp12_cyclotomic_square(r)
            if d:
                r = fp12_mul(r, a if d > 0 else inv)
        a = r
    return a


def in_gt(a):
    """Whether a lies in the order-r subgroup of Fp12^*: in the cyclotomic
    subgroup, tested as a^(p^4) * a == a^(p^2) (which the zero value
    passes too), and of order r there."""
    a2 = fp12_frobenius_p2(a)
    if fp12_mul(fp12_frobenius_p2(a2), a) != a2:
        return False
    return multi_mul(CYCLOTOMIC, [(a, order)]) == FP12_ONE


# ----------------------------------------------------------------------
# G1: y^2 = x^3 + 3 over Fp

curve_B = 3
G1_INFINITY = (0, 0, 0)

# Any point (1,y) where y is a square root of b+1 is a generator
curve_G = (1, p-2, 1)


def g1_add(a, b):
    # http://hyperelliptic.org/EFD/g1p/auto-shortw-jacobian-0.html#addition-add-2007-bl
    # Values only added to others before a reduction stay unreduced.
    ax, ay, az = a
    bx, by, bz = b
    if az == 0:
        return b
    if bz == 0:
        return a
    z1z1 = az * az % p
    z2z2 = bz * bz % p
    u1 = ax * z2z2 % p
    h = (bx * z1z1 - u1) % p
    s1 = ay * bz * z2z2 % p
    r = (by * az * z1z1 - s1) % p
    if h == 0 and r == 0:
        return g1_double(a)
    r += r
    i = 4 * h * h % p
    j = h * i % p
    V = u1 * i % p
    cx = (r * r - j - 2 * V) % p
    cy = (r * (V - cx) - 2 * s1 * j) % p
    cz = ((az + bz) * (az + bz) - z1z1 - z2z2) * h % p
    return (cx, cy, cz)


def g1_double(a):
    # http://hyperelliptic.org/EFD/g1p/auto-shortw-jacobian-0.html#doubling-dbl-2009-l
    ax, ay, az = a
    A = ax * ax % p
    B = ay * ay % p
    C = B * B
    t = ax + B
    D = 2 * (t * t - A - C) % p
    E = 3 * A
    cx = (E * E - 2 * D) % p
    cy = (E * (D - cx) - 8 * C) % p
    cz = 2 * ay * az % p
    return (cx, cy, cz)


def g1_neg(a):
    x, y, z = a
    return (x, -y % p, z)


def g1_add_affine(a, x2, y2):
    """a + (x2, y2) for Jacobian a and a finite affine point: the
    formulas of g1_add with z2 == 1 (madd-2007-bl)."""
    x1, y1, z1 = a
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % p
    h = (x2 * z1z1 - x1) % p
    r = (y2 * z1 * z1z1 - y1) % p
    if h == 0 and r == 0:
        return g1_double(a)
    r += r
    hh = h * h % p
    i = 4 * hh % p
    j = h * i % p
    V = x1 * i % p
    cx = (r * r - j - 2 * V) % p
    cy = (r * (V - cx) - 2 * y1 * j) % p
    return (cx, cy, 2 * z1 * h % p)


def g1_affine(pt):
    """The same point with z == 1, or G1_INFINITY."""
    x, y, z = pt
    if z == 1:
        return pt
    if z == 0:
        return G1_INFINITY
    zinv = inv_mod_p(z)
    zinv2 = zinv * zinv % p
    return (x * zinv2 % p, y * zinv2 * zinv % p, 1)


# ----------------------------------------------------------------------
# G2: the sextic twist y^2 = x^3 + 3/xi over Fp2

twist_B = fp2_mul(fp2_inv(xi), (0, curve_B))
G2_INFINITY = (FP2_ZERO, FP2_ZERO, FP2_ZERO)

# The G2 generator of the Go bn256 package (golang.org/x/crypto/bn256,
# ``twistGen``), which works over this same curve, u = 1868033**3
# (Naehrig, Niederhagen and Schwabe, "New software speed records for
# cryptographic pairings", LATINCRYPT 2010), in this file's Fp2 order
# (x*i + y).  Nothing here derives it: a test checks that it lies on
# the twist and that order * twist_G is the point at infinity, which an
# assert here would pay for with a G2 pass in every process.
twist_G = (
    (21167961636542580255011770066570541300993051739349375019639421053990175267184,
     64746500191241794695844075326670126197795977525365406531717464316923369116492),
    (20666913350058776956210519119118544732556678129809273996262322366050359951122,
     17778617556404439934652658462602675281523610326338642107814333856843981424549),
    FP2_ONE)


def g2_add(a, b):
    # the formulas of g1_add
    ax, ay, az = a
    bx, by, bz = b
    if az == FP2_ZERO:
        return b
    if bz == FP2_ZERO:
        return a
    z1z1 = fp2_square(az)
    z2z2 = fp2_square(bz)
    u1 = fp2_mul(z2z2, ax)
    u2 = fp2_mul(z1z1, bx)
    h = fp2_sub(u2, u1)
    s1 = fp2_mul(fp2_mul(ay, bz), z2z2)
    s2 = fp2_mul(fp2_mul(by, az), z1z1)
    r = fp2_sub(s2, s1)
    if h == FP2_ZERO and r == FP2_ZERO:
        return g2_double(a)
    r = fp2_add(r, r)
    i = fp2_scalar(fp2_square(h), 4)
    j = fp2_mul(h, i)
    V = fp2_mul(u1, i)
    cx = fp2_sub(fp2_sub(fp2_square(r), j), fp2_add(V, V))
    cy = fp2_sub(fp2_mul(r, fp2_sub(V, cx)), fp2_scalar(fp2_mul(s1, j), 2))
    cz = fp2_sub(fp2_sub(fp2_square(fp2_add(az, bz)), z1z1), z2z2)
    return (cx, cy, fp2_mul(cz, h))


def g2_double(a):
    # the formulas of g1_double
    ax, ay, az = a
    A = fp2_square(ax)
    B = fp2_square(ay)
    C = fp2_square(B)
    D = fp2_scalar(fp2_sub(fp2_sub(fp2_square(fp2_add(ax, B)), A), C), 2)
    E = fp2_scalar(A, 3)
    F = fp2_square(E)
    cx = fp2_sub(F, fp2_add(D, D))
    cy = fp2_sub(fp2_mul(E, fp2_sub(D, cx)), fp2_scalar(C, 8))
    cz = fp2_scalar(fp2_mul(ay, az), 2)
    return (cx, cy, cz)


def g2_neg(a):
    x, y, z = a
    return (x, fp2_neg(y), z)


def g2_add_affine(a, x2, y2):
    """a + (x2, y2) for Jacobian a and a finite affine point: the
    formulas of g1_add_affine."""
    x1, y1, z1 = a
    if z1 == FP2_ZERO:
        return (x2, y2, FP2_ONE)
    z1z1 = fp2_square(z1)
    h = fp2_sub(fp2_mul(x2, z1z1), x1)
    r = fp2_sub(fp2_mul(fp2_mul(y2, z1), z1z1), y1)
    if h == FP2_ZERO and r == FP2_ZERO:
        return g2_double(a)
    r = fp2_add(r, r)
    i = fp2_scalar(fp2_square(h), 4)
    j = fp2_mul(h, i)
    V = fp2_mul(x1, i)
    cx = fp2_sub(fp2_sub(fp2_square(r), j), fp2_add(V, V))
    cy = fp2_sub(fp2_mul(r, fp2_sub(V, cx)), fp2_scalar(fp2_mul(y1, j), 2))
    return (cx, cy, fp2_scalar(fp2_mul(z1, h), 2))


def g2_affine(pt):
    """The same point with z == 1, or G2_INFINITY."""
    x, y, z = pt
    if z == FP2_ONE:
        return pt
    if z == FP2_ZERO:
        return G2_INFINITY
    zinv = fp2_inv(z)
    zinv2 = fp2_square(zinv)
    return (fp2_mul(x, zinv2), fp2_mul(fp2_mul(y, zinv2), zinv), FP2_ONE)


def g2_on_curve(pt):
    x, y, z = g2_affine(pt)
    rhs = fp2_add(fp2_mul(fp2_square(x), x), twist_B)
    return z == FP2_ONE and fp2_square(y) == rhs


# ----------------------------------------------------------------------
# endomorphisms (Gallant, Lambert and Vanstone, "Faster point
# multiplication on elliptic curves with efficient endomorphisms",
# CRYPTO 2001; Galbraith and Scott, "Exponentiation in pairing-friendly
# groups using homomorphisms", Pairing 2008)
#
# Each group has a cheap map that acts on its order-r subgroup as
# multiplication by a known lambda, so a power k*P there is
# k0*P + k1*(lambda*P) with halves k0, k1 of at most 128 bits (see
# split_mul).  On the curve phi(x, y) = (beta*x, y), beta a cube root of
# unity, acts as LAMBDA_1; on the twist psi, the untwist-Frobenius-twist
# map, and in GT the Frobenius map act as p = 6u^2 mod r.

LAMBDA_P = p - order  # 6u^2, 128 bits
BETA = 18*u**3 + 18*u**2 + 9*u + 1
LAMBDA_1 = 36*u**3 + 18*u**2 + 6*u + 1  # LAMBDA_1^2 + LAMBDA_1 + 1 = 0 mod r


# the short basis of the lattice of (a, b) with a + b*LAMBDA_1 = 0 mod r
# that the extended Euclidean algorithm on (r, LAMBDA_1) gives (GLV,
# section 4), in closed form: entries of 64, 128, 128 and 64 bits
(_A1, _B1), (_A2, _B2) = (2*u + 1, -(6*u**2 + 2*u)), (6*u**2 + 4*u + 1, 2*u + 1)


def g1_split(k):
    """Signed halves (k0, k1) with k = k0 + LAMBDA_1*k1 mod r, each below
    2**127 + 2**63 in absolute value: k minus the basis combination
    nearest to (k, 0), by rounding."""
    c1 = (2 * _B2 * k + order) // (2 * order)
    c2 = (-2 * _B1 * k + order) // (2 * order)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def split_by(lam):
    """The split into halves (k0, k1) with k = k0 + lam*k1 and
    0 <= k0 < lam: for lam = LAMBDA_P both lie below 2**128 when
    0 <= k < r."""
    def split(k):
        k1, k0 = divmod(k, lam)
        return k0, k1
    return split


def g1_phi(a):
    x, y, z = a
    return (BETA * x % p, y, z)


def g2_psi(a):
    # psi on Jacobian coordinates: conjugate each and scale x and y
    x, y, z = a
    return (fp2_mul(fp2_conj(x), xi1[1]), fp2_mul(fp2_conj(y), xi1[2]), fp2_conj(z))


# ----------------------------------------------------------------------
# the optimal ate pairing
#
# The lines of a Miller loop depend only on the twist point; the curve
# point only scales two of each line's coefficients (Costello and
# Stebila, "Fixed argument pairings", LATINCRYPT 2010).  prepare()
# computes a twist point's lines once, and miller() evaluates any number
# of pairs in one loop whose squarings they share (Granger and Smart,
# "On computing products of pairings", ePrint 2006/172).
#
# Evaluated at a curve point (x, y), the line at twist point T with
# slope lambda is (A*tau + B*x)*omega + y with A = lambda*x_T - y_T and
# B = -lambda.  The loop multiplies by it divided by y, the monic line
# (A/y*tau + B*x/y)*omega + 1, which costs two sparse Fp6 products where
# the whole line costs four.  A line scaled by any other factor in Fp2*
# (1/y here, or the constants of projective line formulas) changes the
# loop value only by a factor in Fp2*, and the easy part of final_exp,
# the power (p^6 - 1)(p^2 + 1), maps every such factor to one because
# p^2 - 1 divides it.  So every finished value is unchanged.


# for each line of the loop, whether a squaring comes before it: one
# before each tangent, none before a chord
_SQUARE_FIRST = [
    square for naf_i in naf_6up2 for square in ((True, False) if naf_i else (True,))
] + [False, False]


def prepare(q):
    """The Miller-loop lines of twist point q, as one flat tuple of ints.

    Each line is four ints, the Fp2 values A and B of the monic line
    (A/y*tau + B*x/y)*omega + 1 at curve point (x, y), in order.  They
    are computed in affine coordinates, one inversion per line; a line
    whose slope has a zero denominator, which no point of order r meets,
    raises ZeroDivisionError.  The point at infinity has no lines."""
    Q = g2_affine(q)
    if Q[2] == FP2_ZERO:
        return ()
    qx, qy = Q[0], Q[1]
    # the other point of each chord, None for a tangent: Q or -Q for each
    # nonzero NAF digit, then pi(Q) and -pi^2(Q)
    others = []
    for naf_i in naf_6up2:
        others.append(None)
        if naf_i:
            others.append((qx, qy if naf_i == 1 else fp2_neg(qy)))
    others += [g2_psi(Q)[:2], (fp2_scalar(qx, xi2[1][1]), qy)]
    out = []
    tx, ty = qx, qy
    for other in others:
        if other is None:
            x2, num, den = tx, fp2_scalar(fp2_square(tx), 3), fp2_add(ty, ty)
        else:
            x2 = other[0]
            num, den = fp2_sub(other[1], ty), fp2_sub(x2, tx)
        inv = fp2_inv(den)
        if inv == FP2_ZERO:
            raise ZeroDivisionError("a vertical Miller line: q is not of order r")
        lam = fp2_mul(num, inv)
        out += fp2_sub(fp2_mul(lam, tx), ty) + fp2_neg(lam)
        x3 = fp2_sub(fp2_sub(fp2_square(lam), tx), x2)
        tx, ty = x3, fp2_sub(fp2_mul(lam, fp2_sub(tx, x3)), ty)
    return tuple(out)


def _fp6_mul_line_wide(x, ax, ay, bx, by):
    """x*(a*tau + b) for Fp6 x, as six unreduced ints in Fp6 order."""
    (x2x, x2y), (x1x, x1y), (x0x, x0y) = x
    # xi*x2*a, with x2*a = sx*i + sy
    sx = x2x * ay + x2y * ax
    sy = x2y * ay - x2x * ax
    return (
        x2x * by + x2y * bx + x1x * ay + x1y * ax,
        x2y * by - x2x * bx + x1y * ay - x1x * ax,
        x1x * by + x1y * bx + x0x * ay + x0y * ax,
        x1y * by - x1x * bx + x0y * ay - x0x * ax,
        3 * sx + sy + x0x * by + x0y * bx,
        3 * sy - sx + x0y * by - x0x * bx,
    )


def _mul_line(f, ax, ay, bx, by):
    """f times the monic line (a*tau + b)*omega + 1, sparse: with
    L = a*tau + b, (fx*omega + fy)(L*omega + 1) = (fx + fy*L)*omega +
    fy + tau*fx*L."""
    fx, fy = f
    t2x, t2y, t1x, t1y, t0x, t0y = _fp6_mul_line_wide(fx, ax, ay, bx, by)
    s2x, s2y, s1x, s1y, s0x, s0y = _fp6_mul_line_wide(fy, ax, ay, bx, by)
    (f2x, f2y), (f1x, f1y), (f0x, f0y) = fx
    (g2x, g2y), (g1x, g1y), (g0x, g0y) = fy
    return (
        (((f2x + s2x) % p, (f2y + s2y) % p),
         ((f1x + s1x) % p, (f1y + s1y) % p),
         ((f0x + s0x) % p, (f0y + s0y) % p)),
        # tau*(t2, t1, t0) = (t1, t0, xi*t2)
        (((g2x + t1x) % p, (g2y + t1y) % p),
         ((g1x + t0x) % p, (g1y + t0y) % p),
         ((g0x + 3 * t2x + t2y) % p, (g0y + 3 * t2y - t2x) % p)),
    )


def miller(pairs):
    """The product of the Miller values of the (lines, curve point) pairs,
    in one loop that shares each step's squaring among them, up to a
    factor in Fp2* that final_exp removes.

    ``lines`` come from :func:`prepare`.  A pair with the point at
    infinity on either side contributes one."""
    terms = []
    for lines, (x, y, z) in pairs:
        if lines and z:
            # affine (x/z^2, y/z^3): 1/y' = z^3/y and x'/y' = x*z/y
            yinv = inv_mod_p(y)
            terms.append((lines, z * z * z * yinv % p, x * z * yinv % p))
    if not terms:
        return FP12_ONE
    f = FP12_ONE
    for i, square in enumerate(_SQUARE_FIRST):
        if square:
            f = fp12_square(f)
        i *= 4
        for lines, s, t in terms:
            f = _mul_line(
                f, lines[i] * s % p, lines[i + 1] * s % p,
                lines[i + 2] * t % p, lines[i + 3] * t % p,
            )
    return f


def final_exp(inp):
    # Algorithm 31; its hard part works in the cyclotomic subgroup
    t1 = fp12_mul(fp12_conj(inp), fp12_inv(inp))
    # Now t1 = inp^(p**6-1)
    t1 = fp12_mul(t1, fp12_frobenius_p2(t1))

    fp1 = fp12_frobenius(t1)
    fp2 = fp12_frobenius_p2(t1)
    fp3 = fp12_frobenius(fp2)

    fu1 = _cyclotomic_exp_u(t1)
    fu2 = _cyclotomic_exp_u(fu1)
    fu3 = _cyclotomic_exp_u(fu2)

    y3 = fp12_frobenius(fu1)
    fu2p = fp12_frobenius(fu2)
    fu3p = fp12_frobenius(fu3)
    y2 = fp12_frobenius_p2(fu2)

    y0 = fp12_mul(fp12_mul(fp1, fp2), fp3)
    y1 = fp12_conj(t1)
    y5 = fp12_conj(fu2)
    y3 = fp12_conj(y3)
    y4 = fp12_conj(fp12_mul(fu1, fu2p))
    y6 = fp12_conj(fp12_mul(fu3, fu3p))

    t0 = fp12_mul(fp12_mul(fp12_cyclotomic_square(y6), y4), y5)
    t1 = fp12_mul(fp12_mul(y3, y5), t0)
    t0 = fp12_mul(t0, y2)
    t1 = fp12_mul(fp12_cyclotomic_square(t1), t0)
    t1 = fp12_cyclotomic_square(t1)
    t0 = fp12_mul(t1, y1)
    t1 = fp12_mul(t1, y0)
    return fp12_mul(fp12_cyclotomic_square(t0), t1)


# ----------------------------------------------------------------------
# fixed-base tables (Brickell, Gordon, McCurley and Wilson, "Fast
# exponentiation with precomputation", EUROCRYPT 1992; Lim and Lee,
# "More flexible exponentiation with precomputation", CRYPTO 1994)
#
# A table of base P with its group's window w is (rows, fixes).  Row i
# holds the odd multiples (2j + 1) * 2**(w*i) * P, j < 2**(w - 1), as
# one flat tuple in the group's row format: affine coordinates on a
# curve, the Fp12 values themselves in GT; the rows cover a half of
# half_bits bits.  ``fixes`` are (-P, -2P) and (P, 2P).  A power walks
# the rows once for each half of its scalar (see split_mul): it recodes
# the half by _digits and adds one row entry per window, negated for a
# negative digit or a negative half, and pays no doublings; the
# endomorphism maps the second walk's result.  Each window trades adds
# against memory (see the README).  P must lie in the order-r subgroup,
# which for GT lies in the cyclotomic subgroup, where the conjugate is
# the inverse.
#
# A table is built a column at a time, by the row builder that a split
# Straus pass shares (_rows).  Doublings give each row's base
# P_i = 2**(w*i) * P and its double 2*P_i, which are normalised with
# one inversion; column j + 1 is then column j plus each row's 2*P_i.
# On a curve a column is a list of affine points, and the additions of
# a column step share one inversion of the product of their slope
# denominators (Montgomery's simultaneous inversion, "Speeding the
# Pollard and elliptic curve methods of factorization", Math. Comp.
# 1987): a table entry costs about six multiplications in the
# coordinate field, where a Jacobian add costs about sixteen before it
# is normalised.  GT values have no affine form, so a column step there
# is one multiplication per row.
#
# Every table power of the suite goes through fixed_muls, which walks
# many powers of one group in lockstep: every half of every scalar is a
# lane, and the lanes' row entries are added a row at a time as one
# column step, so on a curve a batch pays one shared inversion per row
# step where lone walks pay a Jacobian add per row and lane, and the
# results come out affine, ready to encode.  The inversion is paid per
# step however few lanes share it, so a batch below its group's
# ``lockstep`` minimum walks one power at a time (fixed_mul).  In GT a
# lone power walks as two lanes, no slower than fixed_mul: medians of
# 2.79-3.02 ms against 2.80-3.09 ms over five alternated rounds of 40
# powers on a 2-core x86 host.


def _affine_columns(mul, sub, inv, one, coords, endo, entry, pick):
    """The row format of a curve whose points have affine coordinates in
    the field of ``mul``, ``sub``, ``inv`` and ``one``: a normal point is
    an (x, y) pair, each list shares one inversion, and ``entry`` adds
    from a row of ``coords`` and ``pick`` reads one.  A zero
    denominator, which no point of order r meets, raises
    ZeroDivisionError.  ``endo`` is the curve's endomorphism on Jacobian
    points, which keeps z == one."""
    zero = sub(one, one)

    def inverses(values):
        prefix = [one]
        for v in values:
            prefix.append(mul(prefix[-1], v))
        t = inv(prefix[-1])  # the inverse of the product of every value
        if mul(t, prefix[-1]) != one:
            raise ZeroDivisionError("a zero denominator: the base is not of order r")
        out = [None] * len(values)
        for i in reversed(range(len(values))):
            out[i] = mul(t, prefix[i])
            t = mul(t, values[i])
        return out

    def normal(points):
        out = []
        for (x, y, _), zinv in zip(points, inverses([q[2] for q in points])):
            zinv2 = mul(zinv, zinv)
            out.append((mul(x, zinv2), mul(mul(y, zinv2), zinv)))
        return out

    def add(column, steps):
        dens = inverses([sub(x2, x1) for (x1, _), (x2, _) in zip(column, steps)])
        out = []
        for (x1, y1), (x2, y2), den in zip(column, steps, dens):
            lam = mul(sub(y2, y1), den)
            x3 = sub(sub(mul(lam, lam), x1), x2)
            out.append((x3, sub(mul(lam, sub(x1, x3)), y1)))
        return out

    return Columns(
        normal, add, coords, lambda q: q[2] != zero, lambda q: endo((*q, one))[:2], entry,
        pick, lambda q: (*q, one),
    )


def _table(group, a):
    """The table of a in the group."""
    window, double, columns = group.window, group.double, group.columns
    bases, twice = [a], [double(a)]
    for _ in range(-(-group.half_bits // window) - 1):
        b = twice[-1]
        for _ in range(window - 1):
            b = double(b)
        bases.append(b)
        twice.append(double(b))
    fixes = ((group.neg(a), group.neg(twice[0])), (a, twice[0]))
    rows, _ = _rows(columns, bases, twice, 1 << (window - 1))
    return tuple(_coords(columns, row) for row in rows), fixes


def table(group, x):
    """x's table, or None at the identity; the generator's is built once."""
    x = group.normal(x)
    if x == group.generator:
        return _generator_table(group)
    return _table(group, x) if x != group.identity else None


@functools.cache
def _generator_table(group):
    return _table(group, group.generator)


def fixed_mul(group, table, k):
    """k*P for 0 <= k < order from P's table: one walk of the rows for
    each half of k, the second mapped by the endomorphism."""
    k0, k1 = group.split(k)
    return group.add(_walk(group, table, k0), group.endo(_walk(group, table, k1)))


def fixed_muls(group, items):
    """k*P for each (P's table, k) item, 0 <= k < order, as
    :func:`fixed_mul` gives it: a batch of ``group.lockstep`` powers or
    more walks in lockstep (see :func:`_lockstep`), each result in
    normal form, and a smaller batch, or one whose walk meets a zero
    denominator, one power at a time."""
    if len(items) >= group.lockstep:
        try:
            return _lockstep(group, items)
        except ZeroDivisionError:
            pass
    return [fixed_mul(group, table, k) for table, k in items]


def _lockstep(group, items):
    """The powers of :func:`fixed_muls`, every half of every k a lane.

    A lane starts at its first row's entry, and each row step adds the
    next row's entries to all lanes in one column step (``columns.add``,
    one inversion on a curve), where a lone walk makes one Jacobian add
    per row.  Two more column steps add each lane's recoding fix and add
    each second half, mapped by the endomorphism, to its first.  A
    column step raises ZeroDivisionError where a lane meets the value it
    adds or its negation, as the lane of a half of 0 would at its fix
    (among them those of 0, 1 and 2), which is raised before any step."""
    columns = group.columns
    fixes = {}  # id of a table -> its fixes -P, -2P, P, 2P in normal form
    lanes = []  # per half: the entry it adds from each row, then its fix
    for table, k in items:
        rows, pairs = table
        if id(table) not in fixes:
            fixes[id(table)] = columns.normal([*pairs[0], *pairs[1]])
        for h in group.split(k):
            if not h:
                raise ZeroDivisionError("a half of 0 meets its fix")
            neg, h = h < 0, abs(h)
            digits = _digits(h, group.window, len(rows))
            lanes.append([columns.pick(row, (d, -d)[neg]) for row, d in zip(rows, digits)]
                         + [fixes[id(table)][2 * neg + (h & 1)]])
    column, *steps = zip(*lanes)
    for step in steps:
        column = columns.add(column, step)
    column = columns.add(column[0::2], [columns.endo(q) for q in column[1::2]])
    return [columns.value(q) for q in column]


def _walk(group, table, h):
    """h*P for a half h from P's table: one entry add per row."""
    rows, fixes = table
    entry, neg = group.columns.entry, h < 0
    h = abs(h)
    r = fixes[neg][h & 1]
    for row, d in zip(rows, _digits(h, group.window, len(rows))):
        r = entry(r, row, (d, -d)[neg])
    return r


def _g1_entry(r, row, d):
    j = (abs(d) >> 1) * 2
    y = row[j + 1]
    return g1_add_affine(r, row[j], y if d > 0 else p - y)


def _g1_pick(row, d):
    j = (abs(d) >> 1) * 2
    y = row[j + 1]
    return row[j], y if d > 0 else p - y


def _g2_entry(r, row, d):
    j = (abs(d) >> 1) * 4
    y = (row[j + 2], row[j + 3])
    return g2_add_affine(r, (row[j], row[j + 1]), y if d > 0 else fp2_neg(y))


def _g2_pick(row, d):
    j = (abs(d) >> 1) * 4
    y = (row[j + 2], row[j + 3])
    return (row[j], row[j + 1]), y if d > 0 else fp2_neg(y)


# ----------------------------------------------------------------------
# wire codecs: a decoder accepts only the bytes its encoder writes, of a
# value in the order-r subgroup (G1 has prime order; G2 and GT values
# take a full-order pass)

FP_BYTES = 32
G1_BYTES = 1 + FP_BYTES
G2_BYTES = 1 + 4 * FP_BYTES
GT_BYTES = 12 * FP_BYTES


def g1_encode(a):
    x, y, z = g1_affine(a)
    if z == 0:
        return b"\x00" * G1_BYTES
    return bytes([0x02 | (y & 1)]) + x.to_bytes(FP_BYTES, "big")


def g1_decode(raw):
    if len(raw) != G1_BYTES:
        raise AlgebraError("bad point encoding length")
    tag = raw[0]
    if tag == 0:
        if any(raw[1:]):
            raise AlgebraError("bad infinity encoding")
        return G1_INFINITY
    if tag not in (0x02, 0x03):
        raise AlgebraError("bad point tag")
    x = int.from_bytes(raw[1:], "big")
    if x >= p:
        raise AlgebraError("point coordinate out of range")
    # the curve has prime order, so no point has y == 0
    rhs = (x * x * x + curve_B) % p
    y = sqrt_mod_p(rhs)
    if y * y % p != rhs:
        raise AlgebraError("encoding is not on the curve")
    if (y & 1) != (tag & 1):
        y = p - y
    return (x, y, 1)


def g2_encode(a):
    x, y, z = g2_affine(a)
    if z == FP2_ZERO:
        return b"\x00" * G2_BYTES
    return b"\x01" + b"".join(c.to_bytes(FP_BYTES, "big") for c in x + y)


def g2_decode(raw):
    if len(raw) != G2_BYTES:
        raise AlgebraError("bad twist encoding length")
    if raw[0] == 0:
        if any(raw[1:]):
            raise AlgebraError("bad infinity encoding")
        return G2_INFINITY
    if raw[0] != 1:
        raise AlgebraError("bad twist tag")
    vals = [int.from_bytes(raw[i:i + FP_BYTES], "big") for i in range(1, len(raw), FP_BYTES)]
    if any(v >= p for v in vals):
        raise AlgebraError("twist coordinate out of range")
    pt = ((vals[0], vals[1]), (vals[2], vals[3]), FP2_ONE)
    if not g2_on_curve(pt):
        raise AlgebraError("encoding is not on the twist")
    if multi_mul(TWIST, [(pt, order)])[2] != FP2_ZERO:
        raise AlgebraError("twist point outside the prime-order subgroup")
    return pt


def gt_marshall(gt):
    """The twelve Fp coordinates of an Fp12 value, in wire order."""
    return tuple(c for e6 in gt for e2 in e6 for c in e2)


def gt_unmarshall(*c):
    return (
        ((c[0], c[1]), (c[2], c[3]), (c[4], c[5])),
        ((c[6], c[7]), (c[8], c[9]), (c[10], c[11])),
    )


def gt_encode(a):
    return b"".join(c.to_bytes(FP_BYTES, "big") for c in gt_marshall(a))


def gt_decode(raw):
    if len(raw) != GT_BYTES:
        raise AlgebraError("bad target-group encoding length")
    vals = [int.from_bytes(raw[i:i + FP_BYTES], "big") for i in range(0, len(raw), FP_BYTES)]
    if any(v >= p for v in vals):
        raise AlgebraError("target-group coordinate out of range")
    value = gt_unmarshall(*vals)
    if not in_gt(value):
        raise AlgebraError("target-group value outside the prime-order subgroup")
    return value


# A batch of n table powers costs about a + b*n in lockstep: a for the
# inversions of its S column steps (the rows and two), b per power.
# One at a time, a power costs a walk F and the inversion a/S that
# normalises it for encoding, so the lockstep minimum is
# ceil(a / (F + a/S - b)).  In `etenon bench` F is a `_fixed` row's
# layer_ms, and its `_fixed_batch` row of N powers gives
# b = (layer_ms - one_ms) / (N - 1) and a = one_ms - b.  Five runs on a
# 2-core x86 host gave 4.3 to 5.7 on G1 (median 5.2) and 1.1 to 2.0 on
# G2 (median 1.2).
CURVE = Group(
    g1_add, g1_double, g1_neg, G1_INFINITY, order, normal=g1_affine,
    endo=g1_phi, split=g1_split, half_bits=HALF_BITS, window=7, lockstep=6,
    columns=_affine_columns(
        lambda a, b: a * b % p, lambda a, b: (a - b) % p, inv_mod_p, 1, lambda q: q, g1_phi,
        _g1_entry, _g1_pick,
    ),
    generator=curve_G, encode=g1_encode, decode=g1_decode,
)
TWIST = Group(
    g2_add, g2_double, g2_neg, G2_INFINITY, order, normal=g2_affine,
    endo=g2_psi, split=split_by(LAMBDA_P), half_bits=HALF_BITS, window=6, lockstep=2,
    columns=_affine_columns(
        fp2_mul, fp2_sub, fp2_inv, FP2_ONE, lambda q: q[0] + q[1], g2_psi, _g2_entry, _g2_pick,
    ),
    generator=twist_G, encode=g2_encode, decode=g2_decode,
)
# the target group, as the cyclotomic subgroup of Fp12, where the
# conjugate a^(p^6) is the inverse.  On any other nonzero value the
# conjugate is the inverse up to the final exponentiation, since r
# divides p^6 + 1; the rest is exact only in the subgroup.
CYCLOTOMIC = Group(
    fp12_mul, fp12_cyclotomic_square, fp12_conj, FP12_ONE, order, normal=lambda a: a,
    endo=fp12_frobenius, split=split_by(LAMBDA_P), half_bits=HALF_BITS, window=5,
    columns=value_columns(fp12_mul, fp12_conj, FP12_ONE, fp12_frobenius),
    encode=gt_encode, decode=gt_decode,
)

# the GLV vectors are a basis of that lattice (their determinant is r),
# and every half plus two fits HALF_BITS bits (a GLV half is at most half
# the sum of its basis column)
assert (_A1 + _B1 * LAMBDA_1) % order == (_A2 + _B2 * LAMBDA_1) % order == 0
assert _A1 * _B2 - _A2 * _B1 == order
assert max(abs(_A1) + abs(_A2), abs(_B1) + abs(_B2)) // 2 + 2 < 2**HALF_BITS
assert max(LAMBDA_P - 1, (order - 1) // LAMBDA_P) + 2 < 2**HALF_BITS


# ----------------------------------------------------------------------
# hashing

sqrt_neg_3 = sqrt_mod_p(p-3)
inv_2 = inv_mod_p(2)


def g1_hash_to_point(msg):
    # From "Indifferentiable Hashing to Barreto-Naehrig Curves"
    # https://www.di.ens.fr/~fouque/pub/latincrypt12.pdf
    t = int.from_bytes(hashlib.sha512(msg).digest(), "big") % p
    # t = 0 maps to ((sqrt(-3) - 1)/2, sqrt(1 + b)), as in the paper
    chi_t = legendre(t) or 1
    w = sqrt_neg_3 * t * inv_mod_p(1 + curve_B + t*t) % p

    def g(x):
        return (x*x*x + curve_B) % p

    x = ((sqrt_neg_3 - 1) * inv_2 - t*w) % p
    if legendre(g(x)) != 1:
        x = (-1 - x) % p
        if legendre(g(x)) != 1:
            # g(x1) g(x2) g(x3) is a square, so g(x3) is one
            x = (1 + inv_mod_p(w*w)) % p
    return (x, chi_t * sqrt_mod_p(g(x)) % p, 1)
