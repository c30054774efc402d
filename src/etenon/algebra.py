"""Bilinear-group plumbing shared by every protocol module.

One class, :class:`GroupSuite`, serves two kinds of suite, which
:func:`get_suite` makes by name:

* ``bn256`` -- a 256-bit Barreto-Naehrig curve (vendored, see
  :mod:`etenon._bn256`).  The pairing is asymmetric (Type 3), so every
  source-group element sits on one side of it: ``LEFT`` elements are
  base-curve points (the group of ``generator`` and ``hash_to_group``),
  ``RIGHT`` elements are twist points (the group of
  ``right_generator``).  Multiplication and comparison only combine
  elements of one side, and a pairing takes one element of each.

* ``mock`` -- exponent arithmetic modulo a small prime.  Group elements
  are their own discrete logs, which makes the exponent algebra of the
  encryption scheme directly checkable; the test suite leans on this.
  Elements carry the same side tags and obey the same rules as on the
  curve, and their powers run the curve's power code over Z_q.

:class:`GroupSuite` owns every rule of evaluation and all group
arithmetic and coding; a suite is one ``_bn256.Group`` record per group,
its generators and its pairing hooks.  Every suite therefore defers work
the same way: a source-group power is pending until its point is needed, and
then it and the factors it is multiplied with are evaluated together
(see :class:`G0Element`); a pairing is pending until its value is
read, and pairings joined by :meth:`GroupSuite.pairing_product` share
one Miller loop; its final exponentiation waits until the value is
compared, encoded or raised (see :class:`G1Element`).  Every power, in
any group, takes one of two algorithms: a base marked by
:meth:`GroupSuite.fixed_base` walks its table of multiples, and the
other bases of one evaluation share one multi-exponentiation.  Every
operation ticks its counter when it is called, not when its work is
done.  Two public values are computed once and kept: an element keeps
its encoding from the first time it is encoded or decoded on, and a
suite memoises H(a) per label, as a fixed base once the label is hashed
often (see :meth:`GroupSuite.hash_to_group`).

Scalars are plain ints reduced modulo the suite order.  All randomness
is drawn through ``rand_scalar`` so callers can inject a seeded
``random.Random`` for reproducible runs (the default source is
``random.SystemRandom``, the operating system's randomness).
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import hmac
import math
import random
import threading

from contextlib import contextmanager
from dataclasses import dataclass

from . import _bn256
from .errors import AlgebraError

_H0_TAG = b"ETN-H0"
_H1_TAG = b"ETN-H1"
_KDF_TAG = b"ETN-KDF"

SEAL_TAG_BYTES = 16
_SEAL_MAC_KEY_BYTES = 32

LEFT = "left"
RIGHT = "right"
TARGET = "target"  # the target group, as a key of ``GroupSuite.groups``

# the table of a fixed base that has not been raised yet
_UNBUILT = object()

# labels whose hashed element a suite keeps (see GroupSuite.hash_to_group);
# each may hold a G1 table of about 163 KB, so at most about 10 MB
HASH_MEMO_SIZE = 64
# the call of a label from which its element is a fixed base: a G1 table
# costs about as much as this many Straus powers over table walks
HASH_TABLE_AFTER = 9


class IntegrityError(AlgebraError):
    """A sealed payload failed its authenticity check."""


def hash_commit(data: bytes) -> bytes:
    """Commitment/digest hash: SHA-256 under its own domain tag."""
    return hashlib.sha256(_H0_TAG + data).digest()


def _challenge_int(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(_H1_TAG + data).digest(), "big")


def kdf_stream(key: bytes, context: bytes, length: int) -> bytes:
    """Expand key material into ``length`` keystream bytes bound to a context."""
    out = bytearray()
    counter = 0
    head = _KDF_TAG + len(key).to_bytes(4, "big") + key + context
    while len(out) < length:
        out.extend(hashlib.sha256(head + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(out[:length])


def _scalar_bytes(order: int) -> int:
    return (order.bit_length() + 7) // 8


def _encode_scalar(order: int, k: int) -> bytes:
    if not 0 <= k < order:
        raise AlgebraError("scalar out of range")
    return k.to_bytes(_scalar_bytes(order), "big")


def _decode_scalar(order: int, raw: bytes) -> int:
    if len(raw) != _scalar_bytes(order):
        raise AlgebraError("scalar encoding has wrong length")
    k = int.from_bytes(raw, "big")
    if k >= order:
        raise AlgebraError("scalar encoding out of range")
    return k


def _seal_tag(mac_key: bytes, masked: bytes) -> bytes:
    return hmac.new(mac_key, masked, hashlib.sha256).digest()[:SEAL_TAG_BYTES]


@dataclass
class OpCounters:
    """Tally of group operations recorded inside a ``measure()`` span."""

    exponentiations: int = 0
    multiplications: int = 0
    pairings: int = 0
    hash_calls: int = 0

    def as_dict(self) -> dict:
        return {
            "exponentiations": self.exponentiations,
            "multiplications": self.multiplications,
            "pairings": self.pairings,
            "hash_calls": self.hash_calls,
        }

    def add(self, other: "OpCounters") -> None:
        for name, n in other.as_dict().items():
            setattr(self, name, getattr(self, name) + n)


class G0Element:
    """Source-group element.  Its value never changes; operators delegate
    to the suite.

    ``side`` is ``LEFT`` or ``RIGHT``, the pairing argument the element
    can fill; ``point`` is the suite's payload for that side.

    A power is *pending*: ``factors`` then holds the product of powers
    the element stands for, as (point, scalar, table) terms and other
    elements, and the point is not yet computed.  A product with a
    pending operand is pending too.  Reading ``point`` (to encode, pair,
    compare or raise the element) evaluates all its terms at once, each
    term with a table from its table and the rest in one
    multi-exponentiation, and keeps the result.  ``joins`` counts the
    products the element is a factor of; a factor of several is
    evaluated once on its own, so no product repeats another's work.

    A right element keeps in ``lines`` what the suite prepares of its
    point for Miller loops, from the first loop it takes part in on.  A
    fixed base keeps its table of multiples in ``table``, from its first
    power on (see :meth:`GroupSuite.fixed_base`).  Every element keeps
    its encoding in ``raw`` from the first time it is encoded or decoded
    on, so a key or a nonce that is hashed, checked and written is
    encoded once.
    """

    __slots__ = ("suite", "side", "_point", "factors", "joins", "lines", "table", "raw")

    def __init__(self, suite: "GroupSuite", side: str, point=None, factors=None, raw=None):
        self.suite = suite
        self.side = side
        self._point = point
        self.factors = factors
        self.joins = 0
        self.lines = None
        self.table = None
        self.raw = raw

    @property
    def point(self):
        if self.factors is not None:
            self._point = self.suite._sum(self.side, *self.suite._flatten(self))
            self.factors = None
        return self._point

    def __mul__(self, other: "G0Element") -> "G0Element":
        return self.suite.g0_mul(self, other)

    def __pow__(self, k: int) -> "G0Element":
        return self.suite.g0_exp(self, k)

    def __neg__(self) -> "G0Element":
        return self.suite.g0_neg(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, G0Element):
            return NotImplemented
        return self.suite.g0_eq(self, other)

    __hash__ = None

    def encode(self) -> bytes:
        return self.suite.encode_g0(self)

    def __repr__(self) -> str:
        return "G0Element(%s, %s, %s)" % (
            self.suite.name, self.side, self.encode().hex()[:16]
        )


class G1Element:
    """Target-group element (pairing output).

    A pairing is *pending*: ``pairs`` then holds the (left, right,
    inverse) element triples whose Miller values it is the product of,
    an inverse pair dividing instead, and no Miller loop has run yet.
    Reading ``value`` runs one loop over all the pairs and keeps the
    result.

    A pairing's value is its Miller value: ``owed`` is set and the final
    exponentiation is still to come.  That map is a homomorphism onto
    the target group, so products and quotients of owed values stay owed
    and are finished once, when the result is compared or encoded (a
    quotient multiplies by the conjugate, which the final step turns
    into the inverse).  It
    is not the identity on the target group, so an owed value that meets
    a finished one is finished first, and so is one that is raised: a
    power is taken in the cyclotomic subgroup, by the same code as a
    source-group power, and is finished.  Decoded values,
    ``gt_generator`` and ``gt_identity`` are finished.  A fixed base
    keeps its table in ``table``, as a source-group element does, built
    from its finished value.
    """

    __slots__ = ("suite", "_value", "owed", "pairs", "table")

    def __init__(self, suite: "GroupSuite", value=None, owed: bool = False, pairs=None):
        self.suite = suite
        self._value = value
        self.owed = owed
        self.pairs = pairs
        self.table = None

    @property
    def value(self):
        pairs = self.pairs  # read once: another thread may evaluate it
        if pairs is None:
            return self._value
        value = self._value = self.suite._miller(pairs)
        self.pairs = None
        return value

    def __mul__(self, other: "G1Element") -> "G1Element":
        return self.suite.gt_mul(self, other)

    def __truediv__(self, other: "G1Element") -> "G1Element":
        return self.suite.gt_div(self, other)

    def __pow__(self, k: int) -> "G1Element":
        return self.suite.gt_exp(self, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, G1Element):
            return NotImplemented
        return self.suite.gt_eq(self, other)

    __hash__ = None

    def encode(self) -> bytes:
        return self.suite.encode_gt(self)

    def __repr__(self) -> str:
        return "G1Element(%s, %s)" % (self.suite.name, self.encode().hex()[:16])


class GroupSuite:
    """A pairing group, as one set of records and hooks; :func:`get_suite`
    makes the two there are.

    A suite is made of its ``name`` and ``order``, ``groups`` (one
    ``_bn256.Group`` record, with its codec, for each side and for
    ``TARGET``, the target group written additively), the points of its
    two generators, and hooks on raw payloads: ``prepare`` (what a
    Miller loop needs of a right point, computed once per element),
    ``pair_product`` (the product of the Miller values of (prepared
    right, left point) pairs in one loop, up to the final
    exponentiation), ``final_exp``, ``hash_point`` (a label's left
    point) and, where discrete logs are free, ``dlog`` (the log of a
    payload).  Every other operation is done here, once, by the record
    of the element's side: a power by ``_bn256.split_mul`` or, from a
    table, by ``_bn256.fixed_mul``.  Of the ``TARGET`` record only
    ``add`` and ``neg`` see Miller values: ``add`` must be exact on them
    and ``neg`` exact once the result is finished.
    """

    def __init__(self, name: str, order: int, groups: dict, generators: tuple, *,
                 prepare, pair_product, final_exp, hash_point, dlog=None):
        self.name = name
        self.order = order
        # the scalar codec, which a mock suite's record uses as its own
        self.scalar_bytes = _scalar_bytes(order)
        self.encode_scalar = functools.partial(_encode_scalar, order)
        self.decode_scalar = functools.partial(_decode_scalar, order)
        self.groups = groups
        self._generators = generators
        self._prepare = prepare
        self._pair_product = pair_product
        self._final_exp = final_exp
        self.hash_point = hash_point
        self._dlog = dlog
        # the open span of the current thread (or task) on this suite
        self._span = contextvars.ContextVar("measure span", default=None)
        # label -> [its hashed element, calls], at most HASH_MEMO_SIZE of them
        self._hashed = {}
        self._hashed_lock = threading.Lock()

    @property
    def generator(self) -> G0Element:
        return self.fixed_base(G0Element(self, LEFT, self._generators[0]))

    @property
    def right_generator(self) -> G0Element:
        return self.fixed_base(G0Element(self, RIGHT, self._generators[1]))

    # ------------------------------------------------------------------
    # instrumentation

    @contextmanager
    def measure(self):
        """Collect operation counts for the duration of the span.

        When a span nested inside another ends, its counts are added to
        the enclosing span, so every span sees all the work done in it.
        Spans are context-local: each thread counts only its own work.
        """
        prev = self._span.get()
        span = OpCounters()
        token = self._span.set(span)
        try:
            yield span
        finally:
            self._span.reset(token)
            if prev is not None:
                prev.add(span)

    def _tick(self, field: str) -> None:
        span = self._span.get()
        if span is not None:
            setattr(span, field, getattr(span, field) + 1)

    # ------------------------------------------------------------------
    # scalars

    def rand_scalar(self, rng=None) -> int:
        """Uniform scalar in [0, order); ``rng`` may be a seeded Random."""
        if rng is None:
            rng = random.SystemRandom()
        return rng.randrange(self.order)

    def rand_scalar_nonzero(self, rng=None) -> int:
        while True:
            k = self.rand_scalar(rng)
            if k != 0:
                return k

    # ------------------------------------------------------------------
    # hashes

    def hash_commit(self, data: bytes) -> bytes:
        """Commitment hash (256-bit byte output)."""
        self._tick("hash_calls")
        return hash_commit(data)

    def hash_challenge(self, data: bytes) -> int:
        """Challenge hash: 256-bit digest reduced modulo the group order."""
        self._tick("hash_calls")
        return _challenge_int(data) % self.order

    def hash_to_group(self, label: bytes | str) -> G0Element:
        """H(label), a left element.  It ticks on every call, but the map
        runs once per label: the element is memoised, and the memo starts
        over when it holds ``HASH_MEMO_SIZE`` labels, since labels come
        from policy text that the other party writes.  The memo counts
        each label's calls too, and from the ``HASH_TABLE_AFTER``-th on the
        element is a fixed base (see :meth:`fixed_base`): by then the
        label's Straus powers have cost about one table, so the power that
        follows builds it and every later power walks it.  A label hashed
        once per key or per agreement earns its table only after that
        many keys or agreements in one process."""
        if isinstance(label, str):
            label = label.encode("utf-8")
        self._tick("hash_calls")
        entry = self._hashed.get(label)
        if entry is None:
            entry = [self._hash_to_group(label), 0]
            with self._hashed_lock:
                if len(self._hashed) >= HASH_MEMO_SIZE:
                    self._hashed.clear()
                self._hashed[label] = entry
        # an increment lost to another thread only delays the table
        entry[1] += 1
        if entry[1] >= HASH_TABLE_AFTER:
            self.fixed_base(entry[0])
        return entry[0]

    def _hash_to_group(self, label: bytes) -> G0Element:
        return G0Element(self, LEFT, self.hash_point(label))

    # ------------------------------------------------------------------
    # source-group arithmetic

    def fixed_base(self, x):
        """Mark x, a source-group or target-group element, as a base that
        is raised often, and return it.

        Its powers then take a table of its multiples, built on its first
        power and kept on x, so a power costs no doublings or squarings.
        """
        self._check(x)
        if x.table is None:
            x.table = _UNBUILT
        return x

    def _table(self, x, side: str, value):
        """The table of x, whose payload is ``value``, or None at the
        identity."""
        table = x.table
        if table is _UNBUILT:
            table = x.table = _bn256.table(self.groups[side], value)
        return table

    def identity(self, side: str) -> G0Element:
        """The identity element of one side."""
        return G0Element(self, side, self.groups[side].identity)

    @functools.cached_property
    def left_identity_encoding(self) -> bytes:
        """The left identity's encoding; cached, it is a constant of the suite."""
        return self.identity(LEFT).encode()

    def g0_mul(self, x: G0Element, y: G0Element) -> G0Element:
        side = self._same_side(x, y)
        self._tick("multiplications")
        if x.factors is None and y.factors is None:
            return G0Element(self, side, self.groups[side].add(x.point, y.point))
        x.joins += 1
        y.joins += 1
        return G0Element(self, side, factors=(x, y))

    def g0_exp(self, x: G0Element, k: int) -> G0Element:
        self._check(x)
        self._tick("exponentiations")
        point = x.point
        term = (point, k % self.order, self._table(x, x.side, point))
        return G0Element(self, x.side, factors=(term,))

    def g0_neg(self, x: G0Element) -> G0Element:
        """The inverse of x, finished.  It ticks nothing: negating a point
        is exact and costs nothing, as a divisor's in
        :meth:`pairing_product` does."""
        self._check(x)
        return G0Element(self, x.side, self.groups[x.side].neg(x.point))

    def g0_eq(self, x: G0Element, y: G0Element) -> bool:
        normal = self.groups[self._same_side(x, y)].normal
        return normal(x.point) == normal(y.point)

    def _flatten(self, x: G0Element):
        """The (point, scalar, table) terms and the finished points that x
        is the product of; a factor of several products is evaluated on
        its own."""
        terms, points = [], []
        stack = [x]
        while stack:
            f = stack.pop()
            if type(f) is tuple:
                terms.append(f)
                continue
            factors = f.factors  # read once: another thread may finish f
            if factors is None or (f is not x and f.joins > 1):
                points.append(f.point)
            else:
                stack.extend(factors)
        return terms, points

    def _sum(self, side, terms, points):
        """Each term with a table by its table and the others in one
        Straus pass over their halves, none when every term has a table;
        plus the points.  The pass may split every scalar, since every
        element of a suite lies in its order-r subgroup."""
        group = self.groups[side]
        values = [_bn256.fixed_mul(group, table, k) for _, k, table in terms if table is not None]
        straus = [(pt, k) for pt, k, table in terms if table is None]
        if straus:
            values.append(_bn256.split_mul(group, straus))
        return functools.reduce(group.add, values + points)

    # ------------------------------------------------------------------
    # pairing and target-group arithmetic

    def pairing(self, x: G0Element, y: G0Element) -> G1Element:
        """Bilinear map of one left and one right element, in either order;
        pending until its value is read."""
        self._check(x, y)
        if x.side == y.side:
            raise AlgebraError("pairing needs one left and one right element")
        self._tick("pairings")
        left, right = (x, y) if x.side == LEFT else (y, x)
        return G1Element(self, owed=True, pairs=((left, right, False),))

    def pairing_product(self, num, den=()) -> G1Element:
        """The product of the pending pairings ``num`` over those of
        ``den``, pending as one Miller loop over all their pairs.

        It ticks nothing: each pair was counted by its pairing.  A
        divisor's pair is evaluated at its negated left point, since
        e(x^-1, y) = e(x, y)^-1, which is exact and costs nothing.
        """
        pairs = []
        for inverse, values in ((False, num), (True, den)):
            for a in values:
                if not isinstance(a, G1Element):
                    raise AlgebraError("a pairing product takes target-group elements")
                self._check(a)
                held = a.pairs
                if held is None:
                    raise AlgebraError("a pairing product takes only pending pairings")
                pairs += [(x, y, inv != inverse) for x, y, inv in held]
        return G1Element(self, owed=True, pairs=tuple(pairs))

    def _miller(self, pairs):
        """The Miller value of (left, right, inverse) pairs, in one loop."""
        return self._pair_product([
            (self._lines(right), self.groups[LEFT].neg(left.point) if inverse else left.point)
            for left, right, inverse in pairs
        ])

    def _lines(self, right: G0Element):
        lines = right.lines
        if lines is None:
            lines = right.lines = self._prepare(right.point)
        return lines

    @functools.cached_property
    def gt_generator(self) -> G1Element:
        """e(g1, g2); cached, it is a fixed public constant of the suite."""
        pair = (self.generator, self.right_generator, False)
        return G1Element(self, self._final_exp(self._miller((pair,))))

    @property
    def gt_identity(self) -> G1Element:
        return G1Element(self, self.groups[TARGET].identity)

    def gt_mul(self, a: G1Element, b: G1Element) -> G1Element:
        self._tick("multiplications")
        a, b, owed = self._alike(a, b)
        return G1Element(self, self.groups[TARGET].add(a, b), owed)

    def gt_div(self, a: G1Element, b: G1Element) -> G1Element:
        self._tick("multiplications")
        a, b, owed = self._alike(a, b)
        target = self.groups[TARGET]
        return G1Element(self, target.add(a, target.neg(b)), owed)

    def gt_exp(self, a: G1Element, k: int) -> G1Element:
        self._tick("exponentiations")
        value = self._finished(a)
        term = (value, k % self.order, self._table(a, TARGET, value))
        return G1Element(self, self._sum(TARGET, [term], []))

    def gt_eq(self, a: G1Element, b: G1Element) -> bool:
        return self._finished(a) == self._finished(b)

    def _finished(self, a: G1Element):
        return self._final_exp(a.value) if a.owed else a.value

    def _alike(self, a: G1Element, b: G1Element):
        """Both values, finished unless both still owe the final step."""
        if a.owed and b.owed:
            return a.value, b.value, True
        return self._finished(a), self._finished(b), False

    # ------------------------------------------------------------------
    # sealed payloads

    def seal(self, key: G1Element, payload: bytes, context: bytes) -> bytes:
        """Mask a payload under a target-group key, appending an integrity tag.

        One stream is derived from the encoded key and the context: its
        first 32 bytes key an HMAC-SHA256 over the masked bytes (the
        truncated tag), the rest masks the payload.  Without the key the
        tag confirms nothing about the payload.  One seal is tallied as
        one multiplication: it stands where the masking multiplication
        sits in the scheme's cost model.
        """
        self._tick("multiplications")
        mac_key, stream = self._seal_stream(key, context, len(payload))
        masked = bytes(a ^ b for a, b in zip(payload, stream))
        return masked + _seal_tag(mac_key, masked)

    def unseal(self, key: G1Element, blob: bytes, context: bytes) -> bytes:
        """Reverse :meth:`seal`; raises :class:`IntegrityError` on a bad tag."""
        if len(blob) < SEAL_TAG_BYTES:
            raise IntegrityError("sealed payload too short")
        masked, tag = blob[:-SEAL_TAG_BYTES], blob[-SEAL_TAG_BYTES:]
        mac_key, stream = self._seal_stream(key, context, len(masked))
        if not hmac.compare_digest(tag, _seal_tag(mac_key, masked)):
            raise IntegrityError("sealed payload failed authentication")
        return bytes(a ^ b for a, b in zip(masked, stream))

    def _seal_stream(self, key: G1Element, context: bytes, length: int):
        stream = kdf_stream(self.encode_gt(key), context, _SEAL_MAC_KEY_BYTES + length)
        return stream[:_SEAL_MAC_KEY_BYTES], stream[_SEAL_MAC_KEY_BYTES:]

    # ------------------------------------------------------------------
    # encodings

    def encode_g0(self, x: G0Element) -> bytes:
        """The point alone; the side is not encoded, decoders supply it.
        The encoding is kept on x."""
        self._check(x)
        raw = x.raw
        if raw is None:
            raw = x.raw = self.groups[x.side].encode(x.point)
        return raw

    def decode_g0(self, raw: bytes, side: str) -> G0Element:
        """The element ``raw`` encodes, which keeps ``raw`` as its
        encoding: every codec accepts only the encoding it writes."""
        if side not in (LEFT, RIGHT):
            raise AlgebraError("unknown pairing side %r" % (side,))
        point = self.groups[side].decode(raw)
        return G0Element(self, side, point, raw=bytes(raw))

    def encode_gt(self, a: G1Element) -> bytes:
        return self.groups[TARGET].encode(self._finished(a))

    def decode_gt(self, raw: bytes) -> G1Element:
        return G1Element(self, self.groups[TARGET].decode(raw))

    # ------------------------------------------------------------------
    # discrete logs (mock suites only)

    def dlog_g0(self, x: G0Element) -> int:
        return self._oracle()(x.point)

    def dlog_gt(self, a: G1Element) -> int:
        return self._oracle()(self._finished(a))

    def _oracle(self):
        if self._dlog is None:
            raise AlgebraError("discrete logs are not available on %s" % self.name)
        return self._dlog

    # ------------------------------------------------------------------

    def _check(self, *elems) -> None:
        for e in elems:
            if e.suite.name != self.name:
                raise AlgebraError(
                    "element from suite %s used with %s" % (e.suite.name, self.name)
                )

    def _same_side(self, x: G0Element, y: G0Element) -> str:
        self._check(x, y)
        if x.side != y.side:
            raise AlgebraError("a %s and a %s element do not combine" % (x.side, y.side))
        return x.side


# Mock orders are small test primes; a bound keeps a hostile suite name
# from costing more than a thousand trial divisions.
MOCK_MAX_ORDER = 10**6


def is_mock(name: str) -> bool:
    """Whether ``name`` names a mock suite, whose keys protect nothing."""
    return name == "mock" or name.startswith("mock-")


def get_suite(name: str) -> GroupSuite:
    """Instantiate a suite by name: ``bn256``, ``mock`` or ``mock-<prime>``.

    ``bn256`` is the vendored 256-bit BN curve.  Left points are
    Jacobian triples of ints, right points Jacobian triples of Fp2 pairs
    and target-group values nested Fp12 tuples (an owed value is a
    Miller-loop output).  A right point's prepared lines are one flat
    tuple of 340 ints, four per monic line, about 23 KB.  Its groups are
    :mod:`etenon._bn256`'s ``CURVE``, ``TWIST`` and ``CYCLOTOMIC``
    records, codecs included, so every bn256 suite shares the
    generators' tables.  The Miller loop skips a pair with the point at
    infinity on either side.

    ``mock-<q>`` is exponent arithmetic modulo the prime q (``mock`` is
    ``mock-101``); discrete logs are free.  A source element is a side
    tag plus its exponent.  Both generators have exponent 1 and hashed
    elements are left, as on the curve, so the side rules fail there
    exactly where they would fail on the curve.  All three groups are
    one record of Z_q under addition, so powers take the same split
    Straus pass and table walk as on the curve; a table row is a tuple
    of multiples, and every value is encoded like a scalar.  A pairing
    multiplies exponents, and its final step is the identity.
    """
    if name == "bn256":
        return GroupSuite(
            "bn256", _bn256.order,
            {LEFT: _bn256.CURVE, RIGHT: _bn256.TWIST, TARGET: _bn256.CYCLOTOMIC},
            (_bn256.curve_G, _bn256.twist_G),
            # looked up on the module at each call, so a wrapper set there sees every call
            prepare=lambda right: _bn256.prepare(right),
            pair_product=lambda pairs: _bn256.miller(pairs),
            final_exp=lambda a: _bn256.final_exp(a),
            hash_point=lambda label: _bn256.g1_hash_to_point(hash_commit(label)),
        )
    if name == "mock":
        order = 101
    elif name.startswith("mock-"):
        try:
            order = int(name.split("-", 1)[1])
        except ValueError:
            raise AlgebraError("unknown suite %r" % name) from None
    else:
        raise AlgebraError("unknown suite %r" % name)
    z = _mock_group(order)
    return GroupSuite(
        "mock-%d" % order, order, {LEFT: z, RIGHT: z, TARGET: z}, (1, 1),
        prepare=lambda right: right,
        pair_product=lambda pairs: sum(right * left for right, left in pairs) % order,
        final_exp=lambda a: a,
        hash_point=lambda label: int.from_bytes(hash_commit(label), "big") % order or 1,
        dlog=lambda value: value,
    )


def _mock_group(order: int) -> _bn256.Group:
    """Z_q under addition, for q = ``order``, with the scalar codec."""
    if not 3 <= order <= MOCK_MAX_ORDER:
        raise AlgebraError("mock order must lie in [3, %d]" % MOCK_MAX_ORDER)
    if any(order % d == 0 for d in range(2, math.isqrt(order) + 1)):
        raise AlgebraError("mock order must be an odd prime")
    # the endomorphism is x -> lam*x, lam about sqrt(q), so that a
    # split's halves are about half as long as the order
    lam = math.isqrt(order) + 1

    def add(a, b):
        return (a + b) % order

    def neg(a):
        return -a % order

    def endo(a):
        return lam * a % order

    # no generator: _bn256 would cache its table, and this record, for good
    return _bn256.Group(
        add, lambda a: 2 * a % order, neg, 0, order, normal=lambda a: a, endo=endo,
        split=_bn256.split_by(lam),
        half_bits=(max(lam - 1, (order - 1) // lam) + 2).bit_length(), window=4,
        columns=_bn256.value_columns(add, neg, 0, endo),
        encode=functools.partial(_encode_scalar, order),
        decode=functools.partial(_decode_scalar, order),
    )
