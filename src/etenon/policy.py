"""Multi-level access policies: trees of threshold gates over attributes.

A policy is a forest of sub-trees hanging off an implicit root plus a
set of named security levels.  Each level selects a subset of the root
sub-trees and is satisfied only when every selected sub-tree is
satisfied.  Secret sharing assigns one polynomial per gate; the root
polynomial has degree c'-1 for c' sub-trees, and a level's secret is
the sum of the root shares over its selected indices.

A tree has one written form, which ciphertexts carry too; it looks like::

    level 1 requires [1, 2]
    level 2 requires [1]
    tree: threshold(2, attr:doctor, attr:oncology), attr:admin

``tree:`` lists the root sub-trees in index order (1-based).  Terms are
either ``attr:<name>`` or ``threshold(t, <term>, ...)``.
"""

from __future__ import annotations

import random
import re

from dataclasses import dataclass
from typing import Iterator, Union

from .codec import decoding, typed
from .errors import EtenonError

NodePath = tuple[int, ...]

_RESERVED = {"level", "tree", "requires", "attr", "threshold"}

_ATTR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")

# Printing, sharing and decryption each recurse once or twice per gate, so
# a tree this deep stays well inside the interpreter's recursion limit.
MAX_DEPTH = 100


class PolicyError(EtenonError):
    """Bad policy text or a structurally invalid tree."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Leaf:
    attribute: str


@dataclass(frozen=True)
class Gate:
    threshold: int
    children: tuple["SubTree", ...]


SubTree = Union[Leaf, Gate]


@dataclass(frozen=True)
class AccessTree:
    """Root sub-trees (1-indexed by position) plus the level table."""

    children: tuple[SubTree, ...]
    levels: dict[int, tuple[int, ...]]

    def leaf_count(self) -> int:
        return sum(1 for _ in iter_leaves(self))


def iter_leaves(tree: AccessTree) -> Iterator[tuple[NodePath, Leaf]]:
    """Yield (path, leaf) pairs in depth-first index order."""

    def walk(node: SubTree, path: NodePath):
        if isinstance(node, Leaf):
            yield path, node
        else:
            for j, child in enumerate(node.children, start=1):
                yield from walk(child, path + (j,))

    for i, child in enumerate(tree.children, start=1):
        yield from walk(child, (i,))


# ----------------------------------------------------------------------
# structural checks


def validate_tree(tree: AccessTree) -> None:
    """Raise :class:`PolicyError` on any structural defect."""
    if not tree.children:
        raise PolicyError("tree has no sub-trees")
    if not tree.levels:
        raise PolicyError("policy declares no levels")

    def walk(node: SubTree, depth: int):
        if isinstance(node, Leaf):
            if not node.attribute or not _ATTR_RE.fullmatch(node.attribute):
                raise PolicyError("bad attribute name %r" % (node.attribute,))
            if node.attribute in _RESERVED:
                raise PolicyError("attribute name %r is reserved" % (node.attribute,))
            return
        if depth > MAX_DEPTH:
            raise PolicyError("gates nest more than %d deep" % MAX_DEPTH)
        if not node.children:
            raise PolicyError("gate has no children")
        if type(node.threshold) is not int or not 1 <= node.threshold <= len(node.children):
            raise PolicyError("threshold out of range for %d children" % len(node.children))
        for child in node.children:
            walk(child, depth + 1)

    for child in tree.children:
        walk(child, 1)
    for level, wanted in tree.levels.items():
        # only what the text can spell: a bool is an int that prints as a
        # word, the text has no minus sign, and int() reads bounded digits
        if type(level) is not int or not 0 <= level < 1 << 64:
            raise PolicyError("level ids must be integers in [0, 2**64)")
        if not wanted:
            raise PolicyError("level %d selects no sub-trees" % level)
        for i in wanted:
            if type(i) is not int or not 1 <= i <= len(tree.children):
                raise PolicyError("level %d selects an unknown sub-tree" % level)
        if len(set(wanted)) != len(wanted):
            raise PolicyError("level %d repeats a sub-tree index" % level)


# ----------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)"
    r"|(?P<sym>[\[\](),:])"
)


def _tokenize(text: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolicyError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect_kind=None, expect_value=None):
        tok = self.peek()
        if tok is None:
            raise PolicyError("unexpected end of policy text")
        kind, value, line, col = tok
        if expect_kind is not None and kind != expect_kind:
            raise PolicyError("expected %s, found %r" % (expect_kind, value), line, col)
        if expect_value is not None and value != expect_value:
            raise PolicyError("expected %r, found %r" % (expect_value, value), line, col)
        self.pos += 1
        return tok

    def at_keyword(self, word):
        tok = self.peek()
        return tok is not None and tok[0] == "name" and tok[1] == word

    def parse(self) -> AccessTree:
        levels: dict[int, tuple[int, ...]] = {}
        children = None
        while self.peek() is not None:
            if self.at_keyword("level"):
                level, wanted, where = self.parse_level_line()
                if level in levels:
                    raise PolicyError("duplicate level %d" % level, *where)
                levels[level] = wanted
            elif self.at_keyword("tree"):
                _, _, line, col = self.next()
                if children is not None:
                    raise PolicyError("more than one tree block", line, col)
                self.next("sym", ":")
                children = self.parse_terms()
            else:
                _, value, line, col = self.peek()
                raise PolicyError("expected 'level' or 'tree', found %r" % value, line, col)
        if children is None:
            raise PolicyError("policy has no tree block")
        tree = AccessTree(children=children, levels=levels)
        validate_tree(tree)
        return tree

    def parse_level_line(self):
        _, _, line, col = self.next()
        level = int(self.next("int")[1])
        self.next("name", "requires")
        self.next("sym", "[")
        wanted = [int(self.next("int")[1])]
        while self.peek() is not None and self.peek()[1] == ",":
            self.next()
            wanted.append(int(self.next("int")[1]))
        self.next("sym", "]")
        return level, tuple(wanted), (line, col)

    def parse_terms(self):
        terms = [self.parse_term()]
        while self.peek() is not None and self.peek()[1] == ",":
            self.next()
            terms.append(self.parse_term())
        return tuple(terms)

    def parse_term(self) -> SubTree:
        tok = self.peek()
        if tok is None:
            raise PolicyError("unexpected end of policy text")
        kind, value, line, col = tok
        if kind != "name":
            raise PolicyError("expected a term, found %r" % value, line, col)
        if value == "attr":
            self.next()
            self.next("sym", ":")
            return Leaf(attribute=self.next("name")[1])
        if value == "threshold":
            self.next()
            self.next("sym", "(")
            threshold = int(self.next("int")[1])
            children = []
            while self.peek() is not None and self.peek()[1] == ",":
                self.next()
                children.append(self.parse_term())
            self.next("sym", ")")
            return Gate(threshold=threshold, children=tuple(children))
        raise PolicyError("expected 'attr' or 'threshold', found %r" % value, line, col)


def parse_policy(text: str) -> AccessTree:
    """Parse policy text; raises :class:`PolicyError` with line/col.

    The text may come from a hostile document: a non-string and nesting
    too deep to walk raise :class:`PolicyError` too.
    """
    with decoding(PolicyError, "policy text"):
        return _Parser(_tokenize(typed(text, str))).parse()


def format_policy(tree: AccessTree) -> str:
    """Render a tree back to policy text; parses back to an equal tree."""

    def term(node: SubTree) -> str:
        if isinstance(node, Leaf):
            return "attr:%s" % node.attribute
        inner = ", ".join(term(c) for c in node.children)
        return "threshold(%d, %s)" % (node.threshold, inner)

    lines = [
        "level %d requires [%s]" % (level, ", ".join(str(i) for i in tree.levels[level]))
        for level in sorted(tree.levels)
    ]
    lines.append("tree: " + ", ".join(term(c) for c in tree.children))
    return "\n".join(lines) + "\n"


def level_from_key(key) -> int:
    """The level a JSON object key names, only in canonical decimal."""
    level = int(typed(key, str))
    if str(level) != key:
        raise ValueError("level key %r is not canonical decimal" % key)
    return level


# ----------------------------------------------------------------------
# secret sharing


def poly_eval(coeffs, x: int, order: int) -> int:
    """Evaluate sum(coeffs[i] * x**i) modulo the order."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % order
    return acc


def lagrange_coeff(i: int, index_set, order: int) -> int:
    """Lagrange basis polynomial for index i over index_set, at zero."""
    num, den = 1, 1
    for j in index_set:
        if j == i:
            continue
        num = (num * (-j)) % order
        den = (den * (i - j)) % order
    return (num * pow(den, order - 2, order)) % order


def draw_coefficients(
    tree: AccessTree, suite_order: int, rng=None
) -> dict[NodePath, tuple[int, ...]]:
    """Draw a sharing's random coefficients; every share follows from
    them and the tree (:func:`derive_shares`).

    The root polynomial has one uniform coefficient per root sub-tree
    (degree c'-1), under the empty path; a gate with threshold t gets
    its t-1 coefficients above the constant term, under its path.  They
    are drawn root first, then gate by gate in depth-first index order.
    """
    if rng is None:
        rng = random.SystemRandom()
    validate_tree(tree)
    coefficients = {(): tuple(rng.randrange(suite_order) for _ in tree.children)}

    def walk(node: SubTree, path: NodePath):
        if isinstance(node, Gate):
            count = node.threshold - 1
            coefficients[path] = tuple(rng.randrange(suite_order) for _ in range(count))
            for j, child in enumerate(node.children, start=1):
                walk(child, path + (j,))

    for i, child in enumerate(tree.children, start=1):
        walk(child, (i,))
    return coefficients


def derive_shares(
    tree: AccessTree, suite_order: int, coefficients
) -> tuple[dict[NodePath, int], dict[int, int]]:
    """Each leaf's share and each level's secret, from drawn coefficients.

    Sub-tree i receives the share q_r(i); a gate hides its share in its
    polynomial's constant term and hands child j the value at j.  A
    level's secret is the sum of root shares over its selected
    sub-trees.  Coefficients that do not fit the tree raise
    :class:`PolicyError`.
    """
    validate_tree(tree)
    fitted: list[NodePath] = []
    leaf_shares: dict[NodePath, int] = {}

    def drawn(path: NodePath, count: int) -> tuple[int, ...]:
        got = coefficients.get(path)
        if (
            type(got) is not tuple
            or len(got) != count
            or not all(type(c) is int and 0 <= c < suite_order for c in got)
        ):
            raise PolicyError("coefficients do not fit the tree at %s" % (path,))
        fitted.append(path)
        return got

    def walk(node: SubTree, path: NodePath, share: int):
        if isinstance(node, Leaf):
            leaf_shares[path] = share
            return
        coeffs = (share,) + drawn(path, node.threshold - 1)
        for j, child in enumerate(node.children, start=1):
            walk(child, path + (j,), poly_eval(coeffs, j, suite_order))

    root_poly = drawn((), len(tree.children))
    root_shares = {}
    for i, child in enumerate(tree.children, start=1):
        root_shares[i] = poly_eval(root_poly, i, suite_order)
        walk(child, (i,), root_shares[i])
    if len(coefficients) != len(fitted):
        raise PolicyError("coefficients name a gate the tree does not have")

    level_secrets = {
        level: sum(root_shares[i] for i in wanted) % suite_order
        for level, wanted in tree.levels.items()
    }
    return leaf_shares, level_secrets
