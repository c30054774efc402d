"""EHR preprocessing: classify columns, tokenize text, chain blocks.

A record is a list of named columns, each a name and a value.  A
column's name alone answers both questions asked of it, through two
tables of name patterns: a column that ``IDENTIFIABLE_COLUMNS`` names
is identifiable (held back for sealing, never split into blocks), and
one that ``ATOMIC_COLUMNS`` names is atomic (kept whole as one block).
Identifiable wins: ``zip_code`` matches the atomic ``*_code`` but is
sealed, not chained.
Every other column becomes blocks: its value whole when it is atomic or
one word, else its text tokenized -- one main word per block, preceded
by whatever stopwords ran up to it -- and a block
sequence becomes a pointer chain: every block gets a fresh 128-bit
pointer and records the pointer of its successor.  A structure keeps its
triples in chain order; the store that holds them shuffles its rows
after every accepted ingest.  No order hides the head from whoever holds
every triple: it is the one pointer no triple names.
"""

from __future__ import annotations

import fnmatch
import functools
import random
import uuid

from dataclasses import dataclass
from importlib import resources

from .codec import decoding, typed
from .errors import EtenonError

Pointer = uuid.UUID


class TenonError(EtenonError):
    """Bad record data or chain structure."""


@dataclass(frozen=True)
class EhrColumn:
    name: str
    value: str


@dataclass(frozen=True)
class EhrRecord:
    columns: tuple[EhrColumn, ...]


def record_from_json(obj) -> EhrRecord:
    with decoding(TenonError, "record document"):
        columns = tuple(
            EhrColumn(
                name=typed(typed(c, dict)["name"], str), value=typed(c["value"], str)
            )
            for c in typed(obj, list)
        )
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise TenonError("record repeats a column name")
    return EhrRecord(columns=columns)


def columns_to_json(columns) -> list:
    """The ``[{name, value}]`` document of a record or of some of its columns."""
    return [{"name": c.name, "value": c.value} for c in columns]


# ----------------------------------------------------------------------
# classification


# Shell-style patterns, matched case-insensitively against column names.
IDENTIFIABLE_COLUMNS = (
    "nino", "*national_insurance*", "name", "*full_name*", "*patient_name*",
    "address*", "postcode", "zip*", "dob", "*date_of_birth*", "*birth_date*",
    "email*", "mobile*", "phone*", "telephone*", "passport*", "ssn",
)
ATOMIC_COLUMNS = ("blood_type", "blood_pressure", "*_code")


def _named(column: EhrColumn, patterns) -> bool:
    name = column.name.lower()
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


def classify(record: EhrRecord) -> tuple[EhrColumn, ...]:
    """The record's identifiable columns, in record order: those an
    ``IDENTIFIABLE_COLUMNS`` pattern names."""
    return tuple(c for c in record.columns if _named(c, IDENTIFIABLE_COLUMNS))


# ----------------------------------------------------------------------
# tokenization


@functools.cache
def load_stopwords() -> frozenset[str]:
    """The shipped list: one word per line, ``#`` comments; read once
    per process."""
    text = resources.files("etenon").joinpath("data/stopwords.txt").read_text()
    return frozenset(
        w.strip().lower() for w in text.splitlines() if w.strip() and not w.startswith("#")
    )


def normalize(text: str) -> str:
    return " ".join(text.split())


def tokenize(text: str, stopwords) -> list[str]:
    """Split normalized text into blocks of one main word plus the
    stopwords that precede it.

    A run of stopwords with no following main word is folded into the
    final block (or becomes the only block).
    """
    words = normalize(text).split()
    blocks: list[str] = []
    pending: list[str] = []
    for word in words:
        if word.lower() in stopwords:
            pending.append(word)
        else:
            blocks.append(" ".join(pending + [word]))
            pending = []
    if pending:
        tail = " ".join(pending)
        if blocks:
            blocks[-1] = blocks[-1] + " " + tail
        else:
            blocks.append(tail)
    return blocks


def column_blocks(column: EhrColumn, stopwords) -> list[str]:
    """Blocks for one column: the value as one block when an
    ``ATOMIC_COLUMNS`` pattern names the column or the value is a single
    word, else its tokenized text."""
    if _named(column, ATOMIC_COLUMNS) or len(column.value.split()) < 2:
        return [normalize(column.value)]
    return tokenize(column.value, stopwords)


# ----------------------------------------------------------------------
# pointer chains


def make_pointer(rng=None) -> Pointer:
    """Fresh 128-bit pointer.

    The default source is ``random.SystemRandom`` (operating-system
    randomness).  Passing a seeded ``random.Random`` derives the pointer
    from it instead so scenario runs can be reproduced byte for byte.
    """
    if rng is None:
        rng = random.SystemRandom()
    return uuid.UUID(int=rng.getrandbits(128), version=4)


@dataclass(frozen=True)
class Triple:
    pointer: Pointer
    block: str
    next: Pointer | None


@dataclass(frozen=True)
class TenonStructure:
    """A pointer chain: its head and its triples in chain order."""

    head: Pointer
    triples: tuple[Triple, ...]


def build_structure(blocks, rng=None) -> TenonStructure:
    """Chain the blocks in order under fresh, distinct pointers."""
    blocks = list(blocks)
    if not blocks:
        raise TenonError("cannot build a structure from zero blocks")
    pointers: list[Pointer] = []
    seen = set()
    for _ in blocks:
        ptr = make_pointer(rng)
        while ptr in seen:
            ptr = make_pointer(rng)
        seen.add(ptr)
        pointers.append(ptr)
    triples = [
        Triple(
            pointer=pointers[i],
            block=block,
            next=pointers[i + 1] if i + 1 < len(blocks) else None,
        )
        for i, block in enumerate(blocks)
    ]
    return TenonStructure(head=pointers[0], triples=tuple(triples))


def follow(head: Pointer, lookup) -> tuple[list[Triple], bool]:
    """Walk the chain from ``head``; ``lookup`` maps a pointer to its
    triple, or to None when the reader has no (trusted) triple for it.

    Returns the triples in chain order and a completeness flag: True
    when a terminal marker was reached, False when the chain broke at a
    pointer ``lookup`` could not resolve.  A cycle is a structural error.
    """
    chain: list[Triple] = []
    visited: set[Pointer] = set()
    cursor: Pointer | None = head
    while cursor is not None:
        if cursor in visited:
            raise TenonError("pointer chain contains a cycle at %s" % cursor)
        visited.add(cursor)
        t = lookup(cursor)
        if t is None:
            return chain, False
        chain.append(t)
        cursor = t.next
    return chain, True


def _by_pointer(triples) -> dict[Pointer, Triple]:
    by_pointer: dict[Pointer, Triple] = {}
    for t in triples:
        if t.pointer in by_pointer:
            raise TenonError("duplicate pointer %s" % t.pointer)
        by_pointer[t.pointer] = t
    return by_pointer


def reconstruct(head: Pointer, triples) -> tuple[list[str], bool]:
    """Follow the chain from ``head`` through whatever triples exist.

    Returns the blocks in chain order and the completeness flag of
    :func:`follow` (False for a reader holding only part of the table).
    Duplicate pointers and cycles are structural errors.
    """
    chain, complete = follow(head, _by_pointer(triples).get)
    return [t.block for t in chain], complete
