"""Seeded benchmark inputs: policy templates, record shapes, EHR records.

The seed draws every value the program sees: identifiers, free-text
words, the owning patient of each record, the keys and nonces (through
the program's own seeded generator) and the forged row of each forged
batch.  The *shape* of a run -- which template each record uses and how
many main words each column carries -- is a fixed table, so that a
run's medians measure the program rather than the luck of the draw.

Everything a check compares against is computed here, from the
generator's own construction: the expected blocks of each column, the
text of each level, the identifiable payload and the levels each
reader opens.  None of it comes from the program under test.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, replace

from etenon.tenon import EhrColumn, EhrRecord

ROSTER_SIZE = 2  # owner plus provider co-sign every block
PATIENTS = ("patient0", "patient1", "patient2", "patient3")
PROVIDER = "provider"
PROVIDER_ATTRS = ("staff", "ward", "doctor", "records", "ethics")
READERS = {
    "doctor": PROVIDER_ATTRS,
    "nurse": ("staff", "ward"),
    "researcher": ("research", "ethics"),
}
TEXT_COLUMNS = ("symptoms", "history", "notes")
BASE_TIMESTAMP = 1_700_000_000


@dataclass(frozen=True)
class Template:
    """One access policy with its level layout and expected openings.

    ``opens`` is this benchmark's own table of the levels each reader's
    attributes satisfy, worked out by hand from the policy text.
    """

    name: str
    policy: str
    level_columns: dict
    identifiable_level: int
    leaves: int
    opens: dict

    @property
    def levels(self) -> int:
        return len(self.level_columns) + 1


TEMPLATES = {
    t.name: t
    for t in (
        Template(
            name="plain2",
            policy="level 1 requires [1]\n"
            "level 2 requires [1, 2]\n"
            "tree: attr:staff, attr:doctor",
            level_columns={1: ("blood_type",) + TEXT_COLUMNS},
            identifiable_level=2,
            leaves=2,
            opens={"doctor": {1, 2}, "nurse": {1}, "researcher": set()},
        ),
        Template(
            name="gate3",
            policy="level 1 requires [1]\n"
            "level 2 requires [1, 2]\n"
            "level 3 requires [1, 2, 3]\n"
            "tree: threshold(2, attr:staff, attr:ward, attr:research, attr:ethics),"
            " attr:doctor, attr:records",
            level_columns={1: ("blood_type", "symptoms"), 2: ("history", "notes")},
            identifiable_level=3,
            leaves=6,
            opens={"doctor": {1, 2, 3}, "nurse": {1}, "researcher": {1}},
        ),
        Template(
            name="plain3",
            policy="level 1 requires [1]\n"
            "level 2 requires [1, 2]\n"
            "level 3 requires [1, 3]\n"
            "tree: attr:ward, attr:doctor, attr:records",
            level_columns={1: ("blood_type", "symptoms"), 2: ("history", "notes")},
            identifiable_level=3,
            leaves=3,
            opens={"doctor": {1, 2, 3}, "nurse": {1}, "researcher": set()},
        ),
        Template(
            name="gate4",
            policy="level 1 requires [1]\n"
            "level 2 requires [2]\n"
            "level 3 requires [1, 2]\n"
            "level 4 requires [1, 2, 3]\n"
            "tree: attr:staff, threshold(2, attr:doctor, attr:research, attr:ethics),"
            " attr:records",
            level_columns={1: ("blood_type",), 2: ("symptoms",), 3: ("history", "notes")},
            identifiable_level=4,
            leaves=5,
            opens={"doctor": {1, 2, 3, 4}, "nurse": {1}, "researcher": {2}},
        ),
    )
}

# (template, main words per text column).  Blocks per record are one
# for blood_type plus the main words: 4, 4, 5, 4 and 4.  Records stay
# small because one bn256 record costs seconds and all 70 runs of the
# benchmark must fit its time budget even when the host runs slow.
PUBLISH_CYCLE = (
    ("plain2", (1, 1, 1)),
    ("gate3", (1, 1, 1)),
    ("plain3", (1, 1, 2)),
    ("gate4", (1, 1, 1)),
    ("plain2", (1, 1, 1)),
)
FORGED_POSITION = len(PUBLISH_CYCLE) - 1  # every fifth record is forged first
# both stored entries are gated, so the researcher always opens a level
STORE_SHAPES = (PUBLISH_CYCLE[1], PUBLISH_CYCLE[3])
SNAPSHOT_BATCHES = 1  # reopen: the snapshot covers these, the rest is log tail

_MAIN_WORDS = (
    "angina arrhythmia asthma biopsy bradycardia bronchitis cardiomegaly"
    " cellulitis cholecystitis cirrhosis colitis cough cyanosis dermatitis"
    " diabetes dizziness dyspnoea eczema embolism fatigue fever fracture"
    " gastritis glaucoma haematoma headache hepatitis hypertension"
    " hypoglycaemia influenza insomnia jaundice laceration leukaemia"
    " lymphoma malaise migraine myalgia nausea neuropathy oedema otitis"
    " palpitations pancreatitis pneumonia pruritus psoriasis rash"
    " sciatica seizure sepsis sinusitis syncope tachycardia tendinitis"
    " tinnitus tonsillitis tremor ulcer urticaria vertigo wheeze"
).split()
_STOPWORDS = ("the", "of", "and", "with", "in", "a", "to", "no", "for", "on", "some", "was")
_FIRST = ("Ann", "Ben", "Cara", "Dev", "Ema", "Finn", "Gita", "Hugo", "Ines", "Jon")
_LAST = ("Lee", "Shah", "Okafor", "Novak", "Brown", "Silva", "Kim", "Moreau", "Ito")
_BLOOD = ("O+", "O-", "A+", "A-", "B+", "B-", "AB+", "AB-")


@dataclass(frozen=True)
class Record:
    """One generated record with everything the checks expect of it."""

    template: Template
    record: EhrRecord
    blocks: dict
    identifiable: list
    owner: str
    timestamp: int

    @property
    def block_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    @property
    def text_bytes(self) -> int:
        return sum(len(b.encode()) for bs in self.blocks.values() for b in bs)

    def level_text(self, level: int) -> str:
        return " ".join(
            b for col in self.template.level_columns[level] for b in self.blocks[col]
        )


class RecordStream:
    """Deterministic stream of records for one seed."""

    def __init__(self, seed: int):
        self.rng = random.Random("perfbench-records:%d" % seed)
        self.made = 0

    def _text(self, main_words: int) -> list[str]:
        blocks = []
        for _ in range(main_words):
            lead = self.rng.choice((0, 0, 1, 2))
            words = [self.rng.choice(_STOPWORDS) for _ in range(lead)]
            blocks.append(" ".join(words + [self.rng.choice(_MAIN_WORDS)]))
        return blocks

    def make(self, shape) -> Record:
        name, words = shape
        rng = self.rng
        identifiable = [
            {
                "name": "nino",
                "value": "%s%s%06d%s"
                % (
                    rng.choice("ABCEGHJKLMNPRSTWXYZ"),
                    rng.choice("ABCEGHJKLMNPRSTWXYZ"),
                    rng.randrange(10**6),
                    rng.choice("ABCD"),
                ),
            },
            {"name": "name", "value": "%s %s" % (rng.choice(_FIRST), rng.choice(_LAST))},
            {
                "name": "dob",
                "value": "%04d-%02d-%02d"
                % (rng.randrange(1930, 2020), rng.randrange(1, 13), rng.randrange(1, 29)),
            },
        ]
        blocks = {"blood_type": [rng.choice(_BLOOD)]}
        for col, n in zip(TEXT_COLUMNS, words):
            blocks[col] = self._text(n)
        columns = [EhrColumn(name=c["name"], value=c["value"]) for c in identifiable]
        columns += [EhrColumn(name=col, value=" ".join(bs)) for col, bs in blocks.items()]
        record = Record(
            template=TEMPLATES[name],
            record=EhrRecord(columns=tuple(columns)),
            blocks=blocks,
            identifiable=identifiable,
            owner=rng.choice(PATIENTS),
            timestamp=BASE_TIMESTAMP + self.made,
        )
        self.made += 1
        return record


def forged_rows(rows, rng):
    """Give one row another row's signature; returns (rows, forged index).

    The forged row sits in the middle third of the batch so that the
    share of the batch the gate verifies before rejecting it varies
    little from seed to seed.
    """
    n = len(rows)
    i = rng.randrange(n // 3, max(n // 3 + 1, (2 * n) // 3))
    j = rng.choice([x for x in range(n) if x != i])
    out = list(rows)
    out[i] = replace(rows[i], sig=rows[j].sig)
    return tuple(out), i
