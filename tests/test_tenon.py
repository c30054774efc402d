import random
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etenon import tenon
from etenon.tenon import (
    Classification,
    EhrColumn,
    EhrRecord,
    TenonError,
    build_structure,
    classify,
    column_blocks,
    columns_to_json,
    is_tokenizable,
    load_stopwords,
    make_pointer,
    normalize,
    reconstruct,
    record_from_json,
    tokenize,
)

import oracles


def test_normalize_collapses_whitespace():
    assert normalize("  pain   in\tthe   chest ") == "pain in the chest"
    assert normalize("") == ""


def test_tokenize_fixed_examples(stopwords):
    for text, want in oracles._EXAMPLES:
        assert tokenize(text, stopwords) == want


def test_tokenize_matches_reference(stopwords):
    rng = random.Random(55)
    mains = ["pain", "cough", "fever", "fracture", "rash", "nausea"]
    stops = sorted(stopwords)[:12]
    for _ in range(300):
        n = rng.randint(1, 12)
        words = [
            rng.choice(stops) if rng.random() < 0.5 else rng.choice(mains)
            for _ in range(n)
        ]
        text = " ".join(words)
        assert tokenize(text, stopwords) == oracles.blocks_reference(text, stopwords)


@given(st.lists(st.sampled_from(
    ["pain", "in", "the", "a", "chest", "and", "cough", "of", "acute"]),
    min_size=1, max_size=14))
@settings(max_examples=80, deadline=None)
def test_tokenize_join_reproduces_text(words):
    stopwords = load_stopwords()
    text = " ".join(words)
    blocks = tokenize(text, stopwords)
    assert " ".join(blocks) == normalize(text)
    # every block except a lone trailing run ends in a main word
    for block in blocks[:-1]:
        assert block.split()[-1].lower() not in stopwords


def test_tokenize_empty_text(stopwords):
    assert tokenize("", stopwords) == []
    assert tokenize("   ", stopwords) == []


def test_stopwords_shipped_list():
    words = load_stopwords()
    assert "the" in words
    assert "and" in words
    assert "pain" not in words
    assert all(w == w.lower() for w in words)


# ----------------------------------------------------------------------
# records and classification


def test_record_json_roundtrip():
    doc = [
        {"name": "nino", "value": "QQ123456C"},
        {"name": "symptom", "value": "pain in the chest"},
    ]
    record = record_from_json(doc)
    assert columns_to_json(record.columns) == doc


def test_record_rejects_duplicate_columns():
    with pytest.raises(TenonError):
        record_from_json([{"name": "x", "value": "1"}, {"name": "x", "value": "2"}])


def test_shipped_rules_classify_identifiers():
    record = record_from_json(
        [
            {"name": "nino", "value": "QQ123456C"},
            {"name": "name", "value": "A Person"},
            {"name": "symptom", "value": "pain in the chest"},
            {"name": "blood_type", "value": "O+"},
            # zip_code also matches the atomic *_code: identifiable wins;
            # patterns match whatever the case
            {"name": "zip_code", "value": "AB1 2CD"},
            {"name": "Phone_2", "value": "555 0100"},
            {"name": "blood_pressure", "value": "120 over 80"},
            {"name": "lab_code", "value": "HB 12"},
        ]
    )
    labelled = classify(record)
    by_name = {c.name: c for c in labelled.columns}
    for name in ("nino", "name", "zip_code", "Phone_2"):
        assert by_name[name].label is Classification.IDENTIFIABLE
        assert not by_name[name].atomic
    assert by_name["symptom"].label is Classification.NONPII
    assert not by_name["symptom"].atomic
    for name in ("blood_type", "blood_pressure", "lab_code"):
        assert by_name[name].label is Classification.NONPII
        assert by_name[name].atomic
    assert labelled.identifiable() == tuple(
        by_name[n] for n in ("nino", "name", "zip_code", "Phone_2")
    )


def test_is_tokenizable():
    stop = load_stopwords()
    yes = EhrColumn(name="symptom", value="pain in the chest", label=Classification.NONPII)
    single = EhrColumn(name="note", value="stable", label=Classification.NONPII)
    atomic = EhrColumn(
        name="blood_type", value="O positive", label=Classification.NONPII, atomic=True
    )
    assert is_tokenizable(yes)
    assert not is_tokenizable(single)
    assert not is_tokenizable(atomic)
    assert column_blocks(single, stop) == ["stable"]
    assert column_blocks(atomic, stop) == ["O positive"]
    assert column_blocks(yes, stop) == ["pain", "in the chest"]


# ----------------------------------------------------------------------
# pointers and chains


def test_make_pointer_default_is_uuid4():
    p = make_pointer()
    assert isinstance(p, uuid.UUID)
    assert p.version == 4
    assert p != make_pointer()


def test_make_pointer_seeded_is_reproducible():
    a = make_pointer(random.Random(3))
    b = make_pointer(random.Random(3))
    assert a == b
    assert a.version == 4


def test_build_structure_links_blocks(rng):
    blocks = ["pain", "in the chest", "and a cough"]
    st_ = build_structure(blocks, rng)
    ordered = st_.triples
    assert [t.block for t in ordered] == blocks
    assert ordered[0].pointer == st_.head
    # each triple names the following one, and the last names none
    assert [t.next for t in ordered] == [t.pointer for t in ordered[1:]] + [None]
    # pointers are unique
    assert len({t.pointer for t in ordered}) == 3


def test_build_structure_rejects_empty():
    with pytest.raises(TenonError):
        build_structure([], random.Random(0))


def test_reconstruct_roundtrip_and_permutation(rng):
    blocks = ["one", "two", "three", "four"]
    st_ = build_structure(blocks, rng)
    shuffled = list(st_.triples)
    rng.shuffle(shuffled)
    got, complete = reconstruct(st_.head, shuffled)
    assert complete
    assert got == blocks


def test_reconstruct_reports_truncation(rng):
    blocks = ["one", "two", "three", "four"]
    st_ = build_structure(blocks, rng)
    victim = st_.triples[2].pointer
    remaining = [t for t in st_.triples if t.pointer != victim]
    got, complete = reconstruct(st_.head, remaining)
    assert not complete
    assert got == ["one", "two"]


def test_reconstruct_missing_head(rng):
    st_ = build_structure(["a", "b"], rng)
    got, complete = reconstruct(make_pointer(rng), st_.triples)
    assert got == []
    assert not complete


def test_reconstruct_rejects_duplicate_pointer(rng):
    st_ = build_structure(["a", "b"], rng)
    with pytest.raises(TenonError):
        reconstruct(st_.head, list(st_.triples) + [st_.triples[0]])


def test_reconstruct_rejects_cycle(rng):
    a, b = make_pointer(rng), make_pointer(rng)
    triples = [tenon.Triple(a, "x", b), tenon.Triple(b, "y", a)]
    with pytest.raises(TenonError):
        reconstruct(a, triples)


def test_chains_roundtrip_many_records(rng, stopwords):
    mains = ["pain", "cough", "fever", "rash", "ache", "cramp"]
    stops = sorted(stopwords)[:10]
    for _ in range(100):
        n = rng.randint(1, 10)
        words = [
            rng.choice(stops) if rng.random() < 0.4 else rng.choice(mains)
            for _ in range(n)
        ]
        text = " ".join(words)
        blocks = tokenize(text, stopwords)
        st_ = build_structure(blocks, rng)
        got, complete = reconstruct(st_.head, st_.triples)
        assert complete
        assert " ".join(got) == normalize(text)
