"""Malformed JSON envelopes are refused with their module's error and nothing else."""

import pytest

from etenon import mlabe, policy
from etenon.mlabe import MlabeError


@pytest.fixture
def docs(mock, rng):
    pp, msk = mlabe.setup(mock, rng)
    bundle = mlabe.keygen(pp, msk, ["basic", "doctor"], rng)
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:basic, attr:doctor")
    ct = mlabe.encrypt(pp, {1: b"alpha"}, tree, rng)
    return mock, mlabe.key_to_json(mock, bundle), mlabe.ct_to_json(ct)


BAD_KEYS = [
    ("attrs", 5),
    ("attrs", "basic"),
    ("attrs", [["basic"]]),
    ("components", []),
    ("components", {"basic": 5, "doctor": 5}),
    ("d", None),
]


@pytest.mark.parametrize("field, value", BAD_KEYS)
def test_key_from_json_raises_only_mlabe_errors(docs, field, value):
    suite, key_doc, _ = docs
    assert mlabe.key_from_json(key_doc, suite).attrs == {"basic", "doctor"}
    with pytest.raises(MlabeError):
        mlabe.key_from_json(dict(key_doc, **{field: value}), suite)


def _level(doc, **fields):
    return dict(doc, levels=[dict(doc["levels"][0], **fields)])


def _leaf(doc, **fields):
    return dict(doc, leaves=[dict(doc["leaves"][0], **fields)] + doc["leaves"][1:])


def _policy(doc, tree):
    """``doc`` whose policy is level 1 over ``tree``."""
    return dict(doc, policy="level 1 requires [1]\ntree: " + tree)


BAD_CIPHERTEXTS = [
    lambda doc: _level(doc, level="x"),
    lambda doc: _level(doc, level=None),
    lambda doc: _level(doc, c="!!!"),
    lambda doc: _leaf(doc, path="ab"),
    lambda doc: _leaf(doc, cp=7),
    lambda doc: dict(doc, levels=5),
    lambda doc: dict(doc, leaves=["leaf"]),
    lambda doc: dict(doc, policy=""),
    lambda doc: dict(doc, policy={"levels": [[1]]}),
    lambda doc: _policy(doc, "threshold(1, " * 3000 + "attr:basic" + ")" * 3000),
    lambda doc: _policy(doc, "attr:basic, attr:doctor)"),
    lambda doc: dict(doc, policy="level 1 requires [3]\ntree: attr:basic, attr:doctor"),
    lambda doc: _policy(doc, "threshold(3, attr:basic, attr:doctor)"),
]


@pytest.mark.parametrize(
    "breakage",
    BAD_CIPHERTEXTS,
    ids=[
        "level-text", "level-null", "level-c-not-base64", "leaf-path-text",
        "leaf-cp-int", "levels-int", "leaves-strings", "policy-empty",
        "policy-levels-list", "gate-chain-3000", "policy-stray-token",
        "policy-missing-child", "policy-threshold-range",
    ],
)
def test_ct_from_json_raises_only_mlabe_errors(docs, breakage):
    suite, _, ct_doc = docs
    assert set(mlabe.ct_from_json(ct_doc, suite).levels) == {1}
    with pytest.raises(MlabeError):
        mlabe.ct_from_json(breakage(ct_doc), suite)


def test_ciphertexts_carry_the_policy_text(docs):
    suite, _, ct_doc = docs
    text = "level 1 requires [1]\ntree: attr:basic, attr:doctor\n"
    assert ct_doc["policy"] == text
    assert policy.format_policy(mlabe.ct_from_json(ct_doc, suite).tree) == text
    with pytest.raises(MlabeError, match="unsupported document version 4"):
        mlabe.ct_from_json(dict(ct_doc, version=4), suite)


@pytest.mark.parametrize("suite_name", ["mock", "bn256"])
def test_pp_from_json_refuses_an_identity_egg_gamma(suite_name, rng):
    from etenon.algebra import get_suite
    from etenon.codec import b64

    suite = get_suite(suite_name)
    pp, _ = mlabe.setup(suite, rng)
    doc = mlabe.pp_to_json(pp)
    assert mlabe.pp_from_json(doc).egg_gamma == pp.egg_gamma
    with pytest.raises(MlabeError, match="identity"):
        mlabe.pp_from_json(dict(doc, egg_gamma=b64(suite.gt_identity.encode())))
    if suite_name == "bn256":
        # all zeros is not the identity and lies outside the subgroup
        with pytest.raises(MlabeError, match="subgroup"):
            mlabe.pp_from_json(dict(doc, egg_gamma=b64(b"\0" * 384)))
