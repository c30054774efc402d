"""Malformed JSON envelopes are refused with their module's error and nothing else."""

import pytest

from etenon import mlabe, policy
from etenon.mlabe import MlabeError
from etenon.policy import PolicyError


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
    ("sk", "!!!"),
]


@pytest.mark.parametrize("field, value", BAD_KEYS)
def test_key_from_json_raises_only_mlabe_errors(docs, field, value):
    suite, key_doc, _ = docs
    assert mlabe.key_from_json(key_doc, suite)[1].decryption.attrs == {"basic", "doctor"}
    with pytest.raises(MlabeError):
        mlabe.key_from_json(dict(key_doc, **{field: value}), suite)


def _level(doc, **fields):
    return dict(doc, levels=[dict(doc["levels"][0], **fields)])


def _leaf(doc, **fields):
    return dict(doc, leaves=[dict(doc["leaves"][0], **fields)] + doc["leaves"][1:])


def _policy(doc, **fields):
    return dict(doc, policy=dict(doc["policy"], **fields))


def _gate_chain(depth):
    node = {"attr": "basic"}
    for _ in range(depth):
        node = {"threshold": 1, "children": [node]}
    return node


BAD_CIPHERTEXTS = [
    lambda doc: _level(doc, level="x"),
    lambda doc: _level(doc, level=None),
    lambda doc: _level(doc, c="!!!"),
    lambda doc: _leaf(doc, path="ab"),
    lambda doc: _leaf(doc, cp=7),
    lambda doc: dict(doc, levels=5),
    lambda doc: dict(doc, leaves=["leaf"]),
    lambda doc: dict(doc, policy={}),
    lambda doc: _policy(doc, levels=[[1]]),
    lambda doc: _policy(doc, children=[_gate_chain(3000), {"attr": "doctor"}]),
]


@pytest.mark.parametrize(
    "breakage",
    BAD_CIPHERTEXTS,
    ids=[
        "level-text", "level-null", "level-c-not-base64", "leaf-path-text",
        "leaf-cp-int", "levels-int", "leaves-strings", "policy-empty",
        "policy-levels-list", "gate-chain-3000",
    ],
)
def test_ct_from_json_raises_only_mlabe_errors(docs, breakage):
    suite, _, ct_doc = docs
    assert set(mlabe.ct_from_json(ct_doc, suite).levels) == {1}
    with pytest.raises(MlabeError):
        mlabe.ct_from_json(breakage(ct_doc), suite)


BAD_POLICIES = [
    {"levels": [[1]]},
    {"children": [{"attr": 5}, {"attr": "doctor"}]},
    {"children": [_gate_chain(3000), {"attr": "doctor"}]},
    # these two once decoded, as level 1 = (1, 2) and threshold 1
    {"levels": {"1": "12"}},
    {"children": [{"threshold": 1.5, "children": [{"attr": "basic"}]}, {"attr": "doctor"}]},
    # level keys that int() once coerced, to 10, 1, 1, 1 and 3
    {"levels": {"1_0": [1]}},
    {"levels": {"+1": [1]}},
    {"levels": {" 1": [1]}},
    {"levels": {"01": [1]}},
    {"levels": {"\u0663": [1]}},
]


@pytest.mark.parametrize(
    "fields",
    BAD_POLICIES,
    ids=[
        "levels-list", "attr-int", "gate-chain-3000", "level-indices-text",
        "threshold-float", "level-key-underscore", "level-key-plus", "level-key-space",
        "level-key-leading-zero", "level-key-arabic-indic",
    ],
)
def test_tree_from_json_raises_only_policy_errors(docs, fields):
    policy_doc = docs[2]["policy"]
    assert policy.tree_from_json(policy_doc).levels == {1: (1,)}
    with pytest.raises(PolicyError):
        policy.tree_from_json(dict(policy_doc, **fields))


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
