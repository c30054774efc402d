"""Hostile documents: every decoder raises only its own module's error.

Each example starts from a valid document, replaces the value at one
path with arbitrary JSON (including nesting far deeper than the
interpreter's recursion limit, and pieces of the document itself) or
edits the string there, and decodes the result: directly, from a
store's log or snapshot, or from a file given to the command line.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
import time

from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from etenon import cli, mlabe, musig, policy, tdb, tenon, workflow

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=60)


class Deep:
    """A list nested ``depth`` times, built without recursion."""

    def __init__(self, depth):
        self.depth = depth

    def build(self):
        value = []
        for _ in range(self.depth):
            value = [value]
        return value

    def text(self):
        return "[" * self.depth + "]" * self.depth


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    out = copy.copy(doc)
    out[path[0]] = _replace(doc[path[0]], path[1:], value)
    return out


@st.composite
def edits(draw, text):
    """``text`` with one span replaced by new text or repeated many times."""
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    middle = draw(st.text(max_size=12) | st.integers(2, 3000).map(lambda n: text[i:j] * n))
    return text[:i] + middle + text[j:]


@st.composite
def mutations(draw, doc):
    """(path, value): where in ``doc`` to put what; a string may be edited."""
    paths = list(_paths(doc))
    path = draw(st.sampled_from(paths))
    pieces = st.sampled_from(paths).map(lambda p: _at(doc, p))
    values = JSON | st.integers(2, 100_000).map(Deep) | pieces
    if isinstance(_at(doc, path), str):
        values = edits(_at(doc, path)) | values
    return path, draw(values)


def mutated(doc, mutation):
    path, value = mutation
    return _replace(doc, path, value.build() if isinstance(value, Deep) else value)


def mutated_text(doc, mutation):
    """The mutated document as JSON text, deep nesting written out."""
    path, value = mutation
    if not isinstance(value, Deep):
        return json.dumps(_replace(doc, path, value))
    marker = "\0deep\0"
    text = json.dumps(_replace(doc, path, marker))
    return text.replace(json.dumps(marker), value.text())


# ----------------------------------------------------------------------
# one agreed mock exchange, stored on disk


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    ctx = workflow.phase_setup(
        "mock",
        {
            "owner": {"role": "DO", "attrs": ["p"]},
            "provider": {"role": "SP", "attrs": ["basic", "doctor"]},
        },
        rng=random.Random(5),
        db_root=root / "db",
    )
    record = tenon.record_from_json(
        [{"name": "note", "value": "stable"}, {"name": "plan", "value": "rest"}]
    )
    tr = workflow.run_agreement(
        ctx, "owner", "provider", record,
        "level 1 requires [1]\nlevel 2 requires [1, 2]\n"
        "tree: attr:basic, threshold(1, attr:doctor, attr:nurse)",
        {1: ["note"], 2: ["plan"]}, timestamp=1_700_000_000,
    )
    assert workflow.ingest_transcript(ctx, tr).accepted
    ctx.db.save_snapshot()
    # a second batch lives only in the log tail
    tr2 = workflow.run_agreement(
        ctx, "owner", "provider", record, "level 1 requires [1]\ntree: attr:basic",
        {1: ["note", "plan"]}, timestamp=1_700_000_001,
    )
    assert workflow.ingest_transcript(ctx, tr2).accepted
    (root / "pp.json").write_text(json.dumps(mlabe.pp_to_json(ctx.pp)))
    scenario = {
        "suite": "mock",
        "seed": 5,
        "timestamp": 1_700_000_000,
        "participants": {
            "owner": {"role": "DO", "attrs": ["p"]},
            "provider": {"role": "SP", "attrs": ["basic", "doctor"]},
            "reader": {"attrs": ["basic"]},
        },
        "policy": "level 1 requires [1]\nlevel 2 requires [1, 2]\n"
        "tree: attr:basic, attr:doctor",
        "record": tenon.columns_to_json(record.columns),
        "levels": {"1": ["note"], "2": ["plan"]},
        "do": "owner",
        "sp": "provider",
        "access_label": "clinical",
        "retrieve": [{"du": "reader"}, {"du": "provider"}],
    }

    suite = ctx.suite
    _, msk = mlabe.setup(suite, random.Random(6))
    bundle = ctx.entities["provider"].keys
    docs = {
        "pp": mlabe.pp_to_json(ctx.pp),
        "msk": mlabe.msk_to_json(suite, msk),
        "key": mlabe.key_to_json(suite, bundle),
        "ct": mlabe.ct_to_json(tr.secret.ciphertext),
        "sig": musig.sig_to_json(suite, tr.rows[0].sig),
        "tree": policy.format_policy(tr.secret.ciphertext.tree),
        "record": tenon.columns_to_json(record.columns),
        "row": tdb.row_to_json(suite, tr.rows[0]),
        "secret": tdb.secret_to_json(suite, tr.secret),
        "batch": tdb.batch_to_json(ctx.pp, tr.rows, tr.secret, tr.roster),
        "scenario": scenario,
    }
    return {
        "suite": suite,
        "pp": ctx.pp,
        "secret": tr.secret,
        "root": root,
        "entry": tr.entry_id,
        "docs": docs,
        "files": {
            name: (root / "db" / name).read_bytes()
            for name in ("log.jsonl", "snapshot.json")
        },
    }


DECODERS = {
    # the command line reads public parameters with no suite in hand
    "pp": (lambda doc, w: mlabe.pp_from_json(doc), mlabe.MlabeError),
    "msk": (lambda doc, w: mlabe.msk_from_json(doc, w["suite"]), mlabe.MlabeError),
    "key": (lambda doc, w: mlabe.key_from_json(doc, w["suite"]), mlabe.MlabeError),
    "ct": (lambda doc, w: mlabe.ct_from_json(doc, w["suite"]), mlabe.MlabeError),
    "sig": (lambda doc, w: musig.sig_from_json(doc, w["suite"]), musig.MusigError),
    "tree": (lambda doc, w: policy.parse_policy(doc), policy.PolicyError),
    "record": (lambda doc, w: tenon.record_from_json(doc), tenon.TenonError),
    "row": (lambda doc, w: tdb.row_from_json(w["suite"], doc, w["secret"]), tdb.TdbError),
    "secret": (lambda doc, w: tdb.secret_from_json(w["suite"], doc), tdb.TdbError),
    "batch": (lambda doc, w: tdb.batch_from_json(w["pp"], doc), tdb.TdbError),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@FUZZ
@given(data=st.data())
def test_decoders_raise_only_their_module_error(world, name, data):
    decode, error = DECODERS[name]
    doc = world["docs"][name]
    decode(doc, world)
    try:
        decode(mutated(doc, data.draw(mutations(doc))), world)
    except error:
        pass


@pytest.mark.parametrize("field", ["pp", "roster", "rows"])
@FUZZ
@given(data=st.data())
def test_batch_fields_raise_only_tdb_errors(world, field, data):
    """Each of the fields of a batch line that the entry does not hold,
    the fingerprint, the roster and the rows (which carry no roster ref
    or timestamp of their own), mutated on its own."""
    doc = world["docs"]["batch"]
    path, value = data.draw(mutations(doc[field]))
    try:
        tdb.batch_from_json(world["pp"], mutated(doc, ((field,) + path, value)))
    except tdb.TdbError:
        pass


@pytest.mark.parametrize("key, field", [("levels", "level"), ("leaves", "path")])
def test_ciphertext_refuses_repeated_levels_and_leaves(world, key, field):
    # a second copy of level 1 or leaf (1,), holding another entry's
    # elements, must not silently replace the first
    doc = copy.deepcopy(world["docs"]["ct"])
    first, second = doc[key][:2]
    doc[key].append(dict(second, **{field: first[field]}))
    with pytest.raises(mlabe.MlabeError, match="twice"):
        mlabe.ct_from_json(doc, world["suite"])


@pytest.mark.parametrize("name", ["mock-" + "9" * 400, "mock-1000000000039"])
def test_public_parameters_refuse_hostile_suite_names(world, name):
    # the suite name is read before any suite is in hand: a huge or a
    # large prime mock order must be refused at once, not overflow or
    # run a long primality check
    doc = dict(world["docs"]["pp"], suite=name)
    start = time.perf_counter()
    with pytest.raises(mlabe.MlabeError):
        mlabe.pp_from_json(doc)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("target", ["log.jsonl", "snapshot.json"])
@FUZZ
@given(data=st.data())
def test_mutated_store_raises_only_tdb_errors(world, target, data):
    files = dict(world["files"])
    if target == "log.jsonl":
        # both lines are replayed; the second is mutated
        head, tail = files[target].decode().splitlines()
        doc = json.loads(tail)
        tail = mutated_text(doc, data.draw(mutations(doc)))
        files[target] = ("%s\n%s\n" % (head, tail)).encode()
    else:
        doc = json.loads(files[target])
        files[target] = mutated_text(doc, data.draw(mutations(doc))).encode()
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in files.items():
            (Path(tmp) / name).write_bytes(raw)
        try:
            db = tdb.TenonDb(mlabe.pp_from_json(world["docs"]["pp"]), root=tmp)
        except tdb.TdbError:
            return
    # replay decodes no ciphertext: reading one decodes it or raises
    for entry_id in db.secret_ids():
        try:
            db.read_secret(entry_id, "clinical").ciphertext
        except tdb.TdbError:
            pass


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("target", ["--batch", "--key", "scenario"])
@FUZZ
@given(data=st.data())
def test_cli_on_mutated_input_file_reports_json_errors(world, target, data):
    root = world["root"]
    doc = world["docs"][target.lstrip("-")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(mutated_text(doc, data.draw(mutations(doc))))
        pp = ["--pp", str(root / "pp.json")]
        argv = {
            "--batch": ["ingest", "--db", str(Path(tmp) / "db"), "--batch", str(path)] + pp,
            "--key": ["retrieve", "--db", str(root / "db"), "--key", str(path),
                      "--entry", world["entry"]] + pp,
            "scenario": ["run-scenario", str(path)],
        }[target]
        code, out, err = _run_cli(*argv)
    if code == 2:
        assert out == ""
        (line,) = err.splitlines()
        assert set(json.loads(line)) == {"error", "message"}
    else:
        # the document still decoded: the batch was accepted or refused,
        # the key was used for a retrieval, or the scenario ran
        assert code in (0, 1) and err == ""
        json.loads(out)
