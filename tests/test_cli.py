import csv
import json
import os
import random
import re
import subprocess
import sys

from pathlib import Path

import pytest

from etenon import cli, mlabe, tdb, tenon, workflow
from etenon.codec import b64

ROOT = Path(__file__).resolve().parents[1]

SCENARIO = {
    "suite": "mock",
    "seed": 11,
    "timestamp": 1_700_000_000,
    "participants": {
        "patient": {"role": "DO", "attrs": ["holder"]},
        "hospital": {"role": "SP", "attrs": ["basic", "doctor", "records"]},
        "dr_grey": {"role": "DU", "attrs": ["basic", "doctor", "records"]},
        "nurse_kim": {"role": "DU", "attrs": ["basic"]},
    },
    "policy": "level 1 requires [1]\nlevel 2 requires [1, 2]\nlevel 3 requires [1, 2, 3]\ntree: attr:basic, attr:doctor, attr:records",
    "record": [
        {"name": "nino", "value": "QQ123456C"},
        {"name": "symptom", "value": "Pain in the chest and a cough"},
        {"name": "history", "value": "No known allergies"},
    ],
    "levels": {"1": ["symptom"], "2": ["history"]},
    "identifiable_level": 3,
    "do": "patient",
    "sp": "hospital",
    "retrieve": [{"du": "dr_grey"}],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_setup_and_keygen(tmp_path, capsys):
    pp = tmp_path / "pp.json"
    msk = tmp_path / "msk.json"
    code, out, _ = run(
        capsys, "setup", "--suite", "mock", "--seed", "1",
        "--pp", str(pp), "--msk", str(msk),
    )
    assert code == 0
    assert json.loads(out)["suite"] == "mock-101"
    assert json.loads(pp.read_text())["kind"] == "public-params"

    key = tmp_path / "key.json"
    code, out, _ = run(
        capsys, "keygen", "--pp", str(pp), "--msk", str(msk),
        "--attr", "doctor", "--attr", "basic", "--attr", "doctor",
        "--out", str(key), "--seed", "2",
    )
    assert code == 0
    # a repeated --attr names one attribute: the key's set is printed
    assert json.loads(out)["attrs"] == json.loads(key.read_text())["attrs"] == ["basic", "doctor"]
    loaded = mlabe.pp_from_json(json.loads(pp.read_text()))
    bundle = mlabe.key_from_json(json.loads(key.read_text()), loaded.suite)
    assert bundle.attrs == {"basic", "doctor"}


def test_run_scenario_and_retrieve_and_shuffle(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    store, keys = tmp_path / "store", tmp_path / "keys"
    out_file = tmp_path / "summary.json"
    code, out, _ = run(
        capsys, "run-scenario", str(scen), "--db", str(store), "--keys", str(keys),
        "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["agreement"]["verdict"] == "identical"
    assert json.loads(out_file.read_text()) == summary
    entry = summary["agreement"]["entry_id"]

    code, out, _ = run(
        capsys, "retrieve", "--pp", str(store / "pp.json"), "--db", str(store),
        "--key", str(keys / "nurse_kim.json"), "--entry", entry,
    )
    assert code == 0
    report = json.loads(out)
    assert report["entry_sig_ok"] is True
    assert report["levels_recovered"] == 1
    assert report["levels"]["1"]["text"] == "Pain in the chest and a cough"

    code, out, _ = run(
        capsys, "shuffle", "--pp", str(store / "pp.json"), "--db", str(store),
        "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["before"] != doc["after"]


def _two_setups(tmp_path, capsys):
    """Run the scenario twice, under seeds 11 and 12, into stores and key
    directories under ``first`` and ``second``; the two entry ids."""
    entries = []
    for name, seed in (("first", 11), ("second", 12)):
        scen = tmp_path / (name + ".json")
        scen.write_text(json.dumps(dict(SCENARIO, seed=seed)))
        code, out, _ = run(
            capsys, "run-scenario", str(scen), "--db", str(tmp_path / name / "store"),
            "--keys", str(tmp_path / name / "keys"),
        )
        assert code == 0
        entries.append(json.loads(out)["agreement"]["entry_id"])
    return entries


def test_retrieve_refuses_a_key_from_another_setup(tmp_path, capsys):
    """A key bundle from a second run names other public parameters: the
    reader refuses it, rather than report that no level opens."""
    _, entry = _two_setups(tmp_path, capsys)
    store = tmp_path / "second" / "store"
    code, out, err = run(
        capsys, "retrieve", "--pp", str(store / "pp.json"), "--db", str(store),
        "--key", str(tmp_path / "first" / "keys" / "dr_grey.json"), "--entry", entry,
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "WorkflowError", "message": "key bundle was issued under other public parameters",
    }


def test_a_store_under_other_parameters_is_refused_as_such(tmp_path, capsys, monkeypatch):
    """A store read under other public parameters, or a batch made under
    them, is refused with that reason, not as a forged row; a forged row
    or entry still reads as one, and nothing of it is decrypted."""
    first_entry, entry = _two_setups(tmp_path, capsys)
    first, second = tmp_path / "first", tmp_path / "second"
    pp = str(second / "store" / "pp.json")
    code, out, err = run(
        capsys, "retrieve", "--pp", pp, "--db", str(first / "store"),
        "--key", str(second / "keys" / "dr_grey.json"), "--entry", entry,
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "TdbError", "message": "log line 1: made under other public parameters",
    }

    batch = tmp_path / "batch.json"
    batch.write_text((first / "store" / "log.jsonl").read_text())
    files = {p.name: p.read_bytes() for p in (second / "store").iterdir()}
    for db in (second / "store", tmp_path / "none"):
        code, out, err = run(capsys, "ingest", "--pp", pp, "--db", str(db), "--batch", str(batch))
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert (doc["accepted"], doc["reason"]) == (False, "made under other public parameters")
    assert {p.name: p.read_bytes() for p in (second / "store").iterdir()} == files
    assert (doc["rows"], doc["secrets"]) == (0, 0) and not (tmp_path / "none").exists()

    def never(*args):
        raise AssertionError("decrypted an entry of a forged log")

    monkeypatch.setattr(mlabe, "decrypt", never)
    log = first / "store" / "log.jsonl"
    honest = log.read_text()
    for part, field, where in [
        (lambda line: line["rows"][0], "text", r"row 0 \(pointer [0-9a-f-]{36}\)"),
        (lambda line: line["secret"], "access_label", re.escape("secret entry %r" % first_entry)),
    ]:
        line = json.loads(honest)
        part(line)[field] += "!"
        log.write_text(json.dumps(line) + "\n")
        code, out, err = run(
            capsys, "retrieve", "--pp", str(first / "store" / "pp.json"),
            "--db", str(first / "store"), "--key", str(first / "keys" / "dr_grey.json"),
            "--entry", first_entry,
        )
        assert code == 2 and out == ""
        message = json.loads(err)["message"]
        assert re.fullmatch(r"log line 1: %s: signature invalid" % where, message), message


def test_retrieve_unknown_entry_is_json_error(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    store, keys = tmp_path / "store", tmp_path / "keys"
    run(capsys, "run-scenario", str(scen), "--db", str(store), "--keys", str(keys))
    code, out, err = run(
        capsys, "retrieve", "--pp", str(store / "pp.json"), "--db", str(store),
        "--key", str(keys / "dr_grey.json"), "--entry", "missing",
    )
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "UnknownEntryError"
    assert "missing" in doc["message"]


@pytest.mark.parametrize(
    "doc",
    [
        {"suite": "mock"},
        [1],
        dict(SCENARIO, tamper="nope"),
        dict(SCENARIO, participants={"patient": {"role": "DO", "attrs": "holder"}}),
        dict(SCENARIO, levels={"1_0": ["symptom"]}),
        dict(SCENARIO, timestamp=-1),
    ],
    ids=["no-record", "not-an-object", "bad-tamper", "attrs-text", "level-key", "timestamp"],
)
def test_run_scenario_malformed_document_is_json_error(tmp_path, capsys, doc):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(doc))
    code, out, err = run(capsys, "run-scenario", str(scen))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "WorkflowError"
    assert error["message"].startswith("malformed scenario")


def _agreed_batch(tmp_path):
    """Write public parameters for one agreed mock batch; return the batch."""
    rng = random.Random(21)
    ctx = workflow.phase_setup(
        "mock",
        {
            "owner": {"role": "DO", "attrs": ["p"]},
            "provider": {"role": "SP", "attrs": ["basic"]},
        },
        rng=rng,
    )
    record = tenon.record_from_json([{"name": "note", "value": "stable and improving"}])
    tr = workflow.run_agreement(
        ctx, "owner", "provider", record,
        "level 1 requires [1]\ntree: attr:basic",
        {1: ["note"]}, timestamp=1_700_000_000,
    )
    batch = tdb.batch_to_json(ctx.pp, tr.rows, tr.secret, tr.roster)
    (tmp_path / "pp.json").write_text(json.dumps(mlabe.pp_to_json(ctx.pp)))
    return batch


def test_ingest_roundtrip_and_rejection(tmp_path, capsys):
    batch = _agreed_batch(tmp_path)
    pp_path = tmp_path / "pp.json"
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(json.dumps(batch))

    code, out, _ = run(
        capsys, "ingest", "--pp", str(pp_path), "--db", str(tmp_path / "db"),
        "--batch", str(batch_path), "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["accepted"] is True

    # the same batch again collides on pointers and entry id
    code, out, _ = run(
        capsys, "ingest", "--pp", str(pp_path), "--db", str(tmp_path / "db"),
        "--batch", str(batch_path), "--seed", "1",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["accepted"] is False
    assert "already present" in doc["reason"]


def test_a_refused_batch_changes_no_byte_of_a_store(tmp_path, capsys):
    """A batch with one row's signature replaced by another row's is
    refused; one bad signature always fails the batch check, where two
    swapped ones pass it on mock with chance 1/(order - 1).  The refusal
    changes no byte of an existing store's log or snapshot; into a path
    that holds no store it leaves no path at all, since the gate checks
    the batch before the writer makes the directory and its ``lock``."""
    ctx = workflow.phase_setup(
        "mock",
        {
            "owner": {"role": "DO", "attrs": ["p"]},
            "provider": {"role": "SP", "attrs": ["basic"]},
        },
        rng=random.Random(22),
    )

    def batch_file(name, text, forge=False):
        record = tenon.record_from_json([{"name": "note", "value": text}])
        tr = workflow.run_agreement(
            ctx, "owner", "provider", record, "level 1 requires [1]\ntree: attr:basic",
            {1: ["note"]}, timestamp=1_700_000_000,
        )
        batch = tdb.batch_to_json(ctx.pp, tr.rows, tr.secret, tr.roster)
        if forge:
            rows = batch["rows"]
            rows[0]["sig"] = rows[1]["sig"]
        path = tmp_path / name
        path.write_text(json.dumps(batch))
        return str(path)

    pp = tmp_path / "pp.json"
    pp.write_text(json.dumps(mlabe.pp_to_json(ctx.pp)))
    good = batch_file("good.json", "stable and improving")
    forged = batch_file("forged.json", "walking with a frame", forge=True)

    def ingest(db, batch):
        code, out, err = run(
            capsys, "ingest", "--pp", str(pp), "--db", str(db), "--batch", batch, "--seed", "1"
        )
        assert err == ""
        return code, json.loads(out)

    fresh = tmp_path / "fresh"
    code, doc = ingest(fresh, forged)
    assert code == 1 and doc["accepted"] is False
    assert doc["reason"].endswith("signature invalid"), doc["reason"]
    assert (doc["rows"], doc["secrets"]) == (0, 0)
    assert not fresh.exists()

    store = tmp_path / "store"
    assert ingest(store, good)[0] == 0
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    assert {"log.jsonl", "snapshot.json"} <= set(before)
    code, doc = ingest(store, forged)
    assert code == 1 and doc["reason"].endswith("signature invalid")
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before


@pytest.mark.parametrize("place", ["batch", "row", "secret"])
def test_ingest_refuses_an_unknown_field_and_changes_no_byte(tmp_path, capsys, place):
    """No signature covers a field the batch format does not hold: a
    batch that would be admitted, but carries one at the top, in a row
    or in the entry, is refused by the field's name and changes no byte
    of the store."""
    ctx = workflow.phase_setup(
        "mock",
        {"owner": {"role": "DO", "attrs": ["p"]}, "provider": {"role": "SP", "attrs": ["basic"]}},
        rng=random.Random(23),
    )
    pp, store = tmp_path / "pp.json", tmp_path / "store"
    pp.write_text(json.dumps(mlabe.pp_to_json(ctx.pp)))

    def ingest(text, junk=None):
        record = tenon.record_from_json([{"name": "note", "value": text}])
        tr = workflow.run_agreement(
            ctx, "owner", "provider", record, "level 1 requires [1]\ntree: attr:basic",
            {1: ["note"]}, timestamp=1_700_000_000,
        )
        batch = tdb.batch_to_json(ctx.pp, tr.rows, tr.secret, tr.roster)
        if junk:
            {"batch": batch, "row": batch["rows"][0], "secret": batch["secret"]}[junk]["junk"] = "x"
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        return run(capsys, "ingest", "--pp", str(pp), "--db", str(store), "--batch", str(path))

    assert ingest("stable and improving")[0] == 0
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    code, out, err = ingest("walking with a frame", junk=place)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "TdbError" and doc["message"].endswith("unknown keys ['junk']"), doc
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before


def _break_pointer(batch):
    batch["rows"][0]["pointer"] = "not-a-uuid"
    return json.dumps(batch)


def _break_roster_key(batch):
    batch["roster"][0] = "!!!"
    return json.dumps(batch)


def _not_an_object(batch):
    return json.dumps([batch])


def _not_json(batch):
    return json.dumps(batch)[:-1]


def _policy_levels_list(batch):
    batch["secret"]["ciphertext"]["policy"] = [[1]]
    return json.dumps(batch)


def _leaf_out_of_range(batch):
    batch["secret"]["ciphertext"]["leaves"][0]["c"] = b64(b"\xff")  # above the mock order
    return json.dumps(batch)


def _deeply_nested(batch):
    return "[" * 100_000 + "]" * 100_000


def _assert_cli_json_error(error, *argv):
    """Run the CLI in a fresh interpreter; it must fail with one JSON line."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "etenon.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == error
    assert proc.stdout == ""
    return doc


@pytest.mark.parametrize(
    "breakage, error",
    [
        (_break_pointer, "TdbError"),
        (_break_roster_key, "TdbError"),
        (_not_an_object, "InputError"),
        (_not_json, "InputError"),
        (_deeply_nested, "InputError"),
    ],
)
def test_ingest_malformed_batch_is_json_error(tmp_path, breakage, error):
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(breakage(_agreed_batch(tmp_path)))
    _assert_cli_json_error(
        error, "ingest", "--pp", str(tmp_path / "pp.json"),
        "--db", str(tmp_path / "db"), "--batch", str(batch_path),
    )


@pytest.mark.parametrize("breakage", [_policy_levels_list, _leaf_out_of_range])
def test_ingest_of_an_entry_that_does_not_decode_is_refused(tmp_path, capsys, breakage):
    """The gate refuses such a batch as it refuses any other: a result
    with its reason, not an error."""
    batch_path = tmp_path / "batch.json"
    batch_path.write_text(breakage(_agreed_batch(tmp_path)))
    code, out, err = run(
        capsys, "ingest", "--pp", str(tmp_path / "pp.json"), "--db", str(tmp_path / "db"),
        "--batch", str(batch_path),
    )
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["accepted"] is False
    assert doc["reason"].startswith("malformed ciphertext of secret entry")
    assert (doc["rows"], doc["secrets"]) == (0, 0)


@pytest.mark.parametrize(
    "tree",
    ["threshold(1, " * 3000, "threshold(1, " * 500 + "attr:basic" + ")" * 500],
    ids=["unclosed-3000", "closed-500"],
)
def test_run_scenario_deeply_nested_policy_is_json_error(tmp_path, tree):
    scen = tmp_path / "scen.json"
    text = SCENARIO["policy"].replace("attr:basic", tree)
    scen.write_text(json.dumps(dict(SCENARIO, policy=text)))
    _assert_cli_json_error("PolicyError", "run-scenario", str(scen))



@pytest.mark.parametrize(
    "change, unknown",
    [
        ({"participants": dict(SCENARIO["participants"], nurse_kim={"role": "DU", "atrs": ["basic"]})},
         "participant 'nurse_kim': unknown keys ['atrs']"),
        ({"retrieve": [{"du": "dr_grey", "acess_label": "research"}]},
         "retrieve 0: unknown keys ['acess_label']"),
    ],
    ids=["atrs", "acess_label"],
)
def test_run_scenario_refuses_a_misspelt_nested_key(tmp_path, change, unknown):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(dict(SCENARIO, **change)))
    error = _assert_cli_json_error("WorkflowError", "run-scenario", str(scen))
    assert error["message"] == "malformed scenario: " + unknown

@pytest.mark.parametrize(
    "change, error",
    [
        ({"policy": "level 1 requires [1]\ntree: attr:basic, %"}, "PolicyError"),
        ({"levels": {"1": ["symptom"], "4": ["history"]}}, "WorkflowError"),
        ({"levels": {"1": ["symptom"], "2": ["history", "allergy"]}}, "WorkflowError"),
    ],
    ids=["bad-policy", "levels-off-the-policy", "unknown-column"],
)
def test_run_scenario_refused_document_writes_no_file(tmp_path, capsys, change, error):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(dict(SCENARIO, **change)))
    store = tmp_path / "store"
    code, out, err = run(capsys, "run-scenario", str(scen), "--db", str(store))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error
    # the terms, and the record under them, are checked before setup,
    # which creates the store directory
    assert not store.exists()


def test_run_scenario_refuses_a_document_without_a_suite(tmp_path, capsys):
    """A document that names no suite would run on mock, whose keys
    protect nothing: it is refused before setup and leaves no store."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({k: v for k, v in SCENARIO.items() if k != "suite"}))
    code, out, err = run(
        capsys, "run-scenario", str(scen), "--db", str(tmp_path / "store"),
        "--keys", str(tmp_path / "keys"),
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "WorkflowError",
        "message": "malformed scenario: no suite: name bn256, mock or mock-<prime>",
    }
    assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]


@pytest.mark.parametrize(
    "paths, reason",
    [
        (["--db", "store", "--keys", "store"], "lies inside the store"),
        (["--db", "store", "--keys", "store/keys"], "lies inside the store"),
        (["--db", "store/", "--keys", "other/../store/keys"], "lies inside the store"),
        (["--keys", "keys"], "only for a persisted store"),
    ],
    ids=["the-store", "under-the-store", "dotted-path", "no-store"],
)
def test_run_scenario_keeps_keys_out_of_the_store(tmp_path, capsys, paths, reason):
    """The store is open data, so key bundles are never written into it;
    a refused layout is refused before setup and leaves nothing."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    argv = [str(tmp_path / p) if p[0] != "-" else p for p in paths]
    code, out, err = run(capsys, "run-scenario", str(scen), *argv)
    assert code == 2 and out == ""
    assert reason in json.loads(err)["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]


def test_secret_files_are_private_and_kept_out_of_the_store(tmp_path, capsys):
    """Under umask 022 the master key and every key bundle are created
    with mode 0600, also over an existing file, while public files keep
    the umask's mode; and after run-scenario no file under the store
    root holds a key bundle, a signing key or a master key.  No key file
    holds a signing scalar or a verification key."""
    pp, msk, key = (tmp_path / name for name in ("pp.json", "msk.json", "key.json"))
    store, keys = tmp_path / "store", tmp_path / "keys"
    key.write_text("{}")
    key.chmod(0o644)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    old = os.umask(0o022)
    try:
        run(capsys, "setup", "--suite", "mock", "--seed", "1", "--pp", str(pp), "--msk", str(msk))
        run(capsys, "keygen", "--pp", str(pp), "--msk", str(msk), "--attr", "basic",
            "--out", str(key), "--seed", "2")
        code, _, _ = run(
            capsys, "run-scenario", str(scen), "--db", str(store), "--keys", str(keys)
        )
    finally:
        os.umask(old)
    assert code == 0
    bundles = sorted(keys.iterdir())
    assert [p.name for p in bundles] == [
        "dr_grey.json", "hospital.json", "nurse_kim.json", "patient.json"
    ]
    for path in [msk, key, *bundles]:
        assert path.stat().st_mode & 0o077 == 0, path
    for path in [key, *bundles]:
        assert not {"sk", "vk"} & set(json.loads(path.read_text())), path
    assert pp.stat().st_mode & 0o777 == 0o644
    assert (store / "pp.json").stat().st_mode & 0o777 == 0o644
    stored = [p for p in store.rglob("*") if p.is_file()]
    assert store / "pp.json" in stored and store / tdb.LOG_NAME in stored
    for path in stored:
        text = path.read_text()
        for secret in ('"key-bundle"', '"sk"', '"master-key"', '"delta"'):
            assert secret not in text, (path, secret)


@pytest.mark.parametrize(
    "field, value",
    # a key file that still keeps a reader's signing scalar is refused too
    [("attrs", 5), ("components", []), ("sk", "AAAA")],
)
def test_retrieve_malformed_key_is_json_error(tmp_path, capsys, field, value):
    pp, msk, key = (tmp_path / name for name in ("pp.json", "msk.json", "key.json"))
    run(capsys, "setup", "--suite", "mock", "--seed", "1", "--pp", str(pp), "--msk", str(msk))
    run(
        capsys, "keygen", "--pp", str(pp), "--msk", str(msk), "--attr", "basic",
        "--out", str(key), "--seed", "2",
    )
    key.write_text(json.dumps(dict(json.loads(key.read_text()), **{field: value})))
    _assert_cli_json_error(
        "MlabeError", "retrieve", "--pp", str(pp), "--db", str(tmp_path / "db"),
        "--key", str(key), "--entry", "entry-1",
    )


def test_shuffle_on_malformed_snapshot_is_json_error(tmp_path, capsys):
    pp = tmp_path / "pp.json"
    run(
        capsys, "setup", "--suite", "mock", "--seed", "1",
        "--pp", str(pp), "--msk", str(tmp_path / "msk.json"),
    )
    db = tmp_path / "db"
    db.mkdir()
    (db / "log.jsonl").write_text("")
    (db / "snapshot.json").write_text("{not json")
    _assert_cli_json_error("TdbError", "shuffle", "--pp", str(pp), "--db", str(db))


@pytest.mark.parametrize("command", ["retrieve", "shuffle"])
def test_reads_of_a_missing_store_create_nothing(tmp_path, capsys, command):
    """A mistyped ``--db`` is refused, not created as an empty store, and
    so is a directory that holds no store log: an empty one, or one that
    holds only a snapshot, which the log is looked for before.  Nothing
    is written, not even a lock."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    store, keys = tmp_path / "store", tmp_path / "keys"
    run(capsys, "run-scenario", str(scen), "--db", str(store), "--keys", str(keys))
    empty, snapshot_only = tmp_path / "empty", tmp_path / "snapshot-only"
    empty.mkdir()
    snapshot_only.mkdir()
    # a snapshot naming a pointer: opening it with no log would fail
    snapshot = {"order": [str(tenon.make_pointer(random.Random(1)))]}
    (snapshot_only / "snapshot.json").write_text(json.dumps(snapshot))
    before = sorted(tmp_path.rglob("*"))
    extra = {
        "retrieve": ["--key", str(keys / "dr_grey.json"), "--entry", "x"],
        "shuffle": ["--seed", "3"],
    }[command]
    for missing in (tmp_path / "typo" / "store", empty, snapshot_only):
        doc = _assert_cli_json_error(
            "InputError", command, "--pp", str(store / "pp.json"), "--db", str(missing), *extra
        )
        assert str(missing) in doc["message"]
        assert sorted(tmp_path.rglob("*")) == before
    assert json.loads((snapshot_only / "snapshot.json").read_text()) == snapshot


def test_a_seed_on_bn256_must_be_asked_for(tmp_path, capsys):
    """A seed makes every key of ``setup`` and ``keygen`` public, and the
    open table's storage order of ``ingest`` and ``shuffle``, which draw
    no key, so on bn256 each refuses it without ``--insecure-seed``, says
    what the seed would expose and writes nothing; with the flag a
    seeded setup is reproducible."""
    pp, msk = tmp_path / "pp.json", tmp_path / "msk.json"
    paths = ["--pp", str(pp), "--msk", str(msk)]
    doc = _assert_cli_json_error("InputError", "setup", "--suite", "bn256", "--seed", "1", *paths)
    assert doc["message"] == "--seed makes every key public; on suite bn256 it needs --insecure-seed"
    assert list(tmp_path.iterdir()) == []
    for out in (tmp_path / "again", tmp_path):
        out.mkdir(exist_ok=True)
        code, _, _ = run(
            capsys, "setup", "--suite", "bn256", "--seed", "1", "--insecure-seed",
            "--pp", str(out / "pp.json"), "--msk", str(out / "msk.json"),
        )
        assert code == 0
    assert pp.read_text() == (tmp_path / "again" / "pp.json").read_text()
    before = sorted(tmp_path.rglob("*"))
    db = str(tmp_path / "db")
    order = "the open table's storage order"
    for exposes, argv in (
        ("every key", ["keygen", *paths, "--attr", "basic", "--out", str(tmp_path / "key.json")]),
        (order, ["ingest", "--pp", str(pp), "--db", db, "--batch", str(tmp_path / "batch.json")]),
        (order, ["shuffle", "--pp", str(pp), "--db", db]),
    ):
        doc = _assert_cli_json_error("InputError", *argv, "--seed", "3")
        assert doc["message"] == (
            "--seed makes %s public; on suite bn256 it needs --insecure-seed" % exposes
        ), argv[0]
        assert sorted(tmp_path.rglob("*")) == before, argv[0]


def test_os_errors_are_json_errors(tmp_path, capsys):
    pp = tmp_path / "pp.json"
    _assert_cli_json_error(
        "FileNotFoundError", "setup", "--suite", "mock",
        "--pp", str(tmp_path / "nodir" / "pp.json"), "--msk", str(tmp_path / "msk.json"),
    )
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(_agreed_batch(tmp_path)))  # it writes pp.json too
    _assert_cli_json_error(
        "NotADirectoryError", "ingest", "--pp", str(pp), "--db", str(not_a_dir),
        "--batch", str(batch),
    )


@pytest.mark.parametrize(
    "msk, error",
    [("nodir/msk.json", "FileNotFoundError"), (".", "IsADirectoryError")],
    ids=["no-directory", "a-directory"],
)
def test_setup_refuses_an_unwritable_output_before_writing(tmp_path, capsys, msk, error):
    """The parameters are not written when their master key cannot be,
    since a master key lost is a setup lost."""
    code, out, err = run(
        capsys, "setup", "--suite", "mock", "--pp", str(tmp_path / "pp.json"),
        "--msk", str(tmp_path / msk),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error
    assert list(tmp_path.iterdir()) == []


def test_run_scenario_refuses_an_unwritable_out_before_the_store(tmp_path, capsys):
    """A summary that cannot be written stops the run before it writes
    the store and the key bundles, so the same command can run again."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    code, out, err = run(
        capsys, "run-scenario", str(scen), "--db", str(tmp_path / "store"),
        "--keys", str(tmp_path / "keys"), "--out", str(tmp_path / "nodir" / "s.json"),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert list(tmp_path.iterdir()) == [scen]


def _assert_refused_overwrite(err, *paths):
    error = json.loads(err)
    assert error["error"] == "InputError"
    assert all(str(path) in error["message"] for path in paths), error["message"]


def test_setup_refuses_one_file_for_both_outputs(tmp_path, capsys):
    """``--pp`` and ``--msk`` naming one file would leave only the master
    key there; the command is refused and the file keeps its bytes."""
    pp, msk = tmp_path / "k.json", tmp_path / "msk.json"
    assert run(capsys, "setup", "--suite", "mock", "--pp", str(pp), "--msk", str(msk))[0] == 0
    before = pp.read_bytes()
    code, out, err = run(
        capsys, "setup", "--suite", "mock", "--pp", str(pp),
        "--msk", str(tmp_path / "." / "k.json"),
    )
    assert code == 2 and out == ""
    _assert_refused_overwrite(err, pp, tmp_path / "." / "k.json")
    assert pp.read_bytes() == before


@pytest.mark.parametrize("target", ["pp.json", "msk.json"])
def test_keygen_refuses_an_out_that_is_one_of_its_inputs(tmp_path, capsys, target):
    """A key bundle written over the parameters or the master key would
    lose them; the command is refused and the file keeps its bytes."""
    pp, msk = tmp_path / "pp.json", tmp_path / "msk.json"
    assert run(capsys, "setup", "--suite", "mock", "--pp", str(pp), "--msk", str(msk))[0] == 0
    before = (tmp_path / target).read_bytes()
    code, out, err = run(
        capsys, "keygen", "--pp", str(pp), "--msk", str(msk), "--attr", "a",
        "--out", str(tmp_path / target),
    )
    assert code == 2 and out == ""
    _assert_refused_overwrite(err, tmp_path / target)
    assert (tmp_path / target).read_bytes() == before


@pytest.mark.parametrize(
    "out, over",
    [("keys/dr_grey.json", "keys"), ("store/summary.json", "store"), ("scen.json", "scen.json")],
    ids=["inside-keys", "inside-the-store", "the-scenario"],
)
def test_run_scenario_refuses_an_out_over_its_own_files(tmp_path, capsys, out, over):
    """The summary is never written into the key directory or the store,
    nor over the scenario, so no bundle or document is replaced by it;
    the run is refused before any step, and the files keep their bytes."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    # a first run leaves the key bundles in keys/
    assert run(capsys, "run-scenario", str(scen), "--db", str(tmp_path / "first"),
               "--keys", str(tmp_path / "keys"))[0] == 0
    (tmp_path / "store").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    code, stdout, err = run(
        capsys, "run-scenario", str(scen), "--db", str(tmp_path / "store"),
        "--keys", str(tmp_path / "keys"), "--out", str(tmp_path / out),
    )
    assert code == 2 and stdout == ""
    _assert_refused_overwrite(err, tmp_path / out, tmp_path / over)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert list((tmp_path / "store").iterdir()) == []


def test_ingest_reads_the_batch_before_making_the_store(tmp_path, capsys):
    pp = tmp_path / "pp.json"
    run(capsys, "setup", "--suite", "mock", "--pp", str(pp), "--msk", str(tmp_path / "msk.json"))
    code, out, err = run(
        capsys, "ingest", "--pp", str(pp), "--db", str(tmp_path / "db"),
        "--batch", str(tmp_path / "missing.json"),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"
    assert not (tmp_path / "db").exists()


# the CSV names every key of every row once, in the order the rows
# first name it: the abe rows, then the musig rows, then the layer rows
BENCH_HEADER = [
    "kind", "k", "l", "elements", "enc_exp", "enc_mul", "enc_ms", "dec_pair", "dec_ms",
    "dec_cold_ms", "ref_ms", "n", "m", "verify_exp", "verify_hashes", "sign_ms",
    "verify_ms", "layer", "layer_ms", "layer_iqr_ms", "table_ms", "table_kb", "one_ms",
    "power_ms",
]


def test_bench_grid_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "bench", "--suite", "mock", "--levels", "1,2", "--leaves", "2,3",
        "--signers", "1,2", "--trials", "1", "--seed", "5", "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"suite", "trials", "rows"} and doc["trials"] == 1
    rows = doc["rows"]
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == BENCH_HEADER
        csv_rows = list(reader)
    # stdout and the CSV hold the same rows; a CSV cell is empty where
    # its row has no such key
    assert len(csv_rows) == len(rows) == 23
    for r, c in zip(rows, csv_rows):
        assert c["kind"] == r["kind"]
        assert {name for name, cell in c.items() if cell != ""} == set(r)
    abe = [r for r in rows if r["kind"] == "abe"]
    assert [(r["k"], r["l"]) for r in abe] == [(1, 2), (1, 3), (2, 2), (2, 3)]
    for r in abe:
        assert r["elements"] == r["enc_exp"] == 2 * (r["k"] + r["l"])
        assert r["enc_mul"] == r["k"] and r["dec_pair"] == 3 * r["k"]
        assert r["dec_ms"] > 0 and r["dec_cold_ms"] > 0
    # one check of a single signature per --signers value, then one each
    # of 5, 50 and 200 signatures by two signers
    sigs = [r for r in rows if r["kind"] == "musig"]
    assert [(r["n"], r["m"]) for r in sigs] == [(1, 1), (2, 1), (2, 5), (2, 50), (2, 200)]
    for r in sigs:
        assert r["verify_exp"] == r["m"] + r["n"]
    layers = {r["layer"]: r for r in rows if r["kind"] == "layer"}
    assert set(layers) == {
        "fp_mul", "g1_exp", "g2_exp", "gt_exp", "g1_batch", "g1_fixed", "g2_fixed",
        "gt_fixed", "g1_hashed", "g1_fixed_batch", "g2_fixed_batch", "hash_to_g1",
        "right_decode", "gt_decode",
    }
    # only the fixed rows and the tabled hash give a table's build time
    # and retained size, and only the batches of table powers a time per
    # power, a ninth or a fifth of theirs, and the time of one power in
    # lockstep; every row gives the spread of its timings, none for a
    # single trial
    for name, r in layers.items():
        tabled = name.endswith("_fixed") or name == "g1_hashed"
        assert ("table_ms" in r and "table_kb" in r) == tabled, name
        batch = name.endswith("_fixed_batch")
        assert ("power_ms" in r and "one_ms" in r and r["one_ms"] > 0) == batch, name
        assert r["layer_iqr_ms"] == 0, name
    for name, powers in (("g1_fixed_batch", 9), ("g2_fixed_batch", 5)):
        assert layers[name]["power_ms"] == pytest.approx(layers[name]["layer_ms"] / powers)
    # every row of every kind gives its own host-speed reference
    assert all(r["ref_ms"] > 0 for r in rows)


def test_bench_layers_time_each_miller_loop_shape(bn256):
    """On bn256 the layer rows time one pair with its lines prepared in
    the timing, one with prepared lines and three pairs in one loop."""
    rows = cli.bench_layers(bn256, 1, random.Random(3))
    layers = [r["layer"] for r in rows]
    assert layers[-4:] == ["miller", "miller_prepared", "miller_product3", "final_exp"]
    assert all(r["layer_ms"] > 0 for r in rows)
    # a G1, G2 or GT table takes tens of milliseconds and over 50 KB, and
    # so does a hashed attribute's
    fixed = [r for r in rows if r["layer"].endswith(("_fixed", "_hashed"))]
    assert len(fixed) == 4 and all(r["table_ms"] > 0 and r["table_kb"] > 50 for r in fixed)


def test_bench_layers_sample_the_host_before_each_table_build(mock, monkeypatch):
    """Every layer trial and every table build is preceded by its own
    host-speed sample, so a fixed row's ``ref_ms`` covers its builds."""
    samples = []
    ref_sample = cli._ref_sample
    monkeypatch.setattr(cli, "_ref_sample", lambda: samples.append(1) or ref_sample())
    trials = 3
    rows = cli.bench_layers(mock, trials, random.Random(3))
    builds = [r for r in rows if "table_ms" in r]
    assert len(builds) == 4 and all("refs" not in r for r in rows)
    assert len(samples) == trials * (len(rows) + len(builds))


def test_bench_table_size_is_the_same_on_every_call(bn256):
    """A table's retained size counts the table's own objects, so two
    builds of one base's table read the same size."""
    from etenon.algebra import TARGET

    base = (bn256.gt_generator ** 5).value
    first, second = (cli._table_cost(bn256, TARGET, [base])["table_kb"] for _ in range(2))
    assert first == second > 50


def test_bench_batch_row(tmp_path, capsys):
    """The musig row with m = 5 checks five signatures by one roster of
    n = 2 in m + n exponentiations: g's power and one pass of the other
    m - 1 + n, with n hashes per signature."""
    csv_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "bench", "--suite", "mock", "--levels", "1", "--leaves", "2",
        "--signers", "2", "--trials", "2", "--seed", "5", "--csv", str(csv_path),
    )
    assert code == 0
    (row,) = [r for r in json.loads(out)["rows"] if r["kind"] == "musig" and r["m"] == 5]
    assert (row["n"], row["m"], row["verify_exp"], row["verify_hashes"]) == (2, 5, 7, 10)
    assert row["verify_ms"] > 0
    with open(csv_path, newline="") as fh:
        (cell,) = [r for r in csv.DictReader(fh) if r["kind"] == "musig" and r["m"] == "5"]
    assert (cell["n"], cell["m"], cell["verify_exp"], cell["verify_hashes"]) == ("2", "5", "7", "10")


@pytest.mark.parametrize(
    "option, value",
    [("--levels", "x"), ("--leaves", "2,,3"), ("--signers", "-1"), ("--trials", "0"),
     ("--trials", "\u0663")],
)
def test_bench_refuses_a_bad_grid_value(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument %s: expected a positive integer" % option in err
    assert "Traceback" not in err


def test_bench_with_no_abe_cell(capsys):
    # every l is below every k, so the grid has no abe row
    code, out, _ = run(
        capsys, "bench", "--levels", "3", "--leaves", "2", "--signers", "1",
        "--trials", "1", "--seed", "5",
    )
    assert code == 0
    kinds = [r["kind"] for r in json.loads(out)["rows"]]
    assert "abe" not in kinds and {"musig", "layer"} <= set(kinds)


def test_bench_refuses_an_unwritable_csv_path_before_the_grid(tmp_path, capsys, monkeypatch):
    def no_row(*args):
        raise AssertionError("a bench row ran")

    monkeypatch.setattr(cli, "bench_abe", no_row)
    monkeypatch.setattr(cli, "bench_musig", no_row)
    monkeypatch.setattr(cli, "bench_layers", no_row)
    code, out, err = run(
        capsys, "bench", "--levels", "1", "--leaves", "2", "--signers", "1", "--trials", "1",
        "--seed", "5", "--csv", str(tmp_path / "nodir" / "x.csv"),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_bench_refuses_more_signers_than_the_order_has_keys(capsys, monkeypatch):
    """mock-5 has four nonzero scalars: a roster of five is refused as a
    JSON error naming the order before any row runs, and four run."""

    def no_row(*args):
        raise AssertionError("a bench row ran")

    grid = ["bench", "--suite", "mock-5", "--levels", "1", "--leaves", "1", "--trials", "1"]
    with monkeypatch.context() as m:
        for name in ("bench_abe", "bench_musig", "bench_layers"):
            m.setattr(cli, name, no_row)
        code, out, err = run(capsys, *grid, "--signers", "2,5")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "BenchError"
    assert doc["message"] == (
        "a roster of 5 signers needs 5 distinct nonzero keys, but mock-5 has order 5"
    )
    code, out, _ = run(capsys, *grid, "--signers", "4", "--seed", "5")
    assert code == 0
    assert {r["n"] for r in json.loads(out)["rows"] if r["kind"] == "musig"} == {2, 4}


def test_bench_policy_text_parses():
    from etenon.policy import parse_policy

    tree = parse_policy(cli._bench_policy(3, 5))
    assert len(tree.children) == 5
    assert set(tree.levels) == {1, 2, 3}


def _pyproject() -> dict:
    """pyproject.toml, read from the checkout rather than installed
    metadata, so the checks also run with no install."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_console_entry_point_is_declared():
    from importlib.metadata import EntryPoint

    scripts = _pyproject()["project"]["scripts"]
    assert scripts.get("etenon") == "etenon.cli:main"
    ep = EntryPoint(name="etenon", value=scripts["etenon"], group="console_scripts")
    assert ep.load() is cli.main


def test_package_data_globs_match_the_data_files():
    """Every data file is shipped by a package-data glob and every glob
    ships a file: an editable install reads the source tree, so a file
    left out of the package data would fail only in a real install."""
    globs = _pyproject()["tool"]["setuptools"]["package-data"]["etenon"]
    package = ROOT / "src" / "etenon"
    files = {p.relative_to(package) for p in (package / "data").iterdir() if p.is_file()}
    assert files
    for glob in globs:
        assert any(f.match(glob) for f in files), "glob %r ships no file" % glob
    for f in files:
        assert any(f.match(glob) for glob in globs), "%s is not package data" % f


def _help(capsys, command) -> str:
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"])
    assert done.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["setup", "keygen", "bench"])
def test_seed_help_says_it_makes_every_key_public(capsys, command):
    assert "a seed makes every key public" in _help(capsys, command)


@pytest.mark.parametrize("command", ["ingest", "shuffle"])
def test_seed_help_says_it_makes_the_storage_order_public(capsys, command):
    """These commands draw no key: the seed fixes only the shuffle order."""
    assert "a seed makes the open table's storage order public" in _help(capsys, command)
