import csv
import json
import os
import random
import subprocess
import sys

from pathlib import Path

import pytest

from etenon import cli, mlabe, tdb, tenon, workflow
from etenon.codec import b64


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
        "--attr", "doctor", "--attr", "basic", "--out", str(key), "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["attrs"] == ["basic", "doctor"]
    loaded = mlabe.pp_from_json(json.loads(pp.read_text()))
    _, bundle = mlabe.key_from_json(json.loads(key.read_text()), loaded.suite)
    assert bundle.decryption.attrs == {"basic", "doctor"}


def test_run_scenario_and_retrieve_and_shuffle(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    store = tmp_path / "store"
    out_file = tmp_path / "summary.json"
    code, out, _ = run(
        capsys, "run-scenario", str(scen), "--db", str(store), "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["agreement"]["verdict"] == "identical"
    assert json.loads(out_file.read_text()) == summary
    entry = summary["agreement"]["entry_id"]

    code, out, _ = run(
        capsys, "retrieve", "--pp", str(store / "pp.json"), "--db", str(store),
        "--key", str(store / "keys" / "nurse_kim.json"), "--entry", entry,
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


def test_retrieve_unknown_entry_is_json_error(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    store = tmp_path / "store"
    run(capsys, "run-scenario", str(scen), "--db", str(store))
    code, out, err = run(
        capsys, "retrieve", "--pp", str(store / "pp.json"), "--db", str(store),
        "--key", str(store / "keys" / "dr_grey.json"), "--entry", "missing",
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
    import random

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
    batch = tdb.batch_to_json(ctx.suite, tr.rows, tr.secret, tr.rosters)
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


def _break_pointer(batch):
    batch["rows"][0]["pointer"] = "not-a-uuid"
    return json.dumps(batch)


def _break_roster_key(batch):
    ref = next(iter(batch["rosters"]))
    batch["rosters"][ref][0] = "!!!"
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
    src = str(Path(__file__).resolve().parents[1] / "src")
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
    assert json.loads(lines[0])["error"] == error
    assert proc.stdout == ""


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
    "change, error, setup_ran",
    [
        ({"policy": "level 1 requires [1]\ntree: attr:basic, %"}, "PolicyError", False),
        ({"levels": {"1": ["symptom"], "4": ["history"]}}, "WorkflowError", True),
    ],
    ids=["bad-policy", "levels-off-the-policy"],
)
def test_run_scenario_refused_document_writes_no_file(tmp_path, capsys, change, error, setup_ran):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(dict(SCENARIO, **change)))
    store = tmp_path / "store"
    code, out, err = run(capsys, "run-scenario", str(scen), "--db", str(store))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error
    # the policy is parsed before setup, which creates the store directory
    assert store.exists() == setup_ran
    assert not any(p.is_file() for p in store.rglob("*"))


@pytest.mark.parametrize(
    "field, value",
    [("attrs", 5), ("components", []), ("sk", None)],
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
    (db / "snapshot.json").write_text("{not json")
    _assert_cli_json_error("TdbError", "shuffle", "--pp", str(pp), "--db", str(db))


def test_os_errors_are_json_errors(tmp_path, capsys):
    pp = tmp_path / "pp.json"
    _assert_cli_json_error(
        "FileNotFoundError", "setup", "--suite", "mock",
        "--pp", str(tmp_path / "nodir" / "pp.json"), "--msk", str(tmp_path / "msk.json"),
    )
    run(capsys, "setup", "--suite", "mock", "--pp", str(pp), "--msk", str(tmp_path / "msk.json"))
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    _assert_cli_json_error("FileExistsError", "shuffle", "--pp", str(pp), "--db", str(not_a_dir))


def test_bench_grid_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "bench", "--suite", "mock", "--levels", "1,2", "--leaves", "2,3",
        "--signers", "1,2", "--trials", "1", "--seed", "5", "--csv", str(csv_path),
    )
    assert code == 0
    assert "counts hold" in out
    lines = csv_path.read_text().splitlines()
    names = [name for columns in cli.COLUMNS.values() for name, _ in columns]
    assert lines[0].split(",") == ["kind"] + names
    assert sum(1 for line in lines if line.startswith("abe,")) == 4
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one check of a single signature per --signers value, then one of five
    sigs = [r for r in rows if r["kind"] == "musig"]
    assert [(r["n"], r["m"]) for r in sigs] == [("1", "1"), ("2", "1"), ("2", "5")]
    for r in sigs[:2]:
        assert int(r["verify_exp"]) == int(r["n"]) + 1
    layers = {r["layer"]: r for r in rows if r["kind"] == "layer"}
    assert set(layers) == {
        "fp_mul", "g1_exp", "g2_exp", "gt_exp", "g1_fixed", "g2_fixed", "gt_fixed",
        "hash_to_g1", "right_decode", "gt_decode",
    }
    # only the fixed rows give a table's build time and retained size;
    # every row gives the spread of its timings, none for a single trial,
    # and its own host-speed reference
    for name, r in layers.items():
        assert (r["table_ms"] != "" and r["table_kb"] != "") == name.endswith("_fixed"), name
        assert float(r["layer_iqr_ms"]) == 0, name
        assert float(r["ref_ms"]) > 0, name
    abe = [r for r in rows if r["kind"] == "abe"]
    assert all(float(r["dec_ms"]) > 0 and float(r["dec_cold_ms"]) > 0 for r in abe)


def test_bench_layers_time_each_miller_loop_shape(bn256):
    """On bn256 the layer rows time one pair with its lines prepared in
    the timing, one with prepared lines and three pairs in one loop."""
    rows = cli.bench_layers(bn256, 1, random.Random(3))
    layers = [r["layer"] for r in rows]
    assert layers[-4:] == ["miller", "miller_prepared", "miller_product3", "final_exp"]
    assert all(r["layer_ms"] > 0 for r in rows)
    # a G1, G2 or GT table takes tens of milliseconds and over 50 KB
    fixed = [r for r in rows if r["layer"].endswith("_fixed")]
    assert len(fixed) == 3 and all(r["table_ms"] > 0 and r["table_kb"] > 50 for r in fixed)


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
    assert "a check of m signatures by n signers = m+n exp" in out
    with open(csv_path, newline="") as fh:
        (row,) = [r for r in csv.DictReader(fh) if r["kind"] == "musig" and r["m"] == "5"]
    assert (row["n"], row["m"], row["verify_exp"], row["verify_hashes"]) == ("2", "5", "7", "10")
    assert float(row["verify_ms"]) > 0


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
    # every l is below every k, so the encryption table has no rows
    code, out, _ = run(
        capsys, "bench", "--levels", "3", "--leaves", "2", "--signers", "1",
        "--trials", "1", "--seed", "5",
    )
    assert code == 0
    assert "counts hold" in out


def test_bench_policy_text_parses():
    from etenon.policy import parse_policy

    tree = parse_policy(cli._bench_policy(3, 5))
    assert len(tree.children) == 5
    assert set(tree.levels) == {1, 2, 3}


def test_console_entry_point_is_declared():
    # Read the declaration from pyproject.toml, not installed metadata,
    # so the check also runs from a checkout with no install.
    import sys
    from importlib.metadata import EntryPoint
    from pathlib import Path

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("etenon") == "etenon.cli:main"
    ep = EntryPoint(name="etenon", value=scripts["etenon"], group="console_scripts")
    assert ep.load() is cli.main
