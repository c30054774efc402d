import json
import random
from dataclasses import replace

import pytest

from etenon import mlabe, musig, tenon, workflow
from etenon.musig import SignedMessage
from etenon.codec import canonical_json
from etenon.tdb import block_payload
from etenon.workflow import (
    Role,
    Tamper,
    WorkflowError,
    decode_level_payload,
    encode_chain_payload,
    encode_identifiable_payload,
    ingest_transcript,
    phase_retrieval,
    phase_setup,
    preprocess_record,
    run_agreement,
    run_scenario,
)


POLICY = "\n".join(
    [
        "level 1 requires [1]",
        "level 2 requires [1, 2]",
        "level 3 requires [1, 2, 3]",
        "tree: attr:basic, attr:doctor, attr:records",
    ]
)

RECORD = [
    {"name": "nino", "value": "QQ123456C"},
    {"name": "symptom", "value": "Pain in the chest and a cough"},
    {"name": "history", "value": "No known allergies"},
]

PARTICIPANTS = {
    "patient": {"role": "DO", "attrs": ["holder"]},
    "hospital": {"role": "SP", "attrs": ["basic", "doctor", "records"]},
    "dr_grey": {"role": "DU", "attrs": ["basic", "doctor", "records"]},
    "nurse_kim": {"role": "DU", "attrs": ["basic"]},
}


def fresh_ctx(seed=5, db_root=None):
    return phase_setup(
        "mock", PARTICIPANTS, rng=random.Random(seed), db_root=db_root
    )


def agree(ctx, tamper=None):
    record = tenon.record_from_json(RECORD)
    return run_agreement(
        ctx,
        "patient",
        "hospital",
        record,
        POLICY,
        {1: ["symptom"], 2: ["history"]},
        identifiable_level=3,
        timestamp=1_700_000_000,
        tamper=tamper,
    )


def test_phase_setup_issues_keys():
    ctx = fresh_ctx()
    assert set(ctx.entities) == {"cta", "aa", "tdb"} | set(PARTICIPANTS)
    hospital = ctx.entity("hospital")
    assert hospital.role is Role.SP
    assert hospital.keys.decryption.attrs == {"basic", "doctor", "records"}
    assert hospital.keys.verification == ctx.suite.generator ** hospital.keys.signing
    # the plain authority entities hold no keys of their own
    assert ctx.entity("cta").keys is None
    assert ctx.entity("aa").keys is None


def test_phase_setup_signing_only_participant():
    ctx = phase_setup(
        "mock",
        {"signer": {"role": "SP", "attrs": None}},
        rng=random.Random(1),
    )
    keys = ctx.entity("signer").keys
    assert keys.decryption is None
    assert keys.verification == ctx.suite.generator ** keys.signing


def test_phase_setup_rejects_reserved_and_unknown():
    with pytest.raises(WorkflowError):
        phase_setup("mock", {"aa": {"role": "DO", "attrs": []}})
    with pytest.raises(WorkflowError):
        phase_setup("mock", {"x": {"role": "WIZARD", "attrs": []}})


def test_payload_kind_roundtrip(rng):
    head = tenon.make_pointer(rng)
    kind, value = decode_level_payload(encode_chain_payload(head))
    assert kind == "chain" and value == head
    cols = (
        tenon.EhrColumn(name="nino", value="QQ", label=tenon.Classification.IDENTIFIABLE),
    )
    kind, value = decode_level_payload(encode_identifiable_payload(cols))
    assert kind == "identifiable"
    assert value == [{"name": "nino", "value": "QQ"}]
    with pytest.raises(WorkflowError):
        decode_level_payload(b"")
    with pytest.raises(WorkflowError):
        decode_level_payload(b"\x07junk")
    with pytest.raises(WorkflowError):
        decode_level_payload(b"\x01short")
    # a sealed identifiable payload that is not JSON, or nests too deep
    for body in (b"\xff", b"[" * 100_000 + b"]" * 100_000):
        with pytest.raises(WorkflowError, match="malformed identifiable payload"):
            decode_level_payload(b"\x02" + body)


def test_preprocess_record_validation():
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    with pytest.raises(WorkflowError):  # identifiable column on a chain
        preprocess_record(record, ctx.rules, ctx.stopwords, {1: ["nino"]}, ctx.rng)
    with pytest.raises(WorkflowError):  # unknown column
        preprocess_record(record, ctx.rules, ctx.stopwords, {1: ["nope"]}, ctx.rng)
    with pytest.raises(WorkflowError):  # symptom unassigned
        preprocess_record(record, ctx.rules, ctx.stopwords, {1: ["history"]}, ctx.rng)
    with pytest.raises(WorkflowError):  # double assignment
        preprocess_record(
            record,
            ctx.rules,
            ctx.stopwords,
            {1: ["symptom", "history"], 2: ["history"]},
            ctx.rng,
        )
    structures, ident = preprocess_record(
        record, ctx.rules, ctx.stopwords, {1: ["symptom"], 2: ["history"]}, ctx.rng
    )
    assert set(structures) == {1, 2}
    assert [c.name for c in ident] == ["nino"]


def test_agreement_signs_everything():
    ctx = fresh_ctx()
    tr = agree(ctx)
    assert tr.agreed
    assert tr.verdict == "identical"
    assert tr.rows is not None and tr.secret is not None
    # symptom gives 5 blocks, history 2; plus the ciphertext signature
    assert tr.signature_count == len(tr.rows) + 1
    roster = tr.rosters[tr.roster_ref]
    pp_bytes = ctx.pp.encode()
    for row in tr.rows:
        digest = SignedMessage(
            kind="block", payload=block_payload(row.block, row.next),
            pointer=row.pointer.bytes, pp_bytes=pp_bytes, timestamp=row.timestamp,
        ).digest()
        assert musig.verify(ctx.suite, row.sig, roster, digest)
    header = canonical_json([tr.entry_id, tr.secret.access_label])
    digest = SignedMessage(
        kind="ciphertext",
        payload=header + mlabe.ct_canonical_bytes(tr.secret.ciphertext),
        pointer=None, pp_bytes=pp_bytes, timestamp=tr.secret.timestamp,
    ).digest()
    assert musig.verify(ctx.suite, tr.secret.sig, roster, digest)


def test_agreement_roster_is_owner_and_provider():
    ctx = fresh_ctx()
    tr = agree(ctx)
    roster = tr.rosters[tr.roster_ref]
    assert roster == (
        ctx.entity("patient").keys.verification,
        ctx.entity("hospital").keys.verification,
    )


@pytest.mark.parametrize("tamper", list(Tamper))
def test_agreement_refuses_on_tampering(tamper):
    ctx = fresh_ctx()
    tr = agree(ctx, tamper=tamper)
    assert not tr.agreed
    assert tr.verdict.startswith("mismatch")
    assert tr.rows is None
    assert tr.secret is None
    assert tr.signature_count == 0
    with pytest.raises(WorkflowError):
        ingest_transcript(ctx, tr)


def agree_with_channel(monkeypatch, edit):
    """The agreement with ``edit(package, ctx)`` as the change in transit."""
    monkeypatch.setattr(workflow, "_apply_tamper", lambda package, _, ctx: edit(package, ctx))
    return agree(fresh_ctx(), tamper=Tamper.BLOCK_EDIT)


def test_agreement_refuses_a_row_on_no_chain(monkeypatch):
    injected = []

    def inject(package, ctx):
        injected.append(tenon.make_pointer(ctx.rng))
        package.rows[injected[0]] = tenon.Triple(injected[0], "injected", None)

    tr = agree_with_channel(monkeypatch, inject)
    assert tr.verdict == "mismatch: row %s lies on no chain" % injected[0]
    assert tr.rows is None and tr.signature_count == 0


def test_agreement_signs_a_row_under_the_pointer_it_was_reached_by(monkeypatch):
    """A chain element filed under another pointer in transit is signed
    under the pointer the provider's walk reached it by, so readers walk
    the rows the provider checked."""
    def refile(package, ctx):
        head = next(iter(package.rows))
        package.rows[head] = replace(package.rows[head], pointer=tenon.make_pointer(ctx.rng))

    monkeypatch.setattr(workflow, "_apply_tamper", lambda package, _, ctx: refile(package, ctx))
    ctx = fresh_ctx()
    tr = agree(ctx, tamper=Tamper.BLOCK_EDIT)
    assert tr.agreed and ingest_transcript(ctx, tr).accepted
    report = phase_retrieval(ctx, "dr_grey", tr.entry_id)
    assert all(rec.complete for rec in report.recovered.values() if rec.kind == "chain")


def _loop_the_head(package, ctx):
    head = next(iter(package.rows))
    package.rows[head] = replace(package.rows[head], next=head)


def _reseal_unknown_kind(package, ctx):
    hospital = ctx.entity("hospital").keys.decryption
    payloads = mlabe.decrypt(ctx.pp, package.ciphertext, hospital)
    payloads[1] = b"\x07" + payloads[1][1:]
    package.ciphertext = mlabe.encrypt(ctx.pp, payloads, package.ciphertext.tree, ctx.rng)


@pytest.mark.parametrize(
    "edit, reason",
    [(_loop_the_head, "pointer chain contains a cycle"),
     (_reseal_unknown_kind, "unknown level payload kind 7")],
)
def test_agreement_refuses_an_unreadable_package(monkeypatch, edit, reason):
    tr = agree_with_channel(monkeypatch, edit)
    assert tr.verdict.startswith("mismatch: " + reason)
    assert tr.rows is None and tr.signature_count == 0


def _edit_last_row(package, ctx):
    # rows run in chain order per level, so the last row is level 2's tail
    pointer = list(package.rows)[-1]
    package.rows[pointer] = tenon.Triple(pointer, "allergic to penicillin", None)


def _reseal_identifiable(package, ctx):
    hospital = ctx.entity("hospital").keys.decryption
    payloads = mlabe.decrypt(ctx.pp, package.ciphertext, hospital)
    payloads[3] = encode_identifiable_payload(())
    package.ciphertext = mlabe.encrypt(ctx.pp, payloads, package.ciphertext.tree, ctx.rng)


@pytest.mark.parametrize("edit, level", [(_edit_last_row, 2), (_reseal_identifiable, 3)])
def test_agreement_mismatch_names_the_level(monkeypatch, edit, level):
    tr = agree_with_channel(monkeypatch, edit)
    assert tr.verdict == "mismatch: level %d differs from the provider's copy" % level
    assert tr.signature_count == 0


def test_agreement_requires_capable_provider():
    ctx = phase_setup(
        "mock",
        {
            "patient": {"role": "DO", "attrs": ["holder"]},
            "weak_sp": {"role": "SP", "attrs": ["basic"]},  # cannot open level 3
        },
        rng=random.Random(2),
    )
    record = tenon.record_from_json(RECORD)
    with pytest.raises(WorkflowError):
        run_agreement(
            ctx, "patient", "weak_sp", record, POLICY,
            {1: ["symptom"], 2: ["history"]},
            identifiable_level=3, timestamp=1,
        )


def test_agreement_rejects_identifiable_without_level():
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    policy_two = "level 1 requires [1]\nlevel 2 requires [1, 2]\ntree: attr:basic, attr:doctor"
    with pytest.raises(WorkflowError):
        run_agreement(
            ctx, "patient", "hospital", record, policy_two,
            {1: ["symptom"], 2: ["history"]}, timestamp=1,
        )


def test_agreement_levels_must_match_policy():
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    with pytest.raises(WorkflowError):
        run_agreement(
            ctx, "patient", "hospital", record, POLICY,
            {1: ["symptom", "history"]},  # levels 2 and 3 uncovered
            identifiable_level=3, timestamp=1,
        )


def test_agreement_level_keys_are_ints_or_canonical_decimal():
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    for one in (1, "1"):
        tr = run_agreement(
            ctx, "patient", "hospital", record, POLICY,
            {one: ["symptom"], 2: ["history"]}, identifiable_level=3, timestamp=1,
        )
        assert tr.agreed
    for one in ("01", "+1", " 1", "\u0661", "1.0", True, 1.0, None):
        with pytest.raises(WorkflowError, match="malformed level columns"):
            run_agreement(
                ctx, "patient", "hospital", record, POLICY,
                {one: ["symptom"], 2: ["history"]}, identifiable_level=3, timestamp=1,
            )


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("timestamp", True, "^malformed timestamp: expected int, found bool$"),
        ("timestamp", -1, "^malformed timestamp: timestamp -1 does not fit 8 bytes$"),
        ("timestamp", 1 << 64, "^malformed timestamp: timestamp 18446744073709551616 does not"),
        ("access_label", 5, "^malformed access label: expected str, found int$"),
    ],
    ids=["bool-time", "time-below-0", "time-2**64", "int-label"],
)
def test_agreement_refuses_fields_the_log_cannot_carry(field, value, reason):
    """A timestamp or access label the store's log could not replay is
    refused before the owner encrypts anything."""
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    with ctx.suite.measure() as span, pytest.raises(WorkflowError, match=reason):
        run_agreement(
            ctx, "patient", "hospital", record, POLICY,
            {1: ["symptom"], 2: ["history"]}, identifiable_level=3,
            **{"timestamp": 1, field: value},
        )
    assert span.exponentiations == 0


def test_identifiable_text_never_reaches_open_rows():
    ctx = fresh_ctx()
    tr = agree(ctx)
    for row in tr.rows:
        assert "QQ123456C" not in row.block


def test_ingest_and_retrieval_by_both_users():
    ctx = fresh_ctx()
    tr = agree(ctx)
    assert ingest_transcript(ctx, tr).accepted

    full = phase_retrieval(ctx, "dr_grey", tr.entry_id)
    assert full.entry_sig_ok
    assert full.levels_in_ciphertext == 3
    assert sorted(full.recovered) == [1, 2, 3]
    assert full.recovered[1].text == "Pain in the chest and a cough"
    assert full.recovered[1].complete
    assert full.recovered[2].text == "No known allergies"
    assert full.recovered[3].identifiable == [
        {"name": "nino", "value": "QQ123456C"}
    ]
    assert full.row_failures == []

    partial = phase_retrieval(ctx, "nurse_kim", tr.entry_id)
    assert partial.entry_sig_ok
    assert sorted(partial.recovered) == [1]
    assert partial.recovered[1].text == "Pain in the chest and a cough"


def test_retrieval_wrong_label_denied():
    ctx = fresh_ctx()
    tr = agree(ctx)
    ingest_transcript(ctx, tr)
    from etenon.tdb import AccessDeniedError

    with pytest.raises(AccessDeniedError):
        phase_retrieval(ctx, "dr_grey", tr.entry_id, access_label="research")


def test_retrieval_requires_decryption_key():
    ctx = phase_setup(
        "mock",
        dict(PARTICIPANTS, signer={"role": "DU", "attrs": None}),
        rng=random.Random(3),
    )
    tr = agree(ctx)
    ingest_transcript(ctx, tr)
    with pytest.raises(WorkflowError):
        phase_retrieval(ctx, "signer", tr.entry_id)


def test_retrieval_flags_missing_rows():
    """Rows absent from the store surface as a truncated chain."""
    ctx = fresh_ctx()
    tr = agree(ctx)
    # keep everything except one level-1 row; ingest rows individually
    ordered = [r for r in tr.rows]
    dropped = ordered[1]
    kept = [r for r in ordered if r.pointer != dropped.pointer]
    assert ctx.db.ingest(kept, tr.secret, rosters=tr.rosters, rng=ctx.rng).accepted
    report = phase_retrieval(ctx, "dr_grey", tr.entry_id)
    assert report.entry_sig_ok
    incomplete = [rec for rec in report.recovered.values() if rec.complete is False]
    assert len(incomplete) == 1


@pytest.mark.parametrize("reader", ["dr_grey", "nurse_kim"])
def test_retrieval_verifies_only_the_rows_it_follows(monkeypatch, reader):
    ctx = fresh_ctx()
    first, second = agree(ctx), agree(ctx)
    for tr in (first, second):
        assert ingest_transcript(ctx, tr).accepted
    calls = []
    real_verify = musig.verify

    def spy(suite, sig, roster, msg):
        calls.append(msg)
        return real_verify(suite, sig, roster, msg)

    monkeypatch.setattr(musig, "verify", spy)
    report = phase_retrieval(ctx, reader, first.entry_id)
    followed = sum(len(rec.blocks) for rec in report.recovered.values() if rec.kind == "chain")
    assert report.entry_sig_ok and not report.row_failures
    assert 0 < followed < len(ctx.db.read_open())
    assert len(calls) == followed + 1  # each followed row once, plus the entry


class EditingStore:
    """A store that serves one entry or row edited, and delegates the
    rest to a real store: what a reader meets in a hostile store."""

    def __init__(self, db, key, **changes):
        self.db, self.key, self.changes = db, key, changes

    def _serve(self, key, obj):
        return replace(obj, **self.changes) if key == self.key else obj

    def read_secret(self, entry_id, access_label):
        return self._serve(entry_id, self.db.read_secret(entry_id, access_label))

    def roster(self, ref):
        return self.db.roster(ref)

    def find_row(self, pointer):
        return self._serve(pointer, self.db.find_row(pointer))


def _retrieve(ctx, db, entry_id):
    keys = ctx.entity("dr_grey").keys
    return workflow.retrieve_entry(ctx.pp, db, keys, entry_id)


def test_retrieval_refuses_an_edited_entry_before_decrypting(monkeypatch):
    ctx = fresh_ctx()
    tr = agree(ctx)
    assert ingest_transcript(ctx, tr).accepted
    store = EditingStore(ctx.db, tr.entry_id, timestamp=tr.secret.timestamp + 1)

    def never(*args):
        raise AssertionError("decrypted an entry whose signature failed")

    monkeypatch.setattr(mlabe, "decrypt", never)
    report = _retrieve(ctx, store, tr.entry_id)
    assert report.entry_sig_ok is False
    assert report.recovered == {}


@pytest.mark.parametrize(
    "change, failure",
    [
        (lambda row: {"block": row.block + "!"}, "signature invalid"),
        (lambda row: {"roster_ref": "nowhere"}, "unknown roster"),
    ],
    ids=["block", "roster"],
)
def test_retrieval_refuses_an_edited_row(change, failure):
    ctx = fresh_ctx()
    tr = agree(ctx)
    assert ingest_transcript(ctx, tr).accepted
    honest = _retrieve(ctx, ctx.db, tr.entry_id)
    row = tr.rows[0]
    (level,) = [l for l, rec in honest.recovered.items() if rec.blocks and row.block in rec.blocks]

    report = _retrieve(ctx, EditingStore(ctx.db, row.pointer, **change(row)), tr.entry_id)
    assert report.entry_sig_ok
    assert report.row_failures == ["row %s: %s" % (row.pointer, failure)]
    assert report.recovered[level].complete is False
    assert all(rec.complete for l, rec in report.recovered.items() if l != level and rec.blocks)


def test_retrieval_of_a_cosigned_cycle_raises():
    from etenon import policy, tdb
    from etenon.errors import EtenonError

    ctx = fresh_ctx()
    keys = [ctx.entity(name).keys.signing for name in ("patient", "hospital")]
    pp_bytes, t = ctx.pp.encode(), 1_700_000_000
    a, b = tenon.make_pointer(ctx.rng), tenon.make_pointer(ctx.rng)
    rows = []
    for pointer, nxt in ((a, b), (b, a)):
        triple = tenon.Triple(pointer, "loop", nxt)
        sig, roster = musig.cosign(ctx.suite, keys, tdb.row_digest(pp_bytes, triple, t), ctx.rng)
        rows.append(tdb.OpenRow(pointer, "loop", nxt, sig, "cycle", t))
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:basic")
    ct = mlabe.encrypt(ctx.pp, {1: encode_chain_payload(a)}, tree, ctx.rng)
    digest = tdb.entry_digest(pp_bytes, "cycle", "clinical", mlabe.ct_canonical_bytes(ct), t)
    sig, _ = musig.cosign(ctx.suite, keys, digest, ctx.rng)
    secret = tdb.SecretEntry("cycle", ct, sig, "cycle", "clinical", t)
    assert ctx.db.ingest(rows, secret, rosters={"cycle": roster}, rng=ctx.rng).accepted
    with pytest.raises(EtenonError, match="cycle"):
        phase_retrieval(ctx, "nurse_kim", "cycle")


def test_scenario_runs_and_is_deterministic(tmp_path):
    doc = {
        "suite": "mock",
        "seed": 11,
        "timestamp": 1_700_000_000,
        "participants": PARTICIPANTS,
        "policy": POLICY,
        "record": RECORD,
        "levels": {"1": ["symptom"], "2": ["history"]},
        "identifiable_level": 3,
        "do": "patient",
        "sp": "hospital",
        "retrieve": [{"du": "dr_grey"}, {"du": "nurse_kim"}],
    }
    a = run_scenario(doc, db_root=tmp_path / "a")
    b = run_scenario(doc, db_root=tmp_path / "b")
    assert a == b
    assert a["agreement"]["verdict"] == "identical"
    assert a["retrievals"][0]["levels_recovered"] == 3
    assert a["retrievals"][1]["levels_recovered"] == 1
    # the persisted stores are byte-identical under the same seed
    assert (tmp_path / "a" / "log.jsonl").read_bytes() == (
        tmp_path / "b" / "log.jsonl"
    ).read_bytes()


def test_scenario_tamper_skips_ingest():
    doc = {
        "suite": "mock",
        "seed": 11,
        "participants": PARTICIPANTS,
        "policy": POLICY,
        "record": RECORD,
        "levels": {"1": ["symptom"], "2": ["history"]},
        "identifiable_level": 3,
        "do": "patient",
        "sp": "hospital",
        "tamper": "block_edit",
        "retrieve": [{"du": "dr_grey"}],
    }
    out = run_scenario(doc)
    assert out["agreement"]["verdict"].startswith("mismatch")
    assert out["agreement"]["signatures"] == 0
    assert out["ingest"] is None
    assert out["retrievals"] == []


def test_scenario_emit_dir(tmp_path):
    doc = {
        "suite": "mock",
        "seed": 4,
        "participants": PARTICIPANTS,
        "policy": POLICY,
        "record": RECORD,
        "levels": {"1": ["symptom"], "2": ["history"]},
        "identifiable_level": 3,
        "do": "patient",
        "sp": "hospital",
    }
    run_scenario(doc, db_root=tmp_path, emit_dir=tmp_path)
    assert (tmp_path / "pp.json").exists()
    names = {p.name for p in (tmp_path / "keys").iterdir()}
    assert names == {"patient.json", "hospital.json", "dr_grey.json", "nurse_kim.json"}
    doc2 = json.loads((tmp_path / "pp.json").read_text())
    pp = mlabe.pp_from_json(doc2)
    assert pp.suite.name == "mock-101"
