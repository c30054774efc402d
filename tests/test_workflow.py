import json
import random
import re
from dataclasses import replace

import pytest

from etenon import mlabe, musig, tenon, workflow
from etenon.codec import canonical_json
from etenon.errors import EtenonError
from etenon.tdb import TenonDb, row_digest, signed_digest
from etenon.workflow import (
    Role,
    WorkflowError,
    agree_terms,
    cosign_package,
    decode_level_payload,
    encode_chain_payload,
    encode_identifiable_payload,
    ingest_transcript,
    owner_package,
    phase_retrieval,
    phase_setup,
    preprocess_record,
    run_agreement,
    run_scenario,
)

import channel


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


def fresh_ctx(seed=5, db_root=None, suite="mock"):
    return phase_setup(
        suite, PARTICIPANTS, rng=random.Random(seed), db_root=db_root
    )


# an edited message verifies on mock-101 with probability 1/101, so a
# test that an edit fails runs on a larger mock group
EDIT_SUITE = "mock-999983"


TERMS = agree_terms(
    POLICY, {1: ["symptom"], 2: ["history"]}, identifiable_level=3, timestamp=1_700_000_000
)


def agree(ctx):
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
    )


def test_phase_setup_issues_keys():
    """Every participant with attributes gets their decryption key; only
    the owner and the provider hold a signing scalar."""
    ctx = fresh_ctx()
    assert set(ctx.entities) == set(PARTICIPANTS)
    hospital = ctx.entity("hospital")
    assert hospital.role is Role.SP
    assert hospital.keys.attrs == {"basic", "doctor", "records"}
    signers = {name for name, e in ctx.entities.items() if e.signing is not None}
    assert signers == {"patient", "hospital"}
    for name in ("dr_grey", "nurse_kim"):
        du = ctx.entity(name)
        assert du.role is Role.DU and du.signing is None
        assert isinstance(du.keys, mlabe.DecryptionKey)


def test_phase_setup_signing_only_participant():
    ctx = phase_setup(
        "mock",
        {"signer": {"role": "SP", "attrs": None}},
        rng=random.Random(1),
    )
    signer = ctx.entity("signer")
    assert signer.keys is None
    assert 0 < signer.signing < ctx.suite.order


def test_phase_setup_rejects_an_unknown_role():
    for role in ("WIZARD", "CTA"):
        with pytest.raises(WorkflowError, match="unknown role '%s'" % role):
            phase_setup("mock", {"x": {"role": role, "attrs": []}})
    # the names of the paper's authorities are free for participants
    ctx = phase_setup("mock", {"aa": {"role": "DO", "attrs": []}}, rng=random.Random(1))
    assert set(ctx.entities) == {"aa"} and ctx.entity("aa").role is Role.DO


def test_phase_setup_names_no_default_suite():
    """A caller that forgets the suite is refused, rather than given keys
    in mock's group of order 101."""
    with pytest.raises(TypeError):
        phase_setup(participants={"x": {"role": "DU", "attrs": []}})


def test_payload_kind_roundtrip(rng):
    head = tenon.make_pointer(rng)
    kind, value = decode_level_payload(encode_chain_payload(head))
    assert kind == "chain" and value == head
    cols = (tenon.EhrColumn(name="nino", value="QQ"),)
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
    record = tenon.record_from_json(RECORD)

    def read(level_columns):
        terms = agree_terms(POLICY, level_columns, identifiable_level=3, timestamp=1)
        return preprocess_record(record, terms)

    with pytest.raises(WorkflowError, match="identifiable column 'nino'"):
        read({1: ["nino"], 2: ["symptom", "history"]})
    with pytest.raises(WorkflowError, match="unknown column 'nope'"):
        read({1: ["nope"], 2: ["symptom", "history"]})
    # a non-PII column the terms leave out
    extra = tenon.record_from_json(RECORD + [{"name": "allergy", "value": "penicillin rash"}])
    with pytest.raises(WorkflowError, match=r"columns \['allergy'\] are not assigned"):
        preprocess_record(extra, TERMS)
    with pytest.raises(WorkflowError, match="more than one level"):
        read({1: ["symptom", "history"], 2: ["history"]})
    blocks, ident = read({1: ["symptom"], 2: ["history"]})
    assert blocks == {1: ["Pain", "in the chest", "and a cough"], 2: ["No known", "allergies"]}
    assert [c.name for c in ident] == ["nino"]


def test_agreement_signs_everything():
    ctx = fresh_ctx()
    tr = agree(ctx)
    assert tr.agreed
    assert tr.verdict == "identical"
    assert tr.rows is not None and tr.secret is not None
    # symptom gives 5 blocks, history 2; plus the ciphertext signature
    assert tr.signature_count == len(tr.rows) + 1
    roster = tr.roster
    pp_bytes = ctx.pp.encode()
    for row in tr.rows:
        element = canonical_json({"text": row.block, "next": str(row.next) if row.next else None})
        digest = signed_digest("block", element, row.pointer.bytes, pp_bytes, row.timestamp)
        assert musig.verify(ctx.suite, row.sig, roster, digest)
    header = canonical_json([tr.entry_id, tr.secret.access_label])
    digest = signed_digest(
        "ciphertext", header + mlabe.ct_canonical_bytes(tr.secret.ciphertext), None,
        pp_bytes, tr.secret.timestamp,
    )
    assert musig.verify(ctx.suite, tr.secret.sig, roster, digest)


def test_agreement_refuses_one_entity_in_both_roles():
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    with pytest.raises(WorkflowError, match="^'patient' has role DO, not SP$"):
        run_agreement(
            ctx, "patient", "patient", record, POLICY,
            {1: ["symptom"], 2: ["history"]}, identifiable_level=3, timestamp=1,
        )


@pytest.mark.parametrize(
    "do_name, sp_name, reason",
    [
        ("dr_grey", "hospital", "'dr_grey' has role DU, not DO"),
        ("patient", "nurse_kim", "'nurse_kim' has role DU, not SP"),
        ("nobody", "hospital", "unknown entity 'nobody'"),
    ],
    ids=["du-as-owner", "du-as-provider", "unknown-owner"],
)
def test_cosigning_refuses_a_party_of_another_role(do_name, sp_name, reason):
    """Only a DO owns and only an SP provides: a reader in either place
    is refused before the provider checks or anyone signs."""
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    package = owner_package(ctx, record, TERMS)
    with ctx.suite.measure() as span, pytest.raises(WorkflowError, match="^%s$" % reason):
        cosign_package(ctx, do_name, sp_name, record, TERMS, package)
    assert span.exponentiations == span.pairings == 0


def test_agreement_roster_is_owner_and_provider():
    ctx = fresh_ctx()
    tr = agree(ctx)
    roster = tr.roster
    assert roster == tuple(
        ctx.suite.generator ** ctx.entity(name).signing for name in ("patient", "hospital")
    )


@pytest.mark.parametrize("edit", channel.EDITS, ids=lambda e: "Tamper." + e.__name__.upper())
def test_agreement_refuses_on_tampering(edit):
    ctx = fresh_ctx()
    tr = agree_with_channel(edit, ctx)
    assert not tr.agreed
    assert tr.verdict.startswith("mismatch")
    assert tr.rows is None
    assert tr.secret is None
    assert tr.signature_count == 0
    with pytest.raises(WorkflowError):
        ingest_transcript(ctx, tr)


def agree_with_channel(edit, ctx=None):
    """The agreement with ``edit(package, ctx)`` as the change in transit."""
    record = tenon.record_from_json(RECORD)
    return channel.across(ctx or fresh_ctx(), "patient", "hospital", record, TERMS, edit)


def test_agreement_refuses_a_row_on_no_chain():
    injected = []

    def inject(package, ctx):
        injected.append(tenon.make_pointer(ctx.rng))
        package.rows[injected[0]] = tenon.Triple(injected[0], "injected", None)

    tr = agree_with_channel(inject)
    assert tr.verdict == "mismatch: row %s lies on no chain" % injected[0]
    assert tr.rows is None and tr.signature_count == 0


def test_agreement_signs_a_row_under_the_pointer_it_was_reached_by():
    """A chain element filed under another pointer in transit is signed
    under the pointer the provider's walk reached it by, so readers walk
    the rows the provider checked."""
    def refile(package, ctx):
        head = next(iter(package.rows))
        package.rows[head] = replace(package.rows[head], pointer=tenon.make_pointer(ctx.rng))

    ctx = fresh_ctx()
    tr = agree_with_channel(refile, ctx)
    assert tr.agreed and ingest_transcript(ctx, tr).accepted
    report = phase_retrieval(ctx, "dr_grey", tr.entry_id)
    assert all(rec.complete for rec in report.recovered.values() if rec.kind == "chain")


def _loop_the_head(package, ctx):
    head = next(iter(package.rows))
    package.rows[head] = replace(package.rows[head], next=head)


def _loop_the_tail(package, ctx):
    # level 1's chain runs from the first row to the first row with no next
    head = next(iter(package.rows))
    tail = next(t for t in package.rows.values() if t.next is None)
    package.rows[tail.pointer] = replace(tail, next=head)


@pytest.mark.parametrize(
    "edit, reason",
    [(_loop_the_head, "pointer chain contains a cycle"),
     (_loop_the_tail, "pointer chain contains a cycle")],
)
def test_agreement_refuses_an_unreadable_package(edit, reason):
    tr = agree_with_channel(edit)
    assert tr.verdict.startswith("mismatch: " + reason)
    assert tr.rows is None and tr.signature_count == 0


def _edit_first_row(package, ctx):
    pointer, t = next(iter(package.rows.items()))
    package.rows[pointer] = replace(t, block="Pain in the knee")


def _edit_last_row(package, ctx):
    # rows run in chain order per level, so the last row is level 2's tail
    pointer = list(package.rows)[-1]
    package.rows[pointer] = tenon.Triple(pointer, "allergic to penicillin", None)


@pytest.mark.parametrize("edit, level", [(_edit_first_row, 1), (_edit_last_row, 2)])
def test_agreement_mismatch_names_the_level(edit, level):
    tr = agree_with_channel(edit)
    assert tr.verdict == "mismatch: level %d differs from the provider's copy" % level
    assert tr.signature_count == 0


REENCRYPTION = "mismatch: the ciphertext differs from the provider's re-encryption"


def _reseal(package, ctx, level, payload):
    """Reseal one level in transit under the handed coefficients: the
    ciphertext then differs from the owner's in that level's mask alone."""
    payloads = channel.open_with_coefficients(ctx.pp, package.ciphertext, package.coefficients)
    payloads[level] = payload(payloads[level])
    package.ciphertext = mlabe.encrypt(
        ctx.pp, payloads, package.ciphertext.tree, coefficients=package.coefficients
    )


def _reseal_unknown_kind(package, ctx):
    _reseal(package, ctx, 1, lambda raw: b"\x07" + raw[1:])


def _reseal_identifiable(package, ctx):
    _reseal(package, ctx, 3, lambda raw: encode_identifiable_payload(()))


@pytest.mark.parametrize("edit", [_reseal_unknown_kind, _reseal_identifiable])
def test_agreement_refuses_a_resealed_level(edit):
    tr = agree_with_channel(edit)
    assert tr.verdict == REENCRYPTION
    assert tr.rows is None and tr.signature_count == 0


def test_policy_swap_keeps_the_payloads_under_a_weaker_tree():
    """The swap is a real weakening: under the swapped tree a key for
    sub-tree 1 alone opens every level, yet the provider refuses it."""
    swapped = []

    def swap(package, ctx):
        channel.policy_swap(package, ctx)
        swapped.append(package.ciphertext)

    ctx = fresh_ctx()
    tr = agree_with_channel(swap, ctx)
    assert tr.verdict == REENCRYPTION and tr.signature_count == 0
    nurse = ctx.entity("nurse_kim").keys  # holds "basic" alone
    opened = mlabe.decrypt(ctx.pp, swapped[0], nurse)
    assert sorted(opened) == [1, 2, 3]
    assert opened[3] == encode_identifiable_payload(
        [tenon.EhrColumn(name="nino", value="QQ123456C")]
    )


GATE_POLICY = "\n".join(
    [
        "level 1 requires [1]",
        "level 2 requires [1, 2]",
        "tree: threshold(2, attr:staff, attr:ward, attr:research, attr:ethics), attr:doctor",
    ]
)
RESEARCH_LEAF = (1, 3)


def gate_agreement(edit=lambda package, ctx: None):
    """The gate policy, agreed by a provider whose key never uses the
    ``research`` leaf; ``edit(package, ctx)`` runs in transit."""
    ctx = phase_setup(
        "mock-999983",
        {
            "patient": {"role": "DO", "attrs": None},
            "hospital": {"role": "SP", "attrs": ["staff", "ward", "doctor"]},
            "researcher": {"role": "DU", "attrs": ["research", "ethics"]},
        },
        rng=random.Random(16),
    )
    terms = agree_terms(GATE_POLICY, {1: ["symptom"], 2: ["history"]}, timestamp=1_700_000_000)
    record = tenon.record_from_json(RECORD[1:])
    return ctx, channel.across(ctx, "patient", "hospital", record, terms, edit)


def test_gate_agreement_serves_a_reader_the_provider_does_not_resemble():
    ctx, tr = gate_agreement()
    assert tr.agreed and ingest_transcript(ctx, tr).accepted
    report = phase_retrieval(ctx, "researcher", tr.entry_id)
    assert sorted(report.recovered) == [1]
    assert report.recovered[1].text == "Pain in the chest and a cough"


def test_agreement_refuses_a_leaf_from_an_unrelated_share():
    """The provider's key never uses the research leaf, so only the
    re-encryption can notice that its share lies on no gate polynomial."""

    def replace_leaf(package, ctx):
        x = ctx.suite.rand_scalar_nonzero(ctx.rng)
        package.ciphertext.leaves[RESEARCH_LEAF] = (
            ctx.suite.right_generator ** x,
            ctx.suite.hash_to_group("research") ** x,
        )

    _, tr = gate_agreement(replace_leaf)
    assert tr.verdict == REENCRYPTION and tr.signature_count == 0


def test_agreement_refuses_coefficients_that_do_not_fit():
    def drop_the_gate(package, ctx):
        del package.coefficients[(1,)]

    _, tr = gate_agreement(drop_the_gate)
    assert tr.verdict == "mismatch: coefficients do not fit the tree at (1,)"
    assert tr.signature_count == 0


def test_agreement_refuses_a_package_made_for_another_record():
    """The provider checks the package against its own copy of the
    record: a package the owner made for one record, handed over for
    another with the same identifiable column, is refused by level."""
    ctx = fresh_ctx()
    other = tenon.record_from_json(
        [RECORD[0], {"name": "symptom", "value": "Pain in the knee"}, RECORD[2]]
    )
    package = owner_package(ctx, tenon.record_from_json(RECORD), TERMS)
    tr = cosign_package(ctx, "patient", "hospital", other, TERMS, package)
    assert tr.verdict == "mismatch: level 1 differs from the provider's copy"
    assert tr.rows is None and tr.secret is None and tr.signature_count == 0


TWO_LEVELS = agree_terms(
    "level 1 requires [1]\nlevel 2 requires [1, 2]\ntree: attr:basic, attr:doctor",
    {1: ["symptom"], 2: ["history"]},
    timestamp=1_700_000_000,
)


@pytest.mark.parametrize(
    "owned, copy, terms, reason",
    [
        (RECORD, RECORD + [{"name": "allergy", "value": "penicillin rash"}], TERMS,
         "columns ['allergy'] are not assigned to any level"),
        (RECORD, RECORD[:2], TERMS, "assignment names unknown column 'history'"),
        (RECORD[1:], RECORD, TWO_LEVELS,
         "record has identifiable columns but no level was set aside for them"),
    ],
    ids=["unassigned-column", "missing-column", "no-identifiable-level"],
)
def test_provider_refuses_a_copy_the_owner_would_refuse(owned, copy, terms, reason):
    """The provider reads its own copy as the owner reads a record: a
    copy the owner's half refuses, the provider refuses with the same
    text and signs nothing, even where every chain it walks matches."""
    ctx = fresh_ctx()
    package = owner_package(ctx, tenon.record_from_json(owned), terms)
    copy = tenon.record_from_json(copy)
    tr = cosign_package(ctx, "patient", "hospital", copy, terms, package)
    assert tr.verdict == "mismatch: " + reason
    assert tr.rows is None and tr.secret is None and tr.signature_count == 0
    with pytest.raises(WorkflowError, match="^%s$" % re.escape(reason)):
        owner_package(ctx, copy, terms)


def test_agreement_with_a_signing_only_provider():
    """The provider checks by re-encryption, so it needs no decryption
    key; the readers still recover their levels."""
    ctx = phase_setup(
        "mock",
        dict(PARTICIPANTS, hospital={"role": "SP", "attrs": None}),
        rng=random.Random(2),
    )
    tr = agree(ctx)
    assert tr.agreed and ingest_transcript(ctx, tr).accepted
    full = phase_retrieval(ctx, "dr_grey", tr.entry_id)
    assert sorted(full.recovered) == [1, 2, 3]
    assert full.recovered[2].text == "No known allergies"
    assert sorted(phase_retrieval(ctx, "nurse_kim", tr.entry_id).recovered) == [1]


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
    # column names come as a list or a tuple
    tr = run_agreement(
        ctx, "patient", "hospital", record, POLICY,
        {1: ("symptom",), 2: ("history",)}, identifiable_level=3, timestamp=1,
    )
    assert tr.agreed
    for one in ("01", "+1", " 1", "\u0661", "1.0", True, 1.0, None):
        with pytest.raises(WorkflowError, match="malformed level columns"):
            run_agreement(
                ctx, "patient", "hospital", record, POLICY,
                {one: ["symptom"], 2: ["history"]}, identifiable_level=3, timestamp=1,
            )


@pytest.mark.parametrize(
    "level_columns, reason",
    [
        ({1: ["symptom", "history"], 2: ["history"]},
         "^a column is assigned to more than one level$"),
        ({1: ["symptom"], 2: ["history"], 3: []},
         "^the identifiable level cannot also carry a chain$"),
        ({1: ["symptom", "history"]},
         r"^policy declares levels \[1, 2, 3\] but the assignment covers \[1, 3\]$"),
        ([(1, ["symptom"]), (2, ["history"])],
         "^malformed level columns: expected dict, found list$"),
        ({1: ["symptom"], "1": ["history"], 2: []},
         "^malformed level columns: level 1 is named twice$"),
        ({1: ["symptom"], 2: "history"},
         "^malformed level columns: level 2: expected a list of column names, found str$"),
        ({1: ["symptom", 5], 2: ["history"]},
         "^malformed level columns: expected str, found int$"),
        ({1: ["symptom", "history"], 2: []}, "^level 2 carries no columns$"),
    ],
    ids=["assigned-twice", "identifiable-level-chained", "levels-off-the-policy", "not-a-dict",
         "level-named-twice", "bare-string", "non-string-name", "empty-chain-level"],
)
def test_agreement_refuses_terms_that_do_not_fit(level_columns, reason):
    """Terms that no record could fit are refused when they are agreed,
    before the owner encrypts anything."""
    ctx = fresh_ctx()
    record = tenon.record_from_json(RECORD)
    with ctx.suite.measure() as span, pytest.raises(WorkflowError, match=reason):
        run_agreement(
            ctx, "patient", "hospital", record, POLICY, level_columns,
            identifiable_level=3, timestamp=1,
        )
    assert span.exponentiations == 0


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


def test_agreement_derives_the_roster_once():
    """An agreement over k levels, l leaves and m rows spends 2(k+l)
    exponentiations on each of its two encryptions and n + n(m+1) on
    co-signing the rows and the ciphertext under one roster of n."""
    ctx = fresh_ctx()
    with ctx.suite.measure() as span:
        tr = agree(ctx)
    k, l, n, m = 3, 3, 2, len(tr.rows)
    assert tr.agreed and m == 5
    assert span.exponentiations == 4 * (k + l) + n * (m + 2)


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


def test_retrieve_entry_refuses_a_bundle_without_a_decryption_key():
    """A participant without attributes holds no key, which the retrieval
    itself refuses before the store is read or any signature checked."""
    ctx = phase_setup(
        "mock",
        dict(PARTICIPANTS, signer={"role": "DU", "attrs": None}),
        rng=random.Random(3),
    )
    tr = agree(ctx)
    ingest_transcript(ctx, tr)
    keys = ctx.entity("signer").keys
    with ctx.suite.measure() as span, pytest.raises(WorkflowError, match="no decryption key"):
        workflow.retrieve_entry(ctx.pp, ctx.db, keys, tr.entry_id)
    assert span.pairings == span.exponentiations == 0


def test_retrieval_flags_missing_rows():
    """Rows absent from the store surface as a truncated chain."""
    ctx = fresh_ctx()
    tr = agree(ctx)
    # keep everything except one level-1 row; ingest rows individually
    ordered = [r for r in tr.rows]
    dropped = ordered[1]
    kept = [r for r in ordered if r.pointer != dropped.pointer]
    assert ctx.db.ingest(kept, tr.secret, roster=tr.roster, rng=ctx.rng).accepted
    report = phase_retrieval(ctx, "dr_grey", tr.entry_id)
    assert report.entry_sig_ok
    incomplete = [rec for rec in report.recovered.values() if rec.complete is False]
    assert len(incomplete) == 1


@pytest.mark.parametrize("reader, levels", [("dr_grey", 3), ("nurse_kim", 1)], ids=["dr_grey", "nurse_kim"])
def test_retrieval_verifies_only_the_rows_it_follows(tmp_path, monkeypatch, reader, levels):
    """The rows a retrieval follows are verified once, when the store is
    opened: opening a store of two agreements checks every stored
    signature once; a retrieval then checks none, and pays only for its
    decryption."""
    ctx = fresh_ctx(db_root=tmp_path)
    first, second = agree(ctx), agree(ctx)
    for tr in (first, second):
        assert ingest_transcript(ctx, tr).accepted
    stored = []
    for line in (tmp_path / "log.jsonl").read_text().splitlines():
        doc = json.loads(line)
        stored += [row["sig"] for row in doc["rows"]] + [doc["secret"]["sig"]]
    checked = []
    real_verify_batch = musig.verify_batch

    def spy(suite, items):
        checked.extend(musig.sig_to_json(suite, sig) for sig, _, _ in items)
        return real_verify_batch(suite, items)

    def never(*args):
        raise AssertionError("a reader checked a signature")

    monkeypatch.setattr(musig, "verify_batch", spy)
    db = TenonDb(ctx.pp, root=tmp_path)
    assert sorted(map(canonical_json, checked)) == sorted(map(canonical_json, stored))

    monkeypatch.setattr(musig, "verify_batch", never)
    monkeypatch.setattr(musig, "verify", never)
    keys = ctx.entity(reader).keys
    with ctx.suite.measure() as span:
        report = workflow.retrieve_entry(ctx.pp, db, keys, first.entry_id)
    assert (report.levels_recovered, report.row_failures) == (levels, [])
    opened = {b for rec in report.recovered.values() if rec.kind == "chain" for b in rec.blocks}
    followed = [
        canonical_json(musig.sig_to_json(ctx.suite, row.sig)) for row in first.rows if row.block in opened
    ]
    assert followed and set(followed) <= set(map(canonical_json, checked))
    entry = db.read_secret(first.entry_id, "clinical")
    with ctx.suite.measure() as alone:
        mlabe.decrypt(ctx.pp, entry.ciphertext, keys)
    assert (span.exponentiations, span.pairings) == (alone.exponentiations, alone.pairings)
    assert span.pairings > 0


def _cosign_entry(ctx, entry_id, ref, triples, head):
    """Store a batch co-signed by patient and hospital under a new roster
    ``ref``: ``triples`` as its rows and entry ``entry_id``, which seals
    ``head`` at level 1."""
    from etenon import policy, tdb

    keys = [ctx.entity(name).signing for name in ("patient", "hospital")]
    pp_bytes, t = ctx.pp.encode(), 1_700_000_000
    rows = []
    for triple in triples:
        digest = tdb.row_digest(pp_bytes, triple, t)
        (sig,), roster = musig.cosign(ctx.suite, keys, [digest], ctx.rng)
        rows.append(tdb.OpenRow(triple.pointer, triple.block, triple.next, sig, ref, t))
    tree = policy.parse_policy("level 1 requires [1]\ntree: attr:basic")
    ct = mlabe.encrypt(ctx.pp, {1: encode_chain_payload(head)}, tree, ctx.rng)
    digest = tdb.entry_digest(pp_bytes, entry_id, "clinical", mlabe.ct_canonical_bytes(ct), t)
    (sig,), roster = musig.cosign(ctx.suite, keys, [digest], ctx.rng)
    secret = tdb.SecretEntry(entry_id, ct, sig, ref, "clinical", t)
    assert ctx.db.ingest(rows, secret, roster=roster, rng=ctx.rng).accepted


def _cosigned_cycle(ctx):
    """Store a co-signed two-row cycle A -> B -> A, with entry ``cycle``
    sealing A at level 1; returns (A, B)."""
    a, b = tenon.make_pointer(ctx.rng), tenon.make_pointer(ctx.rng)
    _cosign_entry(ctx, "cycle", "cycle", [tenon.Triple(a, "loop", b), tenon.Triple(b, "loop", a)], a)
    return a, b


def test_an_entry_reads_no_row_its_roster_did_not_sign():
    """A second agreement may sign a row whose ``next`` is the head of the
    first agreement's chain, but its entry's text ends at its own row:
    the row after it was signed under the other agreement's roster."""
    ctx = fresh_ctx(suite=EDIT_SUITE)
    tr = agree(ctx)
    assert ingest_transcript(ctx, tr).accepted
    by_pointer = {row.pointer: row for row in tr.rows}

    def text(pointer):
        return " ".join(row.block for row in tenon.follow(pointer, by_pointer.get)[0])

    (head,) = [p for p in by_pointer if text(p) == "Pain in the chest and a cough"]
    preface = tenon.make_pointer(ctx.rng)
    _cosign_entry(ctx, "e2", "other", [tenon.Triple(preface, "Forged preface:", head)], preface)

    report = phase_retrieval(ctx, "dr_grey", "e2")
    assert report.entry_sig_ok
    assert report.recovered[1].text == "Forged preface:"
    assert report.recovered[1].complete is False
    assert report.row_failures == ["row %s: roster %r is not its entry's" % (head, tr.roster_ref)]


def test_retrieve_entry_refuses_a_key_issued_under_other_parameters():
    """A reader key from a second setup is refused before the store is
    read or anything is paired, not read as a key that opens no level."""
    ctx = fresh_ctx()
    tr = agree(ctx)
    assert ingest_transcript(ctx, tr).accepted
    keys = fresh_ctx(seed=6).entity("dr_grey").keys
    with ctx.suite.measure() as span, pytest.raises(
        WorkflowError, match="^key bundle was issued under other public parameters$"
    ):
        workflow.retrieve_entry(ctx.pp, ctx.db, keys, tr.entry_id)
    assert span.pairings == span.exponentiations == 0


def test_retrieval_of_a_cosigned_cycle_raises():
    from etenon.errors import EtenonError

    ctx = fresh_ctx()
    _cosigned_cycle(ctx)
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
    # the summary's order digest is taken after the ingest's shuffle, and
    # the store reopens in that order
    pp = mlabe.pp_from_json(json.loads((tmp_path / "a" / "pp.json").read_text()))
    assert TenonDb(pp, root=tmp_path / "a").order_digest().hex() == a["order_digest"]


@pytest.mark.parametrize(
    "change, unknown",
    [
        ({"tamper": "block_edit"}, "['tamper']"),
        ({"retrieves": [{"du": "dr_grey"}], "acess_label": "clinical"},
         "['acess_label', 'retrieves']"),
    ],
    ids=["tamper", "misspelt"],
)
def test_scenario_refuses_unknown_keys(tmp_path, change, unknown):
    """A misspelt or retired key is refused by name before any step
    runs, rather than quietly ignored."""
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
        **change,
    }
    with pytest.raises(WorkflowError, match=r"^malformed scenario: unknown keys %s$" % re.escape(unknown)):
        run_scenario(doc, db_root=tmp_path)
    assert not tmp_path.joinpath("log.jsonl").exists()


NESTED_MISSPELLINGS = [
    ({"participants": dict(PARTICIPANTS, nurse_kim={"role": "DU", "atrs": ["basic"]})},
     "participant 'nurse_kim': unknown keys ['atrs']"),
    ({"retrieve": [{"du": "dr_grey"}, {"du": "dr_grey", "acess_label": "research"}]},
     "retrieve 1: unknown keys ['acess_label']"),
]


@pytest.mark.parametrize("change, unknown", NESTED_MISSPELLINGS, ids=["atrs", "acess_label"])
def test_scenario_refuses_unknown_keys_in_a_participant_or_a_retrieval(tmp_path, change, unknown):
    """A misspelt key inside a participant spec or a retrieval is refused
    by name too, before any step runs."""
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
        **change,
    }
    with pytest.raises(WorkflowError, match=r"^malformed scenario: %s$" % re.escape(unknown)):
        run_scenario(doc, db_root=tmp_path)
    assert not tmp_path.joinpath("log.jsonl").exists()

@pytest.mark.parametrize(
    "change, reason",
    [
        ({"sp": "nobody"}, "sp 'nobody' is not a participant"),
        ({"do": "nobody"}, "do 'nobody' is not a participant"),
        ({"do": "cta"}, "do 'cta' is not a participant"),
        ({"sp": "patient"}, "sp 'patient' has role DO, not SP"),
        ({"sp": "nurse_kim"}, "sp 'nurse_kim' has role DU, not SP"),
        ({"do": "dr_grey"}, "do 'dr_grey' has role DU, not DO"),
    ],
    ids=["unknown-sp", "unknown-do", "authority-as-do", "do-is-sp", "du-as-sp", "du-as-do"],
)
def test_scenario_refuses_parties_that_are_not_two_participants(
    tmp_path, monkeypatch, change, reason
):
    """The owner and the provider must be participants of roles DO and
    SP; otherwise the document is refused before setup, which draws the
    parameters and makes the store directory."""
    setups = []
    setup = mlabe.setup
    monkeypatch.setattr(mlabe, "setup", lambda *a: setups.append(a) or setup(*a))
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
        **change,
    }
    with pytest.raises(WorkflowError, match=r"^malformed scenario: %s$" % re.escape(reason)):
        run_scenario(doc, db_root=tmp_path / "db")
    assert setups == []
    assert not (tmp_path / "db").exists()


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"retrieve": [{"du": "dr_grey"}, {"du": "nobody"}]},
         "retrieve 1: 'nobody' is not a participant"),
        ({"participants": dict(PARTICIPANTS, clerk={"role": "DU", "attrs": None}),
          "retrieve": [{"du": "clerk"}]},
         "retrieve 0: 'clerk' has no decryption key"),
        ({"retrieve": [{"du": "dr_grey", "access_label": "clinical"}]},
         "retrieve 0: unknown keys ['access_label']"),
    ],
    ids=["unknown-du", "no-decryption-key", "other-label"],
)
def test_scenario_refuses_a_retrieval_that_cannot_run(tmp_path, change, reason):
    """A retrieval by someone who is not a participant or who holds no
    decryption key cannot run, and one that names a label, even the
    agreed one under which it reads, is refused; the document says so by
    itself, so it is refused before setup, which makes the store
    directory."""
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
        **change,
    }
    with pytest.raises(WorkflowError, match=r"^malformed scenario: %s$" % re.escape(reason)):
        run_scenario(doc, db_root=tmp_path / "db", keys_dir=tmp_path / "keys")
    assert not (tmp_path / "db").exists()


def test_scenario_refuses_a_record_the_terms_refuse_before_setup(tmp_path):
    """A record column that the level assignment leaves out is refused
    as a malformed document before setup, which makes the store
    directory and issues every key."""
    doc = {
        "suite": "mock",
        "seed": 11,
        "participants": PARTICIPANTS,
        "policy": POLICY,
        "record": RECORD + [{"name": "extra", "value": "x"}],
        "levels": {"1": ["symptom"], "2": ["history"]},
        "identifiable_level": 3,
        "do": "patient",
        "sp": "hospital",
    }
    reason = "columns ['extra'] are not assigned to any level"
    with pytest.raises(WorkflowError, match=r"^malformed scenario: %s$" % re.escape(reason)):
        run_scenario(doc, db_root=tmp_path / "db", keys_dir=tmp_path / "keys")
    assert list(tmp_path.iterdir()) == []


def test_scenario_refuses_an_unknown_role_before_setup(tmp_path, monkeypatch):
    """A participant's role must be one of the scheme's roles; another is
    refused as a malformed document before setup draws the parameters
    and makes the store directory."""
    setups = []
    setup = mlabe.setup
    monkeypatch.setattr(mlabe, "setup", lambda *a: setups.append(a) or setup(*a))
    doc = {
        "suite": "mock",
        "seed": 11,
        "participants": dict(PARTICIPANTS, x={"role": "WIZARD", "attrs": []}),
        "policy": POLICY,
        "record": RECORD,
        "levels": {"1": ["symptom"], "2": ["history"]},
        "identifiable_level": 3,
        "do": "patient",
        "sp": "hospital",
    }
    reason = "participant 'x': unknown role 'WIZARD'"
    with pytest.raises(WorkflowError, match=r"^malformed scenario: %s$" % re.escape(reason)):
        run_scenario(doc, db_root=tmp_path / "db", keys_dir=tmp_path / "keys")
    assert setups == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "spec, reason",
    [
        ({"role": "DU", "attrs": "basic"},
         "participant 'x': attributes must be a list, tuple or set of names, found str"),
        ({"role": "DU", "atrs": ["basic"]}, "participant 'x': unknown keys ['atrs']"),
        (["DU"], "participant 'x': expected dict, found list"),
        ({"role": "WIZARD", "attrs": []}, "participant 'x': unknown role 'WIZARD'"),
    ],
    ids=["attrs-text", "misspelt-key", "not-an-object", "unknown-role"],
)
def test_phase_setup_reads_a_participant_as_a_scenario_does(tmp_path, monkeypatch, spec, reason):
    """``phase_setup`` refuses what a scenario document refuses, with the
    same reason, before it draws the parameters or makes the store
    directory: a string is not read as the set of its letters, and a
    misspelt key does not make a party without attributes."""
    setups = []
    setup = mlabe.setup
    monkeypatch.setattr(mlabe, "setup", lambda *a: setups.append(a) or setup(*a))
    participants = dict(PARTICIPANTS, x=spec)
    with pytest.raises(EtenonError, match=r": %s$" % re.escape(reason)):
        phase_setup("mock", participants, rng=random.Random(1), db_root=tmp_path / "db")
    doc = {
        "suite": "mock",
        "seed": 11,
        "participants": participants,
        "policy": POLICY,
        "record": RECORD,
        "levels": {"1": ["symptom"], "2": ["history"]},
        "identifiable_level": 3,
        "do": "patient",
        "sp": "hospital",
    }
    with pytest.raises(WorkflowError, match=r"^malformed scenario: %s$" % re.escape(reason)):
        run_scenario(doc, db_root=tmp_path / "db")
    assert setups == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("insecure", [None, False], ids=["no-flag", "false"])
def test_a_seeded_scenario_on_bn256_must_be_asked_for(tmp_path, insecure):
    """A seed makes every key public, so a bn256 document that has one
    is refused before any step runs unless it holds
    ``"insecure_seed": true``."""
    doc = {
        "suite": "bn256",
        "seed": 11,
        "participants": PARTICIPANTS,
        "policy": POLICY,
        "record": RECORD,
        "levels": {"1": ["symptom"], "2": ["history"]},
        "identifiable_level": 3,
        "do": "patient",
        "sp": "hospital",
        **({} if insecure is None else {"insecure_seed": insecure}),
    }
    with pytest.raises(WorkflowError, match=r'^malformed scenario: .*"insecure_seed": true$'):
        run_scenario(doc, db_root=tmp_path / "db", keys_dir=tmp_path / "keys")
    assert list(tmp_path.iterdir()) == []


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
    run_scenario(doc, db_root=tmp_path / "db", keys_dir=tmp_path / "keys")
    assert (tmp_path / "db" / "pp.json").exists()
    names = {p.name for p in (tmp_path / "keys").iterdir()}
    assert names == {"patient.json", "hospital.json", "dr_grey.json", "nurse_kim.json"}
    doc2 = json.loads((tmp_path / "db" / "pp.json").read_text())
    pp = mlabe.pp_from_json(doc2)
    assert pp.suite.name == "mock-101"


@pytest.mark.parametrize("seed", [4, 5], ids=["same-seed", "other-seed"])
def test_scenario_refuses_a_store_that_exists(tmp_path, seed):
    """A run draws new public parameters, so a directory that already
    holds a store is refused before setup, whatever the seed, and every
    file in it is left as it was."""
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
    store = tmp_path / "db"
    assert run_scenario(doc, db_root=store)["ingest"]["accepted"]
    before = {p.name: p.read_bytes() for p in store.iterdir()}
    with pytest.raises(WorkflowError, match=r"^a store already exists at %s;" % re.escape(str(store))):
        run_scenario(dict(doc, seed=seed), db_root=store, keys_dir=tmp_path / "keys")
    assert {p.name: p.read_bytes() for p in store.iterdir()} == before
    assert not (tmp_path / "keys").exists()
