"""End-to-end protocol: setup, co-signed accumulation, retrieval.

A central authority runs setup and hands the master key to the
attribute authority, which issues key bundles.  A data owner
preprocesses a record into per-level pointer chains, seals the chain
heads (and the identifiable columns, under their own level) into one
ciphertext, and hands the package to the service provider.  The provider decrypts every level, reconstructs the
chains, compares them against its own copy of the record, and only on
an exact match do both parties co-sign every block and the ciphertext.
The signed batch then passes the store's verification gate.  A data
user later fetches the secret entry, checks its signature before any
decryption, recovers whichever levels its key satisfies and follows
the chains through the open table.

All randomness flows through one injected generator, so a seeded run
is reproducible byte for byte; the default sources are cryptographic.
"""

from __future__ import annotations

import enum
import json
import time

from dataclasses import dataclass

from . import mlabe, musig, policy, tdb, tenon
from .algebra import get_suite
from .codec import decoding, typed
from .errors import EtenonError
from .mlabe import KeyBundle, PublicParams
from .tdb import OpenRow, SecretEntry, TenonDb, block_payload, payload_to_triple
from .tenon import (
    ClassificationRules,
    Classification,
    EhrRecord,
    TenonStructure,
    load_stopwords,
)


class WorkflowError(EtenonError):
    """A protocol step could not run as configured."""


class Role(enum.Enum):
    CTA = "CTA"
    AA = "AA"
    DO = "DO"
    SP = "SP"
    TDB = "TDB"
    DU = "DU"


@dataclass
class Entity:
    role: Role
    name: str
    keys: KeyBundle | None = None


@dataclass
class SystemContext:
    suite: object
    pp: PublicParams
    authority_msk: object
    entities: dict[str, Entity]
    db: TenonDb
    rng: object
    rules: ClassificationRules
    stopwords: frozenset

    def entity(self, name: str) -> Entity:
        try:
            return self.entities[name]
        except KeyError:
            raise WorkflowError("unknown entity %r" % name) from None


def phase_setup(
    suite_name: str = "mock",
    participants=None,
    rng=None,
    db_root=None,
    rules: ClassificationRules | None = None,
    stopwords=None,
) -> SystemContext:
    """Run system setup and issue keys.

    ``participants`` maps entity names to ``{"role": ..., "attrs": [...]}``.
    An entry with ``"attrs": null`` gets a self-generated signing pair
    only (the trusted-provider arrangement); anyone else receives a full
    bundle from the attribute authority.  The central authority does not
    retain the master key after handing it over.
    """
    suite = get_suite(suite_name)
    pp, msk = mlabe.setup(suite, rng)
    entities = {
        "cta": Entity(role=Role.CTA, name="cta"),
        "aa": Entity(role=Role.AA, name="aa"),
        "tdb": Entity(role=Role.TDB, name="tdb"),
    }
    for name, spec in (participants or {}).items():
        if name in entities:
            raise WorkflowError("entity name %r is reserved" % name)
        try:
            role = Role[spec.get("role", "DU")]
        except KeyError:
            raise WorkflowError("unknown role %r" % spec.get("role")) from None
        attrs = spec.get("attrs")
        if attrs is None:
            sk = suite.rand_scalar_nonzero(rng)
            keys = KeyBundle(
                decryption=None, signing=sk, verification=suite.generator ** sk
            )
        else:
            keys = mlabe.keygen(pp, msk, attrs, rng)
        entities[name] = Entity(role=role, name=name, keys=keys)
    return SystemContext(
        suite=suite,
        pp=pp,
        authority_msk=msk,
        entities=entities,
        db=TenonDb(pp, root=db_root),
        rng=rng,
        rules=rules if rules is not None else ClassificationRules.shipped(),
        stopwords=stopwords if stopwords is not None else load_stopwords(),
    )


# ----------------------------------------------------------------------
# payload kinds inside sealed level masks

_KIND_CHAIN = 0x01
_KIND_IDENTIFIABLE = 0x02


def encode_chain_payload(head: tenon.Pointer) -> bytes:
    return bytes([_KIND_CHAIN]) + head.bytes


def encode_identifiable_payload(columns) -> bytes:
    doc = [{"name": c.name, "value": c.value} for c in columns]
    return bytes([_KIND_IDENTIFIABLE]) + json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode()


def decode_level_payload(raw: bytes):
    """Returns ("chain", Pointer) or ("identifiable", [column dicts])."""
    if not raw:
        raise WorkflowError("empty level payload")
    kind, body = raw[0], raw[1:]
    if kind == _KIND_CHAIN:
        if len(body) != 16:
            raise WorkflowError("chain payload is not a 128-bit pointer")
        return "chain", tenon.Pointer(bytes=body)
    if kind == _KIND_IDENTIFIABLE:
        with decoding(WorkflowError, "identifiable payload"):
            return "identifiable", json.loads(body.decode())
    raise WorkflowError("unknown level payload kind %d" % kind)


# ----------------------------------------------------------------------
# preprocessing

def preprocess_record(record: EhrRecord, rules, stopwords, level_columns, rng=None):
    """Classify, tokenize and chain a record per the level assignment.

    ``level_columns`` maps each chain level to the record's non-PII
    column names whose blocks it carries, in order.  Every non-PII
    column must be assigned exactly once.  Returns the per-level
    structures and the identifiable columns held back for sealing.
    """
    labelled = tenon.classify(record, rules)
    by_name = {c.name: c for c in labelled.columns}
    assigned = [name for names in level_columns.values() for name in names]
    if len(set(assigned)) != len(assigned):
        raise WorkflowError("a column is assigned to more than one level")
    for name in assigned:
        col = by_name.get(name)
        if col is None:
            raise WorkflowError("assignment names unknown column %r" % name)
        if col.label is Classification.IDENTIFIABLE:
            raise WorkflowError(
                "identifiable column %r cannot ride an open chain" % name
            )
    missing = [
        c.name
        for c in labelled.columns
        if c.label is Classification.NONPII and c.name not in set(assigned)
    ]
    if missing:
        raise WorkflowError("columns %s are not assigned to any level" % missing)

    structures: dict[int, TenonStructure] = {}
    for level, names in level_columns.items():
        blocks: list[str] = []
        for name in names:
            blocks.extend(tenon.column_blocks(by_name[name], stopwords))
        if not blocks:
            raise WorkflowError("level %d has no blocks" % level)
        structures[level] = tenon.build_structure(blocks, rng)
    return structures, labelled.identifiable()


# ----------------------------------------------------------------------
# the co-signing agreement


class Tamper(enum.Enum):
    """Adversarial edits applied to the package in transit (tests)."""

    BLOCK_EDIT = "block_edit"
    CHAIN_REORDER = "chain_reorder"
    CIPHERTEXT_SWAP = "ciphertext_swap"


@dataclass
class AgreementPackage:
    structures: dict[int, TenonStructure]
    ciphertext: mlabe.CiphertextBundle
    level_columns: dict[int, tuple[str, ...]]
    identifiable_level: int | None
    timestamp: int


@dataclass
class AgreementTranscript:
    """Ordered record of the five agreement steps and their outcome."""

    steps: list[str]
    verdict: str
    entry_id: str | None = None
    roster_ref: str | None = None
    rosters: dict | None = None
    rows: tuple[OpenRow, ...] | None = None
    secret: SecretEntry | None = None
    signature_count: int = 0

    @property
    def agreed(self) -> bool:
        return self.verdict == "identical"


def _apply_tamper(package: AgreementPackage, tamper: Tamper, ctx) -> None:
    if tamper is Tamper.BLOCK_EDIT:
        level = min(package.structures)
        st = package.structures[level]
        triples = list(st.triples)
        t = triples[0]
        triples[0] = tenon.Triple(t.pointer, t.block + " tampered", t.next)
        package.structures[level] = TenonStructure(head=st.head, triples=tuple(triples))
    elif tamper is Tamper.CHAIN_REORDER:
        level = None
        for lvl, st in sorted(package.structures.items()):
            if len(st.triples) >= 2:
                level = lvl
                break
        if level is None:
            raise WorkflowError("no chain long enough to reorder")
        st = package.structures[level]
        ordered = list(st.chain_order())
        a, b = ordered[0], ordered[1]
        swapped = {a.pointer: b.block, b.pointer: a.block}
        triples = tuple(
            tenon.Triple(t.pointer, swapped.get(t.pointer, t.block), t.next)
            for t in st.triples
        )
        package.structures[level] = TenonStructure(head=st.head, triples=triples)
    elif tamper is Tamper.CIPHERTEXT_SWAP:
        bogus = {}
        for level in package.ciphertext.tree.levels:
            if (
                package.identifiable_level is not None
                and level == package.identifiable_level
            ):
                bogus[level] = encode_identifiable_payload(())
            else:
                bogus[level] = encode_chain_payload(tenon.make_pointer(ctx.rng))
        package.ciphertext = mlabe.encrypt(
            ctx.pp, bogus, package.ciphertext.tree, ctx.rng
        )
    else:
        raise WorkflowError("unknown tamper %r" % tamper)


def run_agreement(
    ctx: SystemContext,
    do_name: str,
    sp_name: str,
    record: EhrRecord,
    policy_text: str,
    level_columns,
    identifiable_level: int | None = None,
    access_label: str = "clinical",
    timestamp: int | None = None,
    tamper: Tamper | None = None,
) -> AgreementTranscript:
    """Drive the five-step mutual agreement between owner and provider.

    Both parties hold the raw record.  On an exact reconstruction match
    they co-sign every block and the ciphertext; on any mismatch the
    provider refuses and nothing is signed at all.
    """
    do = ctx.entity(do_name)
    sp = ctx.entity(sp_name)
    if do.keys is None or sp.keys is None:
        raise WorkflowError("both agreement parties need signing keys")
    if sp.keys.decryption is None:
        raise WorkflowError("the provider needs a decryption key to verify")
    if timestamp is None:
        timestamp = int(time.time())
    with decoding(WorkflowError, "level columns"):
        # an int level as it is (not a bool), a JSON key only in canonical decimal
        level_columns = {
            l if type(l) is int else policy.level_from_key(l): tuple(names)
            for l, names in level_columns.items()
        }
    steps: list[str] = []

    # step 1: the owner preprocesses and encrypts
    tree = policy.parse_policy(policy_text)
    chain_levels = set(level_columns)
    declared = set(tree.levels)
    expect_levels = set(chain_levels)
    if identifiable_level is not None:
        if identifiable_level in chain_levels:
            raise WorkflowError("the identifiable level cannot also carry a chain")
        expect_levels.add(identifiable_level)
    if expect_levels != declared:
        raise WorkflowError(
            "policy declares levels %s but the assignment covers %s"
            % (sorted(declared), sorted(expect_levels))
        )
    structures, identifiable_cols = preprocess_record(
        record, ctx.rules, ctx.stopwords, level_columns, ctx.rng
    )
    if identifiable_cols and identifiable_level is None:
        raise WorkflowError(
            "record has identifiable columns but no level was set aside for them"
        )
    payloads = {
        level: encode_chain_payload(st.head) for level, st in structures.items()
    }
    if identifiable_level is not None:
        payloads[identifiable_level] = encode_identifiable_payload(identifiable_cols)
    ciphertext = mlabe.encrypt(ctx.pp, payloads, tree, ctx.rng)
    steps.append(
        "owner: %d chain levels, %d blocks, %d identifiable columns sealed"
        % (
            len(structures),
            sum(len(st.triples) for st in structures.values()),
            len(identifiable_cols),
        )
    )

    # step 2: package crosses the channel (where tampering can strike)
    package = AgreementPackage(
        structures=dict(structures),
        ciphertext=ciphertext,
        level_columns=level_columns,
        identifiable_level=identifiable_level,
        timestamp=timestamp,
    )
    if tamper is not None:
        _apply_tamper(package, tamper, ctx)
        steps.append("channel: package altered in transit (%s)" % tamper.value)
    steps.append("provider: package received")

    # step 3: the provider decrypts every level and reconstructs
    recovered = mlabe.decrypt(ctx.pp, package.ciphertext, sp.keys.decryption)
    if set(recovered) != set(package.ciphertext.tree.levels):
        missing = sorted(set(package.ciphertext.tree.levels) - set(recovered))
        raise WorkflowError(
            "provider's key cannot open levels %s, cannot vouch for the record"
            % missing
        )
    all_triples = [t for st in package.structures.values() for t in st.triples]
    reconstructions: dict[int, tuple[list[str], bool]] = {}
    sealed_identifiable = None
    for level, raw in recovered.items():
        kind, value = decode_level_payload(raw)
        if kind == "chain":
            reconstructions[level] = tenon.reconstruct(value, all_triples)
        else:
            sealed_identifiable = value
    steps.append("provider: decrypted %d levels" % len(recovered))

    # step 4: compare against the provider's own copy
    own = tenon.classify(record, ctx.rules)
    mismatch = None
    for level in sorted(package.level_columns):
        if level not in reconstructions:
            mismatch = "level %d yielded no chain" % level
            break
        blocks, complete = reconstructions[level]
        if not complete:
            mismatch = "level %d chain is broken" % level
            break
        want = " ".join(
            block
            for name in package.level_columns[level]
            for block in tenon.column_blocks(own.column(name), ctx.stopwords)
        )
        if " ".join(blocks) != want:
            mismatch = "level %d text differs from the provider's copy" % level
            break
    if mismatch is None and identifiable_level is not None:
        want_cols = [{"name": c.name, "value": c.value} for c in own.identifiable()]
        if sealed_identifiable != want_cols:
            mismatch = "identifiable columns differ from the provider's copy"

    if mismatch is not None:
        steps.append("provider: comparison failed (%s); refusing to sign" % mismatch)
        return AgreementTranscript(steps=steps, verdict="mismatch: " + mismatch)
    steps.append("provider: reconstruction matches its copy")

    # step 5: both parties co-sign every block and the ciphertext
    pp_bytes = ctx.pp.encode()
    entry_id = tenon.make_pointer(ctx.rng).hex
    roster_ref = "agreement-" + entry_id
    keys = [do.keys.signing, sp.keys.signing]
    rows = []
    for level in sorted(package.structures):
        for t in package.structures[level].chain_order():
            payload = block_payload(t.block, t.next)
            digest = tdb.row_digest(pp_bytes, t.pointer, payload, timestamp)
            sig, roster = musig.cosign(ctx.suite, keys, digest, ctx.rng)
            rows.append(
                OpenRow(
                    pointer=t.pointer,
                    block=payload,
                    sig=sig,
                    roster_ref=roster_ref,
                    timestamp=timestamp,
                )
            )
    ct_bytes = mlabe.ct_canonical_bytes(package.ciphertext)
    ct_digest = tdb.entry_digest(pp_bytes, ct_bytes, timestamp)
    entry_sig, roster = musig.cosign(ctx.suite, keys, ct_digest, ctx.rng)
    secret = SecretEntry(
        entry_id=entry_id,
        ciphertext=package.ciphertext,
        sig=entry_sig,
        roster_ref=roster_ref,
        access_label=access_label,
        timestamp=timestamp,
        ct_bytes=ct_bytes,
    )
    steps.append(
        "signed: %d block signatures plus the ciphertext signature" % len(rows)
    )
    return AgreementTranscript(
        steps=steps,
        verdict="identical",
        entry_id=entry_id,
        roster_ref=roster_ref,
        rosters={roster_ref: roster},
        rows=tuple(rows),
        secret=secret,
        signature_count=len(rows) + 1,
    )


def ingest_transcript(ctx: SystemContext, transcript: AgreementTranscript):
    """Submit an agreed batch to the store's verification gate."""
    if not transcript.agreed:
        raise WorkflowError("nothing to ingest: the agreement was refused")
    return ctx.db.ingest(
        transcript.rows,
        transcript.secret,
        rosters=transcript.rosters,
        rng=ctx.rng,
    )


# ----------------------------------------------------------------------
# retrieval


@dataclass
class LevelRecovery:
    kind: str
    blocks: list[str] | None = None
    complete: bool | None = None
    identifiable: list | None = None

    @property
    def text(self) -> str | None:
        return None if self.blocks is None else " ".join(self.blocks)


@dataclass
class RetrievalReport:
    entry_id: str
    entry_sig_ok: bool
    levels_in_ciphertext: int
    recovered: dict[int, LevelRecovery]
    row_failures: list[str]

    @property
    def levels_recovered(self) -> int:
        return len(self.recovered)


def phase_retrieval(
    ctx: SystemContext, du_name: str, entry_id: str, access_label: str = "clinical"
) -> RetrievalReport:
    """Fetch, verify, decrypt and reconstruct as one data user."""
    du = ctx.entity(du_name)
    if du.keys is None or du.keys.decryption is None:
        raise WorkflowError("entity %r has no decryption key" % du_name)
    return retrieve_entry(ctx.pp, ctx.db, du.keys, entry_id, access_label)


def retrieve_entry(
    pp: PublicParams,
    db: TenonDb,
    keys: KeyBundle,
    entry_id: str,
    access_label: str = "clinical",
) -> RetrievalReport:
    """The retrieval procedure itself, independent of any entity roster."""
    suite = pp.suite
    entry = db.read_secret(entry_id, access_label)
    roster = db.roster(entry.roster_ref)
    pp_bytes = pp.encode()
    if not tdb.verify_entry(suite, pp_bytes, entry, roster):
        # never decrypt material whose provenance fails
        return RetrievalReport(
            entry_id=entry_id,
            entry_sig_ok=False,
            levels_in_ciphertext=len(entry.ciphertext.levels),
            recovered={},
            row_failures=[],
        )
    payloads = mlabe.decrypt(pp, entry.ciphertext, keys.decryption)

    failures: list[str] = []
    verified: dict[tenon.Pointer, tenon.Triple] = {}

    def triple_for(pointer):
        """The row's triple, verified on first use; None if unusable."""
        if pointer in verified:
            return verified[pointer]
        row = db.find_row(pointer)
        if row is None:
            return None
        try:
            roster_r = db.roster(row.roster_ref)
        except EtenonError:
            failures.append("row %s: unknown roster" % pointer)
            return None
        if not tdb.verify_row(suite, pp_bytes, row, roster_r):
            failures.append("row %s: signature invalid" % pointer)
            return None
        t = payload_to_triple(row)
        verified[pointer] = t
        return t

    recovered: dict[int, LevelRecovery] = {}
    for level, raw in sorted(payloads.items()):
        kind, value = decode_level_payload(raw)
        if kind == "identifiable":
            recovered[level] = LevelRecovery(kind=kind, identifiable=value)
            continue
        chain, complete = tenon.follow(value, triple_for)
        recovered[level] = LevelRecovery(
            kind=kind, blocks=[t.block for t in chain], complete=complete
        )
    return RetrievalReport(
        entry_id=entry_id,
        entry_sig_ok=True,
        levels_in_ciphertext=len(entry.ciphertext.levels),
        recovered=recovered,
        row_failures=failures,
    )


def report_to_json(report: RetrievalReport) -> dict:
    return {
        "entry_id": report.entry_id,
        "entry_sig_ok": report.entry_sig_ok,
        "levels_in_ciphertext": report.levels_in_ciphertext,
        "levels_recovered": report.levels_recovered,
        "row_failures": list(report.row_failures),
        "levels": {
            str(level): {
                "kind": rec.kind,
                "text": rec.text,
                "complete": rec.complete,
                "identifiable": rec.identifiable,
            }
            for level, rec in sorted(report.recovered.items())
        },
    }


# ----------------------------------------------------------------------
# scenarios


def _emit_context(ctx: SystemContext, emit_dir) -> None:
    from pathlib import Path

    root = Path(emit_dir)
    keys_dir = root / "keys"
    keys_dir.mkdir(parents=True, exist_ok=True)
    with open(root / "pp.json", "w", encoding="utf-8") as fh:
        json.dump(mlabe.pp_to_json(ctx.pp), fh, indent=2, sort_keys=True)
    for name, entity in ctx.entities.items():
        if entity.keys is None or entity.keys.decryption is None:
            continue
        with open(keys_dir / (name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(
                mlabe.key_to_json(ctx.suite, entity.keys), fh, indent=2, sort_keys=True
            )


def run_scenario(doc: dict, db_root=None, emit_dir=None) -> dict:
    """Drive a whole configured run; returns a JSON-able summary.

    The document names the suite, seed, participants, policy, record,
    level assignment, optional tampering and the retrievals to attempt;
    all of it is checked before any step runs, and a malformed document
    raises :class:`WorkflowError`.  A fixed seed makes the entire run,
    store layout included, deterministic.  With ``emit_dir`` the public
    parameters and every participant's key bundle are written there as
    JSON, so the command-line tools can work the resulting store
    afterwards.
    """
    import random as _random

    def optional(key, kind):
        value = doc.get(key)
        return None if value is None else typed(value, kind)

    def strings(value) -> list[str]:
        return [typed(v, str) for v in typed(value, list)]

    with decoding(WorkflowError, "scenario"):
        doc = typed(doc, dict)
        suite_name = typed(doc.get("suite", "mock"), str)
        seed = optional("seed", int)
        participants = {
            name: {
                "role": typed(typed(spec, dict).get("role", "DU"), str),
                "attrs": None if spec.get("attrs") is None else strings(spec["attrs"]),
            }
            for name, spec in typed(doc.get("participants", {}), dict).items()
        }
        tamper = optional("tamper", str)
        timestamp = doc.get("timestamp")
        access_label = typed(doc.get("access_label", "clinical"), str)
        agreement = dict(
            do_name=typed(doc["do"], str),
            sp_name=typed(doc["sp"], str),
            record=tenon.record_from_json(doc["record"]),
            policy_text=typed(doc["policy"], str),
            level_columns={
                policy.level_from_key(level): strings(names)
                for level, names in typed(doc["levels"], dict).items()
            },
            identifiable_level=optional("identifiable_level", int),
            access_label=access_label,
            timestamp=None if timestamp is None else tdb.timestamp_from_json(timestamp),
            tamper=None if tamper is None else Tamper(tamper),
        )
        retrievals = []
        for req in typed(doc.get("retrieve", []), list):
            label = typed(typed(req, dict).get("access_label", access_label), str)
            retrievals.append((typed(req["du"], str), label))

    rng = _random.Random(seed) if seed is not None else None
    ctx = phase_setup(suite_name, participants, rng=rng, db_root=db_root)
    if emit_dir is not None:
        _emit_context(ctx, emit_dir)
    transcript = run_agreement(ctx, **agreement)
    out = {
        "suite": ctx.suite.name,
        "agreement": {
            "verdict": transcript.verdict,
            "steps": transcript.steps,
            "signatures": transcript.signature_count,
            "entry_id": transcript.entry_id,
        },
        "ingest": None,
        "retrievals": [],
    }
    if transcript.agreed:
        result = ingest_transcript(ctx, transcript)
        out["ingest"] = {"accepted": result.accepted, "reason": result.reason}
        out["order_digest"] = ctx.db.order_digest().hex()
        for du_name, label in retrievals:
            report = phase_retrieval(ctx, du_name, transcript.entry_id, access_label=label)
            entry = report_to_json(report)
            entry["du"] = du_name
            out["retrievals"].append(entry)
    return out
