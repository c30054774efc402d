"""End-to-end protocol: setup, co-signed accumulation, retrieval.

Setup draws the public parameters and the master key, issues every
reader its decryption key, gives each owner and provider a signing key
of its own and keeps no master key.  Owner and provider
first agree the terms (:func:`agree_terms`): the policy, the level
assignment, the access label and the timestamp.  The agreement then
runs as two halves, and both read a record through one function,
:func:`preprocess_record`, into each chain level's blocks and the
identifiable columns.  In :func:`owner_package` the data owner chains
each level's blocks under fresh pointers, draws the sharing's random
coefficients, seals the chain heads (and the identifiable columns,
under their own level) into one ciphertext with :func:`seal_levels`,
and packs what the service provider needs: the ciphertext, the chain
elements to be signed, the chain heads and the coefficients.  In
:func:`cosign_package` the provider, which sees only that package, the
terms and its own copy of the record, reads its copy as the owner read
the record, and refuses with the owner's text a copy the owner's half
would refuse.  It checks by re-encryption, not decryption: it re-seals
its own copy with the same :func:`seal_levels` call, which derives
every share from the coefficients, and accepts the ciphertext only if
the two are equal byte for byte; it then walks each chain from its head
through the elements, as a reader will walk the open table, and
compares it with its own copy's blocks.  Only on an exact match do
both parties co-sign every row and the ciphertext.  :func:`run_agreement`
hands the one half's package straight to the other.  The coefficients
give every level key, so the package must travel over a confidential
owner-to-provider channel; it never reaches a transcript or the store.
The signed batch then passes the store's verification gate.  A data
user later fetches the secret entry, which the store verified when it
admitted it, recovers whichever levels its key satisfies and follows
the chains through the open table.

All randomness flows through one injected generator, so a seeded run
is reproducible byte for byte; the default sources are cryptographic.
"""

from __future__ import annotations

import enum
import json
import time

from dataclasses import dataclass
from pathlib import Path

from . import mlabe, musig, policy, tdb, tenon
from .algebra import get_suite, is_mock
from .codec import canonical_json, decoding, known, typed, write_json
from .errors import EtenonError
from .mlabe import DecryptionKey, PublicParams
from .tdb import OpenRow, SecretEntry, TenonDb
from .tenon import EhrRecord, load_stopwords


class WorkflowError(EtenonError):
    """A protocol step could not run as configured."""


class Role(enum.Enum):
    DO = "DO"
    SP = "SP"
    DU = "DU"


@dataclass
class Entity:
    """A role, the key of its attributes and, for DO and SP, a signing scalar."""

    role: Role
    keys: DecryptionKey | None
    signing: int | None


@dataclass
class SystemContext:
    suite: object
    pp: PublicParams
    entities: dict[str, Entity]
    db: TenonDb
    rng: object

    def entity(self, name: str) -> Entity:
        try:
            return self.entities[name]
        except KeyError:
            raise WorkflowError("unknown entity %r" % name) from None


PARTICIPANT_KEYS = frozenset(("role", "attrs"))


def read_participants(specs) -> dict[str, tuple[Role, frozenset[str] | None]]:
    """Each participant's role and attribute set (None for no
    decryption key): the one reader of a participant spec.

    A spec is ``{"role": ..., "attrs": [...]}``, the role ``DO``, ``SP``
    or ``DU`` (the default) and the attributes null or what
    :func:`mlabe.attribute_set` accepts.  Anything else raises
    ``ValueError`` naming the participant, for the caller's
    :func:`decoding` guard to report.
    """
    parties = {}
    for name, spec in typed(specs, dict).items():
        try:
            role = typed(known(spec, PARTICIPANT_KEYS).get("role", "DU"), str)
            if role not in Role.__members__:
                raise ValueError("unknown role %r" % role)
            attrs = spec.get("attrs")
            parties[name] = (Role[role], None if attrs is None else mlabe.attribute_set(attrs))
        except (EtenonError, TypeError, ValueError) as exc:
            raise ValueError("participant %r: %s" % (name, exc)) from None
    return parties


def phase_setup(
    suite_name: str,
    participants=None,
    rng=None,
    db_root=None,
) -> SystemContext:
    """Run system setup and issue keys; the context holds exactly the
    participants.

    ``participants`` is read by :func:`read_participants` before the
    suite is looked up, anything is drawn or the store directory is made,
    so a spec that a scenario document would refuse raises
    :class:`WorkflowError` with the same reason.  A participant whose
    attributes are null gets no decryption key, which a provider does
    not need, since it checks by re-encryption; owners and providers
    alone then draw a signing scalar.  The master key is not kept.  With
    ``db_root`` the context's store persists there, and setup makes that
    directory if it is missing.
    """
    with decoding(WorkflowError, "participants"):
        parties = read_participants({} if participants is None else participants)
    suite = get_suite(suite_name)
    pp, msk = mlabe.setup(suite, rng)
    entities = {}
    for name, (role, attrs) in parties.items():
        keys = None if attrs is None else mlabe.keygen(pp, msk, attrs, rng)
        signing = musig.keypair(suite, rng)[0] if role in (Role.DO, Role.SP) else None
        entities[name] = Entity(role=role, keys=keys, signing=signing)
    if db_root is not None:
        Path(db_root).mkdir(parents=True, exist_ok=True)
    return SystemContext(
        suite=suite,
        pp=pp,
        entities=entities,
        db=TenonDb(pp, root=db_root),
        rng=rng,
    )


# ----------------------------------------------------------------------
# payload kinds inside sealed level masks

_KIND_CHAIN = 0x01
_KIND_IDENTIFIABLE = 0x02


def encode_chain_payload(head: tenon.Pointer) -> bytes:
    return bytes([_KIND_CHAIN]) + head.bytes


def encode_identifiable_payload(columns) -> bytes:
    return bytes([_KIND_IDENTIFIABLE]) + canonical_json(tenon.columns_to_json(columns))


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


@dataclass
class LevelRecovery:
    kind: str
    blocks: list[str] | None = None
    complete: bool | None = None
    identifiable: list | None = None

    @property
    def text(self) -> str | None:
        return None if self.blocks is None else " ".join(self.blocks)


# ----------------------------------------------------------------------
# the co-signing agreement


@dataclass(frozen=True)
class AgreementTerms:
    """What owner and provider agree before step 1: the policy, the
    columns each chain level carries, the level set aside for the
    identifiable columns and the entry's access label and timestamp.
    Build it with :func:`agree_terms`, which checks it once for both."""

    tree: policy.AccessTree
    level_columns: dict[int, tuple[str, ...]]
    identifiable_level: int | None
    access_label: str
    timestamp: int


def agree_terms(
    policy_text: str,
    level_columns,
    identifiable_level: int | None = None,
    access_label: str = "clinical",
    timestamp: int | None = None,
) -> AgreementTerms:
    """The agreed terms, refused before anything is encrypted when the
    store's log could not carry them as they are, or when they do not
    fit together whatever the record: a column assigned twice, an
    identifiable level that also carries a chain, levels that do not
    cover the policy's, or a chain level with no columns.  The
    assignment is a dict from each level, an int as it is (not a bool)
    or a JSON key in canonical decimal, named once, to a list or tuple
    of column names; the timestamp defaults to now; a bad policy raises
    its own ``PolicyError``."""
    if timestamp is None:
        timestamp = int(time.time())
    with decoding(WorkflowError, "timestamp"):
        tdb.timestamp_from_json(timestamp)
    with decoding(WorkflowError, "access label"):
        typed(access_label, str)
    with decoding(WorkflowError, "identifiable level"):
        if identifiable_level is not None:
            typed(identifiable_level, int)
    with decoding(WorkflowError, "level columns"):
        assignment, level_columns = typed(level_columns, dict), {}
        for key, names in assignment.items():
            level = key if type(key) is int else policy.level_from_key(key)
            if level in level_columns:
                raise ValueError("level %d is named twice" % level)
            if not isinstance(names, (list, tuple)):
                raise TypeError("level %d: expected a list of column names, found %s"
                                % (level, type(names).__name__))
            level_columns[level] = tuple(typed(name, str) for name in names)
    assigned = [name for names in level_columns.values() for name in names]
    if len(set(assigned)) != len(assigned):
        raise WorkflowError("a column is assigned to more than one level")
    levels = set(level_columns)
    if identifiable_level is not None:
        if identifiable_level in levels:
            raise WorkflowError("the identifiable level cannot also carry a chain")
        levels.add(identifiable_level)
    tree = policy.parse_policy(policy_text)
    if levels != set(tree.levels):
        raise WorkflowError(
            "policy declares levels %s but the assignment covers %s"
            % (sorted(tree.levels), sorted(levels))
        )
    for level, names in sorted(level_columns.items()):
        if not names:
            raise WorkflowError("level %d carries no columns" % level)
    return AgreementTerms(tree, level_columns, identifiable_level, access_label, timestamp)


def preprocess_record(record: EhrRecord, terms: AgreementTerms):
    """Read a record under the agreed terms, as both halves of the
    agreement do: the owner on the record it packs, the provider on its
    own copy.  A column's name alone decides whether it is identifiable
    (:func:`tenon.classify`) and whether it is kept as one block
    (:func:`tenon.column_blocks`); identifiable wins, so ``zip_code`` is
    sealed although ``*_code`` is atomic.  Other text is split into
    blocks around the shipped stopwords.

    Every non-PII column must be assigned to exactly one chain level, no
    identifiable column may ride a chain, and identifiable columns need
    the identifiable level.  Returns each chain level's blocks, its
    columns' blocks in column order, and the identifiable columns held
    back for sealing; a record that does not fit the terms raises
    :class:`WorkflowError`.
    """
    identifiable = tenon.classify(record)
    sealed = {c.name for c in identifiable}
    by_name = {c.name: c for c in record.columns}
    assigned = [name for names in terms.level_columns.values() for name in names]
    for name in assigned:
        if name not in by_name:
            raise WorkflowError("assignment names unknown column %r" % name)
        if name in sealed:
            raise WorkflowError("identifiable column %r cannot ride an open chain" % name)
    missing = [name for name in by_name if name not in sealed and name not in assigned]
    if missing:
        raise WorkflowError("columns %s are not assigned to any level" % missing)
    if identifiable and terms.identifiable_level is None:
        raise WorkflowError(
            "record has identifiable columns but no level was set aside for them"
        )
    stopwords = load_stopwords()
    blocks = {
        level: [b for name in names for b in tenon.column_blocks(by_name[name], stopwords)]
        for level, names in sorted(terms.level_columns.items())
    }
    return blocks, identifiable


def seal_levels(
    ctx: SystemContext, terms: AgreementTerms, heads, identifiable, coefficients
) -> mlabe.CiphertextBundle:
    """Seal each chain level's head, and the identifiable columns under
    their own level, into one ciphertext under the agreed policy, every
    share derived from ``coefficients``: the owner's seal and the
    provider's re-seal are this one call."""
    payloads = {level: encode_chain_payload(head) for level, head in heads.items()}
    if terms.identifiable_level is not None:
        payloads[terms.identifiable_level] = encode_identifiable_payload(identifiable)
    return mlabe.encrypt(ctx.pp, payloads, terms.tree, coefficients=coefficients)


@dataclass
class AgreementPackage:
    """What the owner hands the provider.

    ``coefficients`` and ``heads`` let the provider re-seal its own
    copy; the coefficients give every level key, so the package travels
    only over a confidential owner-to-provider channel and never
    reaches a transcript or the store.
    """

    rows: dict[tenon.Pointer, tenon.Triple]  # chain elements to sign, chain order per level
    ciphertext: mlabe.CiphertextBundle
    coefficients: dict[policy.NodePath, tuple[int, ...]]
    heads: dict[int, tenon.Pointer]


@dataclass
class AgreementTranscript:
    """The provider's record of the agreement steps and their outcome."""

    steps: list[str]
    verdict: str
    entry_id: str | None = None
    roster_ref: str | None = None
    roster: tuple | None = None
    rows: tuple[OpenRow, ...] | None = None
    secret: SecretEntry | None = None
    signature_count: int = 0

    @property
    def agreed(self) -> bool:
        return self.verdict == "identical"


def owner_package(
    ctx: SystemContext, record: EhrRecord, terms: AgreementTerms
) -> AgreementPackage:
    """Step 1: the owner reads the record with :func:`preprocess_record`,
    chains each level's blocks, draws the sharing's coefficients, seals
    the heads and the identifiable columns under the agreed policy with
    :func:`seal_levels`, and packs what the provider needs to check
    them."""
    blocks, identifiable = preprocess_record(record, terms)
    structures = {level: tenon.build_structure(b, ctx.rng) for level, b in blocks.items()}
    heads = {level: st.head for level, st in structures.items()}
    coefficients = policy.draw_coefficients(terms.tree, ctx.suite.order, ctx.rng)
    return AgreementPackage(
        rows={t.pointer: t for st in structures.values() for t in st.triples},
        ciphertext=seal_levels(ctx, terms, heads, identifiable, coefficients),
        coefficients=coefficients,
        heads=heads,
    )


def cosign_package(
    ctx: SystemContext,
    do_name: str,
    sp_name: str,
    record: EhrRecord,
    terms: AgreementTerms,
    package: AgreementPackage,
) -> AgreementTranscript:
    """Steps 3 to 5: the provider checks the package against its own
    copy of the record and the agreed terms, and on an exact match both
    parties co-sign every row and the ciphertext.  It re-seals its copy
    with :func:`seal_levels` under the handed heads and coefficients, so
    it derives every share itself.  On any mismatch the provider
    refuses and nothing is signed at all; a copy that
    :func:`preprocess_record` refuses is refused with its text.  An
    owner whose role is not DO, or a provider whose role is not SP,
    raises :class:`WorkflowError` before any check."""
    do = ctx.entity(do_name)
    sp = ctx.entity(sp_name)
    for name, entity, role in ((do_name, do, Role.DO), (sp_name, sp, Role.SP)):
        if entity.role is not role:
            raise WorkflowError("%r has role %s, not %s" % (name, entity.role.value, role.value))
    steps = [
        "provider: received %d chain heads, %d rows and the ciphertext"
        % (len(package.heads), len(package.rows))
    ]

    def refuse(mismatch):
        steps.append("provider: comparison failed (%s); refusing to sign" % mismatch)
        return AgreementTranscript(steps=steps, verdict="mismatch: " + mismatch)

    # step 3: the provider reads its own copy under the terms and
    # re-seals it as the owner sealed
    try:
        own_blocks, own_identifiable = preprocess_record(record, terms)
        own_ct = seal_levels(ctx, terms, package.heads, own_identifiable, package.coefficients)
    except (WorkflowError, policy.PolicyError, mlabe.MlabeError) as e:
        return refuse(str(e))
    ct_bytes = mlabe.ct_canonical_bytes(package.ciphertext)
    if ct_bytes != mlabe.ct_canonical_bytes(own_ct):
        return refuse("the ciphertext differs from the provider's re-encryption")
    steps.append("provider: ciphertext equals its re-encryption")

    # step 4: walk each chain through the rows it will sign and compare
    # with the provider's own copy
    unreached = set(package.rows)

    def row_triple(pointer):
        unreached.discard(pointer)
        return package.rows.get(pointer)

    for level, blocks in own_blocks.items():
        try:
            chain, complete = tenon.follow(package.heads.get(level), row_triple)
        except tenon.TenonError as e:
            return refuse(str(e))
        if not complete or [t.block for t in chain] != blocks:
            return refuse("level %d differs from the provider's copy" % level)
    if unreached:
        return refuse("row %s lies on no chain" % min(unreached))
    steps.append("provider: every chain matches its copy")

    # step 5: both parties co-sign every block and the ciphertext
    pp_bytes = ctx.pp.encode()
    entry_id = tenon.make_pointer(ctx.rng).hex
    roster_ref = "agreement-" + entry_id
    keys = [do.signing, sp.signing]
    timestamp = terms.timestamp
    # each row signed under the pointer the walk reached it by, then the
    # ciphertext, all under one roster
    triples = [tenon.Triple(pointer, t.block, t.next) for pointer, t in package.rows.items()]
    digests = [tdb.row_digest(pp_bytes, t, timestamp) for t in triples]
    digests.append(tdb.entry_digest(pp_bytes, entry_id, terms.access_label, ct_bytes, timestamp))
    (*sigs, entry_sig), roster = musig.cosign(ctx.suite, keys, digests, ctx.rng)
    rows = [
        OpenRow(t.pointer, t.block, t.next, sig, roster_ref, timestamp)
        for t, sig in zip(triples, sigs)
    ]
    secret = SecretEntry(
        entry_id=entry_id,
        ciphertext=package.ciphertext,
        sig=entry_sig,
        roster_ref=roster_ref,
        access_label=terms.access_label,
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
        roster=roster,
        rows=tuple(rows),
        secret=secret,
        signature_count=len(rows) + 1,
    )


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
) -> AgreementTranscript:
    """The whole agreement between owner and provider, who both hold
    the raw record: the owner's package, handed straight to the
    provider's check."""
    terms = agree_terms(policy_text, level_columns, identifiable_level, access_label, timestamp)
    package = owner_package(ctx, record, terms)
    return cosign_package(ctx, do_name, sp_name, record, terms, package)


def ingest_transcript(ctx: SystemContext, transcript: AgreementTranscript):
    """Submit an agreed batch to the store's verification gate."""
    if not transcript.agreed:
        raise WorkflowError("nothing to ingest: the agreement was refused")
    return ctx.db.ingest(
        transcript.rows,
        transcript.secret,
        transcript.roster,
        rng=ctx.rng,
    )


# ----------------------------------------------------------------------
# retrieval


@dataclass
class RetrievalReport:
    """What one retrieval recovered.  ``entry_sig_ok`` is always True: a
    store hands out only entries whose signatures it verified.  It stays
    in the report and its JSON because existing readers of both read it."""

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
    """Fetch, decrypt and reconstruct as one data user."""
    return retrieve_entry(ctx.pp, ctx.db, ctx.entity(du_name).keys, entry_id, access_label)


def retrieve_entry(
    pp: PublicParams,
    db: TenonDb,
    keys: DecryptionKey | None,
    entry_id: str,
    access_label: str = "clinical",
) -> RetrievalReport:
    """The retrieval procedure itself, independent of any entity roster.

    A missing key, or a key issued under other public
    parameters, is refused before the store is read.  The store hands
    out only rows and entries whose signatures it verified when it
    admitted their log line (:meth:`TenonDb._verified`), so the entry is
    decrypted at once, and once.  Each level payload is decoded once and
    each chain walked from its head by :func:`tenon.follow`.  An entry's
    roster signed every row of its agreement, so a row under another
    roster breaks its chain there and is reported in ``row_failures``
    each time the walk reaches it.
    """
    if keys is None:
        raise WorkflowError("no decryption key")
    if keys.pp_fingerprint != pp.fingerprint():
        raise WorkflowError("key bundle was issued under other public parameters")
    entry = db.read_secret(entry_id, access_label)
    payloads = mlabe.decrypt(pp, entry.ciphertext, keys)
    failures: list[str] = []

    def lookup(pointer):
        """The stored row, or None if it is missing or not the entry's."""
        row = db.find_row(pointer)
        if row is not None and row.roster_ref != entry.roster_ref:
            failures.append("row %s: roster %r is not its entry's" % (pointer, row.roster_ref))
            return None
        return row

    recovered: dict[int, LevelRecovery] = {}
    for level, raw in sorted(payloads.items()):
        kind, value = decode_level_payload(raw)
        if kind == "identifiable":
            recovered[level] = LevelRecovery(kind, identifiable=value)
        else:
            chain, complete = tenon.follow(value, lookup)
            recovered[level] = LevelRecovery(kind, [t.block for t in chain], complete)
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


def _emit_context(ctx: SystemContext, db_root, keys_dir) -> None:
    """Write the public parameters into the store as ``pp.json`` and,
    with ``keys_dir``, every decryption key there, each a secret file."""
    write_json(Path(db_root) / "pp.json", mlabe.pp_to_json(ctx.pp))
    if keys_dir is None:
        return
    keys_dir = Path(keys_dir)
    keys_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
    for name, entity in ctx.entities.items():
        if entity.keys is None:
            continue
        write_json(keys_dir / (name + ".json"), mlabe.key_to_json(ctx.suite, entity.keys),
                   secret=True)


SCENARIO_KEYS = frozenset((
    "suite seed insecure_seed timestamp participants policy record levels identifiable_level "
    "access_label do sp retrieve"
).split())
RETRIEVE_KEYS = frozenset(("du",))


def run_scenario(doc: dict, db_root=None, keys_dir=None) -> dict:
    """Drive a whole configured run; returns a JSON-able summary.

    The document names the suite, seed, participants, policy, record,
    level assignment and the retrievals to attempt; all of it is checked
    before any step runs, and a malformed document, one without a
    ``suite`` or with a key not in ``SCENARIO_KEYS`` included (or, in a
    participant or a retrieval, not in ``PARTICIPANT_KEYS`` or
    ``RETRIEVE_KEYS``), raises :class:`WorkflowError`.  A
    fixed seed makes the entire run, store layout included,
    deterministic, and every key public: on a suite other than mock it
    is refused unless the document also holds ``"insecure_seed": true``.
    With ``db_root`` a new store persists there, with the public
    parameters beside its log as ``pp.json`` and the storage order that
    ``order_digest`` reports as its snapshot; a directory that already
    holds a store's log is refused before any step runs, since the run
    draws new public parameters.  With ``keys_dir`` every
    participant's decryption key is written there too, so the command-line
    tools can work the resulting store afterwards; the store is open
    data, so a ``keys_dir`` inside ``db_root``, or one without a store,
    is refused before any step runs.
    """
    import random as _random

    if db_root is not None and (Path(db_root) / tdb.LOG_NAME).exists():
        raise WorkflowError("a store already exists at %s; a scenario starts a new one" % db_root)
    if keys_dir is not None:
        if db_root is None:
            raise WorkflowError("keys are written only for a persisted store")
        keys, root = Path(keys_dir).resolve(), Path(db_root).resolve()
        if keys == root or root in keys.parents:
            raise WorkflowError(
                "the keys directory %s lies inside the store %s, which is open data"
                % (keys_dir, db_root)
            )

    def optional(obj, key, kind):
        value = obj.get(key)
        return None if value is None else typed(value, kind)

    with decoding(WorkflowError, "scenario"):
        doc = known(doc, SCENARIO_KEYS)
        if "suite" not in doc:
            raise ValueError("no suite: name bn256, mock or mock-<prime>")
        suite_name = typed(doc["suite"], str)
        seed = optional(doc, "seed", int)
        # a seed makes every key public: on a real suite it must be asked for
        if not (seed is None or is_mock(suite_name) or optional(doc, "insecure_seed", bool)):
            raise ValueError(
                'a seed makes every key public; on suite %s it needs "insecure_seed": true'
                % suite_name
            )
        participants = read_participants(doc.get("participants", {}))
        do_name, sp_name = typed(doc["do"], str), typed(doc["sp"], str)
        for key, name, role in (("do", do_name, Role.DO), ("sp", sp_name, Role.SP)):
            if name not in participants:
                raise ValueError("%s %r is not a participant" % (key, name))
            if participants[name][0] is not role:
                raise ValueError("%s %r has role %s, not %s"
                                 % (key, name, participants[name][0].value, role.value))
        record = tenon.record_from_json(doc["record"])
        policy_text = typed(doc["policy"], str)
        level_columns = doc["levels"]
        retrievals = [
            typed(known(req, RETRIEVE_KEYS, "retrieve %d: " % i)["du"], str)
            for i, req in enumerate(typed(doc.get("retrieve", []), list))
        ]
        for i, du_name in enumerate(retrievals):
            if du_name not in participants:
                raise ValueError("retrieve %d: %r is not a participant" % (i, du_name))
            if participants[du_name][1] is None:
                raise ValueError("retrieve %d: %r has no decryption key" % (i, du_name))
    try:
        # a bad policy raises its own PolicyError, before any file is written
        terms = agree_terms(
            policy_text, level_columns, doc.get("identifiable_level"),
            doc.get("access_label", "clinical"), doc.get("timestamp"),
        )
        # a record the terms refuse is refused before setup, as the rest is
        preprocess_record(record, terms)
    except WorkflowError as exc:
        raise WorkflowError("malformed scenario: %s" % exc) from None

    rng = _random.Random(seed) if seed is not None else None
    ctx = phase_setup(suite_name, doc.get("participants"), rng=rng, db_root=db_root)
    package = owner_package(ctx, record, terms)
    transcript = cosign_package(ctx, do_name, sp_name, record, terms, package)
    # only now: a document the agreement refuses leaves no files
    if db_root is not None:
        _emit_context(ctx, db_root, keys_dir)
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
        if result.accepted and db_root is not None:
            # the store reopens in the order the summary reports
            ctx.db.save_snapshot()
        out["ingest"] = {"accepted": result.accepted, "reason": result.reason}
        out["order_digest"] = ctx.db.order_digest().hex()
        for du_name in retrievals:
            report = phase_retrieval(
                ctx, du_name, transcript.entry_id, access_label=terms.access_label
            )
            entry = report_to_json(report)
            entry["du"] = du_name
            out["retrievals"].append(entry)
    return out
