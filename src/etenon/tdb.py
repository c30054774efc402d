"""The open block store: public chains, one guarded ciphertext shelf.

Open rows are chain elements (pointer, text, next pointer) with a
multi-signature, and anyone may read them.  Secret entries hold a
ciphertext bundle with its own multi-signature and a coarse access
label checked on fetch.  A batch is one agreement: one sealed entry,
its rows and one new roster, the entry's, under which every row is
signed.  Ingest is all or nothing: every signature in the batch must
verify against that roster before anything is stored; a rejected batch
leaves both memory and the persisted log byte-identical.  The gate and
log replay admit a batch as a log line through one method,
:meth:`TenonDb._verified`, so a live store holds exactly what a reopen
of its log holds.

Signatures are checked many at once, by :func:`musig.verify_batch`:
one multi-exponentiation with a weight per signature, 1 for the first
and random for the others.  A batch with one bad signature always
fails it; a batch with two or more passes with probability at most
1/(min(order, 2**128) - 1).  The weights are drawn from the operating
system, never from a caller's rng, since whoever knows them can make
errors that cancel.  One scan, :func:`invalid`, finds every bad
signature: it checks each run of at most ``BATCH_SIGNATURES`` signatures
together, and only a run that fails one signature at a time.  The
admission path scans the signatures of every line it admits, so a
refusal names the first bad row, or the entry, and its line.  That scan
is the only one: every row and entry the store hands out came in
through it, so a reader checks no signature again.

Storage order is shuffled after every accepted ingest and on demand; a
shuffle that happens to reproduce the previous order is redrawn, so
consecutive layouts always differ once the table has at least two rows.

Persistence is an append-only JSONL log of accepted ingests, the only
copy of the data, plus an atomically swapped snapshot of the storage
order.  Opening a store replays the log and re-verifies every
signature; a sealed entry is kept as the ciphertext bytes its roster
signed, and is decoded only when it is first read.  An open store keeps
the decoded ciphertexts of only the ``DECODED_ENTRIES`` entries read
last, since each holds the prepared Miller lines of its leaves (about
23 KB a leaf); an older entry decodes again when it is read again.
The gate checks a batch before it takes the write lock, a lock on the
store directory's lock file, so a refused batch makes no directory and
takes no lock.  A second writer waits for the lock, then replays what
the first appended and, if that brought any line, checks its batch
again.  Opening a store only reads it: the first accepted write makes
the directory, its lock file and its log.

This module owns the signed-row format: the digests a roster co-signs
for a row and for an entry, both framed by :func:`signed_digest`, the
one scan of their signatures that admission runs, and the batch
document that the log and the command line carry.  A row's signed bytes
are derived from its fields in one place, :func:`row_digest`, so a row
read back verifies only if it is the chain element its roster signed.
"""

from __future__ import annotations

import fcntl
import json
import os
import random
import threading
import uuid

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import mlabe, musig
from .algebra import LEFT, G0Element, GroupSuite, hash_commit
from .codec import b64, canonical_json, decoding, known, typed, unb64
from .errors import EtenonError
from .mlabe import CiphertextBundle, PublicParams
from .musig import MultiSig
from .tenon import Pointer, Triple


# a reader going back and forth between two entries decodes each once
DECODED_ENTRIES = 2

# signatures one batch check covers at most, so the gate's scan of a
# large batch and a replay of a large log keep their multi-exponentiation
# bounded
BATCH_SIGNATURES = 256

# the log's file name in a store directory; a directory without it holds
# no store
LOG_NAME = "log.jsonl"

# the refusal of a batch without its sealed entry, by the gate and by replay
NO_ENTRY = "batch has no entry"


class TdbError(EtenonError):
    """Store misuse or a corrupt persisted state."""


class OtherParamsError(TdbError):
    """A batch made under other public parameters than the reader's."""


class UnknownEntryError(TdbError):
    """No secret entry under that id."""


class AccessDeniedError(TdbError):
    """Fixed-message denial; carries nothing about the entry."""

    def __init__(self):
        super().__init__("access denied")


@dataclass(frozen=True)
class OpenRow:
    """A chain element, with the fields of a :class:`tenon.Triple`, and
    its roster's signature."""

    pointer: Pointer
    block: str
    next: Pointer | None
    sig: MultiSig
    roster_ref: str
    timestamp: int


@dataclass(frozen=True, init=False)
class SecretEntry:
    """A sealed entry, kept as the ciphertext bytes its roster co-signed.

    ``ct_bytes`` is the canonical byte form of the ciphertext, which
    :func:`entry_digest` hashes as it is; it is derived from
    ``ciphertext`` when not given.  An entry read from a batch document
    has no bundle yet: ``ciphertext`` decodes ``ct_bytes`` under
    ``suite`` when it is first read, and keeps the result.
    """

    entry_id: str
    ciphertext: CiphertextBundle  # the property below
    sig: MultiSig
    roster_ref: str
    access_label: str
    timestamp: int

    def __init__(self, entry_id, ciphertext, sig, roster_ref, access_label, timestamp,
                 *, ct_bytes: bytes | None = None, suite: GroupSuite | None = None):
        if ct_bytes is None:
            ct_bytes = mlabe.ct_canonical_bytes(ciphertext)
        # frozen: set through __dict__, as functools.cached_property does
        self.__dict__.update(
            entry_id=entry_id, sig=sig, roster_ref=roster_ref, access_label=access_label,
            timestamp=timestamp, ct_bytes=ct_bytes, _ct=ciphertext, _suite=suite,
        )

    @property
    def ciphertext(self) -> CiphertextBundle:
        if self._ct is None:
            with decoding(TdbError, "ciphertext of secret entry %r" % self.entry_id):
                self.__dict__["_ct"] = mlabe.ct_from_json(json.loads(self.ct_bytes), self._suite)
        return self._ct

    def _drop_ciphertext(self) -> None:
        """Forget the decoded bundle; ``ciphertext`` decodes ``ct_bytes`` again."""
        self.__dict__["_ct"] = None


@dataclass(frozen=True)
class IngestResult:
    accepted: bool
    reason: str | None = None


def signed_digest(kind: str, payload: bytes, pointer: bytes | None, pp_bytes: bytes,
                  timestamp: int) -> bytes:
    """What a roster co-signs: the kind, the payload, the pointer (rows
    only), the public parameters and the 8-byte timestamp, each framed by
    its 4-byte big-endian length."""
    parts = [kind.encode("ascii"), payload]
    if pointer is not None:
        parts.append(pointer)
    parts += [pp_bytes, timestamp.to_bytes(8, "big")]
    return hash_commit(b"signed-message" + b"".join(len(p).to_bytes(4, "big") + p for p in parts))


def row_digest(pp_bytes: bytes, t: Triple | OpenRow, timestamp: int) -> bytes:
    """What the roster co-signs for one chain element, a triple or a row:
    the element's canonical ``{"text", "next"}`` document and its pointer."""
    element = canonical_json({"text": t.block, "next": str(t.next) if t.next else None})
    return signed_digest("block", element, t.pointer.bytes, pp_bytes, timestamp)


def entry_digest(pp_bytes: bytes, entry_id: str, access_label: str, ct_bytes: bytes,
                 timestamp: int) -> bytes:
    """What the roster co-signs for one sealed entry: a canonical header of
    its id and access label, then the canonical bytes of its ciphertext
    (:func:`mlabe.ct_canonical_bytes`)."""
    header = canonical_json([entry_id, access_label])
    return signed_digest("ciphertext", header + ct_bytes, None, pp_bytes, timestamp)


def invalid(suite: GroupSuite, items):
    """Yield, in order, the index of each ``(sig, roster, digest)`` item
    whose signature fails.  Each run of at most ``BATCH_SIGNATURES`` items
    is checked by one :func:`musig.verify_batch`; only a run that fails is
    checked again, one :func:`musig.verify` per item.  A single check costs
    n + 1 exponentiations, so halving a failed run would cost more than
    it saves."""
    for start in range(0, len(items), BATCH_SIGNATURES):
        run = items[start:start + BATCH_SIGNATURES]
        if not musig.verify_batch(suite, run):
            for i, (sig, roster, digest) in enumerate(run, start):
                if not musig.verify(suite, sig, roster, digest):
                    yield i


class TenonDb:
    """In-memory view plus optional on-disk log under ``root``."""

    def __init__(self, pp: PublicParams, root=None):
        self.suite: GroupSuite = pp.suite
        self._pp = pp
        self._pp_bytes = pp.encode()
        self._rows: list[OpenRow] = []  # storage order
        self._index: dict[Pointer, OpenRow] = {}
        self._secrets: dict[str, SecretEntry] = {}
        self._read: dict[str, SecretEntry] = {}  # the entries read last, oldest first
        self._rosters: dict[str, tuple] = {}
        self._lock = threading.RLock()
        self._log_end = 0  # bytes of the log replayed or appended here
        self._log_lines = 0
        self._torn = False  # the log goes on past _log_end with a torn line
        self._root = Path(root) if root is not None else None
        if self._root is not None:
            self._load()

    def order_digest(self) -> bytes:
        with self._lock:
            return hash_commit(b"".join(row.pointer.bytes for row in self._rows))

    # ------------------------------------------------------------------
    # ingest

    def _check(self, rows, secret, roster, view) -> list:
        """The ``(where, sig, roster, digest)`` of every signature of a
        decoded batch, after the checks of its roster, pointers and entry
        id against the store and ``view``, which then holds them; the
        first problem raises :class:`TdbError`.

        A batch is one agreement: its entry, its rows and one new roster,
        the entry's, that signs them all.  So no ref is claimed without a
        signature, and every stored row keeps the roster it was signed
        under."""
        refs, pointers, entries = view
        ref = secret.roster_ref
        if ref in self._rosters or ref in refs:
            raise TdbError("roster %r already present" % ref)
        problem = musig.roster_problem(self.suite, [vk.encode() for vk in roster])
        if problem is not None:
            raise TdbError("roster %r: %s" % (ref, problem))
        refs.add(ref)
        signed = []
        for i, row in enumerate(rows):
            where = "row %d (pointer %s)" % (i, row.pointer)
            if row.pointer in self._index or row.pointer in pointers:
                raise TdbError("%s: pointer already present" % where)
            pointers.add(row.pointer)
            signed.append((where, row.sig, roster, row_digest(self._pp_bytes, row, row.timestamp)))
        where = "secret entry %r" % (secret.entry_id,)
        if secret.entry_id in self._secrets or secret.entry_id in entries:
            raise TdbError("%s: entry id already present" % where)
        entries.add(secret.entry_id)
        digest = entry_digest(self._pp_bytes, secret.entry_id, secret.access_label,
                              secret.ct_bytes, secret.timestamp)
        signed.append((where, secret.sig, roster, digest))
        return signed

    def ingest(self, rows, secret: SecretEntry, roster, rng=None) -> IngestResult:
        """Verify then store a batch; a refusal changes no stored byte.

        A batch is what one agreement writes: one sealed entry, its rows
        and ``roster``, the verification keys of the entry's roster ref,
        which is new to the store.  Every row has the entry's ref and
        timestamp, and the roster signs the rows and the entry; anything
        else is refused.
        The batch is encoded as its log line and admitted as replay
        admits a line, so the store holds what a reopen reads; a batch
        the log could not carry back is refused with the decoder's reason.
        It is checked before the write lock, which a refusal never takes,
        and again under it if other lines were applied since.
        The storage order is reshuffled after every accepted batch.
        """
        # The gate reads the given entry in full, so a malformed ciphertext
        # is refused here; the stored entry is decoded from its signed bytes.
        try:
            if secret is None:
                raise TdbError(NO_ENTRY)
            if secret.ciphertext.suite_name != self.suite.name:
                raise TdbError("secret entry %r: ciphertext suite mismatch" % (secret.entry_id,))
            with self._lock:
                lines = self._log_lines
                with decoding(TdbError, "batch"):
                    line = canonical_json(batch_to_json(self._pp, rows, secret, roster))
                [(_, batch)] = self._verified([line])
        except TdbError as exc:
            return IngestResult(accepted=False, reason=str(exc))
        with self._writing(), self._lock:
            if self._log_lines != lines:
                # a line applied since the check may claim what the batch claims
                try:
                    [(_, batch)] = self._verified([line])
                except TdbError as exc:
                    return IngestResult(accepted=False, reason=str(exc))
            self._append_log(line)
            self._apply(line, *batch)
            self.shuffle(rng=rng)
            return IngestResult(accepted=True)

    def _verified(self, lines):
        """Yield ``(line, batch)`` for each log line in order up to the
        first refused, and raise :class:`TdbError` there.  Every line's
        roster refs, pointers and entry id are checked against the store
        and the lines before it, then one :func:`invalid` scan covers the
        lines that passed, so a bad signature on an earlier line is named
        before a line that fails its checks."""
        view = set(), set(), set()  # roster refs, pointers and entry ids of the lines checked
        checked, signed, refusal = [], [], None
        for line in lines:
            try:
                batch = self._decode(line)
                signed += self._check(*batch, view)
            except TdbError as exc:
                refusal = exc
                break
            checked.append((line, batch, len(signed)))
        bad = next(invalid(self.suite, [item[1:] for item in signed]), None)
        for line, batch, end in checked:
            if bad is not None and bad < end:
                raise TdbError("%s: signature invalid" % signed[bad][0])
            yield line, batch
        if refusal is not None:
            raise refusal

    def _decode(self, line: bytes):
        """The rows, secret entry and roster of one log line."""
        with decoding(TdbError, "JSON"):
            doc = json.loads(line.decode())
        return batch_from_json(self._pp, doc)

    def _apply(self, line: bytes, rows, secret, roster) -> None:
        """Add a verified batch, read from ``line`` of the log."""
        self._rosters[secret.roster_ref] = roster
        for row in rows:
            self._rows.append(row)
            self._index[row.pointer] = row
        self._secrets[secret.entry_id] = secret
        self._log_end += len(line) + 1
        self._log_lines += 1

    # ------------------------------------------------------------------
    # reads

    def read_open(self) -> tuple[OpenRow, ...]:
        """The whole open table in its current storage order."""
        with self._lock:
            return tuple(self._rows)

    def find_row(self, pointer: Pointer) -> OpenRow | None:
        with self._lock:
            return self._index.get(pointer)

    def secret_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._secrets))

    def read_secret(self, entry_id: str, access_label: str) -> SecretEntry:
        """Label-gated fetch; the denial carries a fixed message only.

        The store then drops the decoded ciphertext of any entry that is
        no longer among the ``DECODED_ENTRIES`` distinct entries read last."""
        with self._lock:
            entry = self._secrets.get(entry_id)
            if entry is None:
                raise UnknownEntryError("no entry %r" % entry_id)
            if access_label != entry.access_label:
                raise AccessDeniedError()
            read = self._read
            read.pop(entry_id, None)
            read[entry_id] = entry
            if len(read) > DECODED_ENTRIES:
                read.pop(next(iter(read)))._drop_ciphertext()
        return entry

    def roster(self, ref: str) -> tuple:
        with self._lock:
            roster = self._rosters.get(ref)
        if roster is None:
            raise TdbError("unknown roster %r" % ref)
        return roster

    # ------------------------------------------------------------------
    # shuffling

    def shuffle(self, rng=None) -> None:
        """Redraw the storage order; never keep the previous order when
        more than one row exists."""
        with self._lock:
            if len(self._rows) < 2:
                return
            before = list(self._rows)
            shuffler = rng if rng is not None else random.SystemRandom()
            while True:
                shuffler.shuffle(self._rows)
                if self._rows != before:
                    return

    # ------------------------------------------------------------------
    # persistence

    def _log_path(self) -> Path:
        return self._root / LOG_NAME

    def _snapshot_path(self) -> Path:
        return self._root / "snapshot.json"

    @contextmanager
    def _writing(self):
        """Make the store directory if it is missing and hold its write
        lock, after replaying what other writers appended; a writer that
        finds the lock taken waits for it.  Take it before ``self._lock``,
        never while holding that.

        Replay appends the lines it applies in log order, so a catch-up
        that applied any is followed by a shuffle: the order a writer
        saves is never its own order with another writer's rows appended
        in chain order."""
        if self._root is None:
            yield
            return
        self._root.mkdir(parents=True, exist_ok=True)
        with open(self._root / "lock", "ab") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            with self._lock:
                lines = self._log_lines
                self._replay()
                if self._log_lines != lines:
                    self.shuffle()
            yield

    def _sync_dir(self) -> None:
        """Make the directory's entries (a new or replaced file) durable."""
        fd = os.open(self._root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _append_log(self, line: bytes) -> None:
        if self._root is None:
            return
        created = not self._log_path().exists()
        with open(self._log_path(), "ab") as fh:
            if self._torn:
                fh.truncate(self._log_end)
                self._torn = False
            fh.write(line + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            self._sync_dir()

    def save_snapshot(self) -> None:
        """Write the storage order, replacing any previous snapshot atomically."""
        if self._root is None:
            raise TdbError("store has no root directory")
        with self._writing():
            with self._lock:
                doc = {"order": [str(row.pointer) for row in self._rows]}
            tmp = self._snapshot_path().with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._snapshot_path())
            self._sync_dir()

    def _replay(self) -> None:
        """Verify and apply the log lines this store has not read yet,
        through :meth:`_verified`, over the bytes as stored; no ciphertext
        is decoded.  A final line without its newline is an append cut
        short by a crash: that batch was never acknowledged, so it is
        skipped here and cut off before the next append.  Every other line
        must load, and a failure names its line.
        """
        try:
            with open(self._log_path(), "rb") as fh:
                fh.seek(self._log_end)
                data = fh.read()
        except FileNotFoundError:
            data = b""
        end = data.rfind(b"\n") + 1
        self._torn = end < len(data)
        try:
            for line, batch in self._verified(data[:end].split(b"\n")[:-1]):
                self._apply(line, *batch)
        except TdbError as exc:
            raise TdbError("log line %d: %s" % (self._log_lines + 1, exc)) from None

    def _load(self) -> None:
        # The snapshot is read before the log: a writer saves only rows it
        # has already logged, so every pointer read here is in the log.
        try:
            raw = self._snapshot_path().read_bytes()
        except FileNotFoundError:
            raw = None
        self._replay()
        if raw is None:
            return
        with decoding(TdbError, "snapshot"):
            doc = typed(json.loads(raw.decode()), dict)
            order = [pointer_from_json(p) for p in typed(doc["order"], list)]
        # rows appended after the snapshot was saved follow in log order
        listed = set(order)
        if len(listed) != len(order):
            raise TdbError("snapshot order repeats a pointer")
        if not listed.issubset(self._index):
            raise TdbError("snapshot order names a pointer the log does not hold")
        self._rows = [self._index[p] for p in order] + [
            row for row in self._rows if row.pointer not in listed
        ]


# ----------------------------------------------------------------------
# JSON forms


def timestamp_from_json(value) -> int:
    """A timestamp that fits the 8 bytes the co-signed digest gives it."""
    if not 0 <= typed(value, int) < 1 << 64:
        raise ValueError("timestamp %d does not fit 8 bytes" % value)
    return value


def pointer_from_json(value) -> Pointer:
    """A pointer, read only in the spelling ``str`` gives it."""
    pointer = uuid.UUID(typed(value, str))
    if str(pointer) != value:
        raise ValueError("pointer %r is not in canonical form" % value)
    return pointer


def row_to_json(suite: GroupSuite, row: OpenRow) -> dict:
    return {
        "pointer": str(row.pointer),
        "text": row.block,
        "next": None if row.next is None else str(row.next),
        "sig": musig.sig_to_json(suite, row.sig),
    }


_ROW_FIELDS = frozenset(("pointer", "text", "next", "sig"))
_SECRET_FIELDS = frozenset(("entry_id", "ciphertext", "sig", "roster_ref", "access_label", "t"))
_BATCH_FIELDS = frozenset(("pp", "roster", "rows", "secret"))


def row_from_json(suite: GroupSuite, obj, entry: SecretEntry) -> OpenRow:
    """A row of ``entry``'s batch, under the entry's roster ref and
    timestamp; a field :func:`row_to_json` does not write is refused."""
    with decoding(TdbError, "row"):
        obj = known(obj, _ROW_FIELDS)
        nxt = obj["next"]
        return OpenRow(
            pointer=pointer_from_json(obj["pointer"]),
            block=typed(obj["text"], str),
            next=None if nxt is None else pointer_from_json(nxt),
            sig=musig.sig_from_json(obj["sig"], suite),
            roster_ref=entry.roster_ref,
            timestamp=entry.timestamp,
        )


def secret_to_json(suite: GroupSuite, entry: SecretEntry) -> dict:
    return {
        "entry_id": entry.entry_id,
        "ciphertext": json.loads(entry.ct_bytes),
        "sig": musig.sig_to_json(suite, entry.sig),
        "roster_ref": entry.roster_ref,
        "access_label": entry.access_label,
        "t": entry.timestamp,
    }


def secret_from_json(suite: GroupSuite, obj) -> SecretEntry:
    """An entry whose ciphertext is checked only up to its envelope; its
    elements are decoded when ``ciphertext`` is first read.  A field
    :func:`secret_to_json` does not write is refused."""
    with decoding(TdbError, "secret entry"):
        obj = known(obj, _SECRET_FIELDS)
        mlabe.ct_check_envelope(obj["ciphertext"], suite)
        return SecretEntry(
            entry_id=typed(obj["entry_id"], str),
            ciphertext=None,
            sig=musig.sig_from_json(obj["sig"], suite),
            roster_ref=typed(obj["roster_ref"], str),
            access_label=typed(obj["access_label"], str),
            timestamp=timestamp_from_json(obj["t"]),
            # the log writes this document in canonical form, so these
            # are the bytes the roster signed
            ct_bytes=canonical_json(obj["ciphertext"]),
            suite=suite,
        )


def batch_to_json(pp: PublicParams, rows, secret: SecretEntry, roster) -> dict:
    """The ``{pp, roster, rows, secret}`` document of one ingest batch:
    ``pp``'s fingerprint, the roster's keys, the rows as ``{pointer,
    text, next, sig}`` and the entry, which alone states the roster ref
    and timestamp.  A row that is not an :class:`OpenRow`, whose ref or
    timestamp is not its entry's, or whose fields cannot be encoded, and
    a roster key that is not a left element of ``pp``'s suite, are
    refused by their index, as :func:`batch_from_json` names a row it
    cannot decode."""
    keys = []
    for i, vk in enumerate(roster):
        if not (isinstance(vk, G0Element) and vk.side == LEFT and vk.suite.name == pp.suite.name):
            raise TdbError("roster key %d: not a left element of %s" % (i, pp.suite.name))
        keys.append(b64(vk.encode()))
    docs = []
    for i, r in enumerate(rows):
        if not isinstance(r, OpenRow):
            raise TdbError("row %d: not an open row" % i)
        where = "row %d (pointer %s)" % (i, r.pointer)
        if r.roster_ref != secret.roster_ref:
            raise TdbError("%s: roster %r is not its entry's" % (where, r.roster_ref))
        if r.timestamp != secret.timestamp:
            raise TdbError("%s: timestamp %r is not its entry's" % (where, r.timestamp))
        try:
            with decoding(TdbError, "row"):
                docs.append(row_to_json(pp.suite, r))
                canonical_json(docs[-1])  # a field JSON cannot carry fails here
        except TdbError as exc:
            raise TdbError("row %d: %s" % (i, exc)) from None
    return {
        "pp": b64(pp.fingerprint()),
        "roster": keys,
        "rows": docs,
        "secret": secret_to_json(pp.suite, secret),
    }


def batch_from_json(pp: PublicParams, obj) -> tuple[list[OpenRow], SecretEntry, tuple]:
    """Rows, secret entry and roster of a batch document; all three are
    required.  A document of the earlier line format, with a ``rosters``
    map, and one made under other public parameters are refused before
    anything else in it is read.  A field that :func:`batch_to_json`
    does not write, at the top, in a row or in the entry, is refused by
    name: no signature covers it."""
    suite = pp.suite
    with decoding(TdbError, "batch"):
        obj = typed(obj, dict)
        if "rosters" in obj:
            raise TdbError('written in the earlier line format ("rosters"); rebuild the store')
        if unb64(obj["pp"]) != pp.fingerprint():
            raise OtherParamsError("made under other public parameters")
        known(obj, _BATCH_FIELDS)
        if obj["secret"] is None:
            raise TdbError(NO_ENTRY)
        secret = secret_from_json(suite, obj["secret"])
        rows = []
        for i, r in enumerate(typed(obj["rows"], list)):
            try:
                rows.append(row_from_json(suite, r, secret))
            except TdbError as exc:
                raise TdbError("row %d: %s" % (i, exc)) from None
        roster = tuple(suite.decode_g0(unb64(raw), LEFT) for raw in typed(obj["roster"], list))
        return rows, secret, roster
