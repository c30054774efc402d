"""Interactive multi-signatures over the source group, on opaque byte
messages: what a message means, and how it is framed, is the caller's.

Three rounds between every roster member: hash commitments to nonce
shares, the nonce shares themselves, then partial signatures.  A member
aborts if any revealed share fails its commitment, and no partial
signature leaves a session before every commitment has been checked.
Each signer's challenge binds the whole roster encoding, its own
verification key, the combined nonce and the message, so a signature
pins the exact signer set in order.

The aggregate is one group element and one scalar regardless of the
roster size, verified by checking g^s against RC multiplied by every
VK raised to its own challenge.  That equation is written once, in
:func:`verify_batch`, one randomly weighted product of many such checks
whose first weight is 1; :func:`verify` is the batch of one signature.
Signatures never enter a pairing, so keys and nonces are all left
elements, the cheaper base-curve group.
"""

from __future__ import annotations

import enum
import random

from dataclasses import dataclass

from .algebra import LEFT, G0Element, GroupSuite, hash_commit
from .codec import b64, decoding, typed, unb64
from .errors import EtenonError


class MusigError(EtenonError):
    """Protocol misuse: wrong phase, wrong senders, bad roster."""


@dataclass(frozen=True)
class CommitMsg:
    sender: int
    value: bytes


@dataclass(frozen=True)
class RevealMsg:
    sender: int
    value: G0Element


@dataclass(frozen=True)
class PartialSigMsg:
    sender: int
    value: int


@dataclass(frozen=True)
class SessionAbort:
    """Terminal outcome naming the roster index that equivocated."""

    offender: int
    reason: str


@dataclass(frozen=True)
class MultiSig:
    rc: G0Element
    s: int


class Phase(enum.Enum):
    COMMIT = "commit"
    REVEAL = "reveal"
    PARTIAL = "partial"
    DONE = "done"
    ABORTED = "aborted"


def _framed(raw: bytes) -> bytes:
    return len(raw).to_bytes(4, "big") + raw


def roster_encoding(keys) -> bytes:
    """Length-prefixed concatenation of the key encodings in roster order."""
    return b"".join(_framed(raw) for raw in keys)


def challenge(suite: GroupSuite, roster_raw: bytes, vk_raw: bytes, rc_raw: bytes,
              msg: bytes) -> int:
    """Per-signer challenge scalar over the :func:`roster_encoding`, the
    signer's key encoding, the combined nonce's encoding and the message."""
    return suite.hash_challenge(roster_raw + _framed(vk_raw) + _framed(rc_raw) + msg)


class SignSession:
    """One signer's view of a signing run.  Phases only move forward.

    ``vk`` is the signer's verification key when the caller has already
    derived it from ``sk``; otherwise the session derives it.
    """

    def __init__(self, suite: GroupSuite, sk: int, roster, msg: bytes, rng=None, vk=None):
        self.suite = suite
        self.roster = tuple(roster)
        self.msg = msg
        self._sk = sk
        my_vk = suite.generator ** sk if vk is None else vk
        # the roster is encoded once, for its check and every challenge
        self._keys = [vk.encode() for vk in self.roster]
        mine = my_vk.encode()
        if mine not in self._keys:
            raise MusigError("signer's verification key is not in the roster")
        problem = roster_problem(suite, self._keys)
        if problem is not None:
            raise MusigError(problem)
        self.index = self._keys.index(mine)
        self._nonce = suite.rand_scalar_nonzero(rng)
        self.rc_own = suite.generator ** self._nonce
        self.commitment = hash_commit(self.rc_own.encode())
        self.phase = Phase.COMMIT
        self._commits: dict[int, bytes] = {}
        self._reveals: dict[int, G0Element] = {}
        self._rc: G0Element | None = None
        self._partial: int | None = None
        self._partials: dict[int, int] = {}

    # ------------------------------------------------------------------

    def _take(self, incoming, msg_type) -> dict[int, object]:
        expected = set(range(len(self.roster))) - {self.index}
        got = {}
        for m in incoming:
            if not isinstance(m, msg_type):
                raise MusigError(
                    "phase %s cannot accept %s" % (self.phase.value, type(m).__name__)
                )
            if m.sender == self.index:
                raise MusigError("received a message attributed to this signer")
            if m.sender not in expected:
                raise MusigError("message from unknown roster index %d" % m.sender)
            if m.sender in got:
                raise MusigError("duplicate message from roster index %d" % m.sender)
            got[m.sender] = m.value
        if set(got) != expected:
            missing = sorted(expected - set(got))
            raise MusigError("missing messages from roster indices %s" % missing)
        return got

    def step(self, incoming=()):
        """Feed one round of messages; returns the next outgoing item.

        Outgoing items in order: a RevealMsg, a PartialSigMsg, then the
        final MultiSig -- or a SessionAbort as soon as a revealed nonce
        share contradicts its commitment.
        """
        if self.phase in (Phase.DONE, Phase.ABORTED):
            raise MusigError("session is finished (%s)" % self.phase.value)

        if self.phase is Phase.COMMIT:
            self._commits = self._take(incoming, CommitMsg)
            self.phase = Phase.REVEAL
            return RevealMsg(sender=self.index, value=self.rc_own)

        if self.phase is Phase.REVEAL:
            self._reveals = self._take(incoming, RevealMsg)
            for sender, rc in sorted(self._reveals.items()):
                if hash_commit(rc.encode()) != self._commits[sender]:
                    self.phase = Phase.ABORTED
                    self._nonce = None
                    return SessionAbort(
                        offender=sender,
                        reason="revealed nonce share does not match its commitment",
                    )
            rc_all = self.rc_own
            for sender in sorted(self._reveals):
                rc_all = rc_all * self._reveals[sender]
            self._rc = rc_all
            ch = challenge(self.suite, roster_encoding(self._keys), self._keys[self.index],
                           rc_all.encode(), self.msg)
            self._partial = (self._sk * ch + self._nonce) % self.suite.order
            self._nonce = None
            self.phase = Phase.PARTIAL
            return PartialSigMsg(sender=self.index, value=self._partial)

        # Phase.PARTIAL
        self._partials = self._take(incoming, PartialSigMsg)
        total = self._partial
        for value in self._partials.values():
            total = (total + value) % self.suite.order
        self.phase = Phase.DONE
        return MultiSig(rc=self._rc, s=total)


def keypair(suite: GroupSuite, rng=None) -> tuple[int, G0Element]:
    """A fresh signing scalar and its verification key, g^sk on the left side."""
    sk = suite.rand_scalar_nonzero(rng)
    return sk, suite.generator ** sk


def start_session(suite: GroupSuite, sk: int, roster, msg: bytes, rng=None, vk=None):
    """Create a session and its outgoing commitment message."""
    session = SignSession(suite, sk, roster, msg, rng=rng, vk=vk)
    return session, CommitMsg(sender=session.index, value=session.commitment)


def roster_problem(suite: GroupSuite, keys) -> str | None:
    """Why the roster whose key encodings are ``keys`` cannot stand for
    distinct co-signers, or None.

    An empty roster, the identity or a repeated key would let one party,
    or none, sign for the whole roster.
    """
    if not keys:
        return "roster is empty"
    if suite.left_identity_encoding in keys:
        return "roster holds the identity"
    if len(set(keys)) != len(keys):
        return "roster repeats a key"
    return None


def verify(suite: GroupSuite, sig: MultiSig, roster, msg: bytes) -> bool:
    """The :func:`verify_batch` of one signature by n signers: n + 1
    exponentiations, and a roster :func:`roster_problem` refuses never
    verifies."""
    return verify_batch(suite, [(sig, roster, msg)])


def verify_batch(suite: GroupSuite, items) -> bool:
    """Check ``(sig, roster, msg)`` triples together by small-exponent
    batch verification (Bellare, Garay and Rabin, EUROCRYPT 1998).

    The first item's weight is 1 and every later item i gets a weight z_i
    uniform in [1, min(order, 2**128)).  A batch of m items over d
    distinct keys (merged by encoding) costs m + d exponentiations: it
    checks g^(sum z_i*s_i), from g's table, against one pass over the
    first RC unraised, every later RC_i^z_i and every vk^(sum z_i*c_i,vk).
    A batch of valid signatures always passes.  If the first signature
    is the only bad one, nothing weights its error away, so the batch
    fails.  The group order is prime, so a bad set with a member i > 1
    passes only for one value of z_i, with probability at most
    1/(min(order, 2**128) - 1).  That bound holds only while the weights
    are unknown to whoever made the signatures, so they come from the
    operating system and never from a caller's seeded rng.  Each
    distinct roster is encoded and checked once; a roster that
    :func:`roster_problem` refuses fails the batch.
    """
    draw = random.SystemRandom()
    bound = min(suite.order, 1 << 128)
    rosters = {}  # id of a roster -> its key encodings and its encoding
    powers = {}  # key encoding -> [key, summed exponent]
    s_sum, rhs = 0, None
    for sig, roster, msg in items:
        if id(roster) not in rosters:
            keys = [vk.encode() for vk in roster]
            if roster_problem(suite, keys) is not None:
                return False
            rosters[id(roster)] = keys, roster_encoding(keys)
        keys, roster_raw = rosters[id(roster)]
        z = 1 if rhs is None else draw.randrange(1, bound)
        rhs = sig.rc if rhs is None else rhs * sig.rc ** z
        s_sum += z * sig.s
        rc_raw = sig.rc.encode()
        for vk, vk_raw in zip(roster, keys):
            c = challenge(suite, roster_raw, vk_raw, rc_raw, msg)
            powers.setdefault(vk_raw, [vk, 0])[1] += z * c
    if rhs is None:
        return True
    for vk, e in powers.values():
        rhs = rhs * vk ** e
    return suite.generator ** s_sum == rhs


def cosign(suite: GroupSuite, secret_keys, msgs, rng=None) -> tuple[list[MultiSig], tuple]:
    """Drive a full in-process signing run among the given key holders
    for each message, all under one roster.

    Returns the aggregate signatures, one per message in order, and the
    roster (keys in the order given).  Raises if any session aborts,
    which cannot happen among honest in-process participants.  The
    roster is derived once and encoded once, and each signer draws one
    nonce per message, message by message and signer by signer:
    n + n*m exponentiations for m messages by n signers, 2n for one.
    """
    secret_keys = list(secret_keys)
    if not secret_keys:
        # every other roster a session refuses, it refuses itself
        raise MusigError("roster is empty")
    roster = tuple(suite.generator ** sk for sk in secret_keys)
    sigs = []
    for msg in msgs:
        sessions, out = zip(*(
            start_session(suite, sk, roster, msg, rng=rng, vk=vk)
            for sk, vk in zip(secret_keys, roster)
        ))
        # three rounds, each fed the others' messages of the last:
        # reveals, partial signatures, then the aggregate
        for _ in range(3):
            out = [s.step([m for m in out if m.sender != s.index]) for s in sessions]
            for o in out:
                if isinstance(o, SessionAbort):
                    raise MusigError("honest signing run aborted: %s" % o.reason)
        first, *others = out
        if any(o.s != first.s or o.rc != first.rc for o in others):
            raise MusigError("signers disagree on the aggregate")
        sigs.append(first)
    return sigs, roster


def sig_to_json(suite: GroupSuite, sig: MultiSig) -> dict:
    return {"rc": b64(sig.rc.encode()), "s": b64(suite.encode_scalar(sig.s))}


def sig_from_json(obj, suite: GroupSuite) -> MultiSig:
    with decoding(MusigError, "signature document"):
        obj = typed(obj, dict)
        return MultiSig(
            rc=suite.decode_g0(unb64(obj["rc"]), LEFT),
            s=suite.decode_scalar(unb64(obj["s"])),
        )
