import random

import pytest

from etenon import musig
from etenon.algebra import OpCounters, get_suite
from etenon.musig import (
    CommitMsg,
    MultiSig,
    MusigError,
    Phase,
    PartialSigMsg,
    RevealMsg,
    SessionAbort,
    SignSession,
    cosign,
    start_session,
    verify,
)


def distinct_keys(suite, n, rng):
    keys = []
    while len(keys) < n:
        k = suite.rand_scalar_nonzero(rng)
        if k not in keys:
            keys.append(k)
    return keys


def test_cosign_and_verify_small_rosters(mock, rng):
    for n in (1, 2, 3, 5):
        for _ in range(10):
            keys = distinct_keys(mock, n, rng)
            msg = b"msg-%d" % n
            (sig,), roster = cosign(mock, keys, [msg], rng)
            assert len(roster) == n
            assert verify(mock, sig, roster, msg)


def test_signature_shape(mock, rng):
    keys = distinct_keys(mock, 3, rng)
    (sig,), roster = cosign(mock, keys, [b"shape"], rng)
    from etenon.algebra import G0Element

    assert isinstance(sig.rc, G0Element)
    assert isinstance(sig.s, int)
    assert 0 <= sig.s < mock.order


def test_verify_rejects_every_mutation(mock, rng):
    keys = distinct_keys(mock, 3, rng)
    msg = b"the agreed message"
    (sig,), roster = cosign(mock, keys, [msg], rng)
    assert verify(mock, sig, roster, msg)

    g = mock.generator
    # group-element half nudged
    assert not verify(mock, MultiSig(rc=sig.rc * g, s=sig.s), roster, msg)
    # scalar half nudged
    assert not verify(mock, MultiSig(rc=sig.rc, s=(sig.s + 1) % mock.order), roster, msg)
    # different message
    assert not verify(mock, sig, roster, b"another message")
    # signer dropped from the roster
    assert not verify(mock, sig, roster[:-1], msg)
    # roster order swapped (challenges are position-bound)
    swapped = (roster[1], roster[0]) + roster[2:]
    assert not verify(mock, sig, swapped, msg)
    # an extra key appended
    extra = roster + (g ** mock.rand_scalar_nonzero(rng),)
    assert not verify(mock, sig, extra, msg)
    # empty roster never verifies
    assert not verify(mock, sig, (), msg)


def test_verification_exponentiation_count(mock, rng):
    for n in (1, 2, 5):
        keys = distinct_keys(mock, n, rng)
        (sig,), roster = cosign(mock, keys, [b"count"], rng)
        with mock.measure() as span:
            assert verify(mock, sig, roster, b"count")
        assert span.exponentiations == n + 1
        assert span.hash_calls == n


def test_batch_with_one_bad_signature_always_fails_on_mock_101(mock):
    """A single forged signature verifies on mock-101 with probability
    1/101, but a batch holding exactly one bad signature never passes the
    batch check: the order is prime and no weight is a multiple of it."""
    for seed in range(200):
        rng = random.Random(seed)
        keys = distinct_keys(mock, 2, rng)
        items = []
        for i in range(5):
            msg = b"item %d" % i
            (sig,), roster = cosign(mock, keys, [msg], rng)
            items.append((sig, roster, msg))
        assert musig.verify_batch(mock, items), seed
        bad = rng.randrange(len(items))
        sig, roster, msg = items[bad]
        wrong = MultiSig(rc=sig.rc, s=(sig.s + rng.randrange(1, mock.order)) % mock.order)
        items[bad] = (wrong, roster, msg)
        assert not musig.verify_batch(mock, items), seed
    # two errors that cancel under equal weights: random weights refuse
    # them unless two draws collide, here with probability 1/999982
    large = get_suite("mock-999983")
    rng = random.Random(0)
    keys = distinct_keys(large, 2, rng)
    items = []
    for i, error in enumerate((5, -5)):
        msg = b"item %d" % i
        (sig,), roster = cosign(large, keys, [msg], rng)
        items.append((MultiSig(rc=sig.rc, s=(sig.s + error) % large.order), roster, msg))
    assert not musig.verify_batch(large, items)


def test_cosign_derives_each_key_once(mock, rng):
    """A co-signing run costs one key and one nonce per signer: 2n."""
    for n in (1, 2, 3):
        keys = distinct_keys(mock, n, rng)
        with mock.measure() as span:
            cosign(mock, keys, [b"count"], rng)
        assert span.exponentiations == 2 * n


def test_cosign_signs_every_message_under_one_roster():
    """m messages by n signers cost n + n*m exponentiations, the roster
    derived once, and give the signatures m separate runs give from the
    same seeded generator: the nonces are drawn in the same order.  On
    bn256 the run's nine nonce shares walk in lockstep, and each
    separate run's three walk one at a time."""
    for suite in (get_suite("mock"), get_suite("bn256")):
        keys = distinct_keys(suite, 3, random.Random(1))
        msgs = [b"row 1", b"row 2", b"entry"]
        with suite.measure() as span:
            sigs, roster = cosign(suite, keys, msgs, random.Random(7))
        assert span.exponentiations == 3 + 3 * 3
        rng = random.Random(7)
        apart = [cosign(suite, keys, [msg], rng)[0][0] for msg in msgs]
        assert [(s.rc.encode(), s.s) for s in sigs] == [(s.rc.encode(), s.s) for s in apart]
        assert all(verify(suite, sig, roster, msg) for sig, msg in zip(sigs, msgs))


def test_session_given_only_a_signing_key_derives_its_own(mock, rng):
    sk1, sk2 = distinct_keys(mock, 2, rng)
    roster = (mock.generator ** sk1, mock.generator ** sk2)
    with mock.measure() as span:
        session, _ = start_session(mock, sk2, roster, b"m", rng)
    assert session.index == 1
    assert span.exponentiations == 2  # its key and its nonce


def test_single_signer_roster(mock, rng):
    sk = mock.rand_scalar_nonzero(rng)
    (sig,), roster = cosign(mock, [sk], [b"solo"], rng)
    assert len(roster) == 1
    assert verify(mock, sig, roster, b"solo")


def test_cosign_on_bn256(bn256):
    rng = random.Random(2024)
    keys = distinct_keys(bn256, 3, rng)
    (sig,), roster = cosign(bn256, keys, [b"curve msg"], rng)
    assert verify(bn256, sig, roster, b"curve msg")
    assert not verify(bn256, sig, roster, b"curve msg!")


def test_session_rejects_duplicate_roster(mock, rng):
    sk = mock.rand_scalar_nonzero(rng)
    vk = mock.generator ** sk
    with pytest.raises(MusigError):
        SignSession(mock, sk, (vk, vk), b"m", rng)


@pytest.mark.parametrize(
    "keys, reason", [([], "roster is empty"), ([5, 5], "roster repeats a key")]
)
def test_cosign_refuses_a_roster_no_session_may_sign_for(mock, keys, reason):
    with pytest.raises(MusigError, match="^%s$" % reason):
        cosign(mock, keys, [b"m"])


# roster shapes that let one party, or none, sign for the whole roster,
# and the reason :func:`musig.roster_problem` gives for each
FORGED_ROSTERS = [
    ("empty", "roster is empty"),
    ("vk,O", "roster holds the identity"),
    ("O,O", "roster holds the identity"),
    ("vk,vk", "roster repeats a key"),
]


def forged_signature(suite, shape, msg, rng):
    """A roster of ``shape`` (O is the identity) and a signature on ``msg``
    made with at most one signing key: every key but vk adds nothing, so
    the one holder signs for vk's whole challenge weight."""
    g = suite.generator
    sk = suite.rand_scalar_nonzero(rng)
    vk, identity = g ** sk, g ** 0
    roster = {"empty": (), "vk,O": (vk, identity), "O,O": (identity, identity),
              "vk,vk": (vk, vk)}[shape]
    r = suite.rand_scalar_nonzero(rng)
    rc = g ** r
    weight = sum(challenge_of(suite, roster, rc, msg, i)
                 for i, key in enumerate(roster) if key is vk)
    return MultiSig(rc=rc, s=(r + sk * weight) % suite.order), roster


def challenge_of(suite, roster, rc, msg, i):
    """Signer i's challenge, from the roster and nonce as elements."""
    keys = [key.encode() for key in roster]
    return musig.challenge(suite, musig.roster_encoding(keys), keys[i], rc.encode(), msg)


def holds_the_equation(suite, sig, roster, msg) -> bool:
    """g^s == RC times every key to its challenge, with no roster rule."""
    rhs = sig.rc
    for i, vk in enumerate(roster):
        rhs = rhs * vk ** challenge_of(suite, roster, sig.rc, msg, i)
    return suite.generator ** sig.s == rhs


@pytest.mark.parametrize("suite_name", ["mock", "bn256"])
@pytest.mark.parametrize("shape, problem", FORGED_ROSTERS, ids=[s for s, _ in FORGED_ROSTERS])
def test_verify_refuses_a_roster_one_party_can_pose_as(suite_name, shape, problem, rng):
    suite = get_suite(suite_name)
    sig, roster = forged_signature(suite, shape, b"m", rng)
    assert holds_the_equation(suite, sig, roster, b"m")
    assert musig.roster_problem(suite, [vk.encode() for vk in roster]) == problem
    with suite.measure() as span:
        assert not verify(suite, sig, roster, b"m")
    assert span.as_dict() == OpCounters().as_dict()
    if roster:
        with pytest.raises(MusigError, match=problem):
            SignSession(suite, 1, roster, b"m", rng, vk=roster[0])


def test_session_rejects_unknown_signer(mock, rng):
    sk1, sk2 = distinct_keys(mock, 2, rng)
    roster = (mock.generator ** sk1,)
    with pytest.raises(MusigError):
        SignSession(mock, sk2, roster, b"m", rng)


def _run_rounds(sessions, first_msgs):
    """Deliver each round's messages to every other session."""
    outgoing = list(first_msgs)
    while True:
        results = []
        for i, session in enumerate(sessions):
            inbox = [m for j, m in enumerate(outgoing) if j != i]
            results.append(session.step(inbox))
        for r in results:
            if isinstance(r, (SessionAbort, MultiSig)):
                return results
        outgoing = results


def test_manual_session_flow(mock, rng):
    keys = distinct_keys(mock, 3, rng)
    roster = tuple(mock.generator ** k for k in keys)
    msg = b"manual run"
    sessions, commits = [], []
    for sk in keys:
        s, c = start_session(mock, sk, roster, msg, rng)
        sessions.append(s)
        commits.append(c)
    results = _run_rounds(sessions, commits)
    assert all(isinstance(r, MultiSig) for r in results)
    # every honest participant assembles the identical signature
    assert all(r.s == results[0].s for r in results)
    assert all(r.rc == results[0].rc for r in results)
    assert verify(mock, results[0], roster, msg)


def test_commitment_mismatch_aborts_before_partials(mock, rng):
    keys = distinct_keys(mock, 3, rng)
    roster = tuple(mock.generator ** k for k in keys)
    msg = b"attack run"
    sessions, commits = [], []
    for sk in keys:
        s, c = start_session(mock, sk, roster, msg, rng)
        sessions.append(s)
        commits.append(c)
    honest, cheat = sessions[0], sessions[2]

    reveals = []
    for i, s in enumerate(sessions):
        inbox = [c for j, c in enumerate(commits) if j != i]
        reveals.append(s.step(inbox))
    # the cheater swaps in a nonce share it never committed to
    fake = RevealMsg(sender=cheat.index, value=mock.generator ** 99)
    inbox = [reveals[1], fake]
    out = honest.step(inbox)
    assert isinstance(out, SessionAbort)
    assert out.offender == cheat.index
    assert honest.phase is Phase.ABORTED
    # no partial signature was ever computed and the nonce is destroyed
    assert honest._partial is None
    assert honest._nonce is None
    with pytest.raises(MusigError):
        honest.step([])


def test_session_enforces_message_cover(mock, rng):
    keys = distinct_keys(mock, 3, rng)
    roster = tuple(mock.generator ** k for k in keys)
    s, _ = start_session(mock, keys[0], roster, b"m", rng)
    with pytest.raises(MusigError):
        s.step([])  # missing both commitments
    with pytest.raises(MusigError):
        s.step([CommitMsg(sender=0, value=b"x" * 32)])  # own index echoed back
    commit = CommitMsg(sender=1, value=b"x" * 32)
    with pytest.raises(MusigError, match="^message from unknown roster index 3$"):
        s.step([commit, CommitMsg(sender=3, value=b"x" * 32)])
    with pytest.raises(MusigError, match="^duplicate message from roster index 1$"):
        s.step([commit, commit])


def test_session_rejects_wrong_message_type(mock, rng):
    keys = distinct_keys(mock, 2, rng)
    roster = tuple(mock.generator ** k for k in keys)
    s, _ = start_session(mock, keys[0], roster, b"m", rng)
    with pytest.raises(MusigError):
        s.step([RevealMsg(sender=1, value=mock.generator)])


def test_challenge_binds_index_and_roster(mock, rng):
    keys = distinct_keys(mock, 2, rng)
    roster = tuple(mock.generator ** k for k in keys)
    rc = mock.generator ** 5
    c0 = challenge_of(mock, roster, rc, b"m", 0)
    c1 = challenge_of(mock, roster, rc, b"m", 1)
    assert c0 != c1 or roster[0] == roster[1]
    swapped = (roster[1], roster[0])
    assert challenge_of(mock, swapped, rc, b"m", 0) != c0


def test_sig_json_roundtrip(mock, rng):
    keys = distinct_keys(mock, 2, rng)
    (sig,), roster = cosign(mock, keys, [b"serialize me"], rng)
    back = musig.sig_from_json(musig.sig_to_json(mock, sig), mock)
    assert back.rc == sig.rc
    assert back.s == sig.s
    assert verify(mock, back, roster, b"serialize me")
