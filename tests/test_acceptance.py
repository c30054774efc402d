"""Acceptance suite: one test per shipped guarantee.

Each test prints a PASS/FAIL line for its criterion straight to the
real stdout so the summary survives pytest's capture.  Tolerances and
trial counts are pinned here and nowhere else:

* criterion 1: 200 mock + 50 production-curve round trips (the
  production block aims to stay under a minute; runtime is reported,
  not asserted)
* criterion 9: chi-square over the 119 non-identity orders of 5 rows,
  10,000 seeded draws, alpha = 0.01 (threshold chi2.ppf(0.99, 118))
* everything else: exact equality / exact counts
"""

import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest
import scipy.stats

from etenon import mlabe, musig, policy, tdb, tenon, workflow
from etenon.algebra import G0Element, IntegrityError, get_suite
from etenon.codec import canonical_json
from etenon.mlabe import DecryptionKey
from etenon.musig import (
    MultiSig,
    Phase,
    RevealMsg,
    SessionAbort,
    start_session,
)
from etenon.tdb import OpenRow, TenonDb
from etenon.tenon import build_structure, load_stopwords, normalize, reconstruct, tokenize
import channel
import oracles
from conftest import ACCEPTANCE_LINES


def _report(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # visible under -s too


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        _report("FAIL  criterion %2d: %s" % (number, text))
        raise
    _report("PASS  criterion %2d: %s" % (number, text))


def distinct_keys(suite, n, rng):
    keys = []
    while len(keys) < n:
        k = suite.rand_scalar_nonzero(rng)
        if k not in keys:
            keys.append(k)
    return keys


# ----------------------------------------------------------------------
# 1. encryption round trips match the satisfaction oracle


def test_criterion_01_roundtrip_against_oracle():
    with criterion(1, "decrypt recovers exactly the oracle-satisfied levels "
                      "(200 mock + 50 production trials)"):
        mock = get_suite("mock")
        rng = random.Random(0xAB01)
        pp, msk = mlabe.setup(mock, rng)
        for trial in range(200):
            tree = oracles.random_tree(rng, policy, max_leaves=6)
            attrs = oracles.random_attr_subset(rng, tree)
            payloads = {
                level: bytes([level]) + rng.randbytes(rng.randint(0, 40))
                for level in tree.levels
            }
            ct = mlabe.encrypt(pp, payloads, tree, rng)
            bundle = mlabe.keygen(pp, msk, attrs, rng)
            got = mlabe.decrypt(pp, ct, bundle)
            want = {
                level: payloads[level]
                for level in oracles.levels_satisfied(tree, attrs)
            }
            assert got == want, "mock trial %d diverged from the oracle" % trial

        bn = get_suite("bn256")
        started = time.perf_counter()
        pp, msk = mlabe.setup(bn, rng)
        pool = ["a", "b"]
        bundles = {
            subset: mlabe.keygen(pp, msk, list(subset), rng)
            for subset in [(), ("a",), ("b",), ("a", "b")]
        }
        for trial in range(50):
            k = rng.randint(1, 2)
            tree = policy.AccessTree(
                children=(policy.Leaf("a"), policy.Leaf("b")),
                levels={
                    level: tuple(sorted(rng.sample([1, 2], rng.randint(1, 2))))
                    for level in range(1, k + 1)
                },
            )
            payloads = {
                level: rng.randbytes(rng.randint(1, 24)) for level in tree.levels
            }
            ct = mlabe.encrypt(pp, payloads, tree, rng)
            subset = tuple(sorted(rng.sample(pool, rng.randint(0, 2))))
            got = mlabe.decrypt(pp, ct, bundles[subset])
            want = {
                level: payloads[level]
                for level in oracles.levels_satisfied(tree, subset)
            }
            assert got == want, "curve trial %d diverged from the oracle" % trial
        elapsed = time.perf_counter() - started
    _report("      (production block: %.1fs for 50 trials)" % elapsed)


# ----------------------------------------------------------------------
# 2. ciphertext size and encryption cost scale as 2(k+l)


def test_criterion_02_size_and_cost_grid():
    with criterion(2, "ciphertext holds 2(k+l) group elements and encryption "
                      "spends 2(k+l) exponentiations for k in 1..5, l in 1..10"):
        mock = get_suite("mock")
        rng = random.Random(0xAB02)
        pp, _ = mlabe.setup(mock, rng)
        for k in range(1, 6):
            for l in range(1, 11):
                tree = policy.AccessTree(
                    children=tuple(policy.Leaf("a%d" % i) for i in range(1, l + 1)),
                    levels={
                        level: ((level - 1) % l + 1,) for level in range(1, k + 1)
                    },
                )
                payloads = {level: b"x" for level in range(1, k + 1)}
                with mock.measure() as span:
                    ct = mlabe.encrypt(pp, payloads, tree, rng)
                assert mlabe.element_count(ct) == 2 * (k + l), (k, l)
                assert span.exponentiations == 2 * (k + l), (k, l)
                assert span.multiplications == k, (k, l)


# ----------------------------------------------------------------------
# 3. co-signing completeness and unforgeability probes


def test_criterion_03_multisig_completeness_and_mutations():
    with criterion(3, "co-signing verifies for n in {1,2,3,5} over 200 trials; "
                      "every mutated signature, message or roster fails"):
        mock = get_suite("mock")
        rng = random.Random(0xAB03)
        g = mock.generator
        for n in (1, 2, 3, 5):
            for trial in range(50):
                keys = distinct_keys(mock, n, rng)
                msg = b"trial %d with %d signers" % (trial, n)
                (sig,), roster = musig.cosign(mock, keys, [msg], rng)
                assert musig.verify(mock, sig, roster, msg)
                assert isinstance(sig.rc, G0Element)
                assert isinstance(sig.s, int)
            # mutation battery on the last signature of each roster size
            assert not musig.verify(
                mock, MultiSig(rc=sig.rc * g, s=sig.s), roster, msg
            )
            assert not musig.verify(
                mock, MultiSig(rc=sig.rc, s=(sig.s + 1) % mock.order), roster, msg
            )
            assert not musig.verify(mock, sig, roster, msg + b"!")
            if n > 1:
                assert not musig.verify(mock, sig, roster[:-1], msg)
                swapped = (roster[1], roster[0]) + roster[2:]
                assert not musig.verify(mock, sig, swapped, msg)
            extended = roster + (g ** distinct_keys(mock, 1, rng)[0],)
            assert not musig.verify(mock, sig, extended, msg)


# ----------------------------------------------------------------------
# 4. a bad commitment aborts before any partial signature exists


def test_criterion_04_commitment_abort():
    with criterion(4, "a contradicted nonce commitment aborts all 100 runs "
                      "before any partial signature is computed"):
        mock = get_suite("mock")
        rng = random.Random(0xAB04)
        aborted = 0
        for _ in range(100):
            keys = distinct_keys(mock, 3, rng)
            roster = tuple(mock.generator ** k for k in keys)
            sessions, commits = [], []
            for sk in keys:
                s, c = start_session(mock, sk, roster, b"run", rng)
                sessions.append(s)
                commits.append(c)
            reveals = []
            for i, s in enumerate(sessions):
                inbox = [c for j, c in enumerate(commits) if j != i]
                reveals.append(s.step(inbox))
            cheat_index = 2
            fake = RevealMsg(sender=cheat_index, value=mock.generator ** 99)
            for i in (0, 1):
                inbox = [
                    fake if r.sender == cheat_index else r
                    for j, r in enumerate(reveals)
                    if j != i
                ]
                out = sessions[i].step(inbox)
                assert isinstance(out, SessionAbort)
                assert out.offender == cheat_index
                assert sessions[i].phase is Phase.ABORTED
                assert sessions[i]._partial is None
                assert sessions[i]._nonce is None
            aborted += 1
        assert aborted == 100


# ----------------------------------------------------------------------
# 5. two partial keys cannot be combined


def test_criterion_05_collusion_resistance():
    with criterion(5, "keys issued to different users cannot be mixed: the "
                      "combined value misses the level key by a nonzero factor"):
        mock = get_suite("mock")
        rng = random.Random(0xAB05)
        p = mock.order
        tree = policy.parse_policy("level 1 requires [1, 2]\ntree: attr:a, attr:b")

        for _ in range(50):
            pp, msk = mlabe.setup(mock, rng)
            gamma = mock.dlog_g0(msk.g_gamma)
            # two users whose key randomizers differ; r = dlog(d) * delta - gamma
            while True:
                k1 = mlabe.keygen(pp, msk, ["a"], rng)
                k2 = mlabe.keygen(pp, msk, ["b"], rng)
                r1, r2 = (
                    (mock.dlog_g0(k.d) * msk.delta - gamma) % p
                    for k in (k1, k2)
                )
                if r1 != r2:
                    break
            # a ciphertext whose second share is nonzero
            while True:
                ct = mlabe.encrypt(pp, {1: b"joint secret"}, tree, rng)
                q2 = mock.dlog_g0(ct.leaves[(2,)][0])
                if q2 % p:
                    break
            q1 = mock.dlog_g0(ct.leaves[(1,)][0])

            # replaying the decryption combine with mixed components
            c_a, c_a2 = ct.leaves[(1,)]
            c_b, c_b2 = ct.leaves[(2,)]
            da, da2 = k1.components["a"]
            db, db2 = k2.components["b"]
            f_a = mock.pairing(da, c_a) / mock.pairing(da2, c_a2)
            f_b = mock.pairing(db, c_b) / mock.pairing(db2, c_b2)
            c_k, sealed = ct.levels[1]
            attempt = mock.pairing(c_k, k1.d) / (f_a * f_b)

            true_key = mock.gt_generator ** (gamma * (q1 + q2) % p)
            residual = (r1 - r2) * q2 % p
            assert residual != 0
            assert attempt != true_key
            assert (
                mock.dlog_gt(attempt) - mock.dlog_gt(true_key)
            ) % p == residual
            with pytest.raises(IntegrityError):
                mock.unseal(attempt, sealed, b"level:1")

            # the public API path with a stitched-together key yields nothing
            franken = DecryptionKey(
                attrs=frozenset({"a", "b"}),
                d=k1.d,
                components={
                    "a": k1.components["a"],
                    "b": k2.components["b"],
                },
            )
            assert mlabe.decrypt(pp, ct, franken) == {}

        # same stitching attempt on the production curve
        bn = get_suite("bn256")
        pp, msk = mlabe.setup(bn, rng)
        k1 = mlabe.keygen(pp, msk, ["a"], rng)
        k2 = mlabe.keygen(pp, msk, ["b"], rng)
        ct = mlabe.encrypt(pp, {1: b"joint secret"}, tree, rng)
        franken = DecryptionKey(
            attrs=frozenset({"a", "b"}),
            d=k1.d,
            components={
                "a": k1.components["a"],
                "b": k2.components["b"],
            },
        )
        assert mlabe.decrypt(pp, ct, franken) == {}


# ----------------------------------------------------------------------
# 6. the multiplicative variant is exact


def test_criterion_06_gt_payload_identity():
    with criterion(6, "target-group payloads decrypt to exactly the element "
                      "encrypted, on both suites"):
        tree = policy.parse_policy(
            "level 1 requires [1]\nlevel 2 requires [1, 2]\ntree: attr:a, attr:b"
        )
        for suite_name in ("mock", "bn256"):
            suite = get_suite(suite_name)
            rng = random.Random(0xAB06)
            pp, msk = mlabe.setup(suite, rng)
            elems = {
                1: suite.gt_generator ** suite.rand_scalar_nonzero(rng),
                2: suite.gt_generator ** suite.rand_scalar_nonzero(rng),
            }
            ct = mlabe.encrypt_gt(pp, elems, tree, rng)
            bundle = mlabe.keygen(pp, msk, ["a", "b"], rng)
            got = mlabe.decrypt_gt(pp, ct, bundle)
            assert got[1] == elems[1], suite_name
            assert got[2] == elems[2], suite_name
            partial = mlabe.keygen(pp, msk, ["a"], rng)
            got = mlabe.decrypt_gt(pp, ct, partial)
            assert set(got) == {1} and got[1] == elems[1], suite_name


# ----------------------------------------------------------------------
# 7. chain round trips over many records


def test_criterion_07_chain_roundtrip_500_records():
    with criterion(7, "500 records tokenize, chain and reconstruct exactly, "
                      "independent of triple storage order"):
        rng = random.Random(0xAB07)
        stopwords = load_stopwords()
        mains = ["pain", "cough", "fever", "rash", "ache", "swelling", "numbness"]
        stops = sorted(stopwords)[:14]
        for trial in range(500):
            n = rng.randint(1, 14)
            words = [
                rng.choice(stops) if rng.random() < 0.45 else rng.choice(mains)
                for _ in range(n)
            ]
            text = " ".join(words)
            blocks = tokenize(text, stopwords)
            assert " ".join(blocks) == normalize(text), trial
            structure = build_structure(blocks, rng)
            got, complete = reconstruct(structure.head, structure.triples)
            assert complete and got == blocks, trial
            permuted = list(structure.triples)
            rng.shuffle(permuted)
            got2, complete2 = reconstruct(structure.head, permuted)
            assert complete2 and got2 == blocks, trial


# ----------------------------------------------------------------------
# 8. the store's verification gate


def test_criterion_08_gate_rejects_invisibly(tmp_path):
    with criterion(8, "unverifiable batches are rejected whole: nothing "
                      "becomes readable and the persisted bytes stay identical"):
        from test_tdb import make_batch  # the shared batch builder

        # an edited message verifies on mock-101 with probability 1/101
        mock = get_suite("mock-999983")
        rng = random.Random(0xAB08)
        pp, _ = mlabe.setup(mock, rng)
        db = TenonDb(pp, root=tmp_path)
        rows, secret, roster = make_batch(mock, pp, rng)
        assert db.ingest(rows, secret, roster=roster, rng=rng).accepted
        db.save_snapshot()

        open_rows, entry_ids, order = db.read_open(), db.secret_ids(), db.order_digest()
        log_bytes = (tmp_path / "log.jsonl").read_bytes()
        snap_bytes = (tmp_path / "snapshot.json").read_bytes()

        rows2, secret2, roster2 = make_batch(
            mock, pp, rng, blocks=("u", "v", "w"), entry_id="entry-2",
            roster_ref="batch-2",
        )
        attacks = [
            ([replace(rows2[0], block=rows2[0].block + "!")] + rows2[1:],
             secret2, roster2),
            ([replace(rows2[0], timestamp=1)] + rows2[1:], secret2, roster2),
            (rows2, replace(secret2, access_label="clinical",
                            ciphertext=secret.ciphertext), roster2),
            (rows2, secret2, {}),  # roster never supplied
            (rows2 + [rows[0]], secret2, roster2),  # replayed pointer
        ]
        for bad_rows, bad_secret, bad_roster in attacks:
            result = db.ingest(bad_rows, bad_secret, roster=bad_roster, rng=rng)
            assert not result.accepted
            assert db.read_open() == open_rows
            assert db.secret_ids() == entry_ids
            assert db.order_digest() == order
            assert (tmp_path / "log.jsonl").read_bytes() == log_bytes
            assert (tmp_path / "snapshot.json").read_bytes() == snap_bytes
            for row in db.read_open():
                assert row.pointer not in {r.pointer for r in rows2}
            assert db.secret_ids() == ("entry-1",)


# ----------------------------------------------------------------------
# 9. shuffling: multiset preserved, order always new, draws uniform


def test_criterion_09_shuffle_laws():
    with criterion(9, "shuffles preserve the row multiset, never repeat the "
                      "previous order, and draw uniformly (chi-square, "
                      "alpha 0.01, 10,000 draws over 119 orders)"):
        from test_tdb import make_batch

        mock = get_suite("mock")
        rng = random.Random(0xAB09)
        pp, _ = mlabe.setup(mock, rng)

        # two rows always flip
        db2 = TenonDb(pp)
        rows, secret, roster = make_batch(mock, pp, rng, blocks=("a", "b"))
        db2.ingest(rows, secret, roster=roster, rng=rng)
        for _ in range(200):
            order = [r.pointer for r in db2.read_open()]
            db2.shuffle(rng)
            assert [r.pointer for r in db2.read_open()] == order[::-1]

        # five rows: identity never appears; the rest is uniform
        db5 = TenonDb(pp)
        rows, secret, roster = make_batch(
            mock, pp, rng, blocks=("a", "b", "c", "d", "e"), roster_ref="batch-5"
        )
        db5.ingest(rows, secret, roster=roster, rng=rng)
        want = Counter(r.pointer for r in db5.read_open())
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            before = [r.pointer for r in db5.read_open()]
            index = {p: i for i, p in enumerate(before)}
            db5.shuffle(rng)
            after = [r.pointer for r in db5.read_open()]
            assert Counter(after) == want
            perm = tuple(index[p] for p in after)
            assert perm != (0, 1, 2, 3, 4)
            counts[perm] += 1

        n_orders = 119  # 5! minus the identity
        assert len(counts) == n_orders
        expected = draws / n_orders
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        threshold = scipy.stats.chi2.ppf(0.99, n_orders - 1)
        assert stat < threshold, "chi-square %.1f over threshold %.1f" % (
            stat, threshold,
        )


# ----------------------------------------------------------------------
# 10. the co-signing agreement


AGREEMENT_PARTICIPANTS = {
    "patient": {"role": "DO", "attrs": ["holder"]},
    "hospital": {"role": "SP", "attrs": ["basic", "doctor", "records"]},
}

AGREEMENT_POLICY = "\n".join(
    [
        "level 1 requires [1]",
        "level 2 requires [1, 2]",
        "level 3 requires [1, 2, 3]",
        "tree: attr:basic, attr:doctor, attr:records",
    ]
)

AGREEMENT_RECORD = [
    {"name": "nino", "value": "QQ123456C"},
    {"name": "symptom", "value": "Pain in the chest and a cough"},
    {"name": "history", "value": "No known allergies"},
]


def _agreement(seed, edit=lambda package, ctx: None):
    """The agreement, with ``edit(package, ctx)`` applied in transit."""
    ctx = workflow.phase_setup(
        "mock", AGREEMENT_PARTICIPANTS, rng=random.Random(seed)
    )
    record = tenon.record_from_json(AGREEMENT_RECORD)
    terms = workflow.agree_terms(
        AGREEMENT_POLICY, {1: ["symptom"], 2: ["history"]}, identifiable_level=3,
        timestamp=1_700_000_000,
    )
    return ctx, channel.across(ctx, "patient", "hospital", record, terms, edit)


def test_criterion_10_agreement_signs_or_refuses():
    with criterion(10, "matching reconstructions yield co-signatures on every "
                       "block and the ciphertext; every tampering refuses "
                       "with zero signatures"):
        ctx, tr = _agreement(0xAB10)
        assert tr.agreed
        assert len(tr.rows) == 5  # three symptom blocks plus two history blocks
        assert tr.signature_count == len(tr.rows) + 1
        roster = tr.roster
        pp_bytes = ctx.pp.encode()
        for row in tr.rows:
            element = {"next": str(row.next) if row.next else None, "text": row.block}
            digest = tdb.signed_digest(
                "block", canonical_json(element), row.pointer.bytes, pp_bytes, row.timestamp
            )
            assert musig.verify(ctx.suite, row.sig, roster, digest)
        header = canonical_json([tr.entry_id, tr.secret.access_label])
        digest = tdb.signed_digest(
            "ciphertext", header + mlabe.ct_canonical_bytes(tr.secret.ciphertext), None,
            pp_bytes, tr.secret.timestamp,
        )
        assert musig.verify(ctx.suite, tr.secret.sig, roster, digest)

        for edit in channel.EDITS:
            _, refused = _agreement(0xAB10, edit)
            assert not refused.agreed, edit
            assert refused.signature_count == 0, edit
            assert refused.rows is None and refused.secret is None, edit


# ----------------------------------------------------------------------
# 11. levelled retrieval end to end


def test_criterion_11_doctor_vs_nurse(tmp_path):
    with criterion(11, "under a five-level policy the doctor recovers five "
                       "chains and the nurse two; seeded runs are identical"):
        doc = {
            "suite": "mock",
            "seed": 0xAB11,
            "timestamp": 1_700_000_000,
            "participants": {
                "patient": {"role": "DO", "attrs": ["holder"]},
                "hospital": {"role": "SP", "attrs": ["c1", "c2", "c3", "c4", "c5"]},
                "doctor": {"role": "DU", "attrs": ["c1", "c2", "c3", "c4", "c5"]},
                "nurse": {"role": "DU", "attrs": ["c1", "c2"]},
            },
            "policy": "\n".join(
                ["level %d requires [%s]" % (i, ", ".join(map(str, range(1, i + 1))))
                 for i in range(1, 6)]
                + ["tree: attr:c1, attr:c2, attr:c3, attr:c4, attr:c5"]
            ),
            "record": [
                {"name": "symptom", "value": "Pain in the chest and a cough"},
                {"name": "observation", "value": "Breathing is shallow at rest"},
                {"name": "history", "value": "No known allergies"},
                {"name": "medication", "value": "Aspirin taken daily"},
                {"name": "assessment", "value": "Suspected angina under review"},
            ],
            "levels": {
                "1": ["symptom"],
                "2": ["observation"],
                "3": ["history"],
                "4": ["medication"],
                "5": ["assessment"],
            },
            "do": "patient",
            "sp": "hospital",
            "retrieve": [{"du": "doctor"}, {"du": "nurse"}],
        }
        first = workflow.run_scenario(doc, db_root=tmp_path / "one")
        second = workflow.run_scenario(doc, db_root=tmp_path / "two")
        assert first == second
        assert (tmp_path / "one" / "log.jsonl").read_bytes() == (
            tmp_path / "two" / "log.jsonl"
        ).read_bytes()

        assert first["agreement"]["verdict"] == "identical"
        by_name = {r["du"]: r for r in first["retrievals"]}
        doctor, nurse = by_name["doctor"], by_name["nurse"]
        assert doctor["levels_recovered"] == 5
        assert sorted(doctor["levels"]) == ["1", "2", "3", "4", "5"]
        assert all(v["complete"] for v in doctor["levels"].values())
        assert doctor["levels"]["5"]["text"] == "Suspected angina under review"
        assert nurse["levels_recovered"] == 2
        assert sorted(nurse["levels"]) == ["1", "2"]
        assert nurse["levels"]["1"]["text"] == "Pain in the chest and a cough"
        assert nurse["levels"]["2"]["text"] == "Breathing is shallow at rest"
