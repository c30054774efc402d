"""The whole exchange, twice: once honest, once tampered.

A scenario document drives setup, the owner/provider agreement, store
ingest and two retrievals.  The honest run ends with the doctor seeing
every level and the nurse only the first two.  The tampered run hands
the owner's package to the provider with one row edited in transit:
the provider refuses to co-sign when its reconstruction disagrees with
what the owner claimed, so nothing reaches the store at all.
"""

import json
import random

from dataclasses import replace

from etenon import tenon, workflow

SCENARIO = {
    "suite": "mock",
    "seed": 23,
    "timestamp": 1_700_000_000,
    "participants": {
        "patient": {"role": "DO", "attrs": ["holder"]},
        "hospital": {"role": "SP", "attrs": ["basic", "doctor", "records"]},
        "dr_grey": {"role": "DU", "attrs": ["basic", "doctor", "records"]},
        "nurse_kim": {"role": "DU", "attrs": ["basic"]},
    },
    "policy": "\n".join([
        "level 1 requires [1]",
        "level 2 requires [1, 2]",
        "level 3 requires [1, 2, 3]",
        "tree: attr:basic, attr:doctor, attr:records",
    ]),
    "record": [
        {"name": "nino", "value": "QQ123456C"},
        {"name": "symptom", "value": "Pain in the chest and a cough"},
        {"name": "history", "value": "No known allergies"},
    ],
    "levels": {"1": ["symptom"], "2": ["history"]},
    "identifiable_level": 3,
    "do": "patient",
    "sp": "hospital",
    "retrieve": [{"du": "dr_grey"}, {"du": "nurse_kim"}],
}


def main():
    summary = workflow.run_scenario(SCENARIO)
    print("verdict:", summary["agreement"]["verdict"])
    print("signatures issued:", summary["agreement"]["signatures"])
    print("ingest accepted:", summary["ingest"]["accepted"])
    for r in summary["retrievals"]:
        print("%s recovered %d of %d levels:" % (
            r["du"], r["levels_recovered"], r["levels_in_ciphertext"]))
        for level in sorted(r["levels"], key=int):
            rec = r["levels"][level]
            shown = rec["text"] if rec["kind"] == "chain" else json.dumps(
                rec["identifiable"])
            print("  level %s (%s): %s" % (level, rec["kind"], shown))

    print()
    ctx = workflow.phase_setup(
        "mock", SCENARIO["participants"], rng=random.Random(SCENARIO["seed"])
    )
    record = tenon.record_from_json(SCENARIO["record"])
    terms = workflow.agree_terms(
        SCENARIO["policy"], SCENARIO["levels"], SCENARIO["identifiable_level"],
        timestamp=SCENARIO["timestamp"],
    )
    package = workflow.owner_package(ctx, record, terms)
    pointer, row = next(iter(package.rows.items()))
    package.rows[pointer] = replace(row, block=row.block + " (edited)")
    transcript = workflow.cosign_package(ctx, "patient", "hospital", record, terms, package)
    print("tampered verdict:", transcript.verdict)
    print("signatures issued:", transcript.signature_count)
    print("anything stored:", bool(ctx.db.read_open()))


if __name__ == "__main__":
    main()
