"""Levelled decryption in one sitting.

One record is split over three sensitivity levels and encrypted once.
Two users with different attribute sets then decrypt the same
ciphertext; each recovers exactly the levels their attributes unlock
and learns nothing about the rest.
"""

import random

from etenon import mlabe, policy
from etenon.algebra import get_suite

POLICY = """\
level 1 requires [1]
level 2 requires [1, 2]
level 3 requires [1, 2, 3]
tree: attr:basic, attr:doctor, attr:records
"""


def main():
    rng = random.Random(7)
    suite = get_suite("mock")
    pp, msk = mlabe.setup(suite, rng)

    tree = policy.parse_policy(POLICY)
    payloads = {
        1: b"symptom: chest pain, dry cough",
        2: b"history: no known allergies",
        3: b"assessment: suspected angina",
    }
    ct = mlabe.encrypt(pp, payloads, tree, rng)
    print("policy:")
    print(policy.format_policy(tree))
    print("ciphertext carries %d group elements for %d levels over %d leaves"
          % (mlabe.element_count(ct), len(tree.levels), tree.leaf_count()))
    print()

    for who, attrs in [
        ("doctor", ["basic", "doctor", "records"]),
        ("nurse", ["basic"]),
        ("outsider", []),
    ]:
        key = mlabe.keygen(pp, msk, attrs, rng)
        opened = mlabe.decrypt(pp, ct, key)
        print("%s (attrs %s) opens levels %s" % (who, attrs or "none",
                                                 sorted(opened) or "none"))
        for level in sorted(opened):
            print("  level %d: %s" % (level, opened[level].decode()))


if __name__ == "__main__":
    main()
