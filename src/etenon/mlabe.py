"""Multi-level attribute-based sealing of per-level payloads.

One ciphertext carries one access tree and one sealed payload per
security level (the payload is normally a 16-byte chain-head pointer,
but any byte string works; identifiable column bundles ride the same
mechanism under their own level).

Setup draws master scalars gamma and delta.  A key binds an attribute
set under a fresh scalar r that never leaves key generation; the
holder's signing key is drawn apart from it.
Encryption secret-shares a fresh root polynomial over the tree, seals
each level's payload under the target-group value e(g,g)^(gamma * s_l)
where s_l is that level's share sum, and publishes two group elements
per level and two per leaf.  The shares may come from a given share
plan instead, and the seal is deterministic, so whoever holds the plan
and the payloads can re-encrypt and compare bytes: that is how the
provider checks an owner's ciphertext.  A plan gives every level key,
so it must travel only over a confidential owner-to-provider channel
and never reaches a transcript or the store.  Decryption reconstructs
the level value by pairing key components against leaf elements,
combining with Lagrange coefficients up the tree, and dividing out of
the paired level element.

A level costs two pairings per leaf it uses plus one for its level
element.  Each root sub-tree is one Miller loop over all its leaves'
pairs, evaluated once whichever levels share it, and the first level
to reach it pairs its level element in that loop too, so a level runs
a loop of its own only when it reaches no new root sub-tree.  The
product of the Lagrange coefficients above a leaf is raised in the
source group, on the leaf's two left arguments, so a gate costs two
short G1 powers per leaf below it and no GT exponentiation; a leaf
whose product is 1 raises nothing.  On bn256 a level then pays
a single final exponentiation: the suite defers it from each loop
until the level value unseals its payload or divides its mask.

Each element lives on one side of the asymmetric pairing.  The level
elements, the hashed leaf elements, the key parts that carry g^r and
the verification key are left; d, the other key part per
attribute and the other leaf element are right, so every pairing in
decryption takes one element of each.

A second pair of entry points (:func:`encrypt_gt` / :func:`decrypt_gt`)
masks target-group elements multiplicatively instead of sealing bytes;
it exists to make the scheme's algebraic identity directly testable.
"""

from __future__ import annotations

import operator

from dataclasses import dataclass
from functools import reduce

from . import musig, policy
from .algebra import (
    LEFT,
    RIGHT,
    G0Element,
    G1Element,
    GroupSuite,
    IntegrityError,
    get_suite,
)
from .codec import b64, canonical_json, decoding, typed, unb64
from .errors import EtenonError
from .policy import AccessTree, Leaf, NodePath


class MlabeError(EtenonError):
    """Mismatched material or a malformed ciphertext document."""


ENVELOPE_VERSION = 6


@dataclass
class PublicParams:
    suite: GroupSuite
    g: G0Element
    g_delta: G0Element
    egg_gamma: G1Element

    def __post_init__(self):
        # every encryption raises these: their powers take tables
        for base in (self.g, self.g_delta, self.egg_gamma):
            self.suite.fixed_base(base)

    def encode(self) -> bytes:
        """Canonical bytes, used inside signed digests."""
        parts = [self.suite.name.encode("ascii")]
        for el in (self.g.encode(), self.g_delta.encode(), self.egg_gamma.encode()):
            parts.append(len(el).to_bytes(4, "big"))
            parts.append(el)
        return b"|".join([parts[0], b"".join(parts[1:])])


@dataclass
class MasterKey:
    delta: int
    g_gamma: G0Element


@dataclass
class DecryptionKey:
    attrs: frozenset[str]
    d: G0Element
    components: dict[str, tuple[G0Element, G0Element]]


@dataclass
class KeyBundle:
    """Decryption key plus the signing pair issued alongside it."""

    decryption: DecryptionKey
    signing: int
    verification: G0Element


@dataclass
class CiphertextBundle:
    """Level pairs (c_l, masked payload) and leaf pairs under one tree.

    The masked payload is sealed bytes from :func:`encrypt`, or a
    masked target-group element from :func:`encrypt_gt`.
    """

    suite_name: str
    tree: AccessTree
    levels: dict[int, tuple[G0Element, bytes | G1Element]]
    leaves: dict[NodePath, tuple[G0Element, G0Element]]


# ----------------------------------------------------------------------
# the four algorithms


def setup(suite: GroupSuite, rng=None) -> tuple[PublicParams, MasterKey]:
    """Draw master scalars and publish the public parameters."""
    gamma = suite.rand_scalar_nonzero(rng)
    delta = suite.rand_scalar_nonzero(rng)
    g = suite.generator
    pp = PublicParams(
        suite=suite,
        g=g,
        g_delta=g ** delta,
        egg_gamma=suite.gt_generator ** gamma,
    )
    msk = MasterKey(delta=delta, g_gamma=suite.right_generator ** gamma)
    return pp, msk


def attribute_set(attrs) -> frozenset[str]:
    """The names in ``attrs``, a list, tuple or set of strings.  A string
    is refused rather than read as the set of its letters."""
    if not isinstance(attrs, (list, tuple, set, frozenset)):
        raise MlabeError(
            "attributes must be a list, tuple or set of names, found %s" % type(attrs).__name__
        )
    for attr in attrs:
        if not isinstance(attr, str):
            raise MlabeError("an attribute name must be a str, found %s" % type(attr).__name__)
    return frozenset(attrs)


def keygen(pp: PublicParams, msk: MasterKey, attrs, rng=None) -> KeyBundle:
    """Issue a key for an attribute set, with a signing pair of its own.

    ``attrs`` is checked by :func:`attribute_set` before anything is
    drawn.  The fresh scalar r randomizes the decryption key and is never
    handed out: anyone who knew r could pair g^r with a leaf element and
    stand in for attributes the key does not hold.
    """
    attrs = attribute_set(attrs)
    suite = pp.suite
    g2 = suite.right_generator
    r = suite.rand_scalar_nonzero(rng)
    inv_delta = pow(msk.delta, suite.order - 2, suite.order)
    d = (msk.g_gamma * (g2 ** r)) ** inv_delta
    g_r = pp.g ** r
    components = {}
    for attr in sorted(attrs):
        r_a = suite.rand_scalar(rng)
        components[attr] = (
            g_r * (suite.hash_to_group(attr) ** r_a),
            g2 ** r_a,
        )
    dk = DecryptionKey(attrs=attrs, d=d, components=components)
    sk, vk = musig.keypair(suite, rng)
    return KeyBundle(decryption=dk, signing=sk, verification=vk)


def _level_context(level: int) -> bytes:
    return b"level:%d" % level


def _encrypt(pp: PublicParams, plain, tree: AccessTree, rng, plan, mask) -> CiphertextBundle:
    """Share one secret over the tree; ``mask(level, key, plain)`` hides each level."""
    if set(plain) != set(tree.levels):
        raise MlabeError(
            "levels %s do not match policy levels %s"
            % (sorted(plain), sorted(tree.levels))
        )
    suite = pp.suite
    if plan is None:
        plan = policy.assign_shares(tree, suite.order, rng)
    leaves = {}
    for path, leaf in policy.iter_leaves(tree):
        share = plan.leaf_shares[path]
        leaves[path] = (
            suite.right_generator ** share,
            suite.hash_to_group(leaf.attribute) ** share,
        )
    levels = {}
    for level in sorted(tree.levels):
        secret = plan.level_secrets[level]
        levels[level] = (
            pp.g_delta ** secret,
            mask(level, pp.egg_gamma ** secret, plain[level]),
        )
    return CiphertextBundle(
        suite_name=suite.name, tree=tree, levels=levels, leaves=leaves
    )


def encrypt(
    pp: PublicParams,
    payloads,
    tree: AccessTree,
    rng=None,
    *,
    plan: policy.SharePlan | None = None,
) -> CiphertextBundle:
    """Seal one byte payload per declared level under the tree.

    The shares come from ``plan`` when one is given, else from a plan
    drawn from ``rng``; the seal is deterministic, so one plan and one
    set of payloads always give the same ciphertext.
    """

    def seal(level, key, payload):
        return pp.suite.seal(key, bytes(payload), _level_context(level))

    return _encrypt(pp, payloads, tree, rng, plan, seal)


def encrypt_gt(pp: PublicParams, elements, tree: AccessTree, rng=None) -> CiphertextBundle:
    """Mask one target-group element per level by multiplication."""
    return _encrypt(pp, elements, tree, rng, None, lambda level, key, x: x * key)


def _level_keys(pp: PublicParams, ct: CiphertextBundle, dk: DecryptionKey):
    """Yield (level, masked, e(g,g)^(gamma*s_l)) for each level the key opens.

    Gates combine the first t children the key can open, in index order,
    with Lagrange coefficients, which are folded into the left arguments
    of the leaves' pairings.  A level stops at its first root sub-tree
    that cannot be opened.  The level value is e(c_l, d) over the
    product of its root sub-trees' pairings.  Each root sub-tree an
    opened level uses is one pending Miller loop, evaluated at most
    once: its leaves' pairs, inverted, times e(C, d), where the left
    element C is carried so that a level's loops multiply to its value.
    The first level that reaches a root not yet looped puts
    C = c_l / (the C of its roots that have a loop) into one such root's
    loop, and its other new roots carry none; a level whose roots all
    have loops pays one more loop, e(C, d) with the same quotient.
    """
    suite = pp.suite
    if ct.suite_name != suite.name:
        raise MlabeError(
            "ciphertext was made on suite %s, not %s" % (ct.suite_name, suite.name)
        )

    order = suite.order

    def leaves(node, path: NodePath):
        """(path, attribute, Lagrange product) for each leaf that opens
        node, the product over the gates from node down; None if the key
        cannot open node."""
        if isinstance(node, Leaf):
            attr = node.attribute
            if attr not in dk.attrs or attr not in dk.components or path not in ct.leaves:
                return None
            return [(path, attr, 1)]
        chosen = []
        for j, child in enumerate(node.children, start=1):
            if len(chosen) == node.threshold:
                break
            got = leaves(child, path + (j,))
            if got is not None:
                chosen.append((j, got))
        if len(chosen) < node.threshold:
            return None
        index_set = [j for j, _ in chosen]
        out = []
        for j, got in chosen:
            coeff = policy.lagrange_coeff(j, index_set, order)
            out += [(p, attr, delta * coeff % order) for p, attr, delta in got]
        return out

    def root_loop(used, first=()) -> G1Element:
        """One pending Miller loop: the pairings ``first`` over the used
        leaves' product of e(d_a, c)^delta / e(cp, dp_a)^delta, that is,
        times e(cp^delta, dp_a) / e(d_a^delta, c)."""
        num, den = list(first), []
        for path, attr, delta in used:
            c, cp = ct.leaves[path]
            d_a, dp_a = dk.components[attr]
            if delta != 1:
                d_a, cp = d_a ** delta, cp ** delta
            num.append(suite.pairing(cp, dp_a))
            den.append(suite.pairing(d_a, c))
        return suite.pairing_product(num, den)

    opens: dict[int, list | None] = {}  # root -> its used leaves, or None
    loops: dict[int, G1Element] = {}
    carried: dict[int, G0Element] = {}  # root -> the C its loop pairs with d
    for level in sorted(ct.levels):
        wanted = ct.tree.levels.get(level)
        if wanted is None:
            continue
        for i in wanted:
            if i not in opens:
                opens[i] = leaves(ct.tree.children[i - 1], (i,))
            if opens[i] is None:
                break
        else:
            c_l, masked = ct.levels[level]
            for i in wanted:
                if i in carried:
                    c_l = c_l * -carried[i]
            pair = suite.pairing(c_l, dk.d)
            new = [i for i in wanted if i not in loops]
            if new:
                carried[new[0]] = c_l
                for i in new:
                    loops[i] = root_loop(opens[i], [pair] if i == new[0] else ())
            parts = [loops[i] for i in wanted] + ([] if new else [pair])
            yield level, masked, reduce(operator.mul, parts)


def decrypt(pp: PublicParams, ct: CiphertextBundle, dk: DecryptionKey) -> dict[int, bytes]:
    """Recover the payloads of every level the key satisfies.

    Unsatisfied levels are simply absent from the result; a level whose
    seal fails authentication (for instance under an inconsistent key)
    is also absent rather than ever yielding garbage bytes.
    """
    out = {}
    for level, mask, key in _level_keys(pp, ct, dk):
        try:
            out[level] = pp.suite.unseal(key, mask, _level_context(level))
        except IntegrityError:
            continue
    return out


def decrypt_gt(pp: PublicParams, ct: CiphertextBundle, dk: DecryptionKey) -> dict[int, G1Element]:
    """Multiplicative counterpart of :func:`decrypt`."""
    return {level: masked / key for level, masked, key in _level_keys(pp, ct, dk)}


# ----------------------------------------------------------------------
# JSON envelopes


def _envelope(suite_name: str, kind: str) -> dict:
    return {"version": ENVELOPE_VERSION, "suite": suite_name, "kind": kind}


def _open_envelope(obj, kind: str, suite: GroupSuite | None) -> GroupSuite:
    """The suite a ``kind`` document is for; call inside :func:`decoding`."""
    if typed(obj, dict).get("version") != ENVELOPE_VERSION:
        raise MlabeError("unsupported document version %r" % obj.get("version"))
    if obj.get("kind") != kind:
        raise MlabeError("expected a %s document, found %r" % (kind, obj.get("kind")))
    name = typed(obj.get("suite"), str)
    if suite is None:
        return get_suite(name)
    if suite.name != name:
        raise MlabeError("document is for suite %s, not %s" % (name, suite.name))
    return suite


def pp_to_json(pp: PublicParams) -> dict:
    doc = _envelope(pp.suite.name, "public-params")
    doc.update(
        g=b64(pp.g.encode()),
        g_delta=b64(pp.g_delta.encode()),
        egg_gamma=b64(pp.egg_gamma.encode()),
    )
    return doc


def pp_from_json(obj, suite: GroupSuite | None = None) -> PublicParams:
    with decoding(MlabeError, "public parameters"):
        suite = _open_envelope(obj, "public-params", suite)
        egg_gamma = suite.decode_gt(unb64(obj["egg_gamma"]))
        if egg_gamma == suite.gt_identity:
            raise MlabeError("egg_gamma is the identity")
        return PublicParams(
            suite=suite,
            g=suite.decode_g0(unb64(obj["g"]), LEFT),
            g_delta=suite.decode_g0(unb64(obj["g_delta"]), LEFT),
            egg_gamma=egg_gamma,
        )


def msk_to_json(suite: GroupSuite, msk: MasterKey) -> dict:
    doc = _envelope(suite.name, "master-key")
    doc.update(
        delta=b64(suite.encode_scalar(msk.delta)),
        g_gamma=b64(msk.g_gamma.encode()),
    )
    return doc


def msk_from_json(obj, suite: GroupSuite) -> MasterKey:
    with decoding(MlabeError, "master key"):
        _open_envelope(obj, "master-key", suite)
        return MasterKey(
            delta=suite.decode_scalar(unb64(obj["delta"])),
            g_gamma=suite.decode_g0(unb64(obj["g_gamma"]), RIGHT),
        )


def key_to_json(suite: GroupSuite, bundle: KeyBundle) -> dict:
    dk = bundle.decryption
    doc = _envelope(suite.name, "key-bundle")
    doc.update(
        attrs=sorted(dk.attrs),
        d=b64(dk.d.encode()),
        components={
            attr: {"d": b64(pair[0].encode()), "dp": b64(pair[1].encode())}
            for attr, pair in sorted(dk.components.items())
        },
        sk=b64(suite.encode_scalar(bundle.signing)),
        vk=b64(bundle.verification.encode()),
    )
    return doc


def key_from_json(obj, suite: GroupSuite) -> KeyBundle:
    with decoding(MlabeError, "key bundle"):
        _open_envelope(obj, "key-bundle", suite)
        attrs = frozenset(typed(a, str) for a in typed(obj["attrs"], list))
        components = {
            attr: (
                suite.decode_g0(unb64(typed(pair, dict)["d"]), LEFT),
                suite.decode_g0(unb64(pair["dp"]), RIGHT),
            )
            for attr, pair in typed(obj["components"], dict).items()
        }
        if set(components) != attrs:
            raise MlabeError("component attributes do not match the attribute list")
        dk = DecryptionKey(
            attrs=attrs,
            d=suite.decode_g0(unb64(obj["d"]), RIGHT),
            components=components,
        )
        return KeyBundle(
            decryption=dk,
            signing=suite.decode_scalar(unb64(obj["sk"])),
            verification=suite.decode_g0(unb64(obj["vk"]), LEFT),
        )


def ct_to_json(ct: CiphertextBundle) -> dict:
    doc = _envelope(ct.suite_name, "ciphertext")
    doc.update(
        policy=policy.format_policy(ct.tree),
        levels=[
            {
                "level": level,
                "c": b64(ct.levels[level][0].encode()),
                "mask": b64(ct.levels[level][1]),
            }
            for level in sorted(ct.levels)
        ],
        leaves=[
            {
                "path": list(path),
                "c": b64(ct.leaves[path][0].encode()),
                "cp": b64(ct.leaves[path][1].encode()),
            }
            for path in sorted(ct.leaves)
        ],
    )
    return doc


def ct_from_json(obj, suite: GroupSuite) -> CiphertextBundle:
    with decoding(MlabeError, "ciphertext document"):
        _open_envelope(obj, "ciphertext", suite)
        tree = policy.parse_policy(obj["policy"])
        levels = {
            typed(typed(entry, dict)["level"], int): (
                suite.decode_g0(unb64(entry["c"]), LEFT),
                unb64(entry["mask"]),
            )
            for entry in typed(obj["levels"], list)
        }
        leaves = {
            tuple(typed(i, int) for i in typed(typed(entry, dict)["path"], list)): (
                suite.decode_g0(unb64(entry["c"]), RIGHT),
                suite.decode_g0(unb64(entry["cp"]), LEFT),
            )
            for entry in typed(obj["leaves"], list)
        }
        if len(levels) != len(obj["levels"]) or len(leaves) != len(obj["leaves"]):
            raise MlabeError("ciphertext lists a level or a leaf twice")
        if set(levels) != set(tree.levels):
            raise MlabeError("ciphertext levels do not match its policy")
        if set(leaves) != {path for path, _ in policy.iter_leaves(tree)}:
            raise MlabeError("ciphertext leaves do not match its policy")
        return CiphertextBundle(
            suite_name=suite.name, tree=tree, levels=levels, leaves=leaves
        )


def ct_check_envelope(obj, suite: GroupSuite) -> None:
    """Check a ciphertext document's version, kind and suite, not its elements."""
    with decoding(MlabeError, "ciphertext document"):
        _open_envelope(obj, "ciphertext", suite)


def ct_canonical_bytes(ct: CiphertextBundle) -> bytes:
    """Stable byte form of a ciphertext, the unit that gets co-signed."""
    return canonical_json(ct_to_json(ct))


def element_count(ct: CiphertextBundle) -> int:
    """Number of source-group elements in the bundle: level and leaf pairs."""
    return 2 * len(ct.levels) + 2 * len(ct.leaves)
