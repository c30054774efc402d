"""An adversary on the owner-to-provider channel: edits to the package
between the owner's half of the agreement and the provider's.

Each edit takes ``(package, ctx)``, changes the package in place and may
draw from ``ctx.rng``; the provider must refuse every one in ``EDITS``.
"""

from dataclasses import replace

from etenon import mlabe, policy, tenon, workflow


def across(ctx, do_name, sp_name, record, terms, edit):
    """The agreement with ``edit`` applied to the package in transit."""
    package = workflow.owner_package(ctx, record, terms)
    edit(package, ctx)
    return workflow.cosign_package(ctx, do_name, sp_name, record, terms, package)


def open_with_coefficients(pp, ct, coefficients):
    """Every level's payload, opened with the coefficients that sealed ``ct``.

    The level secrets they give are every level key, with no attribute
    key at all: whoever holds the coefficients reads every level."""
    _, level_secrets = policy.derive_shares(ct.tree, pp.suite.order, coefficients)
    return {
        level: pp.suite.unseal(
            pp.egg_gamma ** level_secrets[level], masked, mlabe._level_context(level)
        )
        for level, (_, masked) in ct.levels.items()
    }


def block_edit(package, ctx):
    t = next(iter(package.rows.values()))
    package.rows[t.pointer] = replace(t, block=t.block + " tampered")


def chain_reorder(package, ctx):
    # rows run in chain order: the first level of two or more blocks
    rows = package.rows
    a = next(t for t in rows.values() if t.next is not None)
    b = rows[a.next]
    rows[a.pointer] = replace(a, block=b.block)
    rows[b.pointer] = replace(b, block=a.block)


def ciphertext_swap(package, ctx):
    bogus = {
        level: workflow.encode_chain_payload(tenon.make_pointer(ctx.rng))
        for level in package.ciphertext.tree.levels
    }
    package.ciphertext = mlabe.encrypt(ctx.pp, bogus, package.ciphertext.tree, ctx.rng)


def policy_swap(package, ctx):
    """The owner's own payloads and coefficients, under a tree whose
    every level needs only its first sub-tree."""
    ct, coefficients = package.ciphertext, package.coefficients
    weak = replace(ct.tree, levels={l: w[:1] for l, w in ct.tree.levels.items()})
    package.ciphertext = mlabe.encrypt(
        ctx.pp, open_with_coefficients(ctx.pp, ct, coefficients), weak,
        coefficients=coefficients,
    )


EDITS = (block_edit, chain_reorder, ciphertext_swap, policy_swap)
