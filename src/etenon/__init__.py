"""Levelled EHR sharing over an open, shuffled block store.

The pieces, bottom to top:

* :mod:`etenon.algebra` -- pairing suites (production curve and a
  small-prime mock) with operation counting.
* :mod:`etenon.policy` -- levelled access trees, the policy language,
  secret sharing over the tree.
* :mod:`etenon.musig` -- three-round interactive co-signing, with
  commitment-checked nonces, of opaque byte messages.
* :mod:`etenon.mlabe` -- multi-level attribute-based encryption; one
  ciphertext, one sealed payload per level.
* :mod:`etenon.tenon` -- record classification, block tokenization and
  pointer-linked chains.
* :mod:`etenon.tdb` -- the open store: the co-signed row format,
  verification gate, shuffling, persistence.
* :mod:`etenon.workflow` -- the multi-entity protocol: setup, the
  co-signing agreement, ingestion, retrieval, scenario runs.
* :mod:`etenon.cli` -- the ``etenon`` command.
"""
