"""Canonical JSON, base64 text fields and the one guard every document
decoder runs in."""

from __future__ import annotations

import base64
import binascii
import json

from contextlib import contextmanager

from .errors import EtenonError


class CodecError(EtenonError):
    """A field that should hold base64 text does not."""


def canonical_json(doc) -> bytes:
    """The one byte form of a document that is signed, sealed or logged."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def unb64(text) -> bytes:
    """Strict inverse of :func:`b64`: only a string of valid base64 passes."""
    if not isinstance(text, str):
        raise CodecError("expected a base64 string, found %s" % type(text).__name__)
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error) as exc:
        raise CodecError("bad base64 field: %s" % exc) from None


@contextmanager
def decoding(error: type[EtenonError], what: str):
    """Report any failure to decode ``what`` as ``error``.

    Every document read from disk, the open table or the command line may
    be hostile, so a missing key, a value of the wrong type or shape,
    nesting too deep to walk and another module's :class:`EtenonError`
    all surface as ``error``; an ``error`` raised inside passes unchanged.
    """
    try:
        yield
    except error:
        raise
    except (EtenonError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise error("malformed %s: %s" % (what, exc)) from None


def typed(value, kind: type):
    """``value`` itself when it is a ``kind``; a bool never passes as an int."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError("expected %s, found %s" % (kind.__name__, type(value).__name__))
    return value
