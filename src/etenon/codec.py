"""Canonical JSON, base64 text fields, the one guard every document
decoder runs in and the one writer of JSON files."""

from __future__ import annotations

import base64
import binascii
import json
import os

from contextlib import contextmanager

from .errors import EtenonError


class CodecError(EtenonError):
    """A field that should hold base64 text does not."""


def canonical_json(doc) -> bytes:
    """The one byte form of a document that is signed, sealed or logged."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def write_json(path, doc, secret: bool = False) -> None:
    """Write ``doc`` to ``path`` as indented JSON.  A secret file (a
    master key or a decryption key) is readable by its owner alone: mode
    0600, whatever the umask, and also when it already existed."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600 if secret else 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        if secret:
            os.fchmod(fd, 0o600)
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
