"""Base64 text fields shared by every JSON document."""

from __future__ import annotations

import base64
import binascii

from .errors import EtenonError


class CodecError(EtenonError):
    """A field that should hold base64 text does not."""


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def unb64(text) -> bytes:
    """Strict inverse of :func:`b64`: only a string of valid base64 passes."""
    if not isinstance(text, str):
        raise CodecError("expected a base64 string, found %r" % (text,))
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error) as exc:
        raise CodecError("bad base64 field: %s" % exc) from None
