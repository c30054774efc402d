"""Shared exception base so callers can catch any module error at once."""


class EtenonError(Exception):
    """Base class for every error raised by this package."""


class AlgebraError(EtenonError):
    """Malformed element, bad encoding, or an unusable pairing."""
