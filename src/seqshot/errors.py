"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class SeqshotError(Exception):
    """Base class for all errors raised by seqshot."""


class FormatError(SeqshotError):
    """Malformed file: bad magic, bad header, or truncated payload."""


class UnsupportedFormatError(SeqshotError):
    """Well-formed file using an encoding we do not handle."""


class VersionMismatchError(FormatError):
    """File declares a format version we do not support."""


class TruncatedFileError(FormatError):
    """File ended before its declared payload."""


class UnknownTensorError(SeqshotError):
    """Checkpoint names a tensor the target graph does not have."""


class ShapeError(SeqshotError):
    """Array shapes do not satisfy an operation's contract."""


class EmptyInputError(SeqshotError):
    """Input too short or empty for the requested operation."""


class DegenerateInputError(SeqshotError):
    """Input is degenerate (e.g. constant energy, no class spread)."""


class CurationError(SeqshotError):
    """Enrollment curation could not produce a segment for a shot."""


class StaleCacheError(SeqshotError):
    """Activation cache does not match the current graph state."""


class ConfigError(SeqshotError):
    """Run configuration contains unknown keys or invalid values."""


@contextmanager
def decoding(path):
    """Re-raise what decoding the file ``path`` raises (ValueError, which
    covers bad JSON and bad UTF-8, KeyError, IndexError, TypeError) as a
    FormatError naming it.  OSError and SeqshotError pass through."""
    try:
        yield
    except (ValueError, KeyError, IndexError, TypeError) as e:
        raise FormatError(f"{path}: {e!r}") from e
