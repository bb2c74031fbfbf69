"""Exception types shared across the package.

Every error raised by this package derives from StreamfiltError so callers
can catch one base type. Validation problems additionally derive from
ValueError. File problems derive from SignalFileError, not from OSError, so
a caller can tell a malformed file from an operating-system failure.
"""

from __future__ import annotations


class StreamfiltError(Exception):
    """Base class for all errors raised by streamfilt."""


class ValidationError(StreamfiltError, ValueError):
    """A parameter or data invariant was violated."""


class NyquistViolationError(ValidationError):
    """A frequency parameter is at or above the Nyquist frequency."""


class UndefinedCorrelationError(StreamfiltError):
    """Pearson correlation is undefined because a vector has zero variance."""


class SignalFileError(StreamfiltError):
    """Base class for problems with stored signal files."""


class SignalFileMissingError(SignalFileError):
    """Header or payload file does not exist."""


class HeaderFormatError(SignalFileError):
    """Header file exists but cannot be parsed or has wrong fields."""


class PayloadSizeError(SignalFileError):
    """Payload byte length does not match the header geometry."""


class CliUsageError(StreamfiltError):
    """Command line arguments could not be parsed."""
