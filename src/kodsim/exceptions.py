"""Error types shared across the package."""


class KodsimError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(KodsimError, ValueError):
    """Truncation dimension or subblock size out of range."""


class DomainError(KodsimError, ValueError):
    """Scalar argument outside the operation's domain."""


class NumericError(KodsimError, ArithmeticError):
    """Overflow, norm collapse, or a probability below the negativity floor."""


class TruncationError(KodsimError):
    """Probability mass reached the top of the truncated range."""


class ExtentError(KodsimError):
    """Grid or quadrature extent too small for the requested evolution."""


class InvalidRecordError(KodsimError, ValueError):
    """Measurement record inconsistent with the instrument parameters."""


class StepTooCoarseError(KodsimError, ValueError):
    """Per-step probability too large for a faithful point-process sample."""


class BinSpecError(KodsimError, ValueError):
    """Binned tables or a pmf and its bins do not match."""


class DataError(KodsimError, ValueError):
    """Not enough data to run the requested statistic."""


class ConfigError(KodsimError, ValueError):
    """Malformed experiment configuration or unknown series name."""
