"""Truncated Fock-space simulation of continually observing instruments.

Two instruments are implemented as autonomous evolving objects: the
photon-counting detector (Poisson distribution of Kraus-operator classes)
and the heterodyne detector (Gaussian distribution over complex
amplitudes).  Each module exposes the per-step Kraus operators, the
reduction of records to standard order, the distribution's evolution
equation, POVM elements and completeness, Born statistics, and samplers
for both true (method A) and ostensible (method C) record statistics.
"""

__version__ = "0.1.0"

from .exceptions import (
    BinSpecError,
    ConfigError,
    DataError,
    DomainError,
    ExtentError,
    InvalidDimensionError,
    InvalidRecordError,
    KodsimError,
    NumericError,
    TruncationError,
)
from .params import InstrumentParams

__all__ = [
    "__version__",
    "InstrumentParams",
    "KodsimError",
    "BinSpecError",
    "ConfigError",
    "DataError",
    "DomainError",
    "ExtentError",
    "InvalidDimensionError",
    "InvalidRecordError",
    "NumericError",
    "TruncationError",
]
