"""Truncated Fock-space simulation of continually observing instruments.

Two instruments are implemented as autonomous evolving objects: the
photon-counting detector (Poisson distribution of Kraus-operator classes)
and the heterodyne detector (Gaussian distribution over complex
amplitudes).  Each module holds the instrument at the horizon, fixed by
``T`` and ``kappa_o``: the distribution's evolution equation, POVM elements
and completeness, Born statistics, and samplers for both true (method A)
and ostensible (method C) record statistics.  :mod:`kodsim.stepped` holds
records on a step grid, their per-step operators and their reduction.
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
