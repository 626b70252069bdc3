"""Machine-readable pass/fail reporting for experiment runs."""

from __future__ import annotations

from dataclasses import dataclass, field

# trajectory i reads row i of the run's one trajectory stream, every other draw
# its own id of ``records.STREAM_IDS``: a new id for any change to a drawn record
STREAM_SCHEME = "one-stream/3"


@dataclass(frozen=True)
class Check:
    """One verified quantity: measured value against a threshold.

    ``comparison`` is "<=" for defect-style checks and ">=" for
    convergence-ratio or p-value style checks.
    """

    name: str
    measured: float
    threshold: float
    comparison: str = "<="
    passed: bool = field(init=False, default=False)

    def __post_init__(self):
        if self.comparison not in ("<=", ">="):
            raise ValueError(f"bad comparison {self.comparison!r}")
        ok = (
            self.measured <= self.threshold
            if self.comparison == "<="
            else self.measured >= self.threshold
        )
        object.__setattr__(self, "passed", bool(ok))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Check list plus provenance; overall pass iff every check passes."""

    checks: tuple[Check, ...]
    seed: int
    version: str
    config_hash: str

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "overall_pass": self.overall_pass,
            "checks": [c.to_dict() for c in self.checks],
            "provenance": {
                "seed": self.seed,
                "version": self.version,
                "config_hash": self.config_hash,
                "stream_scheme": STREAM_SCHEME,
            },
        }
