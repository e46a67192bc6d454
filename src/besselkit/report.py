"""Uniform result records for inequality evaluations.

Every bound evaluation produces a ``BoundReport`` holding both sides of the
inequality, the slack ``rhs - lhs`` and the tightness ratio ``lhs / rhs``.
Comparisons use a combined absolute/relative tolerance: a report violates
its inequality when ``slack < -tol * max(1, |rhs|)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_TOLERANCE = 1e-9

__all__ = [
    "DEFAULT_TOLERANCE", "BoundReport", "check_tolerance", "evaluated", "is_exponent", "skipped"
]


def check_tolerance(tol: float) -> float:
    """Return ``tol``, or raise ValueError unless it is finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def is_exponent(p: float) -> bool:
    """True when ``p`` is finite and > 1: an exponent the Holder-type bounds admit."""
    return math.isfinite(p) and p > 1.0


@dataclass(slots=True)
class BoundReport:
    bound_id: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    ratio: float | None
    preconditions_met: bool
    reason: str = ""

    def relative_slack(self) -> float | None:
        """Slack scaled by ``max(1, |rhs|)``; None when not evaluated."""
        if not self.preconditions_met or self.slack is None:
            return None
        return self.slack / max(1.0, abs(self.rhs))

    def holds(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """True unless the inequality is violated beyond tolerance."""
        rel = self.relative_slack()
        return rel is None or rel >= -tol

    def is_tight(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """True when lhs and rhs agree within tolerance."""
        rel = self.relative_slack()
        return rel is not None and abs(rel) <= tol

    def as_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}


def evaluated(bound_id: str, lhs: float, rhs: float) -> BoundReport:
    """Report for a bound whose preconditions were satisfied."""
    lhs = float(lhs)
    rhs = float(rhs)
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    return BoundReport(
        bound_id=bound_id,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        ratio=ratio,
        preconditions_met=True,
    )


def skipped(bound_id: str, reason: str) -> BoundReport:
    """Report for a bound whose preconditions failed; nothing is computed."""
    return BoundReport(
        bound_id=bound_id,
        lhs=None,
        rhs=None,
        slack=None,
        ratio=None,
        preconditions_met=False,
        reason=reason,
    )
