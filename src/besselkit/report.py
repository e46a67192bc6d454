"""Uniform result records for inequality evaluations.

Every bound evaluation produces a ``BoundReport`` holding both sides of the
inequality, the slack ``rhs - lhs`` and the tightness ratio ``lhs / rhs``.
Comparisons use a combined absolute/relative tolerance: a report violates
its inequality when ``slack < -tol * max(1, |rhs|)``.  A bound evaluated
over a stack of families gives a ``BatchReport`` per report; ``reports_of``
turns one family's share of them into ``BoundReport``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

DEFAULT_TOLERANCE = 1e-9

__all__ = [
    "DEFAULT_TOLERANCE",
    "BatchReport",
    "BoundReport",
    "check_tolerance",
    "evaluated",
    "is_exponent",
    "reports_of",
    "skipped",
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
    return BoundReport(bound_id, lhs, rhs, rhs - lhs, ratio, True)


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


class BatchReport(NamedTuple):
    """One report of a bound over a stack of families (``core.Stats``).

    ``lhs`` and ``rhs`` hold both sides, and ``ok`` whether family b meets
    the bound's preconditions, each with the stack's shape.  Where it does not,
    ``why(b)`` gives the reason, or None when the bound makes no report on
    that family at all.
    """

    bound_id: str
    lhs: np.ndarray
    rhs: np.ndarray
    ok: np.ndarray
    why: Callable[..., str | None] | None = None


def reports_of(batch: Iterable[BatchReport], b=()) -> list[BoundReport]:
    """The ``BoundReport``s of family ``b`` of a stack, in order; ``b = ()`` for a family alone."""
    alone = isinstance(b, tuple)  # a family alone: its values are scalars already
    reports = []
    for r in batch:
        ok, lhs, rhs = (r.ok, r.lhs, r.rhs) if alone else (r.ok[b], r.lhs[b], r.rhs[b])
        if ok:
            reports.append(evaluated(r.bound_id, lhs, rhs))
        else:
            reason = r.why(b)
            if reason is not None:
                reports.append(skipped(r.bound_id, reason))
    return reports
