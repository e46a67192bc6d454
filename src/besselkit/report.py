"""Uniform result records for inequality evaluations.

Every bound evaluation produces a ``BoundReport`` holding both sides of the
inequality, the slack ``rhs - lhs`` and the tightness ratio ``lhs / rhs``.
A bound evaluated over a stack of families gives a ``BatchReport`` per
report; ``reports_of`` turns one family's share of them into ``BoundReport``s.

``verdict`` is the one rule that judges an evaluated inequality
``lhs <= rhs``, for ``BoundReport``, ``fuzz`` and ``besselkit eval`` alike.
Its relative slack is ``(rhs - lhs) / max(1, |rhs|)``; the inequality is
violated when that is below ``-tol`` and tight when its modulus is at most
``tol``.  A NaN relative slack (a side beyond the double range) is neither
violated nor tight.  ``tol`` must pass ``check_tolerance``, or ValueError
is raised.
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
    "verdict",
]


def check_tolerance(tol: float) -> float:
    """Return ``tol``, or raise ValueError unless it is finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def is_exponent(p: float) -> bool:
    """True when ``p`` is finite and > 1: an exponent the Holder-type bounds admit."""
    return math.isfinite(p) and p > 1.0


def verdict(lhs, rhs, tol: float) -> tuple:
    """``(relative slack, violated, tight)`` of ``lhs <= rhs`` by the rule above.

    Takes floats (and gives numpy scalars) or arrays alike.
    """
    check_tolerance(tol)
    with np.errstate(all="ignore"):  # a side beyond the double range gives a NaN, silently
        rel = (rhs - lhs) / np.maximum(1.0, np.abs(rhs))
    return rel, rel < -tol, np.abs(rel) <= tol


@dataclass(slots=True)
class BoundReport:
    bound_id: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    ratio: float | None
    preconditions_met: bool
    reason: str = ""

    def _verdict(self, tol: float) -> tuple | None:
        """The ``verdict`` of this report; None when not evaluated (``tol`` is checked even then)."""
        if not self.preconditions_met or self.slack is None:
            check_tolerance(tol)
            return None
        return verdict(self.lhs, self.rhs, tol)

    def relative_slack(self) -> float | None:
        """The relative slack of ``verdict``; None when not evaluated."""
        v = self._verdict(DEFAULT_TOLERANCE)
        return None if v is None else float(v[0])

    def holds(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """True unless ``verdict`` finds the inequality violated."""
        v = self._verdict(tol)
        return v is None or not v[1]

    def is_tight(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        """True when ``verdict`` finds lhs and rhs agree within tolerance."""
        v = self._verdict(tol)
        return v is not None and bool(v[2])

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
