"""Construction of families attaining equality in the sharp disk bounds.

Equality in either sharp bound forces every coefficient onto the disk
boundary, ``z_j = center + radius * exp(i theta_j)``, and pins the sum of
the boundary phases: writing ``S = sum_j exp(i theta_j)``, the mean-vector
characterisation translates into

* ``S = -n * radius * center / (2 |center|^2)`` for ``theorem21``,
* ``S = -n * radius * center / |center|^2`` for ``theorem22``.

These closed forms are derived here, not quoted from anywhere; the test
suite validates them through the residual oracles before they are trusted
as fixtures.  ``solve_phases`` realises a prescribed ``S`` with symmetric
pairs of angles around ``arg(S)``, plus one at ``arg(S)`` for odd n,
``equality_coefficients`` turns them into the boundary values ``z_j``, and
``build`` lifts those to an actual family with ``inner(x, y_j) = z_j``.
The disk's center, radius and ``Re(Gamma conj(gamma))``, and the checks of
the two theorems' hypotheses (``Disk.require_center``,
``Disk.require_positive_re``), are read from ``sharp.Disk``; none is
computed here.

Feasibility is narrower than ``|S| <= n``.  Equality in the sqrt-form
bound also forces ``Re[(conj(Gamma) + conj(gamma)) inner(x, sum y_j)]`` to
be non-negative (it must equal its own modulus in the proof chain), and
under the boundary and energy constraints that real part equals
``n/4 * (8 |center|^2 - 4 radius^2)``.  The sqrt-form target is therefore
attainable only for ``radius <= sqrt(2) |center|``; in the remaining band
up to ``2 |center|`` the mean characterisation can be satisfied while the
bound stays strict, so such requests are refused.  The squared-form target
is attainable for ``n >= 2`` under its ``Re(Gamma conj(gamma)) > 0``
hypothesis.  At a positive radius ``n = 1`` is refused for both targets:
with one test vector the sqrt-form bound adds a positive penalty to
Cauchy-Schwarz, and the squared-form factor
``|Gamma + gamma|^2 / (4 Re(Gamma conj(gamma)))``, which equals
``|center|^2 / (|center|^2 - radius^2)``, exceeds 1.  Every feasible target
has ``|S| < n`` up to rounding, which ``solve_phases`` clips: the band
caps the sqrt-form ``|S|`` at ``n / sqrt(2)``, and
``Re(Gamma conj(gamma)) > 0`` means ``radius < |center|``.  A disk whose
``|center|^2`` underflows to 0 or overflows to inf in double precision is
infeasible too: no phase sum is formed from it.  Infeasible requests fail
loudly; no best-effort family is returned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BesselkitError,
    DimensionMismatch,
    Family,
    ParameterError,
    as_vector,
    lift_stack,
    modulus,
    project_orthogonal,
)
from .sharp import Disk

__all__ = [
    "ExtremalTarget",
    "ExtremalSpec",
    "InfeasibleConstruction",
    "plan",
    "solve_phases",
    "equality_coefficients",
    "build",
]

_FEAS_TOL = 1e-12


class InfeasibleConstruction(BesselkitError, ValueError):
    """No family can attain equality for the requested parameters."""


class ExtremalTarget(enum.Enum):
    THM21 = "thm21"
    THM22 = "thm22"


@dataclass(frozen=True)
class ExtremalSpec:
    """Resolved equality construction: phase-sum target and feasibility."""

    target: ExtremalTarget
    n: int
    disk: Disk
    phase_sum: complex
    feasible: bool
    infeasible_reason: str = ""


def plan(target: ExtremalTarget, n: int, d: Disk) -> ExtremalSpec:
    """Compute the phase-sum target and decide feasibility.

    Raises ``ParameterError`` for parameters the parent bounds exclude
    (``Gamma = -gamma`` for ``theorem21``, ``Re(Gamma conj(gamma)) <= 0``
    for ``theorem22``), by the checks those bounds make; infeasibility of
    the equality case itself is reported through the ``feasible`` flag,
    with a NaN ``phase_sum`` where ``|center|^2`` leaves the double range.
    A zero radius is feasible for every n; at a positive radius ``theorem21``
    is infeasible past ``sqrt(2) |center|``, and ``n = 1`` is infeasible for
    both targets, whatever the computed ``|phase_sum|``.
    """
    target = ExtremalTarget(target)
    if n < 1:
        raise ParameterError(f"family size must be >= 1, got {n}")
    thm21 = target is ExtremalTarget.THM21
    if thm21:
        d.require_center()
    else:
        d.require_positive_re()
    center, radius = d.center, d.radius
    center_abs = modulus(center)
    with np.errstate(over="ignore"):  # a |center| beyond the root of the double range squares to inf
        center_sq = np.square(center_abs)
    if center_sq in (0.0, math.inf):
        reason = f"|center| = {center_abs} squares to {center_sq}, outside the double range"
        return ExtremalSpec(target, n, d, complex(math.nan, math.nan), False, reason)
    phase_sum = -n * radius * center / ((2.0 if thm21 else 1.0) * center_sq)
    feasible, reason = True, ""
    if radius == 0.0:
        pass  # all boundary points coincide with the center; phases are free
    elif thm21 and radius > np.sqrt(2.0) * center_abs * (1.0 + _FEAS_TOL):
        # equality would force a negative real part where the proof chain
        # needs a modulus; no family attains the bound in this band
        feasible = False
        reason = (
            f"radius {radius} exceeds sqrt(2) |center| = {np.sqrt(2.0) * center_abs}; "
            "the sqrt-form bound is strict for every admissible family"
        )
    elif n == 1:
        feasible = False
        reason = f"n = 1 at radius {radius} > 0: a single test vector never attains equality"
    return ExtremalSpec(target, n, d, phase_sum, feasible, reason)


def solve_phases(spec: ExtremalSpec) -> np.ndarray:
    """Angles ``theta_j`` with ``sum exp(i theta_j) = spec.phase_sum``.

    Writing ``s = |phase_sum|`` and ``phi = arg(phase_sum)`` (``phi = 0``
    when the sum vanishes): ``n % 2`` phases sit at ``phi``, then ``n // 2``
    at ``phi + alpha`` and ``n // 2`` at ``phi - alpha``, with
    ``cos(alpha) = (s - n % 2) / max(n - n % 2, 1)`` clipped to ``[-1, 1]``.
    For a zero-radius disk the returned zero vector is arbitrary: all
    boundary points equal the center and the phase sum never enters the
    construction.
    """
    if not spec.feasible:
        raise InfeasibleConstruction(spec.infeasible_reason or "infeasible specification")
    n = spec.n
    if spec.disk.radius == 0.0:
        return np.zeros(n)
    s = abs(spec.phase_sum)
    phi = float(np.angle(spec.phase_sum)) if s > 0.0 else 0.0
    odd, pairs = n % 2, n // 2
    alpha = float(np.arccos(np.clip((s - odd) / max(n - odd, 1), -1.0, 1.0)))
    return np.concatenate([np.full(odd, phi), np.full(pairs, phi + alpha), np.full(pairs, phi - alpha)])


def equality_coefficients(spec: ExtremalSpec) -> np.ndarray:
    """The equality coefficients ``center + radius * exp(i theta_j)``, with phases from ``solve_phases``.

    Raises ``InfeasibleConstruction`` for an infeasible ``spec``.
    """
    return spec.disk.center + spec.disk.radius * np.exp(1j * solve_phases(spec))


def build(
    target: ExtremalTarget,
    x,
    n: int,
    d: Disk,
    ws: Sequence | None = None,
) -> Family:
    """Return a family attaining equality in the requested sharp bound.

    Coefficients are ``center + radius * exp(i theta_j)`` with phases from
    ``solve_phases``, lifted against ``x``.  Optional free components ``ws``
    are projected onto the orthogonal complement of ``x`` and must then sum
    to zero, otherwise the mean-vector characterisation would be destroyed;
    violating inputs are rejected.
    """
    xa = as_vector(x)
    zs = equality_coefficients(plan(target, n, d))
    if ws is None:
        return Family(xa, lift_stack(xa[None], zs[None])[0])
    warr = np.asarray(ws, dtype=np.complex128)
    if warr.shape != (n, xa.size):
        raise DimensionMismatch(f"ws must have shape {(n, xa.size)}, got {warr.shape}")
    projected = project_orthogonal(warr, xa)  # rejects non-finite entries
    drift = float(np.linalg.norm(projected.sum(axis=0)))
    scale = max(1.0, float(np.abs(warr).max()))
    if drift > 1e-9 * scale:
        raise ValueError(
            "orthogonal components must sum to zero after projection; "
            f"got residual norm {drift:.3g}"
        )
    return Family(xa, lift_stack(xa[None], zs[None])[0] + projected)
