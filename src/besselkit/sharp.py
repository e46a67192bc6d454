"""Sharp Bessel-sum bounds for coefficients confined to a closed disk.

The constraint is described by two scalars ``gamma`` and ``Gamma``: every
coefficient ``inner(x, y_j)`` must lie in the closed disk with center
``(gamma + Gamma) / 2`` and radius ``|Gamma - gamma| / 2``.  Membership can
be written either as a real-part product condition or as the distance
condition; the two forms are algebraically identical and both are exposed.

Under that constraint two sharp bounds hold:

* ``theorem21`` bounds the square root of the Bessel sum; it needs
  ``Gamma != -gamma``.
* ``theorem22`` bounds the Bessel sum itself; it needs
  ``Re(Gamma * conj(gamma)) > 0``.

Both are attained exactly when every coefficient sits on the disk boundary
and the mean of the test vectors is a specific multiple of ``x``; the
residual routines quantify the distance from that equality configuration.
``triangle_reverse_l2`` and ``triangle_reverse_sq`` restate the bounds for
plain complex numbers ``z_j``: they are Theorems 2.1 and 2.2 on the family
``x = 1``, ``y_j = conj(z_j)``, evaluated by the same kernels without
building that family.  ``orthonormal_remark`` specialises the bounds to
orthonormal families, where they are provably coarser than the plain
Bessel inequality; it shares the disk terms of the two kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .classical import bessel_sum
from .core import (
    DegenerateReference,
    Family,
    ParameterError,
    PreconditionError,
    as_vector,
)
from .report import DEFAULT_TOLERANCE, BoundReport, evaluated, skipped

__all__ = [
    "Disk",
    "EqualityResiduals",
    "OrthonormalRemark",
    "disk_condition_re",
    "disk_condition_abs",
    "theorem21",
    "theorem21_residuals",
    "theorem22",
    "theorem22_residuals",
    "lemma_eq6",
    "orthonormal_remark",
    "orthonormal_family_remark",
    "triangle_reverse_l2",
    "triangle_reverse_sq",
    "sufficient_condition_box",
]


@dataclass(frozen=True)
class Disk:
    """The scalar pair (gamma, Gamma) and the disk it spans.

    ``equality_constant`` is ``|Gamma|^2 + 6 Re(Gamma conj(gamma)) +
    |gamma|^2``; it equals ``8 |center|^2 - 4 radius^2`` and fixes the mean
    vector of equality configurations of ``theorem21``.
    """

    gamma: complex
    Gamma: complex

    def __post_init__(self) -> None:
        g, G = complex(self.gamma), complex(self.Gamma)
        for name, value in (("gamma", g), ("Gamma", G)):
            if not (np.isfinite(value.real) and np.isfinite(value.imag)):
                raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "Gamma", G)

    @property
    def center(self) -> complex:
        return (self.gamma + self.Gamma) / 2.0

    @property
    def radius(self) -> float:
        return abs(self.Gamma - self.gamma) / 2.0

    @property
    def re_product(self) -> float:
        """``Re(Gamma * conj(gamma))``; equals ``|center|^2 - radius^2``."""
        return (self.Gamma * self.gamma.conjugate()).real

    @property
    def equality_constant(self) -> float:
        return abs(self.Gamma) ** 2 + 6.0 * self.re_product + abs(self.gamma) ** 2


def disk_condition_re(z, d: Disk, tol: float = DEFAULT_TOLERANCE):
    """Real-part product form of disk membership.

    True iff ``(Re G - Re z)(Re z - Re g) + (Im G - Im z)(Im z - Im g)``
    is >= 0 up to tolerance (scaled quadratically, matching the units of
    the product).  Accepts scalars or numpy arrays of ``z``.
    """
    g, G = d.gamma, d.Gamma
    z = np.asarray(z) if not np.isscalar(z) else z
    re_z, im_z = np.real(z), np.imag(z)
    value = (G.real - re_z) * (re_z - g.real) + (G.imag - im_z) * (im_z - g.imag)
    return value >= -tol * max(1.0, d.radius) ** 2


def disk_condition_abs(z, d: Disk, tol: float = DEFAULT_TOLERANCE):
    """Distance form of disk membership: ``|z - center| <= radius``.

    Equivalent to ``disk_condition_re`` up to tolerance at the boundary.
    Accepts scalars or numpy arrays of ``z``.
    """
    return np.abs(np.asarray(z) - d.center) <= d.radius + tol * max(1.0, d.radius)


def sufficient_condition_box(z, d: Disk, tol: float = DEFAULT_TOLERANCE):
    """Componentwise box condition that implies disk membership.

    True iff ``Re G >= Re z >= Re g`` and ``Im G >= Im z >= Im g`` within
    tolerance.  Whenever it holds, ``disk_condition_re`` holds too.
    """
    g, G = d.gamma, d.Gamma
    z = np.asarray(z) if not np.isscalar(z) else z
    re_z, im_z = np.real(z), np.imag(z)
    slack = tol * max(1.0, d.radius)
    return (
        (re_z <= G.real + slack)
        & (re_z >= g.real - slack)
        & (im_z <= G.imag + slack)
        & (im_z >= g.imag - slack)
    )


def _outside(coeffs: np.ndarray, d: Disk, tol: float) -> str:
    """Why the coefficients break the disk condition; "" when they meet it."""
    inside = disk_condition_abs(coeffs, d, tol)
    if bool(np.all(inside)):
        return ""
    return f"coefficient {int(np.argmin(inside))} lies outside the disk"


def _require_center(d: Disk) -> None:
    if abs(d.Gamma + d.gamma) == 0.0:
        raise ParameterError("Gamma = -gamma gives a centerless constraint; not allowed")


def _require_positive_re(d: Disk) -> None:
    if d.re_product <= 0.0:
        raise ParameterError(
            f"Re(Gamma * conj(gamma)) must be positive, got {d.re_product}"
        )


def _theorem21_penalty(n: int, d: Disk) -> float:
    """``(sqrt(n)/4) |G - g|^2 / |G + g|``, the disk term of Theorem 2.1."""
    return (math.sqrt(n) / 4.0) * abs(d.Gamma - d.gamma) ** 2 / abs(d.Gamma + d.gamma)


def _theorem22_factor(n: int, d: Disk) -> float:
    """``|G + g|^2 / (4 n Re(G conj(g)))``, the disk factor of Theorem 2.2."""
    return abs(d.Gamma + d.gamma) ** 2 / (4.0 * d.re_product * n)


def _theorem21(
    bound_id: str, a: np.ndarray, bessel: float, x_norm: float, sum_sq: float, d: Disk, tol: float
) -> BoundReport:
    """Theorem 2.1 on coefficients ``a``, Bessel sum, ``||x||`` and ``||sum y_j||^2``."""
    _require_center(d)
    reason = _outside(a, d, tol)
    if reason:
        return skipped(bound_id, reason)
    rhs = x_norm * math.sqrt(sum_sq) / math.sqrt(a.size) + _theorem21_penalty(a.size, d)
    return evaluated(bound_id, math.sqrt(bessel), rhs)


def _theorem22(
    bound_id: str, a: np.ndarray, bessel: float, x_norm_sq: float, sum_sq: float, d: Disk, tol: float
) -> BoundReport:
    """Theorem 2.2 on coefficients ``a``, Bessel sum, ``||x||^2`` and ``||sum y_j||^2``."""
    _require_positive_re(d)
    reason = _outside(a, d, tol)
    if reason:
        return skipped(bound_id, reason)
    return evaluated(bound_id, bessel, _theorem22_factor(a.size, d) * sum_sq * x_norm_sq)


def theorem21(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Sharp bound on ``sqrt(Bessel sum)`` under the disk condition.

    rhs is ``(1/sqrt(n)) ||x|| ||sum y_j|| + (sqrt(n)/4) |G - g|^2 / |G + g|``.
    Raises ``ParameterError`` when ``Gamma = -gamma``; reports a failed
    precondition when some coefficient leaves the disk.
    """
    return _theorem21(
        "theorem21", f.coefficients, bessel_sum(f), f.x_norm, f.ys_sum_norm_sq, d, tol
    )


def theorem22(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Sharp bound on the Bessel sum itself, for ``Re(Gamma conj(gamma)) > 0``.

    rhs is ``(1/n) |G + g|^2 / (4 Re(G conj(g))) ||sum y_j||^2 ||x||^2``.
    """
    return _theorem22(
        "theorem22", f.coefficients, bessel_sum(f), f.x_norm_sq, f.ys_sum_norm_sq, d, tol
    )


@dataclass
class EqualityResiduals:
    """Distances from the equality configuration of a sharp bound.

    ``per_j_boundary[j]`` is ``| |a_j - center| - radius |``; the mean
    residual is the distance of ``mean(ys)`` from its characterised value;
    ``max_residual`` is the largest of all of them.
    """

    per_j_boundary: np.ndarray
    mean_residual: float
    max_residual: float


def _residuals(f: Family, d: Disk, target_scale: complex, tol: float) -> EqualityResiduals:
    if f.x_norm_sq == 0.0:
        raise DegenerateReference("equality residuals need a nonzero x")
    reason = _outside(f.coefficients, d, tol)
    if reason:
        raise PreconditionError(reason)
    per_j = np.abs(np.abs(f.coefficients - d.center) - d.radius)
    mean_target = (target_scale / f.x_norm_sq) * f.x
    mean_residual = float(np.linalg.norm(f.ys_sum / f.n - mean_target))
    return EqualityResiduals(
        per_j_boundary=per_j,
        mean_residual=mean_residual,
        max_residual=max(float(per_j.max()), mean_residual),
    )


def theorem21_residuals(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> EqualityResiduals:
    """Equality-case residuals for ``theorem21``.

    The characterised mean is ``equality_constant / (4 (Gamma + gamma))``
    times ``x / ||x||^2``; equality in the bound corresponds to
    ``max_residual`` vanishing.
    """
    _require_center(d)
    scale = d.equality_constant / (4.0 * (d.Gamma + d.gamma))
    return _residuals(f, d, scale, tol)


def theorem22_residuals(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> EqualityResiduals:
    """Equality-case residuals for ``theorem22``.

    The characterised mean is ``2 Re(Gamma conj(gamma)) / (Gamma + gamma)``
    times ``x / ||x||^2``.
    """
    _require_positive_re(d)
    scale = 2.0 * d.re_product / (d.Gamma + d.gamma)
    return _residuals(f, d, scale, tol)


def lemma_eq6(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> tuple[float, float]:
    """Summed disk inequality underlying both sharp bounds.

    Returns ``(lhs, rhs)`` with ``lhs = Bessel sum + n |center|^2`` and
    ``rhs = n radius^2 + Re[(conj(Gamma) + conj(gamma)) inner(x, sum y_j)]``.
    ``lhs <= rhs`` whenever all coefficients lie in the disk, with equality
    exactly when every coefficient is on the boundary.
    """
    reason = _outside(f.coefficients, d, tol)
    if reason:
        raise PreconditionError(reason)
    lhs = bessel_sum(f) + f.n * abs(d.center) ** 2
    rhs = f.n * d.radius**2 + (
        (d.Gamma + d.gamma).conjugate() * f.coefficients_sum
    ).real
    return lhs, rhs


class OrthonormalRemark(NamedTuple):
    report30: BoundReport
    report31: BoundReport
    coarser_than_bessel: bool


def orthonormal_remark(
    x,
    es: Sequence,
    d: Disk,
    tol: float = DEFAULT_TOLERANCE,
) -> OrthonormalRemark:
    """Both sharp bounds specialised to an orthonormal family.

    ``report30`` bounds ``sqrt(Bessel sum)`` by ``||x||`` plus the disk
    penalty; ``report31`` bounds the Bessel sum by
    ``|Gamma + gamma|^2 / (4 Re(Gamma conj(gamma))) ||x||^2`` (the squared
    numerator is forced by substituting ``||sum e_j||^2 = n`` into the
    parent bound).  ``coarser_than_bessel`` records that each computed rhs
    dominates the plain Bessel right side.
    """
    return orthonormal_family_remark(Family(x, es), d, tol)


def orthonormal_family_remark(
    f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE
) -> OrthonormalRemark:
    """``orthonormal_remark`` on a family already built, with ``f.ys`` as the e_j."""
    _require_center(d)
    reason = _outside(f.coefficients, d, tol)
    if f.orthonormal_deviation > tol:
        reason = f"family is not orthonormal (max Gram deviation {f.orthonormal_deviation:.3g})"
    if reason:
        return OrthonormalRemark(
            skipped("orthonormal30", reason), skipped("orthonormal31", reason), False
        )
    rhs30 = f.x_norm + _theorem21_penalty(f.n, d)
    rep30 = evaluated("orthonormal30", math.sqrt(bessel_sum(f)), rhs30)
    coarser = rep30.rhs >= f.x_norm - tol * max(1.0, f.x_norm)
    if d.re_product > 0.0:
        rhs31 = _theorem22_factor(1, d) * f.x_norm_sq
        rep31 = evaluated("orthonormal31", bessel_sum(f), rhs31)
        coarser = coarser and rep31.rhs >= f.x_norm_sq - tol * max(1.0, f.x_norm_sq)
    else:
        rep31 = skipped("orthonormal31", "requires Re(Gamma * conj(gamma)) > 0")
    return OrthonormalRemark(rep30, rep31, bool(coarser))


def _scalar_stats(zs: Sequence[complex]) -> tuple[np.ndarray, float, float, float]:
    """Kernel inputs of the family ``x = 1``, ``y_j = conj(z_j)``, summed as ``Family`` sums:
    coefficients ``zs``, Bessel sum, ``||x|| = ||x||^2 = 1`` and ``|sum z_j|^2``."""
    a = as_vector(zs)
    s = a.sum(keepdims=True)
    return a, float((a.real**2 + a.imag**2).sum()), 1.0, float((s.real**2 + s.imag**2).sum())


def triangle_reverse_l2(zs: Sequence[complex], d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Reverse bound ``sqrt(sum |z_j|^2)`` vs ``|sum z_j| / sqrt(n)`` plus penalty.

    Scalar form of ``theorem21``: Theorem 2.1 on the family ``x = 1``,
    ``y_j = conj(z_j)``, evaluated by the same kernel.
    """
    return _theorem21("triangle_reverse_l2", *_scalar_stats(zs), d, tol)


def triangle_reverse_sq(zs: Sequence[complex], d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Reverse bound ``sum |z_j|^2`` vs ``|sum z_j|^2`` scaled; scalar ``theorem22``."""
    return _theorem22("triangle_reverse_sq", *_scalar_stats(zs), d, tol)
