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
``x = 1``, ``y_j = conj(z_j)``, evaluated by the same kernels on that
family's statistics without building it.  ``orthonormal_remark``
specialises the bounds to orthonormal families, where they are provably
coarser than the plain Bessel inequality; it shares the disk terms of the
two kernels.

As in ``classical``, each bound is an array formula ``<bound>_batch(s)``
over a stack whose disks are bound as the arrays ``s.gamma``, ``s.Gamma``
(``core.BoundStats``), and the function of its own name runs it on one family.

Every disk decision has one owner here.  ``disk_quantities`` writes
``Gamma + gamma``, the center, the radius, ``Re(Gamma conj(gamma))`` and the
centered predicate ``Gamma + gamma != 0`` once: a ``Disk`` and the
samplers' rejection test evaluate it on Python numbers, the samplers'
assembly and the bounds on arrays of the end points of many disks.
Membership is one expression, ``_within``, for ``disk_condition_abs`` and
the bounds' preconditions.  ``Disk.require_center`` and
``Disk.require_positive_re``, with their messages, check the hypotheses of
the two theorems for the bounds, the residuals and ``extremal.plan``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .core import (
    BoundStats,
    DegenerateReference,
    Family,
    ParameterError,
    PreconditionError,
    Stats,
    as_vector,
    libm_pow,
    modulus,
)
from .report import DEFAULT_TOLERANCE, BatchReport, BoundReport, reports_of

__all__ = [
    "Disk",
    "EqualityResiduals",
    "OrthonormalRemark",
    "disk_condition_re",
    "disk_condition_abs",
    "disk_quantities",
    "theorem21",
    "theorem21_batch",
    "theorem21_residuals",
    "theorem22",
    "theorem22_batch",
    "theorem22_residuals",
    "lemma_eq6",
    "lemma_eq6_batch",
    "orthonormal_remark",
    "orthonormal_batch",
    "triangle_reverse_l2",
    "triangle_reverse_l2_batch",
    "triangle_reverse_sq",
    "triangle_reverse_sq_batch",
    "sufficient_condition_box",
]


def _abs(z: complex) -> float:
    """``abs(z)``, or inf beyond the double range, as ``core.modulus`` gives it."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def disk_quantities(g, G, absolute=_abs) -> tuple:
    """The first five ``_DiskTerms`` of the disks with end points ``g``, ``G``, each written once here.

    Python numbers for a ``Disk`` and a unit draw; arrays with one entry per
    disk, with ``absolute = core.modulus``.  The center and the radius are
    formed from the halved end points, so they are inf only where they leave
    the double range themselves.
    """
    total, g2, G2 = G + g, g / 2.0, G / 2.0
    return total, G2 + g2, absolute(G2 - g2), G.real * g.real + G.imag * g.imag, total != 0


def _within(z, center, radius, tol: float):
    """Disk membership, ``|z - center| <= radius`` up to ``tol * max(1, radius)``."""
    return np.abs(z - center) <= radius + tol * np.maximum(1.0, radius)


@dataclass(frozen=True)
class Disk:
    """The scalar pair (gamma, Gamma) and the disk it spans.

    ``center``, ``radius``, ``re_product`` and ``centered`` are computed
    once, as the sharp bounds compute them; ``require_center`` and
    ``require_positive_re`` check the hypotheses of Theorems 2.1 and 2.2.
    ``equality_constant`` is ``|Gamma|^2 + 6 Re(Gamma conj(gamma)) +
    |gamma|^2``; it equals ``8 |center|^2 - 4 radius^2`` and fixes the mean
    vector of equality configurations of ``theorem21``.  Once ``|Gamma|^2``
    or ``|gamma|^2`` leaves the double range it is inf, with that sign.
    """

    gamma: complex
    Gamma: complex
    center: complex = field(init=False, repr=False, compare=False)
    radius: float = field(init=False, repr=False, compare=False)
    re_product: float = field(init=False, repr=False, compare=False)
    centered: bool = field(init=False, repr=False, compare=False)

    CENTERLESS: ClassVar[str] = "Gamma = -gamma gives a centerless constraint; not allowed"

    def __post_init__(self) -> None:
        g, G = complex(self.gamma), complex(self.Gamma)
        for name, value in (("gamma", g), ("Gamma", G)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        _, center, radius, re_product, centered = disk_quantities(g, G)
        # frozen: the fields are set in the instance dictionary
        self.__dict__.update(
            gamma=g, Gamma=G, center=center, radius=radius, re_product=re_product, centered=centered
        )

    @property
    def equality_constant(self) -> float:
        try:
            return abs(self.Gamma) ** 2 + 6.0 * self.re_product + abs(self.gamma) ** 2
        except OverflowError:  # the sign of 8 |center|^2 - 4 radius^2
            return math.copysign(math.inf, math.sqrt(2.0) * abs(self.center) - self.radius)

    @staticmethod
    def not_positive(re_product: float) -> str:
        return f"Re(Gamma * conj(gamma)) must be positive, got {re_product}"

    def require_center(self) -> None:
        """Raise ``ParameterError`` unless ``Gamma + gamma != 0`` (Theorem 2.1)."""
        if not self.centered:
            raise ParameterError(Disk.CENTERLESS)

    def require_positive_re(self) -> None:
        """Raise ``ParameterError`` unless ``Re(Gamma conj(gamma)) > 0`` (Theorem 2.2)."""
        if self.re_product <= 0.0:
            raise ParameterError(Disk.not_positive(self.re_product))


def disk_condition_re(z, d: Disk, tol: float = DEFAULT_TOLERANCE):
    """Real-part product form of disk membership.

    True iff ``(Re G - Re z)(Re z - Re g) + (Im G - Im z)(Im z - Im g)``
    is >= 0 up to tolerance (scaled quadratically, matching the units of
    the product).  Accepts scalars or numpy arrays of ``z``.
    """
    g, G = d.gamma, d.Gamma
    re_z, im_z = np.real(z), np.imag(z)
    value = (G.real - re_z) * (re_z - g.real) + (G.imag - im_z) * (im_z - g.imag)
    return value >= -tol * max(1.0, d.radius) ** 2


def disk_condition_abs(z, d: Disk, tol: float = DEFAULT_TOLERANCE):
    """Distance form of disk membership: ``|z - center| <= radius``.

    Equivalent to ``disk_condition_re`` up to tolerance at the boundary.
    Accepts scalars or numpy arrays of ``z``.
    """
    return _within(np.asarray(z), d.center, d.radius, tol)


def sufficient_condition_box(z, d: Disk, tol: float = DEFAULT_TOLERANCE):
    """Componentwise box condition that implies disk membership.

    True iff ``Re G >= Re z >= Re g`` and ``Im G >= Im z >= Im g`` within
    tolerance.  Whenever it holds, ``disk_condition_re`` holds too.
    """
    g, G = d.gamma, d.Gamma
    re_z, im_z = np.real(z), np.imag(z)
    slack = tol * max(1.0, d.radius)
    return (
        (re_z <= G.real + slack)
        & (re_z >= g.real - slack)
        & (im_z <= G.imag + slack)
        & (im_z >= g.imag - slack)
    )


class _DiskTerms(NamedTuple):
    """What the sharp bounds read of each family's disk: its ``disk_quantities`` and terms from them.

    Over a stack each is an array with one entry per family; for a family
    alone, each is a Python or numpy scalar, and the two hypotheses are
    numpy booleans, since a Python bool ``&`` a numpy bool costs about 0.8 us.
    """

    sum: np.ndarray  # Gamma + gamma
    center: np.ndarray
    radius: np.ndarray
    re_product: np.ndarray  # Re(Gamma conj(gamma))
    centered: np.ndarray  # Gamma + gamma != 0, the hypothesis of Theorem 2.1
    positive: np.ndarray  # Re(Gamma conj(gamma)) > 0, the hypothesis of Theorem 2.2
    penalty: np.ndarray  # (sqrt(n)/4) |G - g|^2 / |G + g|, the disk term of Theorem 2.1
    factor: np.ndarray  # |G + g|^2 / (4 n Re(G conj(g))), the disk factor of Theorem 2.2
    factor1: np.ndarray  # the same at n = 1
    n_center_sq: np.ndarray  # n |center|^2
    n_radius_sq: np.ndarray  # n radius^2


def _disk_terms(s: BoundStats) -> _DiskTerms:
    """The ``_DiskTerms`` of the disks bound to ``s``, from their end points ``s.gamma``, ``s.Gamma``.

    A term of a disk a bound does not apply to (a centerless disk for
    Theorem 2.1, ``Re(Gamma conj(gamma)) <= 0`` for Theorem 2.2) may be
    inf or NaN; the bound's preconditions mask it.
    """

    def compute() -> _DiskTerms:
        n = s.n
        total, center, radius, re, centered = disk_quantities(s.gamma, s.Gamma, modulus)
        sum_abs = modulus(total)
        sum_sq = libm_pow(sum_abs, 2)
        return _DiskTerms(
            total,
            center,
            radius,
            re,
            centered=np.bool_(centered),
            positive=np.bool_(re > 0.0),
            penalty=(math.sqrt(n) / 4.0) * libm_pow(2.0 * radius, 2) / sum_abs,  # 2 radius = |G - g|
            factor=sum_sq / (4.0 * re * n),
            factor1=sum_sq / (4.0 * re),
            n_center_sq=n * libm_pow(modulus(center), 2),
            n_radius_sq=n * libm_pow(radius, 2),
        )

    return s.kept("disk", compute)


def _inside(s: BoundStats) -> np.ndarray:
    """(..., n): coefficient j of family b meets ``disk_condition_abs`` for its disk."""

    def compute() -> np.ndarray:
        t = _disk_terms(s)
        # the coefficient axis first, so that the terms, one per family, broadcast over it
        return _within(s.a.T, t.center, t.radius, s.tol).T

    return s.kept("inside", compute)


def _all_inside(s: BoundStats) -> np.ndarray:
    """Every coefficient of family b lies in its disk."""
    return s.kept("all_inside", lambda: np.logical_and.reduce(_inside(s), axis=-1))


def _outside(inside: np.ndarray) -> str:
    """Why coefficients break the disk condition, given their membership; "" when they meet it."""
    if inside.all():
        return ""
    return f"coefficient {int(np.argmin(inside))} lies outside the disk"


def _theorem21(bound_id: str, s: BoundStats, x_norm, sum_sq: np.ndarray) -> BatchReport:
    """Theorem 2.1 on the coefficients and Bessel sum of ``s``, with ``||x||`` and ``||sum y_j||^2``."""
    t = _disk_terms(s)
    rhs = x_norm * np.sqrt(sum_sq) / math.sqrt(s.n) + t.penalty

    def why(b) -> str:
        return _outside(_inside(s)[b]) if np.asarray(t.centered)[b] else Disk.CENTERLESS

    return BatchReport(bound_id, np.sqrt(s.bessel), rhs, t.centered & _all_inside(s), why)


def _theorem22(bound_id: str, s: BoundStats, x_norm_sq, sum_sq: np.ndarray) -> BatchReport:
    """Theorem 2.2 on the coefficients and Bessel sum of ``s``, with ``||x||^2``, ``||sum y_j||^2``."""
    t = _disk_terms(s)

    def why(b) -> str:
        re = np.asarray(t.re_product)[b]  # a Python float for a family alone
        return _outside(_inside(s)[b]) if re > 0.0 else Disk.not_positive(re)

    ok = t.positive & _all_inside(s)
    return BatchReport(bound_id, s.bessel, t.factor * sum_sq * x_norm_sq, ok, why)


def theorem21_batch(s: BoundStats) -> list[BatchReport]:
    """``theorem21`` on a stack with its disks bound; see ``theorem21``."""
    return [_theorem21("theorem21", s, s.x_norm, s.sum_sq)]


def theorem22_batch(s: BoundStats) -> list[BatchReport]:
    """``theorem22`` on a stack with its disks bound; see ``theorem22``."""
    return [_theorem22("theorem22", s, s.xsq, s.sum_sq)]


def theorem21(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Sharp bound on ``sqrt(Bessel sum)`` under the disk condition.

    rhs is ``(1/sqrt(n)) ||x|| ||sum y_j|| + (sqrt(n)/4) |G - g|^2 / |G + g|``.
    Raises ``ParameterError`` when ``Gamma = -gamma``; reports a failed
    precondition when some coefficient leaves the disk.
    """
    d.require_center()
    return reports_of(f.stats.bind(ends=(d.gamma, d.Gamma), tol=tol).evaluate(theorem21_batch))[0]


def theorem22(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Sharp bound on the Bessel sum itself, for ``Re(Gamma conj(gamma)) > 0``.

    rhs is ``(1/n) |G + g|^2 / (4 Re(G conj(g))) ||sum y_j||^2 ||x||^2``.
    """
    d.require_positive_re()
    return reports_of(f.stats.bind(ends=(d.gamma, d.Gamma), tol=tol).evaluate(theorem22_batch))[0]


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
    """The residuals from the mean vector ``target_scale x / ||x||^2``.

    Raises ``ParameterError`` where that vector leaves the double range, as
    ``extremal.plan`` refuses such disks.
    """
    if f.x_norm_sq == 0.0:
        raise DegenerateReference("equality residuals need a nonzero x")
    reason = _outside(disk_condition_abs(f.coefficients, d, tol))
    if reason:
        raise PreconditionError(reason)
    scale = target_scale / f.x_norm_sq
    if not cmath.isfinite(scale):
        raise ParameterError(f"the equality mean vector for {d} is outside the double range")
    per_j = np.abs(np.abs(f.coefficients - d.center) - d.radius)
    mean_target = scale * f.x
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
    d.require_center()
    scale = d.equality_constant / (4.0 * (d.Gamma + d.gamma))
    return _residuals(f, d, scale, tol)


def theorem22_residuals(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> EqualityResiduals:
    """Equality-case residuals for ``theorem22``.

    The characterised mean is ``2 Re(Gamma conj(gamma)) / (Gamma + gamma)``
    times ``x / ||x||^2``.
    """
    d.require_positive_re()
    scale = 2.0 * d.re_product / (d.Gamma + d.gamma)
    return _residuals(f, d, scale, tol)


def lemma_eq6_batch(s: BoundStats) -> list[BatchReport]:
    """``lemma_eq6`` on a stack with its disks bound; see ``lemma_eq6``."""
    t = _disk_terms(s)
    # Re[conj(Gamma + gamma) sum_j a_j]
    re = t.sum.real * s.a_sum.real + t.sum.imag * s.a_sum.imag
    ok = _all_inside(s)
    lhs, rhs = s.bessel + t.n_center_sq, t.n_radius_sq + re
    return [BatchReport("lemma_eq6", lhs, rhs, ok, lambda b: _outside(_inside(s)[b]))]


def lemma_eq6(f: Family, d: Disk, tol: float = DEFAULT_TOLERANCE) -> tuple[float, float]:
    """Summed disk inequality underlying both sharp bounds.

    Returns ``(lhs, rhs)`` with ``lhs = Bessel sum + n |center|^2`` and
    ``rhs = n radius^2 + Re[(conj(Gamma) + conj(gamma)) inner(x, sum y_j)]``.
    ``lhs <= rhs`` whenever all coefficients lie in the disk, with equality
    exactly when every coefficient is on the boundary.
    """
    rep = f.stats.bind(ends=(d.gamma, d.Gamma), tol=tol).evaluate(lemma_eq6_batch)[0]
    if not rep.ok:
        raise PreconditionError(rep.why(()))
    return float(rep.lhs), float(rep.rhs)


class OrthonormalRemark(NamedTuple):
    report30: BoundReport
    report31: BoundReport
    coarser_than_bessel: bool


def orthonormal_batch(s: BoundStats) -> list[BatchReport]:
    """``orthonormal30`` and ``orthonormal31`` on a stack with its disks bound.

    A family's test vectors are its e_j; one that is not orthonormal
    within ``s.tol`` is skipped with its Gram deviation as the reason.
    """
    t = _disk_terms(s)
    ok = t.centered & (s.ortho_dev <= s.tol) & _all_inside(s)

    def why30(b) -> str:
        if not np.asarray(t.centered)[b]:
            return Disk.CENTERLESS
        if s.ortho_dev[b] > s.tol:
            return f"family is not orthonormal (max Gram deviation {s.ortho_dev[b]:.3g})"
        return _outside(_inside(s)[b])

    def why31(b) -> str:
        return why30(b) or "requires Re(Gamma * conj(gamma)) > 0"

    return [
        BatchReport("orthonormal30", np.sqrt(s.bessel), s.x_norm + t.penalty, ok, why30),
        BatchReport("orthonormal31", s.bessel, t.factor1 * s.xsq, ok & t.positive, why31),
    ]


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
    f = Family(x, es)
    d.require_center()
    rep30, rep31 = reports_of(f.stats.bind(ends=(d.gamma, d.Gamma), tol=tol).evaluate(orthonormal_batch))
    if not rep30.preconditions_met:
        return OrthonormalRemark(rep30, rep31, False)
    coarser = rep30.rhs >= f.x_norm - tol * max(1.0, f.x_norm)
    if rep31.preconditions_met:
        coarser = coarser and rep31.rhs >= f.x_norm_sq - tol * max(1.0, f.x_norm_sq)
    return OrthonormalRemark(rep30, rep31, bool(coarser))


def triangle_reverse_l2_batch(s: BoundStats) -> list[BatchReport]:
    """Theorem 2.1 on the family ``x = 1``, ``y_j = conj(a_j)`` of each stack entry's coefficients."""
    return [_theorem21("triangle_reverse_l2", s, 1.0, s.a_sum_sq)]


def triangle_reverse_sq_batch(s: BoundStats) -> list[BatchReport]:
    """Theorem 2.2 on the family ``x = 1``, ``y_j = conj(a_j)`` of each stack entry's coefficients."""
    return [_theorem22("triangle_reverse_sq", s, 1.0, s.a_sum_sq)]


def _scalars(zs: Sequence[complex], d: Disk, tol: float) -> BoundStats:
    """The family alone with coefficients ``zs``, and the disk ``d`` bound."""
    return Stats.of_coefficients(as_vector(zs)).bind(ends=(d.gamma, d.Gamma), tol=tol)


def triangle_reverse_l2(zs: Sequence[complex], d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Reverse bound ``sqrt(sum |z_j|^2)`` vs ``|sum z_j| / sqrt(n)`` plus penalty.

    Scalar form of ``theorem21``: Theorem 2.1 on the family ``x = 1``,
    ``y_j = conj(z_j)``, evaluated by the same kernel.
    """
    s = _scalars(zs, d, tol)
    d.require_center()
    return reports_of(s.evaluate(triangle_reverse_l2_batch))[0]


def triangle_reverse_sq(zs: Sequence[complex], d: Disk, tol: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Reverse bound ``sum |z_j|^2`` vs ``|sum z_j|^2`` scaled; scalar ``theorem22``."""
    s = _scalars(zs, d, tol)
    d.require_positive_re()
    return reports_of(s.evaluate(triangle_reverse_sq_batch))[0]
