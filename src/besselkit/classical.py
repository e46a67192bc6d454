"""Upper bounds on the Bessel sum for arbitrary finite vector families.

Each routine evaluates one inequality as an lhs/rhs pair over a ``Family``.
The catalogue, in the order implemented:

* ``boas_bellman``       max norm plus the Frobenius-style cross term
* ``bombieri``           max absolute Gram row sum
* ``selberg``            row-sum weighted coefficients vs ``||x||^2``
* ``dragomir03``         max norm plus ``(n-1)`` times the max cross term
* ``dragomir_pq``        Holder-interpolated variant, parameter ``p > 1``
* ``heilbronn``          first-power coefficient sum
* ``pecaric``            weighted coefficient sums, two nested bounds
* ``dragomir04``         weighted sums, three alternative right sides
* ``dragomir04_corollaries``  the three quotient forms at ``c_k = conj(a_k)``

The last three wrap ``pecaric_reports``, ``dragomir04_reports`` and
``dragomir04_corollary_reports``, which ``check_all`` runs.

Conventions: ``a_i = inner(x, y_i)`` are the coefficients of the family and
``S_i = sum_j |inner(y_i, y_j)|`` the absolute Gram row sums.  A max over an
empty index set (off-diagonal terms at n = 1) is 0.  The quartic quotients
``S^2 / (N1 N2)`` of ``dragomir_pq`` and the corollaries, with ``S`` the
Bessel sum and ``N1``, ``N2`` norms of the coefficients, are formed as
``(S / N1) (S / N2)``: each factor is on the scale of one coefficient, so a
quotient overflows or underflows only where ``S`` itself does.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import DimensionMismatch, Family, ParameterError, p_norm
from .report import BoundReport, evaluated, is_exponent, skipped

__all__ = [
    "ParameterError",
    "PecaricBounds",
    "Dragomir04Bounds",
    "bessel_sum",
    "boas_bellman",
    "bombieri",
    "selberg",
    "dragomir03",
    "dragomir_pq",
    "heilbronn",
    "pecaric",
    "pecaric_reports",
    "classical_weights",
    "dragomir04",
    "dragomir04_reports",
    "dragomir04_corollaries",
    "dragomir04_corollary_reports",
]


def _quartic(f: Family, n1: float, n2: float) -> float:
    """The quotient ``(sum |a_i|^2)^2 / (n1 n2)`` of the Dragomir bounds, scale-free."""
    s = f.coefficients_sq_sum
    return (s / n1) * (s / n2)


def bessel_sum(f: Family) -> float:
    """``sum_i |inner(x, y_i)|^2``, the quantity all bounds dominate."""
    return f.coefficients_sq_sum


def boas_bellman(f: Family) -> BoundReport:
    """Bessel sum vs ``||x||^2 [max ||y_i||^2 + sqrt(sum_{i!=j} |G_ij|^2)]``."""
    # summing the off-diagonal entries directly avoids the cancellation a
    # total-minus-diagonal shortcut would hit on near-orthonormal families
    sq = f.abs_gram**2
    np.fill_diagonal(sq, 0.0)
    cross = math.sqrt(float(sq.sum()))
    rhs = f.x_norm_sq * (float(f.abs_gram.diagonal().max()) + cross)
    return evaluated("boas_bellman", bessel_sum(f), rhs)


def bombieri(f: Family) -> BoundReport:
    """Bessel sum vs ``||x||^2 max_i S_i``."""
    return evaluated("bombieri", bessel_sum(f), f.x_norm_sq * f.max_row_sum)


def selberg(f: Family) -> BoundReport:
    """``sum_i |a_i|^2 / S_i`` vs ``||x||^2``; every ``y_i`` must be nonzero."""
    row_sums = f.gram_row_sums
    if np.any(row_sums == 0.0):
        idx = int(np.argmax(row_sums == 0.0))
        return skipped("selberg", f"test vector {idx} is zero")
    a2 = f.abs_coefficients**2
    return evaluated("selberg", float((a2 / row_sums).sum()), f.x_norm_sq)


def dragomir03(f: Family) -> BoundReport:
    """Bessel sum vs ``||x||^2 {max ||y_i||^2 + (n-1) max_{i!=j} |G_ij|}``."""
    diag_max = float(f.abs_gram.diagonal().max())
    if f.n > 1:
        off = f.abs_gram.copy()
        np.fill_diagonal(off, -np.inf)
        cross = (f.n - 1) * float(off.max())
    else:
        cross = 0.0
    return evaluated("dragomir03", bessel_sum(f), f.x_norm_sq * (diag_max + cross))


def dragomir_pq(f: Family, p: float) -> BoundReport:
    """Holder-interpolated Bombieri variant for conjugate exponents p, q.

    lhs is ``(sum |a_i|^2)^2`` divided by the p- and q-norms of the
    coefficients; rhs is the Bombieri right side.  At p = 2 the lhs
    collapses to the plain Bessel sum.
    """
    if not is_exponent(p):
        raise ParameterError(f"p must exceed 1, got {p}")
    if f.max_abs_coefficient == 0.0:
        return skipped("dragomir_pq", "all coefficients inner(x, y_i) vanish")
    q = p / (p - 1.0)
    lhs = _quartic(f, f.coeff_p_norm(p), f.coeff_p_norm(q))
    return evaluated("dragomir_pq", lhs, f.x_norm_sq * f.max_row_sum)


def heilbronn(f: Family) -> BoundReport:
    """``sum_i |a_i|`` vs ``||x|| sqrt(sum_{i,j} |G_ij|)``."""
    lhs = float(f.abs_coefficients.sum())
    rhs = f.x_norm * math.sqrt(float(f.abs_gram.sum()))
    return evaluated("heilbronn", lhs, rhs)


class PecaricBounds(NamedTuple):
    lhs: float
    rhs_first: float
    rhs_second: float


def _weights(f: Family, c, ndim: int) -> np.ndarray:
    """``c`` as a complex array of ``ndim`` axes with one weight per test vector."""
    carr = np.asarray(c, dtype=np.complex128)
    if carr.ndim != ndim or carr.shape[-1] != f.n:
        raise DimensionMismatch(
            f"coefficient list must have length {f.n}, got shape {carr.shape}"
        )
    return carr


def pecaric_reports(f: Family, weights) -> list[BoundReport]:
    """``pecaric_first`` and ``pecaric_second`` for each row of a (k, n) weight stack.

    A row of a k-row product can differ in its last bit from the same row
    taken alone, so a single weight vector goes in as a 1-row stack.
    """
    w = _weights(f, weights, 2)
    xsq = f.x_norm_sq
    c2 = w.real**2 + w.imag**2
    dots = (w @ f.coefficients).tolist()
    firsts = (c2 @ f.gram_row_sums).tolist()
    seconds = c2.sum(axis=1).tolist()
    reports = []
    for dot, s1, s2 in zip(dots, firsts, seconds):
        # a scalar abs (libm hypot); np.abs on an array can differ in the last bit
        lhs = abs(dot) ** 2
        reports.append(evaluated("pecaric_first", lhs, xsq * s1))
        reports.append(evaluated("pecaric_second", lhs, xsq * s2 * f.max_row_sum))
    return reports


def pecaric(f: Family, c: Sequence[complex]) -> PecaricBounds:
    """Weighted-sum bound ``|sum c_k a_k|^2 <= rhs_first <= rhs_second``.

    ``rhs_first = ||x||^2 sum_i |c_i|^2 S_i`` and
    ``rhs_second = ||x||^2 (sum |c_k|^2) max_i S_i``.
    """
    first, second = pecaric_reports(f, np.asarray(c, dtype=np.complex128)[None])
    return PecaricBounds(first.lhs, first.rhs, second.rhs)


def classical_weights(f: Family) -> np.ndarray:
    """The weights ``conj(a)``, ``conj(a) / S`` and ``conj(a) / |a|``, stacked.

    A zero divisor gives weight 0 for ``S`` and weight 1 for ``|a|``.
    """
    a = f.coefficients
    abs_a = f.abs_coefficients
    conj_a = np.conj(a)
    row = f.gram_row_sums
    safe_row = np.where(row == 0.0, 1.0, row)
    safe_abs = np.where(abs_a == 0.0, 1.0, abs_a)
    return np.stack(
        [
            conj_a,
            np.where(row == 0.0, 0.0, conj_a / safe_row),
            np.where(abs_a == 0.0, 1.0 + 0.0j, conj_a / safe_abs),
        ]
    )


class Dragomir04Bounds(NamedTuple):
    lhs: float
    rhs_branch1: float
    rhs_branch2: float | None
    rhs_branch3: float


def dragomir04_reports(
    f: Family, c: Sequence[complex], p_values: Sequence[float]
) -> list[BoundReport]:
    """``dragomir04_b1``, one ``dragomir04_b2`` per exponent, ``dragomir04_b3``.

    Every exponent must exceed 1.
    """
    carr = _weights(f, c, 1)
    abs_c = np.abs(carr)
    sum_c = float(abs_c.sum())
    lhs = float(abs(np.dot(carr, f.coefficients)) ** 2)
    xsq = f.x_norm_sq
    reports = [evaluated("dragomir04_b1", lhs, xsq * float(abs_c.max()) * sum_c * f.max_row_sum)]
    for p in p_values:
        rhs2 = xsq * sum_c * p_norm(abs_c, p) * f.row_q_norm_max(p / (p - 1.0))
        reports.append(evaluated("dragomir04_b2", lhs, rhs2))
    reports.append(evaluated("dragomir04_b3", lhs, xsq * sum_c**2 * f.max_abs_gram))
    return reports


def dragomir04(f: Family, c: Sequence[complex], p: float | None = None) -> Dragomir04Bounds:
    """Weighted-sum bound with three alternative right sides.

    Branch 1 uses ``max_k |c_k|``, branch 2 the (p, q) norms (reported as
    None when ``p`` is absent or not finite and > 1), branch 3 the max
    Gram entry.
    """
    p_values = (p,) if p is not None and is_exponent(p) else ()
    reports = dragomir04_reports(f, c, p_values)
    rhs2 = reports[1].rhs if p_values else None
    return Dragomir04Bounds(reports[0].lhs, reports[0].rhs, rhs2, reports[-1].rhs)


def dragomir04_corollary_reports(f: Family, p_values: Sequence[float]) -> list[BoundReport]:
    """``dragomir04_cor1``, one ``dragomir04_cor2`` per exponent, ``dragomir04_cor3``.

    Every exponent must exceed 1; with none, ``dragomir04_cor2`` is reported
    once as skipped.  All reports are skipped when every coefficient is 0.
    """
    if f.max_abs_coefficient == 0.0:
        reason = "all coefficients inner(x, y_i) vanish"
        cor2 = [skipped("dragomir04_cor2", reason)] * max(1, len(p_values))
        return [skipped("dragomir04_cor1", reason), *cor2, skipped("dragomir04_cor3", reason)]
    xsq = f.x_norm_sq
    sum_a = f.coeff_p_norm(1.0)
    cor1 = _quartic(f, f.max_abs_coefficient, sum_a)
    reports = [evaluated("dragomir04_cor1", cor1, xsq * f.max_row_sum)]
    for p in p_values:
        lhs = _quartic(f, sum_a, f.coeff_p_norm(p))
        reports.append(evaluated("dragomir04_cor2", lhs, xsq * f.row_q_norm_max(p / (p - 1.0))))
    if not p_values:
        reports.append(skipped("dragomir04_cor2", "requires p > 1"))
    cor3 = _quartic(f, sum_a, sum_a)
    reports.append(evaluated("dragomir04_cor3", cor3, xsq * f.max_abs_gram))
    return reports


def dragomir04_corollaries(
    f: Family, p: float | None = None
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The three quotient inequalities at the choice ``c_k = conj(a_k)``.

    Each report's lhs is the printed quotient of coefficient sums, the rhs
    the matching Gram expression.  Requires not all coefficients zero; the
    second quotient needs a finite ``p > 1`` and is skipped otherwise.
    """
    return tuple(dragomir04_corollary_reports(f, (p,) if p is not None and is_exponent(p) else ()))
