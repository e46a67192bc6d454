"""Upper bounds on the Bessel sum for arbitrary finite vector families.

Each bound is one array formula over the statistics of a stack of families
(``core.BoundStats``): ``<bound>_batch(s)`` returns its ``BatchReport``s,
and the function of the bound's own name runs the same formula on one
family, a stack without the batch axis, and returns its ``BoundReport``.  The catalogue, in order:

* ``boas_bellman``       max norm plus the Frobenius-style cross term
* ``bombieri``           max absolute Gram row sum
* ``selberg``            row-sum weighted coefficients vs ``||x||^2``
* ``dragomir03``         max norm plus ``(n-1)`` times the max cross term
* ``dragomir_pq``        Holder-interpolated variant, parameter ``p > 1``
* ``heilbronn``          first-power coefficient sum
* ``pecaric``            weighted coefficient sums, two nested bounds
* ``dragomir04``         weighted sums, three alternative right sides
* ``dragomir04_corollaries``  the three quotient forms at ``c_k = conj(a_k)``

``pecaric``, ``dragomir04`` and ``dragomir04_corollaries`` return tuples
of the values of their reports.  The weighted sum ``|sum_i c_i a_i|^2``
that ``pecaric`` and ``dragomir04`` share is formed once per evaluation
(``_weighted_sq``), for every weight row of ``s.weights``.

Conventions: ``a_i = inner(x, y_i)`` are the coefficients of the family and
``S_i = sum_j |inner(y_i, y_j)|`` the absolute Gram row sums.  A max over an
empty index set (off-diagonal terms at n = 1) is 0.  The quartic quotients
``S^2 / (N1 N2)`` of ``dragomir_pq`` and the corollaries, with ``S`` the
Bessel sum and ``N1``, ``N2`` norms of the coefficients, are formed as
``(S / N1) (S / N2)``: each factor is on the scale of one coefficient, so a
quotient overflows or underflows only where ``S`` itself does.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    BoundStats,
    DimensionMismatch,
    Family,
    ParameterError,
    Stats,
    as_vector,
    modulus,
    p_norm,
)
from .report import BatchReport, BoundReport, is_exponent, reports_of

__all__ = [
    "ParameterError",
    "PecaricBounds",
    "Dragomir04Bounds",
    "as_weights",
    "bessel_sum",
    "boas_bellman",
    "boas_bellman_batch",
    "bombieri",
    "bombieri_batch",
    "selberg",
    "selberg_batch",
    "dragomir03",
    "dragomir03_batch",
    "dragomir_pq",
    "dragomir_pq_batch",
    "heilbronn",
    "heilbronn_batch",
    "pecaric",
    "pecaric_batch",
    "classical_weights_batch",
    "dragomir04",
    "dragomir04_batch",
    "dragomir04_corollaries",
    "dragomir04_corollaries_batch",
]

_VANISH = "all coefficients inner(x, y_i) vanish"


def _vanish(b: int) -> str:
    return _VANISH


def bessel_sum(f: Family) -> float:
    """``sum_i |inner(x, y_i)|^2``, the quantity all bounds dominate."""
    return f.coefficients_sq_sum


def boas_bellman_batch(s: BoundStats) -> list[BatchReport]:
    """``boas_bellman`` on a stack; see ``boas_bellman``."""
    rhs = s.xsq * (s.diag_max + np.sqrt(s.off_sq))
    return [BatchReport("boas_bellman", s.bessel, rhs, s.always)]


def boas_bellman(f: Family) -> BoundReport:
    """Bessel sum vs ``||x||^2 [max ||y_i||^2 + sqrt(sum_{i!=j} |G_ij|^2)]``."""
    return reports_of(f.stats.bind().evaluate(boas_bellman_batch))[0]


def bombieri_batch(s: BoundStats) -> list[BatchReport]:
    """``bombieri`` on a stack; see ``bombieri``."""
    return [BatchReport("bombieri", s.bessel, s.xsq * s.row_sum_max, s.always)]


def bombieri(f: Family) -> BoundReport:
    """Bessel sum vs ``||x||^2 max_i S_i``."""
    return reports_of(f.stats.bind().evaluate(bombieri_batch))[0]


def selberg_batch(s: BoundStats) -> list[BatchReport]:
    """``selberg`` on a stack; see ``selberg``."""
    zero = s.row_sums == 0.0
    lhs = np.add.reduce(np.square(s.abs_a) / s.row_sums, axis=-1)
    return [
        BatchReport(
            "selberg",
            lhs,
            s.xsq,
            ~np.logical_or.reduce(zero, axis=-1),
            lambda b: f"test vector {int(np.argmax(zero[b]))} is zero",
        )
    ]


def selberg(f: Family) -> BoundReport:
    """``sum_i |a_i|^2 / S_i`` vs ``||x||^2``; every ``y_i`` must be nonzero."""
    return reports_of(f.stats.bind().evaluate(selberg_batch))[0]


def dragomir03_batch(s: BoundStats) -> list[BatchReport]:
    """``dragomir03`` on a stack; see ``dragomir03``."""
    rhs = s.xsq * (s.diag_max + (s.n - 1) * s.off_max)
    return [BatchReport("dragomir03", s.bessel, rhs, s.always)]


def dragomir03(f: Family) -> BoundReport:
    """Bessel sum vs ``||x||^2 {max ||y_i||^2 + (n-1) max_{i!=j} |G_ij|}``."""
    return reports_of(f.stats.bind().evaluate(dragomir03_batch))[0]


def dragomir_pq_batch(s: BoundStats) -> list[BatchReport]:
    """One ``dragomir_pq`` report per exponent of ``s.p_values``."""
    ok = s.max_abs_a != 0.0
    rhs = s.xsq * s.row_sum_max
    return [
        BatchReport(
            "dragomir_pq",
            (s.bessel / s.coeff_norm(p)) * (s.bessel / s.coeff_norm(p / (p - 1.0))),
            rhs,
            ok,
            _vanish,
        )
        for p in s.p_values
    ]


def dragomir_pq(f: Family, p: float) -> BoundReport:
    """Holder-interpolated Bombieri variant for conjugate exponents p, q.

    lhs is ``(sum |a_i|^2)^2`` divided by the p- and q-norms of the
    coefficients; rhs is the Bombieri right side.  At p = 2 the lhs
    collapses to the plain Bessel sum.
    """
    if not is_exponent(p):
        raise ParameterError(f"p must exceed 1, got {p}")
    return reports_of(f.stats.bind(p_values=(p,)).evaluate(dragomir_pq_batch))[0]


def heilbronn_batch(s: BoundStats) -> list[BatchReport]:
    """``heilbronn`` on a stack; see ``heilbronn``."""
    rhs = s.x_norm * np.sqrt(np.add.reduce(s.abs_gram, axis=(-2, -1)))
    return [BatchReport("heilbronn", np.add.reduce(s.abs_a, axis=-1), rhs, s.always)]


def heilbronn(f: Family) -> BoundReport:
    """``sum_i |a_i|`` vs ``||x|| sqrt(sum_{i,j} |G_ij|)``."""
    return reports_of(f.stats.bind().evaluate(heilbronn_batch))[0]


class PecaricBounds(NamedTuple):
    lhs: float
    rhs_first: float
    rhs_second: float


def as_weights(f: Family, c) -> np.ndarray:
    """``c`` as a finite complex vector (``core.as_vector``) with one weight per test vector."""
    carr = np.asarray(c, dtype=np.complex128)
    if carr.ndim != 1 or carr.shape[-1] != f.n:
        raise DimensionMismatch(
            f"coefficient list must have length {f.n}, got shape {carr.shape}"
        )
    return as_vector(carr)


def _weighted_sq(s: BoundStats) -> np.ndarray:
    """(..., k): ``|sum_i c_i a_i|^2`` for each weight row ``c`` of ``s.weights``, formed once per binding.

    A row of a k-row product can differ in its last bit from the same row
    taken alone, so a single weight vector is bound as a 1-row stack, and the
    classical weights apart from it (``harness._CLASSICAL``).
    """
    return s.kept("weighted", lambda: np.square(modulus((s.weights @ s.a[..., None])[..., 0])))


def pecaric_batch(s: BoundStats) -> list[BatchReport]:
    """``pecaric_first`` and ``pecaric_second`` for each weight row of ``s.weights``."""
    w = s.weights
    c2 = np.square(w.real) + np.square(w.imag)
    lhs = _weighted_sq(s)
    xsq = s.xsq[..., None]
    first = xsq * (c2 @ s.row_sums[..., None])[..., 0]
    second = xsq * np.add.reduce(c2, axis=-1) * s.row_sum_max[..., None]
    reports = []
    for k in range(w.shape[-2]):
        reports.append(BatchReport("pecaric_first", lhs[..., k], first[..., k], s.always))
        reports.append(BatchReport("pecaric_second", lhs[..., k], second[..., k], s.always))
    return reports


def pecaric(f: Family, c: Sequence[complex]) -> PecaricBounds:
    """Weighted-sum bound ``|sum c_k a_k|^2 <= rhs_first <= rhs_second``.

    ``rhs_first = ||x||^2 sum_i |c_i|^2 S_i`` and
    ``rhs_second = ||x||^2 (sum |c_k|^2) max_i S_i``.
    """
    first, second = reports_of(f.stats.bind(weights=as_weights(f, c)[None]).evaluate(pecaric_batch))
    return PecaricBounds(first.lhs, first.rhs, second.rhs)


def classical_weights_batch(s: Stats | BoundStats) -> np.ndarray:
    """(..., 3, n): the weights ``conj(a)``, ``conj(a) / S`` and ``conj(a) / |a|`` of each family.

    A zero divisor gives weight 0 for ``S`` and weight 1 for ``|a|``.
    """
    conj_a = np.conj(s.a)
    row, abs_a = s.row_sums, s.abs_a
    return np.stack(
        [
            conj_a,
            np.where(row == 0.0, 0.0, conj_a / np.where(row == 0.0, 1.0, row)),
            np.where(abs_a == 0.0, 1.0 + 0.0j, conj_a / np.where(abs_a == 0.0, 1.0, abs_a)),
        ],
        axis=-2,
    )


class Dragomir04Bounds(NamedTuple):
    lhs: float
    rhs_branch1: float
    rhs_branch2: float | None
    rhs_branch3: float


def dragomir04_batch(s: BoundStats) -> list[BatchReport]:
    """``dragomir04_b1``, one ``dragomir04_b2`` per exponent, ``dragomir04_b3``, at weight row 0."""
    c = s.weights[..., 0, :]
    abs_c = np.abs(c)
    sum_c = np.add.reduce(abs_c, axis=-1)
    lhs = _weighted_sq(s)[..., 0]
    xsq = s.xsq
    rhs1 = xsq * np.maximum.reduce(abs_c, axis=-1) * sum_c * s.row_sum_max
    reports = [BatchReport("dragomir04_b1", lhs, rhs1, s.always)]
    for p in s.p_values:
        rhs2 = xsq * sum_c * p_norm(abs_c, p) * s.row_q_norm_max(p / (p - 1.0))
        reports.append(BatchReport("dragomir04_b2", lhs, rhs2, s.always))
    rhs3 = xsq * np.square(sum_c) * s.abs_gram_max
    reports.append(BatchReport("dragomir04_b3", lhs, rhs3, s.always))
    return reports


def dragomir04(f: Family, c: Sequence[complex], p: float | None = None) -> Dragomir04Bounds:
    """Weighted-sum bound with three alternative right sides.

    Branch 1 uses ``max_k |c_k|``, branch 2 the (p, q) norms (reported as
    None when ``p`` is absent or not finite and > 1), branch 3 the max
    Gram entry.
    """
    s = f.stats.bind(weights=as_weights(f, c)[None], p_values=() if p is None else (p,))
    reports = reports_of(s.evaluate(dragomir04_batch))
    rhs2 = reports[1].rhs if s.p_values else None
    return Dragomir04Bounds(reports[0].lhs, reports[0].rhs, rhs2, reports[-1].rhs)


def dragomir04_corollaries_batch(s: BoundStats) -> list[BatchReport]:
    """``dragomir04_cor1``, one ``dragomir04_cor2`` per exponent, ``dragomir04_cor3``.

    With no exponent, ``dragomir04_cor2`` is reported once as skipped.
    Every report is skipped on a family whose coefficients are all 0.
    """
    ok = s.max_abs_a != 0.0
    bessel, xsq, sum_a = s.bessel, s.xsq, s.coeff_norm(1.0)
    cor1 = (bessel / s.max_abs_a) * (bessel / sum_a)
    reports = [BatchReport("dragomir04_cor1", cor1, xsq * s.row_sum_max, ok, _vanish)]
    for p in s.p_values:
        cor2 = (bessel / sum_a) * (bessel / s.coeff_norm(p))
        rhs2 = xsq * s.row_q_norm_max(p / (p - 1.0))
        reports.append(BatchReport("dragomir04_cor2", cor2, rhs2, ok, _vanish))
    if not s.p_values:
        reports.append(
            BatchReport(
                "dragomir04_cor2",
                bessel,
                bessel,
                ~s.always,
                lambda b: "requires p > 1" if ok[b] else _VANISH,
            )
        )
    cor3 = (bessel / sum_a) * (bessel / sum_a)
    reports.append(BatchReport("dragomir04_cor3", cor3, xsq * s.abs_gram_max, ok, _vanish))
    return reports


def dragomir04_corollaries(
    f: Family, p: float | None = None
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The three quotient inequalities at the choice ``c_k = conj(a_k)``.

    Each report's lhs is the printed quotient of coefficient sums, the rhs
    the matching Gram expression.  Requires not all coefficients zero; the
    second quotient needs a finite ``p > 1`` and is skipped otherwise.
    """
    s = f.stats.bind(p_values=() if p is None else (p,))
    return tuple(reports_of(s.evaluate(dragomir04_corollaries_batch)))
