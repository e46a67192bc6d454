"""Complex vector arithmetic for finite families in an inner product space.

Vectors are 1-D ``numpy`` arrays of ``complex128``.  The inner product is
linear in the first argument and conjugate-linear in the second, so
``inner(u, v) == sum(u * conj(v))``.  ``Stats`` holds the statistics every
bound reads, over a stack of families with a leading batch axis; a
``Family`` is a stack without the batch axis, and its derived quantities
are views of its ``stats``.  A statistic is computed once, on first
access, and never changes afterwards, so values may be shared freely
between threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .report import DEFAULT_TOLERANCE, check_tolerance, is_exponent

__all__ = [
    "BesselkitError",
    "DimensionMismatch",
    "DegenerateReference",
    "ParameterError",
    "PreconditionError",
    "Family",
    "Stats",
    "BoundStats",
    "as_vector",
    "inner",
    "norm",
    "gram",
    "project_orthogonal",
    "lift_gram_values",
    "lift_stack",
    "libm_pow",
    "modulus",
    "p_norm",
]


class BesselkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(BesselkitError, ValueError):
    """Vector dimensions or sequence lengths do not agree."""


class DegenerateReference(BesselkitError, ValueError):
    """An operation required a nonzero reference vector."""


class ParameterError(BesselkitError, ValueError):
    """A scalar parameter is outside its admissible range."""


class PreconditionError(BesselkitError, ValueError):
    """Input data violates a precondition of the requested operation."""


def as_vector(u: Iterable[complex]) -> np.ndarray:
    """Coerce ``u`` to a finite 1-D complex128 array."""
    arr = np.asarray(u, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(
            f"expected a non-empty 1-D vector, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def inner(u: Iterable[complex], v: Iterable[complex]) -> complex:
    """Inner product, linear in ``u`` and conjugate-linear in ``v``."""
    ua, va = as_vector(u), as_vector(v)
    if ua.shape != va.shape:
        raise DimensionMismatch(
            f"inner product needs equal dimensions, got {ua.size} and {va.size}"
        )
    return complex(np.dot(ua, np.conj(va)))


def norm(u: Iterable[complex]) -> float:
    """Euclidean norm ``sqrt(inner(u, u))``."""
    return float(np.linalg.norm(as_vector(u)))


def _as_matrix(ys: Sequence[Iterable[complex]]) -> np.ndarray:
    try:
        # row-major whatever the input's layout, so that a Gram product takes one BLAS path
        arr = np.ascontiguousarray(ys, dtype=np.complex128)
    except ValueError as exc:
        raise DimensionMismatch(f"vectors have inconsistent dimensions: {exc}") from None
    if arr.ndim == 1 and arr.size == 0:
        raise DimensionMismatch("expected a non-empty list of vectors")
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionMismatch(
            f"expected a non-empty list of equal-length vectors, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def _gram(ys: np.ndarray) -> np.ndarray:
    """``G[..., i, j] = inner(ys[..., i, :], ys[..., j, :])`` over a stack of vector lists."""
    return ys @ np.conj(ys).swapaxes(-1, -2)


def gram(ys: Sequence[Iterable[complex]]) -> np.ndarray:
    """Gram matrix ``G[i, j] = inner(ys[i], ys[j])``.

    Conjugate-symmetric with a real non-negative diagonal up to rounding
    of the underlying matrix product.
    """
    return _gram(_as_matrix(ys))


def _sq_sum(v: np.ndarray) -> np.ndarray:
    """``sum |v|^2`` over the last axis."""
    return np.add.reduce(np.square(v.real) + np.square(v.imag), axis=-1)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """``||x||^2`` over the last axis, as the dot product of ``x`` with itself."""
    return (x[..., None, :] @ np.conj(x)[..., :, None])[..., 0, 0].real


def modulus(z: np.ndarray) -> np.ndarray:
    """``|z|`` elementwise through libm ``hypot``, as Python's ``abs`` of a complex computes it.

    ``np.abs`` on a complex array takes a vectorised path that can differ
    in the last bit.  A Python complex gives a numpy float, so that dividing
    by it gives inf or NaN, as over an array, instead of raising; a modulus
    beyond the double range is inf, as ``np.hypot`` gives it.
    """
    if type(z) is complex:
        try:
            return np.float64(abs(z))
        except OverflowError:
            return np.float64(math.inf)
    return np.hypot(z.real, z.imag)


def _pow_or_inf(x: float, e: float) -> float:
    try:
        return x**e
    except OverflowError:
        return math.inf


def libm_pow(v: np.ndarray | np.float64, e: float):
    """``v ** e`` elementwise for ``v >= 0`` through libm ``pow``, as Python floats compute it.

    numpy's vectorised power, and its squaring shortcut at ``e = 2``, can
    differ from libm in the last bit.  The bounds take every power of a
    single number (a squared modulus, the root of a p-norm) through this
    function, so a report has the same bits at any batch size.  A result
    beyond the double range is inf.
    """
    if isinstance(v, np.float64):
        return v**e  # numpy's scalar power is libm's, and gives inf past the range
    flat = v.ravel().tolist()
    try:
        out = [x**e for x in flat]
    except OverflowError:
        out = [_pow_or_inf(x, e) for x in flat]
    return np.array(out, dtype=np.float64).reshape(v.shape)


def p_norm(values: np.ndarray, p: float) -> np.ndarray:
    """``(sum v**p) ** (1/p)`` over the last axis for non-negative values, overflow-safe."""
    m = np.maximum.reduce(values, axis=-1)
    t = values / (m + (m == 0.0))[..., None]  # divide by 1 where all values are 0
    return m * libm_pow(np.add.reduce(t**p, axis=-1), 1.0 / p)


def _along(ws: np.ndarray, x: np.ndarray, xsq: np.ndarray) -> np.ndarray:
    """The components along ``x[b]`` (B, d) of the rows of ``ws[b]`` (B, n, d), given ``||x[b]||^2``."""
    return ((ws @ np.conj(x)[:, :, None])[:, :, 0] / xsq[:, None])[:, :, None] * x[:, None, :]


def project_orthogonal(w, x: Iterable[complex]) -> np.ndarray:
    """Component of ``w`` orthogonal to ``x`` (``x != 0``); of each row when ``w`` is a list of vectors."""
    xa = as_vector(x)
    wa = np.asarray(w, dtype=np.complex128)
    if wa.ndim not in (1, 2) or wa.shape[-1] != xa.size:
        raise DimensionMismatch("projection needs vectors of equal dimension")
    if not np.isfinite(wa).all():
        raise ValueError("vector entries must be finite")
    xsq = _sq_norms(xa[None])
    if xsq[0] == 0.0:
        raise DegenerateReference("cannot project against the zero vector")
    rows = wa.reshape(1, -1, xa.size)
    return (rows - _along(rows, xa[None], xsq)).reshape(wa.shape)


def lift_stack(x: np.ndarray, zs: np.ndarray, ws: np.ndarray | None = None) -> np.ndarray:
    """``lift_gram_values`` on a stack: ``x`` (B, d), ``zs`` (B, n), ``ws`` (B, n, d) or None."""
    xsq = _sq_norms(x)
    if (xsq == 0.0).any():
        raise DegenerateReference("reference vector x must be nonzero")
    ys = (np.conj(zs) / xsq[:, None])[:, :, None] * x[:, None, :]
    if ws is not None:
        ys = ys + ws - _along(ws, x, xsq)
    return ys


def lift_gram_values(
    x: Iterable[complex],
    zs: Sequence[complex],
    ws: Sequence[Iterable[complex]] | None = None,
) -> np.ndarray:
    """Construct vectors whose inner products against ``x`` are prescribed.

    Returns the stack of ``y_j = (conj(z_j) / ||x||^2) * x + P(w_j)`` where
    ``P`` projects onto the orthogonal complement of ``x`` (``w_j = 0`` when
    ``ws`` is absent).  Guarantees ``inner(x, y_j) == z_j`` up to rounding.

    Args:
        x: nonzero reference vector of dimension d.
        zs: prescribed values ``inner(x, y_j)``, length n.
        ws: optional free components, n vectors of dimension d.

    Returns:
        Array of shape (n, d) whose rows are the constructed vectors.
    """
    xa, zarr = as_vector(x), as_vector(zs)
    warr = None
    if ws is not None:
        warr = _as_matrix(ws)
        if warr.shape != (zarr.size, xa.size):
            raise DimensionMismatch(
                f"ws must have shape {(zarr.size, xa.size)}, got {warr.shape}"
            )
        warr = warr[None]
    return lift_stack(xa[None], zarr[None], warr)[0]


class _lazy:
    """A computed attribute, kept in the instance after its first access.

    ``functools.cached_property`` does the same under a lock that costs
    more than most statistics here take to compute.
    """

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Stats:
    """The statistics the bounds read, over a stack of families of n test vectors each.

    A stack of B families has ``shape`` (B,), the leading axis of every
    statistic; a family alone has ``shape`` (), so its statistics are
    numpy scalars and (n,) or (n, n) arrays, and the same formulas read
    them at scalar speed.  The families are held in ``parts``, runs of
    one dimension each in stack order: ``(x, ys)`` with ``x`` (k, d) and
    ``ys`` (k, n, d) their reference and test vectors, as ``stack`` builds
    them; a family alone is one part ``(x, ys)`` without the batch axis.
    No array is padded, so every statistic has the bits it has for each
    family alone.  Each statistic is computed on first access and kept, so
    a bound pays only for what it reads; the few that read the vectors are
    computed part by part and joined (``_by_dim``).

    ``bind`` adds what the bounds read besides the families (a
    ``BoundStats``), and ``evaluate`` runs formulas with no inputs bound.
    """

    def __init__(self, parts: list[tuple[np.ndarray, np.ndarray]], shape: tuple[int, ...]) -> None:
        self.parts, self.shape = parts, shape
        if parts:
            self.n = parts[0][1].shape[-2]

    @classmethod
    def stack(cls, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> Stats:
        """A stack of families of one size n, given in runs of one dimension d each.

        A part ``(x, ys)`` holds the next ``k`` families of the stack: ``x``
        (k, d) and ``ys`` (k, n, d).  The arrays are held row-major, as
        ``Family`` holds its own, so that every product takes one BLAS path.
        """
        parts = [(np.ascontiguousarray(x), np.ascontiguousarray(ys)) for x, ys in parts]
        return cls(parts, (sum(len(x) for x, _ in parts),))

    @classmethod
    def of_coefficients(cls, a: np.ndarray) -> Stats:
        """A family alone given by its coefficients ``a``, without vectors."""
        s = cls([], ())
        s.n, s.a = a.size, a
        return s

    def bind(
        self,
        *,
        ends: tuple | None = None,
        weights: np.ndarray | None = None,
        p_values: tuple[float, ...] = (),
        tol: float = DEFAULT_TOLERANCE,
    ) -> BoundStats:
        """This stack with the inputs of one evaluation (see ``BoundStats``).

        Exponents that are not finite and > 1 (``report.is_exponent``) are
        dropped; ``tol`` must pass ``report.check_tolerance``.
        """
        return BoundStats(self, ends, weights, tuple(filter(is_exponent, p_values)), check_tolerance(tol))

    def evaluate(self, *formulas) -> list:
        """The ``BatchReport``s of ``formulas`` with no inputs bound; see ``BoundStats.evaluate``."""
        return self.bind().evaluate(*formulas)

    def _by_dim(self, fn):
        """``fn(x, ys)`` of each part, joined into one array over the stack."""
        if len(self.parts) == 1:
            return fn(*self.parts[0])
        return np.concatenate([fn(x, ys) for x, ys in self.parts])

    @_lazy
    def dim(self) -> np.ndarray:
        """The dimension of each family."""
        return self._by_dim(lambda x, ys: np.full(x.shape[:-1], x.shape[-1]))

    @_lazy
    def always(self) -> np.ndarray:
        """All True: the preconditions of a bound that always applies."""
        return np.ones(self.shape, dtype=bool)[()]

    @_lazy
    def a(self) -> np.ndarray:
        """The coefficients ``inner(x, y_j)``, n per family."""
        return self._by_dim(lambda x, ys: (np.conj(ys) @ x[..., None])[..., 0])

    @_lazy
    def abs_a(self) -> np.ndarray:
        return np.abs(self.a)

    @_lazy
    def max_abs_a(self) -> np.ndarray:
        return np.maximum.reduce(self.abs_a, axis=-1)

    @_lazy
    def bessel(self) -> np.ndarray:
        """The Bessel sum ``sum_j |a_j|^2``."""
        return _sq_sum(self.a)

    @_lazy
    def a_sum(self) -> np.ndarray:
        return np.add.reduce(self.a, axis=-1)

    @_lazy
    def a_sum_sq(self) -> np.ndarray:
        """``|sum_j a_j|^2``: ``||sum y_j||^2`` of the family ``x = 1``, ``y_j = conj(a_j)``."""
        return _sq_sum(self.a_sum[..., None])

    @_lazy
    def xsq(self) -> np.ndarray:
        return self._by_dim(lambda x, ys: _sq_norms(x))

    @_lazy
    def x_norm(self) -> np.ndarray:
        return np.sqrt(self.xsq)

    @_lazy
    def sum_sq(self) -> np.ndarray:
        """``||sum_j y_j||^2``."""
        return self._by_dim(lambda x, ys: _sq_sum(np.add.reduce(ys, axis=-2)))

    @_lazy
    def gram(self) -> np.ndarray:
        return self._by_dim(lambda x, ys: _gram(ys))

    @_lazy
    def abs_gram(self) -> np.ndarray:
        return np.abs(self.gram)

    @_lazy
    def row_sums(self) -> np.ndarray:
        """The row sums ``S_i`` of ``|G|``, n per family."""
        return np.add.reduce(self.abs_gram, axis=-1)

    @_lazy
    def row_sum_max(self) -> np.ndarray:
        return np.maximum.reduce(self.row_sums, axis=-1)

    @_lazy
    def abs_gram_max(self) -> np.ndarray:
        return np.maximum.reduce(self.abs_gram, axis=(-2, -1))

    @_lazy
    def diag_max(self) -> np.ndarray:
        """``max_i ||y_i||^2``, read off the Gram diagonal."""
        return np.maximum.reduce(np.diagonal(self.abs_gram, 0, -2, -1), axis=-1)

    @_lazy
    def off_diag(self) -> np.ndarray:
        """``|G|`` with a zero diagonal: its maximum is 0 when n = 1."""
        off = self.abs_gram.copy()
        i = np.arange(off.shape[-1])
        off[..., i, i] = 0.0
        return off

    @_lazy
    def off_sq(self) -> np.ndarray:
        """``sum_{i != j} |G_ij|^2``, summed directly: a total-minus-diagonal
        shortcut would cancel on near-orthonormal families."""
        return np.add.reduce(np.square(self.off_diag), axis=(-2, -1))

    @_lazy
    def off_max(self) -> np.ndarray:
        return np.maximum.reduce(self.off_diag, axis=(-2, -1))

    @_lazy
    def ortho_dev(self) -> np.ndarray:
        """``max_ij |G_ij - delta_ij|``: how far the test vectors are from orthonormal."""
        return np.maximum.reduce(np.abs(self.gram - np.eye(self.n)), axis=(-2, -1))

    @_lazy
    def _norms(self) -> dict:
        return {}

    def coeff_norm(self, p: float) -> np.ndarray:
        """``(sum_i |a_i|^p) ** (1/p)``, overflow-safe, kept per p."""
        key = ("a", p)
        if key not in self._norms:
            self._norms[key] = p_norm(self.abs_a, p)
        return self._norms[key]

    def row_q_norm_max(self, q: float) -> np.ndarray:
        """``max_i (sum_j |G_ij|^q) ** (1/q)``, overflow-safe, kept per q."""
        key = ("G", q)
        if key not in self._norms:
            m = np.maximum.reduce(self.abs_gram, axis=-1)
            t = self.abs_gram / (m + (m == 0.0))[..., None]
            self._norms[key] = np.maximum.reduce(m * np.add.reduce(t**q, axis=-1) ** (1.0 / q), axis=-1)
        return self._norms[key]


class BoundStats(Stats):
    """A ``Stats`` stack with the inputs of one evaluation bound to it.

    The inputs are the end points ``ends = (gamma, Gamma)`` of the families'
    disks, the weight rows ``weights`` (B, k, n), whose row 0 is the weight
    vector ``c``, the exponents ``p_values`` and the tolerance ``tol``.  The
    end points are held as ``gamma`` and ``Gamma`` (None without disks):
    arrays over a stack, and Python complex numbers for a family alone,
    whose arithmetic is much faster than that of numpy scalars.  The family
    statistics live in the stack's own attribute dictionary, which this
    shares, so every evaluation of a family computes them once; what
    depends on the inputs is kept per evaluation (``kept``).
    """

    __slots__ = ("gamma", "Gamma", "weights", "p_values", "tol", "_kept")

    def __init__(self, stats: Stats, ends, weights, p_values: tuple[float, ...], tol: float) -> None:
        self.__dict__ = stats.__dict__
        self.gamma, self.Gamma = (None, None) if ends is None else ends
        self.weights, self.p_values, self.tol = weights, p_values, tol
        self._kept: dict = {}

    def evaluate(self, *formulas) -> list:
        """The ``BatchReport``s of each formula in turn.

        Overflow, and the divisions by zero of families a bound skips, give
        inf or NaN without a warning.
        """
        with np.errstate(all="ignore"):
            return [r for formula in formulas for r in formula(self)]

    def kept(self, name: str, compute):
        """``compute()``, a value of these inputs, computed on first use under ``name``."""
        if name not in self._kept:
            self._kept[name] = compute()
        return self._kept[name]


class Family:
    """A reference vector ``x`` together with test vectors ``ys``.

    Attributes:
        x: reference vector, shape (d,).
        ys: test vectors as rows, shape (n, d), n >= 1.
        field_mode: "complex" or "real"; a real family must have all
            imaginary parts equal to zero.
        stats: the family as a ``Stats`` stack without the batch axis.

    Derived quantities (Gram matrix, coefficients ``inner(x, y_j)``, norms)
    are views of ``stats``: computed on first use, never changed after.
    """

    def __init__(
        self,
        x: Iterable[complex],
        ys: Sequence[Iterable[complex]],
        field_mode: str = "complex",
    ) -> None:
        if field_mode not in ("real", "complex"):
            raise ValueError(f"field_mode must be 'real' or 'complex', got {field_mode!r}")
        self.x = as_vector(x)
        self.ys = _as_matrix(ys)
        if self.ys.shape[1] != self.x.size:
            raise DimensionMismatch(
                f"x has dimension {self.x.size} but ys vectors have "
                f"dimension {self.ys.shape[1]}"
            )
        if field_mode == "real" and (
            np.any(self.x.imag != 0.0) or np.any(self.ys.imag != 0.0)
        ):
            raise ValueError("real-mode family has nonzero imaginary parts")
        self.field_mode = field_mode

    @_lazy
    def stats(self) -> Stats:
        """The family as a ``Stats`` stack without the batch axis."""
        return Stats([(self.x, self.ys)], ())

    n = property(lambda self: self.ys.shape[0])
    dim = property(lambda self: self.x.size)
    coefficients = property(lambda self: self.stats.a, doc="The n values ``inner(x, y_j)``.")
    abs_coefficients = property(lambda self: self.stats.abs_a)
    coefficients_sq_sum = property(
        lambda self: float(self.stats.bessel), doc="``sum_j |inner(x, y_j)|^2``."
    )
    gram = property(lambda self: self.stats.gram)
    abs_gram = property(lambda self: self.stats.abs_gram)
    gram_row_sums = property(
        lambda self: self.stats.row_sums, doc="Row sums of ``abs(gram)``, one per test vector."
    )
    x_norm_sq = property(lambda self: float(self.stats.xsq))
    x_norm = property(lambda self: float(self.stats.x_norm))
    ys_sum = property(lambda self: self.ys.sum(axis=0))

    def row_q_norm_max(self, q: float) -> float:
        """``max_i (sum_j |G_ij|^q) ** (1/q)``, overflow-safe."""
        return float(self.stats.row_q_norm_max(q))

    def coeff_p_norm(self, p: float) -> float:
        """``(sum_i |inner(x, y_i)|^p) ** (1/p)``, overflow-safe."""
        return float(self.stats.coeff_norm(p))

    def __repr__(self) -> str:
        return f"Family(n={self.n}, dim={self.dim}, field_mode={self.field_mode!r})"
