"""Complex vector arithmetic for finite families in an inner product space.

Vectors are 1-D ``numpy`` arrays of ``complex128``.  The inner product is
linear in the first argument and conjugate-linear in the second, so
``inner(u, v) == sum(u * conj(v))``.  Everything here is a pure function of
its inputs; values may be shared freely between threads.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BesselkitError",
    "DimensionMismatch",
    "DegenerateReference",
    "ParameterError",
    "PreconditionError",
    "Family",
    "as_vector",
    "inner",
    "norm",
    "gram",
    "project_orthogonal",
    "lift_gram_values",
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
    if not np.all(np.isfinite(arr)):
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
        arr = np.asarray(ys, dtype=np.complex128)
    except ValueError as exc:
        raise DimensionMismatch(f"vectors have inconsistent dimensions: {exc}") from None
    if arr.ndim == 1 and arr.size == 0:
        raise DimensionMismatch("expected a non-empty list of vectors")
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionMismatch(
            f"expected a non-empty list of equal-length vectors, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def gram(ys: Sequence[Iterable[complex]]) -> np.ndarray:
    """Gram matrix ``G[i, j] = inner(ys[i], ys[j])``.

    Conjugate-symmetric with a real non-negative diagonal up to rounding
    of the underlying matrix product.
    """
    arr = _as_matrix(ys)
    return arr @ arr.conj().T


def p_norm(values: np.ndarray, p: float) -> float:
    """``(sum v**p) ** (1/p)`` for non-negative values, overflow-safe."""
    m = float(values.max()) if values.size else 0.0
    if m == 0.0:
        return 0.0
    t = values / m
    return m * float((t**p).sum() ** (1.0 / p))


def project_orthogonal(w: Iterable[complex], x: Iterable[complex]) -> np.ndarray:
    """Component of ``w`` orthogonal to ``x`` (``x != 0``)."""
    wa, xa = as_vector(w), as_vector(x)
    if wa.shape != xa.shape:
        raise DimensionMismatch("projection needs vectors of equal dimension")
    xsq = float(np.real(np.dot(xa, np.conj(xa))))
    if xsq == 0.0:
        raise DegenerateReference("cannot project against the zero vector")
    return wa - (np.dot(wa, np.conj(xa)) / xsq) * xa


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
    xsq = float(np.real(np.dot(xa, np.conj(xa))))
    if xsq == 0.0:
        raise DegenerateReference("reference vector x must be nonzero")
    ys = np.outer(np.conj(zarr) / xsq, xa)
    if ws is not None:
        warr = _as_matrix(ws)
        if warr.shape != (zarr.size, xa.size):
            raise DimensionMismatch(
                f"ws must have shape {(zarr.size, xa.size)}, got {warr.shape}"
            )
        # subtract each w's component along x, then add the remainder
        coeffs = warr @ np.conj(xa) / xsq
        ys = ys + warr - np.outer(coeffs, xa)
    return ys


class Family:
    """A reference vector ``x`` together with test vectors ``ys``.

    Attributes:
        x: reference vector, shape (d,).
        ys: test vectors as rows, shape (n, d), n >= 1.
        field_mode: "complex" or "real"; a real family must have all
            imaginary parts equal to zero.

    Derived quantities (Gram matrix, coefficients ``inner(x, y_j)``, norms)
    are computed lazily and cached; they never mutate after construction.
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

    @property
    def n(self) -> int:
        return self.ys.shape[0]

    @property
    def dim(self) -> int:
        return self.x.size

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The n values ``inner(x, y_j)``."""
        return np.conj(self.ys) @ self.x

    @cached_property
    def abs_coefficients(self) -> np.ndarray:
        return np.abs(self.coefficients)

    @cached_property
    def max_abs_coefficient(self) -> float:
        return float(self.abs_coefficients.max())

    @cached_property
    def coefficients_sq_sum(self) -> float:
        """``sum_j |inner(x, y_j)|^2``."""
        a = self.coefficients
        return float((a.real**2 + a.imag**2).sum())

    @cached_property
    def coefficients_sum(self) -> complex:
        return complex(self.coefficients.sum())

    @cached_property
    def gram(self) -> np.ndarray:
        return self.ys @ self.ys.conj().T

    @cached_property
    def abs_gram(self) -> np.ndarray:
        return np.abs(self.gram)

    @cached_property
    def gram_row_sums(self) -> np.ndarray:
        """Row sums of ``abs(gram)``, one per test vector."""
        return self.abs_gram.sum(axis=1)

    @cached_property
    def max_row_sum(self) -> float:
        return float(self.gram_row_sums.max())

    @cached_property
    def max_abs_gram(self) -> float:
        return float(self.abs_gram.max())

    def row_q_norm_max(self, q: float) -> float:
        """``max_i (sum_j |G_ij|^q) ** (1/q)``, overflow-safe, cached per q."""
        cache = self.__dict__.setdefault("_row_q_cache", {})
        if q not in cache:
            m = self.abs_gram.max(axis=1)
            safe = np.where(m == 0.0, 1.0, m)
            t = self.abs_gram / safe[:, None]
            cache[q] = float((m * (t**q).sum(axis=1) ** (1.0 / q)).max())
        return cache[q]

    def coeff_p_norm(self, p: float) -> float:
        """``(sum_i |inner(x, y_i)|^p) ** (1/p)``, overflow-safe, cached per p."""
        cache = self.__dict__.setdefault("_coeff_norm_cache", {})
        if p not in cache:
            cache[p] = p_norm(self.abs_coefficients, p)
        return cache[p]

    @cached_property
    def orthonormal_deviation(self) -> float:
        """``max_ij |G_ij - delta_ij|``: how far the test vectors are from orthonormal."""
        return float(np.abs(self.gram - np.eye(self.n)).max())

    @cached_property
    def x_norm_sq(self) -> float:
        return float(np.real(np.dot(self.x, np.conj(self.x))))

    @cached_property
    def x_norm(self) -> float:
        return math.sqrt(self.x_norm_sq)

    @cached_property
    def ys_sum(self) -> np.ndarray:
        return self.ys.sum(axis=0)

    @cached_property
    def ys_sum_norm_sq(self) -> float:
        s = self.ys_sum
        return float((s.real**2 + s.imag**2).sum())

    def __repr__(self) -> str:
        return f"Family(n={self.n}, dim={self.dim}, field_mode={self.field_mode!r})"
