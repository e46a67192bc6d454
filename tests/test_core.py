"""Core arithmetic: inner products, Gram matrices, lifting."""

import math

import numpy as np
import pytest

from besselkit import (
    DegenerateReference,
    DimensionMismatch,
    Family,
    gram,
    inner,
    lift_gram_values,
    norm,
    project_orthogonal,
)
from besselkit.core import Stats, p_norm

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def slow_inner(u, v):
    """Independent reference implementation over plain Python scalars."""
    return sum(complex(a) * complex(b).conjugate() for a, b in zip(u, v))


class TestInner:
    def test_orthogonal_basis(self):
        assert inner(E1, E2) == 0

    def test_self_inner_with_imaginary_entry(self):
        assert inner([1, 1j], [1, 1j]) == pytest.approx(2)

    def test_conjugate_linear_in_second_slot(self):
        assert inner([1, 0], [1j, 0]) == pytest.approx(-1j)

    def test_linear_in_first_slot(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam = 0.7 - 2.1j
        assert inner(lam * u, v) == pytest.approx(lam * inner(u, v))
        assert inner(u, lam * v) == pytest.approx(np.conj(lam) * inner(u, v))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner([1, 0], [1, 0, 0])
        for u in ([], [[1, 0]]):  # a vector is non-empty and 1-D
            with pytest.raises(DimensionMismatch, match="1-D vector"):
                inner(u, u)

    def test_self_inner_is_real_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            val = inner(u, u)
            assert val.imag == 0
            assert val.real >= 0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            inner([np.nan, 0], [1, 0])
        with pytest.raises(ValueError, match="finite"):
            inner([1, 0], [np.inf, 0])


class TestNorm:
    def test_three_four_five(self):
        assert norm([3, 4]) == pytest.approx(5)

    def test_zero(self):
        assert norm([0, 0]) == 0

    def test_unit_imaginary(self):
        assert norm([1j, 0]) == pytest.approx(1)


class TestGram:
    def test_orthonormal_identity(self):
        assert np.allclose(gram([E1, E2]), np.eye(2))

    def test_repeated_vector_all_ones(self):
        assert np.allclose(gram([E1, E1]), np.ones((2, 2)))

    def test_matches_entrywise_recomputation(self):
        rng = np.random.default_rng(3)
        ys = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        g = gram(ys)
        for i in range(3):
            for j in range(3):
                assert g[i, j] == pytest.approx(slow_inner(ys[i], ys[j]), rel=1e-12)

    def test_conjugate_symmetry_and_real_diagonal(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ys = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            g = gram(ys)
            scale = max(1.0, float(np.abs(g).max()))
            assert float(np.abs(g - g.conj().T).max()) <= 1e-12 * scale
            assert float(np.abs(g.diagonal().imag).max()) <= 1e-12 * scale
            assert np.all(g.diagonal().real >= 0)

    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            gram([[1, 0], [1, 0, 0]])
        for ys in ([], [[]], [1, 2], [[[1, 0]]]):  # a non-empty list of non-empty vectors
            with pytest.raises(DimensionMismatch, match="non-empty"):
                gram(ys)
        with pytest.raises(ValueError, match="finite"):
            gram([[1, 0], [0, np.nan]])


class TestLift:
    def test_single_coefficient(self):
        ys = lift_gram_values(E1, [1 + 1j])
        assert np.allclose(ys[0], [1 - 1j, 0])
        assert inner(E1, ys[0]) == pytest.approx(1 + 1j)

    def test_zero_coefficients_give_orthogonal_vectors(self):
        x = np.array([1.0, 2.0, -1.0], dtype=complex)
        ys = lift_gram_values(x, [0, 0, 0])
        for y in ys:
            assert abs(inner(x, y)) <= 1e-15

    def test_round_trip_on_three_four(self):
        ys = lift_gram_values([3, 4], [5])
        assert inner([3, 4], ys[0]) == pytest.approx(5, rel=1e-12)

    def test_round_trip_random_with_free_components(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 9))  # the fuzz dimensions, 1 to 8
            n = int(rng.integers(1, 7))
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            zs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ws = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            ys = lift_gram_values(x, zs, ws)
            for j in range(n):
                got = inner(x, ys[j])
                assert abs(got - zs[j]) <= 1e-12 * max(1.0, abs(zs[j]))
            # a strided x gives the bits of its contiguous copy
            np.testing.assert_array_equal(lift_gram_values(np.repeat(x, 2)[::2], zs, ws), ys)

    def test_projection_is_orthogonal(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            p = project_orthogonal(w, x)
            assert abs(inner(x, p)) <= 1e-12 * norm(x) * norm(w)
            # a list of vectors is projected row by row
            rows = project_orthogonal([w, 2.0 * w, x], x)
            scale = 1e-12 * norm(w)
            assert np.abs(rows - [p, 2.0 * p, np.zeros(4)]).max() <= scale

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateReference):
            lift_gram_values([0, 0], [1])
        with pytest.raises(DegenerateReference):
            project_orthogonal([1, 0], [0, 0])

    def test_ws_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lift_gram_values(E1, [1, 2], [[1, 0]])
        for w in ([1, 0, 0], [[1, 0, 0]], [], [[[1, 0]]]):
            with pytest.raises(DimensionMismatch, match="equal dimension"):
                project_orthogonal(w, E1)
        with pytest.raises(ValueError, match="finite"):
            project_orthogonal([[1, 0], [np.nan, 1]], E1)


class TestCauchySchwarz:
    def test_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(1, 8))
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            scale = norm(u) * norm(v)
            assert abs(inner(u, v)) <= scale + 1e-12 * max(1.0, scale)


class TestFamily:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(DimensionMismatch):
            Family([1, 0], [[1, 0, 0]])

    def test_empty_ys_rejected(self):
        with pytest.raises(DimensionMismatch):
            Family([1, 0], [])

    def test_real_mode_rejects_imaginary_parts(self):
        with pytest.raises(ValueError):
            Family([1, 1j], [[1, 0]], field_mode="real")
        fam = Family([1, 2], [[3, 4]], field_mode="real")
        assert fam.field_mode == "real"
        assert repr(fam) == "Family(n=1, dim=2, field_mode='real')"

    def test_unknown_field_mode(self):
        with pytest.raises(ValueError):
            Family([1, 0], [[1, 0]], field_mode="quaternion")

    def test_cached_quantities_match_definitions(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ys = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        fam = Family(x, ys)
        for j in range(4):
            assert fam.coefficients[j] == pytest.approx(inner(x, ys[j]), rel=1e-12)
        assert np.allclose(fam.gram, gram(ys))
        assert fam.x_norm == pytest.approx(norm(x), rel=1e-15)
        assert fam.coefficients_sq_sum == pytest.approx(
            sum(abs(inner(x, y)) ** 2 for y in ys), rel=1e-12
        )
        assert fam.coeff_p_norm(1.0) == pytest.approx(
            sum(abs(z) for z in fam.coefficients), rel=1e-12
        )
        assert fam.row_q_norm_max(3.0) == pytest.approx(
            max(sum(abs(v) ** 3 for v in row) ** (1 / 3) for row in fam.gram),
            rel=1e-12,
        )

    def test_zero_vectors_allowed(self):
        fam = Family([1, 0], [[0, 0], [1, 0]])
        assert fam.n == 2


def naive_norm(values, p):
    """``(sum |v|^p) ** (1/p)`` over plain Python floats, unscaled."""
    return sum(abs(complex(v)) ** p for v in values) ** (1.0 / p)


class TestOverflowSafeNorms:
    def test_near_the_double_range(self):
        # at 2^498 (about 8e149) the coefficients and the Gram entries are near 1e300,
        # so their unscaled cubes leave the double range; scaling by 2^498 is exact
        rng = np.random.default_rng(12)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ys = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        unit, big = Family(x, ys), Family(x * 2.0**498, ys * 2.0**498)
        assert float(big.abs_gram.max()) > 2.0**342 and float(big.abs_coefficients.max()) > 2.0**342
        coeff = math.ldexp(naive_norm(unit.coefficients, 3.0), 996)
        rows = math.ldexp(max(naive_norm(row, 3.0) for row in unit.gram), 996)
        assert math.isfinite(big.coeff_p_norm(3.0)) and math.isfinite(big.row_q_norm_max(3.0))
        assert big.coeff_p_norm(3.0) == pytest.approx(coeff, rel=1e-12)
        assert big.row_q_norm_max(3.0) == pytest.approx(rows, rel=1e-12)

    def test_beyond_the_double_range_is_quiet(self):
        # at 1e200 the products overflow: each view is inf or NaN, as its statistic computed under
        # errstate, and raises no RuntimeWarning (an error under the test configuration)
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 1e200
        ys = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))) * 1e200
        views = {
            "gram": (lambda f: f.gram, lambda s: s.gram),
            "coefficients": (lambda f: f.coefficients, lambda s: s.a),
            "abs_coefficients": (lambda f: f.abs_coefficients, lambda s: s.abs_a),
            "coefficients_sq_sum": (lambda f: f.coefficients_sq_sum, lambda s: float(s.bessel)),
            "abs_gram": (lambda f: f.abs_gram, lambda s: s.abs_gram),
            "gram_row_sums": (lambda f: f.gram_row_sums, lambda s: s.row_sums),
            "x_norm_sq": (lambda f: f.x_norm_sq, lambda s: float(s.xsq)),
            "x_norm": (lambda f: f.x_norm, lambda s: float(s.x_norm)),
            "row_q_norm_max": (lambda f: f.row_q_norm_max(3.0), lambda s: float(s.row_q_norm_max(3.0))),
            "coeff_p_norm": (lambda f: f.coeff_p_norm(3.0), lambda s: float(s.coeff_norm(3.0))),
        }
        for name, (view, statistic) in views.items():
            value = np.asarray(view(Family(x, ys)))  # each on a fresh family, whose statistics are not yet kept
            with np.errstate(all="ignore"):
                expected = np.asarray(statistic(Family(x, ys).stats))
            assert not np.isfinite(value).all(), name
            assert value.tobytes() == expected.tobytes(), name

    def test_root_beyond_the_double_range_is_inf(self):
        # below p = 1 the root of the scaled sum can overflow: 12 ** 1000, over a stack
        # (whose roots are Python floats), a family alone and p_norm of 1-D values, with no
        # RuntimeWarning
        fam = Family([1.0], [[1.0]] * 12)
        assert fam.coeff_p_norm(0.001) == math.inf
        assert p_norm(np.full(12, 1.0), 0.001) == math.inf
        stack = Stats.stack([(np.ones((2, 1), complex), np.ones((2, 12, 1), complex))])
        assert stack.coeff_norm(0.001).tolist() == [math.inf, math.inf]
        assert stack.coeff_norm(2.0).tolist() == [fam.coeff_p_norm(2.0)] * 2

    def test_all_zero_gram_row(self):
        # a zero test vector: its Gram row and its coefficient are 0, and are divided by 1
        fam = Family([1.0, 2.0 + 1.0j], [[0.0, 0.0], [1.0, 2.0j], [0.5, -1.0]])
        assert not fam.abs_gram[0].any()
        assert fam.coeff_p_norm(3.0) == pytest.approx(naive_norm(fam.coefficients, 3.0), rel=1e-12)
        rows = max(naive_norm(row, 3.0) for row in fam.gram)
        assert fam.row_q_norm_max(3.0) == pytest.approx(rows, rel=1e-12)
