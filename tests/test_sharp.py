"""Disk conditions, the two sharp bounds, residuals, scalar corollaries."""

import cmath
import math
import re

import numpy as np
import pytest

from besselkit import (
    DegenerateReference,
    DimensionMismatch,
    Disk,
    ExtremalTarget,
    Family,
    ParameterError,
    PreconditionError,
    build,
    check_all,
    disk_condition_abs,
    disk_condition_re,
    lemma_eq6,
    lift_gram_values,
    orthonormal_remark,
    sufficient_condition_box,
    theorem21,
    theorem21_residuals,
    theorem22,
    theorem22_residuals,
    triangle_reverse_l2,
    triangle_reverse_sq,
)

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


def worked_disk():
    return Disk(1.0, 3.0)


def worked_family_thm21():
    """Equality family for the sqrt-form bound, built by hand.

    gamma = 1, Gamma = 3, n = 2: boundary points 2 + exp(i(pi +- alpha))
    with cos(alpha) = 1/4 make both sides equal 2 sqrt(2).
    """
    alpha = math.acos(0.25)
    zs = [2 + cmath.exp(1j * (math.pi + alpha)), 2 + cmath.exp(1j * (math.pi - alpha))]
    return Family(E1, lift_gram_values(E1, zs)), zs


def worked_family_thm22():
    """Equality family for the squared-form bound: angles pi +- pi/3."""
    zs = [2 + cmath.exp(1j * (math.pi + math.pi / 3)), 2 + cmath.exp(1j * (math.pi - math.pi / 3))]
    return Family(E1, lift_gram_values(E1, zs)), zs


def random_disk(rng, positive_re=False):
    while True:
        g = complex(*rng.standard_normal(2))
        G = complex(*rng.standard_normal(2))
        d = Disk(g, G)
        if abs(d.center) < 1e-3:
            continue
        if positive_re and d.re_product <= 0.0:
            continue
        return d


def family_in_disk(rng, d, n, dim, boundary=False):
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    rho = d.radius * (1.0 if boundary else np.sqrt(rng.random(n)))
    zs = d.center + rho * np.exp(2j * np.pi * rng.random(n))
    ws = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return Family(x, lift_gram_values(x, zs, ws))


class TestDisk:
    def test_worked_fields(self):
        d = worked_disk()
        assert d.center == 2.0
        assert d.radius == 1.0
        assert d.re_product == 3.0
        assert d.equality_constant == 28.0

    def test_derived_identities(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = Disk(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
            assert abs(d.center) ** 2 - d.radius**2 == pytest.approx(
                d.re_product, rel=1e-12, abs=1e-12
            )
            assert d.equality_constant == pytest.approx(
                8 * abs(d.center) ** 2 - 4 * d.radius**2, rel=1e-12, abs=1e-12
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Disk(complex("inf"), 1.0)

    def test_equality_constant_beyond_double_range(self):
        # ends beyond about 1.34e154 square past the double range: inf, signed as 8 |c|^2 - 4 r^2
        assert Disk(1e170, 3e170).equality_constant == math.inf
        assert Disk(1e170, -3e170).equality_constant == -math.inf
        assert Disk(1e150, 3e150).equality_constant == 2.8000000000000004e301
        # finite ends and radius 0, but |center| itself leaves the double range
        assert Disk(1.5e308 * (1 + 1j), 1.5e308 * (1 + 1j)).equality_constant == math.inf

    def test_quantities_are_python_scalars(self):
        d = Disk(1 + 2j, 3 - 1j)
        # also when Gamma - gamma or Gamma + gamma leaves the double range: the radius and
        # the center are formed from the halved ends, so they stay finite where they are
        wide = Disk(1.5e308 * (1 + 1j), 0)
        far = Disk(1.5e308, 1.5e308)
        for e in (d, wide, far):
            assert (type(e.center), type(e.radius), type(e.re_product)) == (complex, float, float)
        assert wide.radius == abs(complex(7.5e307, 7.5e307))
        assert far.center == 1.5e308 and far.radius == 0.0
        assert disk_condition_abs(1.5e308, far)
        assert d.centered is True
        assert Disk(1.0, -1.0).centered is False

    def test_admissibility_checks(self):
        Disk(1.0, 3.0).require_center()
        Disk(1.0, 3.0).require_positive_re()
        with pytest.raises(ParameterError, match=re.escape(Disk.CENTERLESS)):
            Disk(1.0, -1.0).require_center()
        with pytest.raises(ParameterError, match=re.escape(Disk.not_positive(-3.0))):
            Disk(-1.0, 3.0).require_positive_re()


class TestDiskConditions:
    def test_endpoints_and_center(self):
        d = worked_disk()
        for z in (d.gamma, d.Gamma, d.center):
            assert disk_condition_re(z, d)
            assert disk_condition_abs(z, d)

    def test_point_outside(self):
        d = worked_disk()
        z = d.center + 2 * d.radius
        assert not disk_condition_re(z, d)
        assert not disk_condition_abs(z, d)

    def test_degenerate_disk(self):
        d = Disk(1 + 1j, 1 + 1j)
        assert disk_condition_abs(1 + 1j, d)
        assert not disk_condition_abs(1.1 + 1j, d)
        assert disk_condition_re(1 + 1j, d)
        assert not disk_condition_re(1.1 + 1j, d)

    def test_equivalence_on_random_samples(self):
        # scalar path: every triple gets its own disk
        rng = np.random.default_rng(22)
        for _ in range(20_000):
            zi = complex(*rng.standard_normal(2))
            d = Disk(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
            assert bool(disk_condition_re(zi, d)) == bool(disk_condition_abs(zi, d))

    def test_equivalence_vectorized_batches(self):
        # array path: many z against each sampled disk
        rng = np.random.default_rng(122)
        for _ in range(200):
            d = Disk(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
            z = 2.0 * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
            # also scaled so far that the radius squared leaves the double range
            for scale in (1.0, 1e200):
                ds = Disk(scale * d.gamma, scale * d.Gamma)
                np.testing.assert_array_equal(
                    disk_condition_re(scale * z, ds), disk_condition_abs(scale * z, ds)
                )

    def test_far_point_outside_small_disk(self):
        # the product leaves the double range: -inf, no overflow warning
        d = Disk(0, 1)
        for z in (1e200, 1e200j, np.array([1e200, -1e200, 1e200 + 1e200j])):
            assert not np.any(disk_condition_re(z, d))
            assert not np.any(disk_condition_abs(z, d))

    def test_condition_broadcasts_over_arrays(self):
        d = worked_disk()
        zs = np.array([d.center, d.center + 10.0, d.gamma])
        np.testing.assert_array_equal(disk_condition_abs(zs, d), [True, False, True])
        np.testing.assert_array_equal(disk_condition_re(zs, d), [True, False, True])


class TestSufficientBox:
    def test_examples(self):
        d = Disk(0.0, 1 + 1j)
        assert sufficient_condition_box(0.0, d)
        assert sufficient_condition_box(0.5 + 0.5j, d)
        assert not sufficient_condition_box(2.0, d)

    def test_box_implies_disk(self):
        rng = np.random.default_rng(23)
        size = 1_000_000
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        d = Disk(complex(-0.7, -1.1), complex(0.9, 0.4))
        in_box = sufficient_condition_box(z, d, tol=0.0)
        assert in_box.sum() > 1000
        assert bool(np.all(disk_condition_re(z[in_box], d)))


class TestTheorem21:
    def test_worked_equality_fixture(self):
        fam, zs = worked_family_thm21()
        d = worked_disk()
        rep = theorem21(fam, d)
        # both sides recomputed independently from the raw boundary values
        lhs_direct = math.sqrt(sum(abs(z) ** 2 for z in zs))
        rhs_direct = abs(sum(zs)) / math.sqrt(2) + (math.sqrt(2) / 4.0) * (4.0 / 4.0)
        assert rep.lhs == pytest.approx(lhs_direct, rel=1e-12)
        assert rep.rhs == pytest.approx(rhs_direct, rel=1e-12)
        assert rep.lhs == pytest.approx(TWO_ROOT_TWO, rel=1e-12)
        assert rep.rhs == pytest.approx(TWO_ROOT_TWO, rel=1e-12)

    def test_interior_points_give_strict_inequality(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            d = random_disk(rng)
            if d.radius < 1e-3:
                continue
            fam = family_in_disk(rng, d, n=4, dim=3)
            rep = theorem21(fam, d)
            assert rep.preconditions_met
            assert rep.slack > 0

    def test_out_of_disk_reported_with_index(self):
        d = worked_disk()
        fam = Family(E1, [[2.0, 0.0], [7.0, 0.0]])
        rep = theorem21(fam, d)
        assert not rep.preconditions_met
        assert "1" in rep.reason

    def test_centerless_parameter_error(self):
        with pytest.raises(ParameterError):
            theorem21(Family(E1, [E1]), Disk(1.0, -1.0))

    def test_subnormal_sum_is_centered(self):
        # Gamma + gamma = 5e-324 is not 0, though the center (Gamma + gamma) / 2 underflows to 0
        d = Disk(5e-324, 0.0)
        assert d.centered and d.center == 0.0
        rep = theorem21(Family(E1, [[0.0, 0.0], E2]), d)
        assert rep.preconditions_met
        assert rep.rhs == pytest.approx(math.sqrt(0.5), rel=1e-15)


class TestTheorem21Residuals:
    def test_repeated_family_zero_residuals(self):
        d = Disk(1.0, 1.0)
        res = theorem21_residuals(Family(E1, [E1] * 3), d)
        assert res.max_residual <= 1e-12

    def test_worked_fixture_residuals(self):
        fam, _ = worked_family_thm21()
        res = theorem21_residuals(fam, worked_disk())
        assert res.max_residual <= 1e-9

    def test_perpendicular_perturbation_moves_mean(self):
        fam, zs = worked_family_thm21()
        d = worked_disk()
        delta = 1e-3
        ys = fam.ys.copy()
        ys[0] = ys[0] + delta * np.array([0.0, 1.0])
        res = theorem21_residuals(Family(fam.x, ys), d)
        assert res.mean_residual == pytest.approx(delta / 2.0, rel=1e-9)

    def test_degenerate_x_rejected(self):
        with pytest.raises(DegenerateReference):
            theorem21_residuals(Family([0.0, 0.0], [E1]), worked_disk())

    def test_outside_disk_raises(self):
        with pytest.raises(PreconditionError):
            theorem21_residuals(Family(E1, [[9.0, 0.0]]), worked_disk())
        with pytest.raises(PreconditionError):
            theorem21_residuals(Family(E1, [E1, [0.7, 0.7]]), Disk(1e170, 3e170))

    @pytest.mark.parametrize("residuals", [theorem21_residuals, theorem22_residuals])
    def test_mean_beyond_double_range_raises(self, residuals):
        # coefficients 2e170 at the center; |Gamma|^2 and Re(Gamma conj(gamma)) overflow
        with pytest.raises(ParameterError, match="double range"):
            residuals(Family(E1, [[2e170, 0.0], [2e170, 1.0]]), Disk(1e170, 3e170))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_bad_tolerance_raises_in_every_bound(tol):
    d = worked_disk()
    fam = build(ExtremalTarget.THM21, E1, 3, d)
    for call in (
        lambda: theorem21(fam, d, tol),
        lambda: theorem22(fam, d, tol),
        lambda: lemma_eq6(fam, d, tol),
        lambda: check_all(fam, d, tol=tol),
        lambda: orthonormal_remark(E1, [E1], d, tol),
        lambda: triangle_reverse_l2([2.0], d, tol),
        lambda: triangle_reverse_sq([2.0], d, tol),
    ):
        with pytest.raises(ValueError, match="finite and positive"):
            call()
    # the membership helpers keep taking tol = 0
    for inside in (disk_condition_abs, disk_condition_re, sufficient_condition_box):
        assert inside(2.0, d, tol=0.0) and not inside(4.0, d, tol=0.0)


class TestTheorem22:
    def test_worked_equality_fixture(self):
        fam, zs = worked_family_thm22()
        rep = theorem22(fam, worked_disk())
        lhs_direct = sum(abs(z) ** 2 for z in zs)
        rhs_direct = 0.5 * (16.0 / 12.0) * abs(sum(zs)) ** 2
        assert rep.lhs == pytest.approx(lhs_direct, rel=1e-12)
        assert rep.rhs == pytest.approx(rhs_direct, rel=1e-12)
        assert rep.lhs == pytest.approx(6.0, rel=1e-12)
        assert rep.rhs == pytest.approx(6.0, rel=1e-12)

    def test_nonpositive_re_product_rejected(self):
        with pytest.raises(ParameterError):
            theorem22(Family(E1, [E1]), Disk(-1.0, 1.5))

    def test_orthonormal_coarser_than_bessel(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            d = random_disk(rng, positive_re=True)
            coeffs = d.center + d.radius * np.sqrt(rng.random(2)) * np.exp(
                2j * np.pi * rng.random(2)
            )
            x = coeffs @ np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
            fam = Family(x, [[1, 0, 0], [0, 1, 0]])
            rep = theorem22(fam, d)
            assert rep.preconditions_met
            assert rep.holds()
            coef = abs(d.Gamma + d.gamma) ** 2 / (4 * d.re_product)
            assert coef >= 1.0 - 1e-12


class TestTheorem22Residuals:
    def test_worked_fixture(self):
        fam, _ = worked_family_thm22()
        res = theorem22_residuals(fam, worked_disk())
        assert res.max_residual <= 1e-9

    def test_zero_radius_zero_residuals(self):
        res = theorem22_residuals(Family(E1, [E1] * 4), Disk(1.0, 1.0))
        assert res.max_residual <= 1e-12

    def test_scaling_matches_direct_computation(self):
        # disk wide enough that both z and 2z stay inside it
        d = Disk(0.5, 5.5)
        zs = np.array([2.0 + 0.0j, 2.2 + 0.3j])
        x = np.array(E1, dtype=complex)
        fam = Family(x, lift_gram_values(x, zs))
        scaled = Family(x, 2.0 * fam.ys)
        res = theorem22_residuals(scaled, d)
        target = 2 * d.re_product / ((d.Gamma + d.gamma) * fam.x_norm_sq) * fam.x
        expected = float(np.linalg.norm(2.0 * fam.ys.mean(axis=0) - target))
        assert res.mean_residual == pytest.approx(expected, rel=1e-12)


class TestLemma:
    def test_boundary_only_family_equality(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            d = random_disk(rng)
            fam = family_in_disk(rng, d, n=5, dim=3, boundary=True)
            lhs, rhs = lemma_eq6(fam, d)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_interior_points_strict(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            d = random_disk(rng)
            if d.radius < 0.1:
                continue
            fam = family_in_disk(rng, d, n=5, dim=3)
            lhs, rhs = lemma_eq6(fam, d)
            assert lhs <= rhs
        # per-point gap equals the summed squared boundary distances
        d = Disk(0.0, 2.0)
        fam = Family(E1, lift_gram_values(E1, [1.0 + 0.0j]))
        lhs, rhs = lemma_eq6(fam, d)
        assert rhs - lhs == pytest.approx(d.radius**2 - abs(1.0 - d.center) ** 2)

    def test_equality_iff_boundary_residuals_vanish(self):
        fam, _ = worked_family_thm21()
        d = worked_disk()
        lhs, rhs = lemma_eq6(fam, d)
        res = theorem21_residuals(fam, d)
        assert float(res.per_j_boundary.max()) <= 1e-12
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_violating_family_raises(self):
        with pytest.raises(PreconditionError):
            lemma_eq6(Family(E1, [[9.0, 0.0]]), worked_disk())


class TestOrthonormalRemark:
    def test_zero_radius_gives_x_norm(self):
        # zero-radius disk forces every coefficient to equal gamma exactly
        d = Disk(0.5, 0.5)
        x = np.array([0.5, 0.5, 0.7], dtype=complex)
        es = np.eye(3, dtype=complex)[:2]
        rem = orthonormal_remark(x, es, d)
        assert rem.report30.preconditions_met
        assert rem.report30.rhs == pytest.approx(float(np.linalg.norm(x)), rel=1e-12)
        assert rem.coarser_than_bessel

    def test_random_valid_instances_coarser(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            d = random_disk(rng, positive_re=True)
            n, dim = 3, 5
            q, _ = np.linalg.qr(
                rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
            )
            es = q.T
            coeffs = d.center + d.radius * np.sqrt(rng.random(n)) * np.exp(
                2j * np.pi * rng.random(n)
            )
            x = coeffs @ es
            rem = orthonormal_remark(x, es, d)
            assert rem.report30.preconditions_met
            assert rem.report31.preconditions_met
            assert rem.coarser_than_bessel
            assert rem.report30.holds() and rem.report31.holds()

    def test_parseval_case(self):
        d = Disk(0.1, 2.0 + 0.5j)
        es = np.eye(2, dtype=complex)
        x = np.array([0.9, 1.2], dtype=complex)  # coefficients 0.9, 1.2 inside disk
        rem = orthonormal_remark(x, es, d)
        assert rem.report31.lhs == pytest.approx(float(np.linalg.norm(x)) ** 2, rel=1e-12)

    def test_non_positive_re_product_reason(self):
        # orthonormal31 gives Theorem 2.2's reason for a disk with Re(Gamma conj(gamma)) <= 0
        x, es, d = [0.5, 0.5], [E1, E2], Disk(-1.0, 3.0)
        reports = {r.bound_id: r for r in check_all(Family(x, es), d)}
        want = "Re(Gamma * conj(gamma)) must be positive, got -3.0"
        assert reports["orthonormal30"].preconditions_met
        for bound_id in ("theorem22", "triangle_reverse_sq", "orthonormal31"):
            assert not reports[bound_id].preconditions_met
            assert reports[bound_id].reason == want
        assert orthonormal_remark(x, es, d).report31.reason == want

    def test_coefficient_outside_disk_skips_both(self):
        rem = orthonormal_remark([5, 0], [[1, 0], [0, 1]], Disk(1, 3))
        for rep in (rem.report30, rem.report31):
            assert not rep.preconditions_met
            assert rep.reason == "coefficient 0 lies outside the disk"
        assert not rem.coarser_than_bessel

    def test_non_orthonormal_rejected(self):
        rem = orthonormal_remark([1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], worked_disk())
        assert not rem.report30.preconditions_met
        assert not rem.report31.preconditions_met
        assert not rem.coarser_than_bessel


class TestTriangleReverses:
    def test_worked_equalities(self):
        _, zs21 = worked_family_thm21()
        rep = triangle_reverse_l2(zs21, worked_disk())
        assert rep.lhs == pytest.approx(TWO_ROOT_TWO, rel=1e-12)
        assert rep.rhs == pytest.approx(TWO_ROOT_TWO, rel=1e-12)
        _, zs22 = worked_family_thm22()
        rep2 = triangle_reverse_sq(zs22, worked_disk())
        assert rep2.lhs == pytest.approx(6.0, rel=1e-12)
        assert rep2.rhs == pytest.approx(6.0, rel=1e-12)

    def test_delegation_identity(self):
        # the scalar forms are the theorems on x = 1, y_j = conj(z_j), to the last bit
        rng = np.random.default_rng(29)
        outcomes = set()
        for k in range(60):
            d = random_disk(rng, positive_re=True)
            n = int(rng.integers(1, 13))
            rho = np.sqrt(rng.random(n)) * (1.5 if k % 3 == 0 else 1.0)  # some leave the disk
            zs = d.center + d.radius * rho * np.exp(2j * np.pi * rng.random(n))
            lifted = Family([1.0 + 0.0j], lift_gram_values([1.0 + 0.0j], zs))
            for scalar_fn, vec_fn in (
                (triangle_reverse_l2, theorem21),
                (triangle_reverse_sq, theorem22),
            ):
                got = scalar_fn(zs, d)
                ref = vec_fn(lifted, d)
                for name in ("lhs", "rhs", "slack", "ratio", "preconditions_met", "reason"):
                    assert getattr(got, name) == getattr(ref, name)
                outcomes.add(got.preconditions_met)
        assert outcomes == {True, False}

    def test_centerless_raises(self):
        with pytest.raises(ParameterError):
            triangle_reverse_l2([0.1], Disk(-2.0, 2.0))

    @pytest.mark.parametrize(
        "zs, error, message",
        [
            ([], DimensionMismatch, "expected a non-empty 1-D vector, got shape (0,)"),
            ([float("nan")], ValueError, "vector entries must be finite"),
            ([[1.0, 2.0], [3.0, 4.0]], DimensionMismatch, "expected a non-empty 1-D vector, got shape (2, 2)"),
        ],
    )
    def test_bad_input_errors(self, zs, error, message):
        for fn in (triangle_reverse_l2, triangle_reverse_sq):
            with pytest.raises(error) as info:
                fn(zs, worked_disk())
            assert str(info.value) == message


class TestPerturbationInvariance:
    def test_zero_sum_orthogonal_components_change_nothing(self):
        rng = np.random.default_rng(30)
        fam, zs = worked_family_thm21()
        d = worked_disk()
        base = theorem21(fam, d)
        base_res = theorem21_residuals(fam, d)
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ws = raw - raw.mean(axis=0)  # zero-sum free components
        perturbed = Family(fam.x, lift_gram_values(fam.x, zs, ws))
        rep = theorem21(perturbed, d)
        res = theorem21_residuals(perturbed, d)
        assert rep.lhs == pytest.approx(base.lhs, rel=1e-9, abs=1e-12)
        assert rep.rhs == pytest.approx(base.rhs, rel=1e-9, abs=1e-12)
        assert abs(res.mean_residual - base_res.mean_residual) <= 1e-9
        assert abs(res.max_residual - base_res.max_residual) <= 1e-9
