"""Equality-case construction: phase sums, allocation, attained bounds.

The closed-form phase-sum targets come out of the equality characterisation
algebra, so each derived formula is validated here against the residual
oracles and the directly evaluated bounds before being trusted anywhere.
"""

import cmath
import math

import numpy as np
import pytest

from besselkit import (
    DegenerateReference,
    DimensionMismatch,
    Disk,
    ExtremalTarget,
    Family,
    InfeasibleConstruction,
    ParameterError,
    build,
    plan,
    solve_phases,
    theorem21,
    theorem21_residuals,
    theorem22,
    theorem22_residuals,
)
from besselkit.extremal import equality_coefficients

E1 = [1.0, 0.0]


def random_feasible_case(rng, target, extreme=False):
    """Draw (n, gamma, Gamma) with a feasible equality construction.

    n is at most 10.  ``extreme`` takes n up to 40, turns Gamma to within 1e-16 to 1 rad of
    perpendicular to gamma, so that Re(Gamma conj(gamma)) / |center|^2 reaches down to about
    1e-16, and scales both ends by 1e-150, 1 or 1e150.
    """
    while True:
        n = int(rng.integers(2, 41 if extreme else 11))
        g = complex(*rng.standard_normal(2))
        G = complex(*rng.standard_normal(2))
        scale = 1.0
        if extreme:
            skew = 10.0 ** rng.uniform(-16.0, 0.0)
            turn = complex(math.sin(skew), math.cos(skew) * rng.choice([-1.0, 1.0]))
            G = abs(G) * g / abs(g) * turn
            scale = 10.0 ** (150 * int(rng.integers(-1, 2)))
        d = Disk(scale * g, scale * G)
        if abs(d.center) < 1e-3 * scale:
            continue
        if target is ExtremalTarget.THM22 and d.re_product <= 0.0:
            continue
        spec = plan(target, n, d)
        if spec.feasible:
            return spec


class TestPlan:
    def test_worked_phase_sums(self):
        d = Disk(1.0, 3.0)
        spec21 = plan(ExtremalTarget.THM21, 2, d)
        assert spec21.phase_sum == pytest.approx(-0.5)
        assert spec21.feasible
        spec22 = plan(ExtremalTarget.THM22, 2, d)
        assert spec22.phase_sum == pytest.approx(-1.0)
        assert spec22.feasible

    def test_single_vector_infeasible_inside(self):
        spec = plan(ExtremalTarget.THM21, 1, Disk(1.0, 3.0))
        assert not spec.feasible
        assert "n = 1" in spec.infeasible_reason
        # the squared-form target needs |phase sum| = radius/|center| < 1
        spec22 = plan(ExtremalTarget.THM22, 1, Disk(1.0, 3.0))
        assert not spec22.feasible

    def test_single_vector_infeasible_at_unit_phase_sum(self):
        # radius/|center| = 1 - 1e-13: |phase sum| lies within 1e-12 of 1, yet Theorem 2.2's
        # factor |c|^2 / (|c|^2 - r^2) exceeds 1, so one test vector never attains equality
        d = Disk(1.0, 1e-13 + 1j)
        spec = plan(ExtremalTarget.THM22, 1, d)
        assert abs(abs(spec.phase_sum) - 1.0) < 1e-12
        assert not spec.feasible and "n = 1" in spec.infeasible_reason

    def test_zero_radius_always_feasible(self):
        for n in (1, 2, 5):
            spec = plan(ExtremalTarget.THM21, n, Disk(2.0 + 1j, 2.0 + 1j))
            assert spec.feasible
            assert spec.phase_sum == 0.0

    def test_oversized_radius_infeasible(self):
        # radius 3 > 2 |center| = 2
        spec = plan(ExtremalTarget.THM21, 4, Disk(-2.0, 4.0))
        assert not spec.feasible
        assert "radius" in spec.infeasible_reason

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            plan(ExtremalTarget.THM21, 2, Disk(1.0, -1.0))
        with pytest.raises(ParameterError):
            plan(ExtremalTarget.THM22, 2, Disk(-1.0, 2.0))
        with pytest.raises(ParameterError):
            plan(ExtremalTarget.THM21, 0, Disk(1.0, 3.0))

    def test_centered_as_theorem21_at_subnormal_disk(self):
        # Gamma + gamma = 5e-324: centered, as theorem21 has it, but |center|^2 underflows
        d = Disk(5e-324, 0.0)
        spec = plan(ExtremalTarget.THM21, 2, d)
        assert not spec.feasible and "double range" in spec.infeasible_reason
        with pytest.raises(InfeasibleConstruction, match="double range"):
            build(ExtremalTarget.THM21, E1, 2, d)
        assert theorem21(Family(E1, [[0.0, 0.0], [0.0, 1.0]]), d).preconditions_met

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_center_squared_beyond_double_range_infeasible(self, scale):
        d = Disk(scale, 3.0 * scale)
        # Re(Gamma conj(gamma)) underflows to 0 at 1e-170, so Theorem 2.2 does not apply
        targets = [ExtremalTarget.THM21] if scale < 1.0 else list(ExtremalTarget)
        # above, also a disk with finite ends whose |center| itself leaves the double range
        disks = [d] if scale < 1.0 else [d, Disk(1.5e308 * (1 + 1j), 1.5e308 * (1 + 1j))]
        for target in targets:
            for disk in disks:
                spec = plan(target, 3, disk)
                assert not spec.feasible and "double range" in spec.infeasible_reason
                assert cmath.isnan(spec.phase_sum)
                with pytest.raises(InfeasibleConstruction):
                    build(target, E1, 3, disk)
        if scale < 1.0:
            with pytest.raises(ParameterError):
                plan(ExtremalTarget.THM22, 3, d)

    def test_phase_sum_magnitude_formulas(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            for target in ExtremalTarget:
                spec = random_feasible_case(rng, target)
                c, r = spec.disk.center, spec.disk.radius
                denom = 2.0 if target is ExtremalTarget.THM21 else 1.0
                assert spec.phase_sum == pytest.approx(
                    -spec.n * r * c / (denom * abs(c) ** 2), rel=1e-12
                )


class TestSolvePhases:
    def test_worked_two_point_allocation(self):
        spec = plan(ExtremalTarget.THM21, 2, Disk(1.0, 3.0))
        thetas = solve_phases(spec)
        alpha = math.acos(0.25)
        assert sorted(thetas) == pytest.approx(
            sorted([math.pi + alpha, math.pi - alpha]), rel=1e-12
        )

    def test_zero_sum_antipodal_pair(self):
        # a vanishing phase sum with positive radius only arises synthetically
        from besselkit import ExtremalSpec

        spec = ExtremalSpec(
            target=ExtremalTarget.THM21,
            n=2,
            disk=Disk(1.0, 3.0),
            phase_sum=0.0,
            feasible=True,
        )
        thetas = solve_phases(spec)
        assert sorted(thetas) == pytest.approx([-math.pi / 2, math.pi / 2], rel=1e-12)

    def test_plan_zero_sum_only_at_zero_radius(self):
        spec = plan(ExtremalTarget.THM21, 2, Disk(1.0, 1.0))
        assert spec.phase_sum == 0.0
        assert spec.disk.radius == 0.0

    def test_maximal_sum_all_aligned(self):
        # |phase sum| = n forces every phase onto the same angle
        from besselkit import ExtremalSpec

        spec = ExtremalSpec(
            target=ExtremalTarget.THM21,
            n=3,
            disk=Disk(1.0, 3.0),
            phase_sum=3.0 + 0.0j,
            feasible=True,
        )
        thetas = solve_phases(spec)
        total = np.exp(1j * thetas).sum()
        assert total == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(thetas, 0.0)

    def test_sum_contract_random(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            target = ExtremalTarget.THM21 if rng.random() < 0.5 else ExtremalTarget.THM22
            spec = random_feasible_case(rng, target)
            if spec.disk.radius == 0.0:
                continue
            total = complex(np.exp(1j * solve_phases(spec)).sum())
            assert abs(total - spec.phase_sum) <= 1e-12 * max(1.0, abs(spec.phase_sum))
        # nearly perpendicular and rescaled ends, n up to 40: a feasible |phase sum| never
        # exceeds n, since Theorem 2.1's band caps it at n/sqrt(2) and Re(Gamma conj(gamma)) > 0
        # means radius < |center| for Theorem 2.2
        ratios, scales = [], set()
        for _ in range(2000):
            target = ExtremalTarget.THM21 if rng.random() < 0.5 else ExtremalTarget.THM22
            spec = random_feasible_case(rng, target, extreme=True)
            d = spec.disk
            ratios.append(d.re_product / abs(d.center) ** 2)
            scales.add(round(math.log10(abs(d.center)) / 150))
            assert abs(spec.phase_sum) <= spec.n * (1.0 + 1e-12)
            total = complex(np.exp(1j * solve_phases(spec)).sum())
            assert abs(total - spec.phase_sum) <= 1e-12 * max(1.0, abs(spec.phase_sum))
        assert 0.0 < min(ratios) < 1e-15 and scales == {-1, 0, 1}

    def test_odd_allocation(self):
        spec = plan(ExtremalTarget.THM21, 5, Disk(1.0, 3.0))
        thetas = solve_phases(spec)
        assert len(thetas) == 5
        total = complex(np.exp(1j * thetas).sum())
        assert total == pytest.approx(spec.phase_sum, abs=1e-12)

    def test_infeasible_raises(self):
        spec = plan(ExtremalTarget.THM21, 1, Disk(1.0, 3.0))
        with pytest.raises(InfeasibleConstruction):
            solve_phases(spec)


class TestBuild:
    def test_coefficients_are_the_equality_coefficients(self):
        rng = np.random.default_rng(35)
        for target in ExtremalTarget:
            spec = random_feasible_case(rng, target)
            zs = equality_coefficients(spec)
            assert np.allclose(np.abs(zs - spec.disk.center), spec.disk.radius, rtol=0.0, atol=1e-12)
            fam = build(target, [1.0, 0.5j], spec.n, spec.disk)
            assert np.allclose(fam.coefficients, zs, rtol=0.0, atol=1e-12)

    def test_worked_equality_sqrt_form(self):
        d = Disk(1.0, 3.0)
        fam = build(ExtremalTarget.THM21, [1.0, 0.0], 2, d)
        rep = theorem21(fam, d)
        assert rep.lhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert rep.rhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert theorem21_residuals(fam, d).max_residual <= 1e-9

    def test_worked_equality_squared_form(self):
        d = Disk(1.0, 3.0)
        fam = build(ExtremalTarget.THM22, [1.0, 0.0], 2, d)
        rep = theorem22(fam, d)
        assert rep.lhs == pytest.approx(6.0, rel=1e-12)
        assert rep.rhs == pytest.approx(6.0, rel=1e-12)
        assert theorem22_residuals(fam, d).max_residual <= 1e-9

    def test_zero_radius_repeats_scaled_x(self):
        fam = build(ExtremalTarget.THM21, E1, 4, Disk(1.0, 1.0))
        assert np.allclose(fam.ys, np.array([[1.0, 0.0]] * 4))
        d = Disk(1.0, 1.0)
        assert theorem21(fam, d).is_tight(1e-12)
        assert theorem22(fam, d).is_tight(1e-12)

    def test_coefficient_sums_match_characterisation(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            for target in ExtremalTarget:
                spec = random_feasible_case(rng, target)
                d, n = spec.disk, spec.n
                fam = build(target, [1.0, 0.5j, -0.25], n, d)
                zs = fam.coefficients
                if target is ExtremalTarget.THM21:
                    expected_sum = n * d.equality_constant / (
                        4.0 * (d.Gamma + d.gamma).conjugate()
                    )
                    expected_sq = n * abs(d.center) ** 2
                else:
                    expected_sum = 2.0 * n * d.re_product / (d.Gamma + d.gamma).conjugate()
                    expected_sq = n * d.re_product
                scale = max(1.0, abs(expected_sum))
                assert abs(complex(zs.sum()) - expected_sum) <= 1e-9 * scale
                got_sq = float((np.abs(zs) ** 2).sum())
                assert got_sq == pytest.approx(expected_sq, rel=1e-9)

    def test_boundary_membership_and_equality_sweep(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            for target, bound, residuals in (
                (ExtremalTarget.THM21, theorem21, theorem21_residuals),
                (ExtremalTarget.THM22, theorem22, theorem22_residuals),
            ):
                spec = random_feasible_case(rng, target)
                dim = int(rng.integers(1, 7))
                x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                fam = build(target, x, spec.n, spec.disk)
                res = residuals(fam, spec.disk)
                assert res.max_residual <= 1e-9
                rep = bound(fam, spec.disk)
                assert abs(rep.lhs - rep.rhs) <= 1e-9 * max(1.0, rep.rhs)

    def test_free_components_preserved(self):
        rng = np.random.default_rng(35)
        d = Disk(1.0, 3.0)
        raw = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        ws = raw - raw.mean(axis=0)
        x = np.array([1.0, 0.0, 0.0], dtype=complex)
        fam = build(ExtremalTarget.THM21, x, 2, d, ws=ws)
        rep = theorem21(fam, d)
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * max(1.0, rep.rhs)
        assert theorem21_residuals(fam, d).max_residual <= 1e-9

    def test_nonzero_sum_components_rejected(self):
        rng = np.random.default_rng(36)
        ws = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        ws[:, 0] = 0.0  # keep the x-component empty so projection keeps the sum
        x = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            build(ExtremalTarget.THM21, x, 2, Disk(1.0, 3.0), ws=ws)
        # components must be finite, one per vector, of the dimension of x
        for bad in (np.inf, np.nan):
            ws[1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                build(ExtremalTarget.THM21, x, 2, Disk(1.0, 3.0), ws=ws)
        for shape in ((3, 3), (2, 2), (6,)):
            with pytest.raises(DimensionMismatch, match="ws must have shape"):
                build(ExtremalTarget.THM21, x, 2, Disk(1.0, 3.0), ws=np.zeros(shape))

    def test_degenerate_x_rejected(self):
        with pytest.raises(DegenerateReference):
            build(ExtremalTarget.THM21, [0.0, 0.0], 2, Disk(1.0, 3.0))

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleConstruction):
            build(ExtremalTarget.THM21, E1, 1, Disk(1.0, 3.0))
        # one test vector, |phase sum| within 1e-12 of 1
        with pytest.raises(InfeasibleConstruction, match="n = 1"):
            build(ExtremalTarget.THM22, E1, 1, Disk(1.0, 1e-13 + 1j))

    def test_deterministic(self):
        d = Disk(0.5 + 0.6j, 2.0 - 0.7j)
        a = build(ExtremalTarget.THM22, [1.0, 2.0j], 5, d)
        b = build(ExtremalTarget.THM22, [1.0, 2.0j], 5, d)
        assert np.array_equal(a.ys, b.ys)

    def test_wide_disk_band_is_strict_not_extremal(self):
        # radius in (sqrt(2)|center|, 2|center|]: the mean characterisation
        # can be met, yet the bound stays strict, so plan() refuses
        d = Disk(-1.0, 3.0)  # center 1, radius 2
        spec = plan(ExtremalTarget.THM21, 3, d)
        assert not spec.feasible
        # demonstrate the gap on the family the naive phase sum would give:
        # all coefficients at -1 satisfy boundary and mean conditions
        from besselkit import lift_gram_values

        fam = Family(E1, lift_gram_values(E1, [-1.0 + 0j] * 3))
        res21 = theorem21_residuals(fam, d)
        assert res21.max_residual <= 1e-12  # characterised configuration...
        rep = theorem21(fam, d)
        assert rep.slack > 1.0  # ...but the bound is far from tight

    def test_sqrt_two_radius_boundary_attains_equality(self):
        # radius = sqrt(2) |center| is the edge of attainability: the test
        # vectors cancel and the penalty term alone matches the lhs
        root2 = math.sqrt(2.0)
        d = Disk(1.0 - root2, 1.0 + root2)
        spec = plan(ExtremalTarget.THM21, 4, d)
        assert spec.feasible
        fam = build(ExtremalTarget.THM21, E1, 4, d)
        rep = theorem21(fam, d)
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * max(1.0, rep.rhs)
        assert float(np.linalg.norm(fam.ys_sum)) <= 1e-12
