"""The nine general-family bounds: worked values, identities, validity."""

import math

import numpy as np
import pytest

from besselkit import (
    DimensionMismatch,
    Family,
    FuzzConfig,
    ParameterError,
    bessel_sum,
    boas_bellman,
    bombieri,
    check_all,
    dragomir03,
    dragomir04,
    dragomir04_corollaries,
    dragomir_pq,
    heilbronn,
    pecaric,
    sample_family,
    selberg,
)

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


@pytest.fixture
def doubled():
    """x = e1 against the repeated family [e1, e1]."""
    return Family(E1, [E1, E1])


@pytest.fixture
def orthobasis():
    return Family([3.0, 4.0], [E1, E2])


def random_family(rng, real=False, min_n=1):
    n = int(rng.integers(min_n, 8))
    d = int(rng.integers(1, 6))
    if real:
        x = rng.standard_normal(d)
        ys = rng.standard_normal((n, d))
        return Family(x, ys, "real")
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    ys = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return Family(x, ys)


def rotated_orthonormal_family(rng):
    n = int(rng.integers(1, 6))
    d = int(rng.integers(n, 9))
    q, _ = np.linalg.qr(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Family(x, q.T)


class TestBesselSum:
    def test_orthonormal_pair(self):
        assert bessel_sum(Family(E1, [E1, E2])) == pytest.approx(1.0)

    def test_complete_system_gives_norm_squared(self, orthobasis):
        assert bessel_sum(orthobasis) == pytest.approx(25.0)

    def test_repeated_vector(self, doubled):
        assert bessel_sum(doubled) == pytest.approx(2.0)


class TestBoasBellman:
    def test_orthonormal_reduces_to_norm_squared(self, orthobasis):
        rep = boas_bellman(orthobasis)
        assert rep.rhs == pytest.approx(25.0)
        assert rep.holds()

    def test_repeated_vector_value(self, doubled):
        rep = boas_bellman(doubled)
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_single_vector_equality(self):
        rep = boas_bellman(Family(E1, [E1]))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.is_tight()


class TestBombieri:
    def test_repeated_vector_equality(self, doubled):
        rep = bombieri(doubled)
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.is_tight()

    def test_all_zero_family(self):
        rep = bombieri(Family(E1, [[0, 0], [0, 0]]))
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.ratio == 0.0
        assert rep.holds()


class TestSelberg:
    def test_orthonormal_is_bessel(self, orthobasis):
        rep = selberg(orthobasis)
        assert rep.lhs == pytest.approx(bessel_sum(orthobasis), rel=1e-12)
        assert rep.rhs == pytest.approx(25.0)

    def test_repeated_vector_equality(self, doubled):
        rep = selberg(doubled)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.is_tight()

    def test_zero_vector_not_applicable(self):
        rep = selberg(Family(E1, [[0, 0], E1]))
        assert not rep.preconditions_met
        assert "zero" in rep.reason

    def test_orthogonal_reference(self):
        rep = selberg(Family(E2, [E1, E1]))
        assert rep.lhs == pytest.approx(0.0)
        assert rep.holds()


class TestDragomir03:
    def test_orthonormal(self, orthobasis):
        assert dragomir03(orthobasis).rhs == pytest.approx(25.0)

    def test_repeated_vector_equality(self, doubled):
        rep = dragomir03(doubled)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.is_tight()

    def test_single_vector_schwarz(self):
        rep = dragomir03(Family([2.0, 0.0], [[0.0, 3.0]]))
        assert rep.rhs == pytest.approx(4.0 * 9.0)


class TestDragomirPQ:
    def test_p_two_collapses_to_bombieri(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            fam = random_family(rng)
            got = dragomir_pq(fam, 2.0)
            ref = bombieri(fam)
            assert got.lhs == pytest.approx(ref.lhs, rel=1e-12)
            assert got.rhs == pytest.approx(ref.rhs, rel=1e-12)

    def test_repeated_vector_p_three(self, doubled):
        rep = dragomir_pq(doubled, 3.0)
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)
        assert rep.rhs == pytest.approx(2.0)

    def test_invalid_p(self, doubled):
        for p in (1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                dragomir_pq(doubled, p)

    def test_vanishing_coefficients_not_applicable(self):
        rep = dragomir_pq(Family(E2, [E1, E1]), 3.0)
        assert not rep.preconditions_met

    def test_single_vector_equality(self):
        for p in (1.5, 2.5, 7.0):
            rep = dragomir_pq(Family(E1, [E1]), p)
            assert rep.lhs == pytest.approx(1.0, rel=1e-12)
            assert rep.rhs == pytest.approx(1.0)


class TestHeilbronn:
    def test_single_vector_is_schwarz(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rep = heilbronn(Family(x, [y]))
            assert rep.rhs == pytest.approx(
                np.linalg.norm(x) * np.linalg.norm(y), rel=1e-12
            )
            assert rep.holds()

    def test_repeated_vector_equality(self, doubled):
        rep = heilbronn(doubled)
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(2.0)

    def test_orthogonal_reference(self):
        assert heilbronn(Family(E2, [E1, E1])).lhs == pytest.approx(0.0)


class TestPecaric:
    def test_zero_weights(self, doubled):
        res = pecaric(doubled, [0, 0])
        assert res == (0.0, 0.0, 0.0)

    def test_unit_modulus_weights_give_heilbronn(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            fam = random_family(rng)
            a = fam.coefficients
            if np.any(np.abs(a) == 0.0):
                continue
            c = np.conj(a) / np.abs(a)
            res = pecaric(fam, c)
            assert res.lhs == pytest.approx(
                float(np.abs(a).sum()) ** 2, rel=1e-12
            )
            assert res.rhs_first == pytest.approx(heilbronn(fam).rhs ** 2, rel=1e-12)

    def test_orthonormal_unit_weights(self):
        fam = Family([3.0, 4.0, 0.0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        res = pecaric(fam, [1, 1, 1])
        assert res.rhs_second == pytest.approx(3 * 25.0)

    def test_chain_first_below_second(self):
        rng = np.random.default_rng(14)
        for _ in range(80):
            fam = random_family(rng)
            c = rng.standard_normal(fam.n) + 1j * rng.standard_normal(fam.n)
            res = pecaric(fam, c)
            assert res.lhs <= res.rhs_first + 1e-9 * max(1.0, res.rhs_first)
            assert res.rhs_first <= res.rhs_second + 1e-9 * max(1.0, res.rhs_second)

    def test_length_mismatch(self, doubled):
        with pytest.raises(DimensionMismatch):
            pecaric(doubled, [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_weights_rejected(self, orthobasis, bad):
        # weights take as_vector's rule, as vectors do: every weighted entry point raises
        calls = [
            lambda c: pecaric(orthobasis, c),
            lambda c: dragomir04(orthobasis, c, 2.0),
            lambda c: check_all(orthobasis, None, c),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="vector entries must be finite"):
                call([bad, 1.0])


class TestPecaricSpecializations:
    def test_conjugate_weights_give_bombieri(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            fam = random_family(rng)
            total = bessel_sum(fam)
            if total == 0.0:
                continue
            res = pecaric(fam, np.conj(fam.coefficients))
            assert res.lhs == pytest.approx(total**2, rel=1e-12)
            assert res.rhs_second / total == pytest.approx(
                bombieri(fam).rhs, rel=1e-12
            )

    def test_row_sum_weights_give_selberg(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            fam = random_family(rng)
            rows = fam.gram_row_sums
            if np.any(rows == 0.0):
                continue
            sel = selberg(fam)
            res = pecaric(fam, np.conj(fam.coefficients) / rows)
            assert res.lhs == pytest.approx(sel.lhs**2, rel=1e-12, abs=1e-300)
            assert res.rhs_first == pytest.approx(
                fam.x_norm_sq * sel.lhs, rel=1e-12, abs=1e-300
            )


class TestDragomir04:
    def test_repeated_vector_worked_values(self, doubled):
        res = dragomir04(doubled, [1, 1], 2.0)
        assert res.lhs == pytest.approx(4.0, rel=1e-12)
        assert res.rhs_branch1 == pytest.approx(4.0, rel=1e-12)
        assert res.rhs_branch2 == pytest.approx(4.0, rel=1e-12)
        assert res.rhs_branch3 == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_repeated_vector_attains_every_branch(self, mode):
        # y_j = x with weights all 1 attains all three: with a_j = ||x||^2, each side is n^2 ||x||^4
        rng = np.random.default_rng(36)
        for n in range(1, 9):
            for d in (1, 3, 6):
                x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if mode == "complex" else 0.0)
                fam = Family(x, [x] * n, mode)
                for p in (1.1, 1.5, 3.0, 7.0):
                    reps = check_all(fam, c=np.ones(n), p_values=(p,))
                    assert [r.bound_id for r in reps if r.bound_id.startswith("dragomir04_b") and r.is_tight()] == [
                        "dragomir04_b1",
                        "dragomir04_b2",
                        "dragomir04_b3",
                    ], (n, d, p)

    def test_zero_weights(self, doubled):
        res = dragomir04(doubled, [0, 0], 3.0)
        assert res.lhs == 0.0
        assert res.rhs_branch1 == 0.0
        assert res.rhs_branch2 == 0.0
        assert res.rhs_branch3 == 0.0

    def test_orthonormal_single_weight(self):
        fam = Family([3.0, 4.0], [E1, E2])
        res = dragomir04(fam, [1, 0])
        assert res.lhs == pytest.approx(9.0)
        assert res.rhs_branch2 is None
        assert res.rhs_branch3 == pytest.approx(25.0)

    def test_branch2_not_applicable_for_small_p(self, doubled):
        assert dragomir04(doubled, [1, 1], 0.5).rhs_branch2 is None

    def test_validity_all_branches(self):
        rng = np.random.default_rng(17)
        for _ in range(80):
            fam = random_family(rng)
            c = rng.standard_normal(fam.n) + 1j * rng.standard_normal(fam.n)
            res = dragomir04(fam, c, 1.7)
            for rhs in (res.rhs_branch1, res.rhs_branch2, res.rhs_branch3):
                assert res.lhs <= rhs + 1e-9 * max(1.0, rhs)


class TestWeightedSum:
    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_dragomir04_and_pecaric_share_their_lhs(self, mode):
        # both left sides are |sum c_i a_i|^2, to the last bit
        cfg = FuzzConfig(master_seed=17, instances=200, field_mode=mode)
        rng = np.random.default_rng(43)
        imag = 1j if mode == "complex" else 0.0
        for i in range(cfg.instances):
            fam = sample_family(cfg, i)
            c = rng.standard_normal(fam.n) + imag * rng.standard_normal(fam.n)
            assert dragomir04(fam, c, 2.0).lhs == pecaric(fam, c).lhs


class TestDragomir04Corollaries:
    def test_repeated_vector(self, doubled):
        rep1, rep2, rep3 = dragomir04_corollaries(doubled, 2.0)
        assert rep1.lhs == pytest.approx(2.0)
        assert rep1.rhs == pytest.approx(2.0)
        assert rep3.lhs == pytest.approx(1.0)
        assert rep3.rhs == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_repeated_vector_attains_every_quotient(self, mode):
        # y_j = x attains all three: with a_j = ||x||^2, each side is ||x||^4 times 1, n and n^(1 - 1/p)
        rng = np.random.default_rng(34)
        for n in range(1, 9):
            for d in (1, 3, 6):
                x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if mode == "complex" else 0.0)
                fam = Family(x, [x] * n, mode)
                for p in (1.1, 1.5, 3.0, 7.0):
                    reps = dragomir04_corollaries(fam, p)
                    assert [r.bound_id for r in reps if r.is_tight()] == [
                        "dragomir04_cor1",
                        "dragomir04_cor2",
                        "dragomir04_cor3",
                    ], (n, d, p)

    def test_orthonormal_third_quotient(self):
        rep1, rep2, rep3 = dragomir04_corollaries(Family(E1, [E1, E2]), 2.0)
        assert rep3.lhs == pytest.approx(1.0)
        assert rep3.rhs == pytest.approx(1.0)

    def test_single_nonzero_coefficient(self):
        fam = Family([2.0, 0.0], [E1, E2])
        reps = dragomir04_corollaries(fam, 3.0)
        for rep in reps:
            assert rep.lhs == pytest.approx(4.0, rel=1e-12)

    def test_vanishing_coefficients_skipped(self):
        reps = dragomir04_corollaries(Family(E2, [E1, E1]), 2.0)
        assert all(not rep.preconditions_met for rep in reps)

    def test_missing_p_skips_second(self, doubled):
        rep1, rep2, rep3 = dragomir04_corollaries(doubled)
        assert rep1.preconditions_met
        assert not rep2.preconditions_met
        assert rep3.preconditions_met

    def test_quotients_keep_their_ratios_at_extreme_scales(self):
        # the squared Bessel sum of these copies lies near 2**1120 and 2**-1280
        rng = np.random.default_rng(21)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ys = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))

        def ratios(scale):
            fam = Family(scale * x, scale * ys)
            reports = [dragomir_pq(fam, 3.0), *dragomir04_corollaries(fam, 3.0)]
            return [r.ratio for r in reports]

        base = ratios(1.0)
        for exponent in (140, -160):
            assert ratios(2.0**exponent) == pytest.approx(base, rel=1e-12)


class TestInvariants:
    def test_validity_sweep(self):
        rng = np.random.default_rng(18)
        for k in range(150):
            fam = random_family(rng, real=(k % 3 == 0))
            reports = [
                boas_bellman(fam),
                bombieri(fam),
                selberg(fam),
                dragomir03(fam),
                dragomir_pq(fam, 1.5),
                dragomir_pq(fam, 4.0),
                heilbronn(fam),
                *dragomir04_corollaries(fam, 2.5),
            ]
            for rep in reports:
                assert rep.holds(), rep

    def test_orthonormal_reduction(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            fam = rotated_orthonormal_family(rng)
            xsq = fam.x_norm_sq
            for rep in (boas_bellman(fam), bombieri(fam), dragomir03(fam)):
                assert rep.rhs == pytest.approx(xsq, rel=1e-9)
            assert selberg(fam).lhs == pytest.approx(bessel_sum(fam), rel=1e-9)

    def test_homogeneity_in_x(self):
        rng = np.random.default_rng(20)
        fam = random_family(rng, min_n=2)
        lam = 1.7 - 0.9j
        scaled = Family(lam * fam.x, fam.ys)
        mag = abs(lam) ** 2
        pairs = [
            (boas_bellman(fam), boas_bellman(scaled)),
            (bombieri(fam), bombieri(scaled)),
            (selberg(fam), selberg(scaled)),
            (dragomir03(fam), dragomir03(scaled)),
            (dragomir_pq(fam, 3.0), dragomir_pq(scaled, 3.0)),
        ]
        for base, sc in pairs:
            assert sc.lhs == pytest.approx(mag * base.lhs, rel=1e-12)
            assert sc.rhs == pytest.approx(mag * base.rhs, rel=1e-12)
