"""Samplers, check_all dispatch, fuzz aggregation, tightness comparison."""

import json
import math
from itertools import groupby

import numpy as np
import pytest

from besselkit import harness
from besselkit import (
    Disk,
    DiskSampler,
    ExtremalTarget,
    Family,
    FuzzConfig,
    build,
    bessel_sum,
    check_all,
    disk_condition_abs,
    disk_condition_re,
    fuzz,
    lemma_eq6,
    pecaric,
    sample_disk_family,
    sample_family,
    sample_orthonormal_family,
    tightness_compare,
)
from besselkit.classical import (
    classical_weights,
    classical_weights_batch,
    pecaric_batch,
    pecaric_reports,
)
from besselkit.cli import family_payload, main
from besselkit.core import Stats
from besselkit.harness import BOUNDS, DEFAULT_P_VALUES, Bound
from besselkit.report import BatchReport, reports_of

HEAVY = DiskSampler(boundary_fraction=0.9, extremal_fraction=0.5)


def small_cfg(**kw):
    base = dict(master_seed=123, instances=200, n_range=(1, 6), d_range=(1, 5))
    base.update(kw)
    return FuzzConfig(**base)


def stack_of(families):
    """``Stats.stack`` of families of one size, one part per run of equal dimension."""
    runs = [list(run) for _, run in groupby(families, key=lambda f: f.dim)]
    return Stats.stack([(np.array([f.x for f in run]), np.array([f.ys for f in run])) for run in runs])


class TestSampleFamily:
    def test_deterministic(self):
        cfg = small_cfg()
        a = sample_family(cfg, 7)
        b = sample_family(cfg, 7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.ys, b.ys)

    def test_distinct_indices_differ(self):
        cfg = small_cfg()
        seen = set()
        for i in range(200):
            fam = sample_family(cfg, i)
            seen.add(fam.x.tobytes())
        assert len(seen) == 200

    def test_real_mode(self):
        cfg = small_cfg(field_mode="real")
        fam = sample_family(cfg, 3)
        assert fam.field_mode == "real"
        assert np.all(fam.x.imag == 0.0)
        assert np.all(fam.ys.imag == 0.0)

    def test_sizes_within_ranges(self):
        cfg = small_cfg(n_range=(2, 4), d_range=(3, 3))
        for i in range(30):
            fam = sample_family(cfg, i)
            assert 2 <= fam.n <= 4
            assert fam.dim == 3

    def test_index_bound(self):
        for sampler in (sample_family, sample_disk_family, sample_orthonormal_family):
            for index in (5, -1):
                with pytest.raises(ValueError, match="out of range"):
                    sampler(small_cfg(instances=5), index)

    def test_collision_check_large(self):
        cfg = small_cfg(instances=10_000)
        seen = {sample_family(cfg, i).x.tobytes() for i in range(0, 10_000, 10)}
        assert len(seen) == 1000


class TestSampleDiskFamily:
    def test_disk_condition_holds_by_construction(self):
        cfg = small_cfg()
        for i in range(100):
            fam, d = sample_disk_family(cfg, i)
            assert bool(np.all(disk_condition_abs(fam.coefficients, d)))
            assert bool(np.all(disk_condition_re(fam.coefficients, d)))
            assert abs(d.center) > 0.0

    def test_even_indices_have_positive_re_product(self):
        cfg = small_cfg()
        for i in range(0, 60, 2):
            _, d = sample_disk_family(cfg, i)
            assert d.re_product > 0.0

    def test_boundary_fraction_one_gives_lemma_equality(self):
        cfg = small_cfg(disk_sampler=DiskSampler(boundary_fraction=1.0))
        for i in range(40):
            fam, d = sample_disk_family(cfg, i)
            lhs, rhs = lemma_eq6(fam, d)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_real_mode_stays_real_and_in_disk(self):
        cfg = small_cfg(field_mode="real")
        for i in range(40):
            fam, d = sample_disk_family(cfg, i)
            assert np.all(fam.ys.imag == 0.0)
            assert bool(np.all(disk_condition_abs(fam.coefficients, d)))

    def test_extremal_fraction_produces_tight_instances(self):
        cfg = small_cfg(
            instances=60,
            n_range=(2, 6),
            disk_sampler=DiskSampler(boundary_fraction=1.0, extremal_fraction=1.0),
        )
        summary = fuzz(cfg)
        assert summary.min_slack["theorem21"] <= 1e-9
        assert summary.min_slack["theorem22"] <= 1e-9
        assert summary.min_slack["lemma_eq6"] <= 1e-9

    def test_small_scale_disk_has_a_center(self):
        for scale in (1e-7, 1e-170):  # at 1e-170 Re(Gamma conj(gamma)) underflows to 0
            cfg = small_cfg(instances=8, disk_sampler=DiskSampler(scale=scale))
            for i in range(8):
                _, d = sample_disk_family(cfg, i)
                assert d.center != 0.0

    def test_power_of_two_scales_the_unit_disks(self):
        unit = small_cfg(instances=16)
        for k in (-600, -1, 1, 500):
            scale = math.ldexp(1.0, k)
            cfg = small_cfg(instances=16, disk_sampler=DiskSampler(scale=scale))
            for sample in (sample_disk_family, sample_orthonormal_family):
                for i in range(16):
                    d1, dk = sample(unit, i)[1], sample(cfg, i)[1]
                    assert (dk.gamma, dk.Gamma) == (scale * d1.gamma, scale * d1.Gamma)


class TestSampleOrthonormal:
    def test_orthonormal_and_in_disk(self):
        cfg = small_cfg()
        for i in range(40):
            fam, d = sample_orthonormal_family(cfg, i)
            assert float(np.abs(fam.gram - np.eye(fam.n)).max()) <= 1e-9
            assert bool(np.all(disk_condition_abs(fam.coefficients, d)))
            assert d.re_product > 0.0

    def test_real_mode(self):
        cfg = small_cfg(field_mode="real")
        fam, d = sample_orthonormal_family(cfg, 5)
        assert np.all(fam.ys.imag == 0.0)
        assert np.all(fam.x.imag == 0.0)


class TestCheckAll:
    def test_orthonormal_family_without_disk(self):
        fam = Family([3.0, 4.0], [[1, 0], [0, 1]])
        reports = {r.bound_id: r for r in check_all(fam, c=[1.0, 1.0])}
        assert reports["selberg"].lhs == pytest.approx(bessel_sum(fam), rel=1e-12)
        for rep in reports.values():
            assert rep.holds(), rep
        assert "theorem21" not in reports

    def test_zero_vector_skips_selberg_only(self):
        fam = Family([1.0, 0.0], [[0, 0], [1, 0]])
        reports = {r.bound_id: r for r in check_all(fam)}
        assert not reports["selberg"].preconditions_met
        assert reports["bombieri"].preconditions_met

    def test_extremal_family_reports_tight_theorem21(self):
        d = Disk(1.0, 3.0)
        fam = build(ExtremalTarget.THM21, [1.0, 0.0], 2, d)
        reports = {r.bound_id: r for r in check_all(fam, d)}
        assert reports["theorem21"].is_tight(1e-9)
        assert reports["lemma_eq6"].is_tight(1e-9)

    def test_disk_reports_present_and_valid(self):
        cfg = small_cfg()
        fam, d = sample_disk_family(cfg, 2)
        ids = [r.bound_id for r in check_all(fam, d, c=np.ones(fam.n))]
        for required in (
            "theorem21",
            "theorem22",
            "lemma_eq6",
            "triangle_reverse_l2",
            "triangle_reverse_sq",
            "pecaric_first",
            "dragomir04_b1",
            "dragomir04_b2",
            "dragomir04_b3",
        ):
            assert required in ids

    def test_orthonormal_with_disk_adds_remark_reports(self):
        cfg = small_cfg()
        fam, d = sample_orthonormal_family(cfg, 1)
        ids = [r.bound_id for r in check_all(fam, d)]
        assert "orthonormal30" in ids
        assert "orthonormal31" in ids

    def test_centerless_disk_becomes_skipped_reports(self):
        fam = Family([1.0, 0.0], [[0.5, 0.0]])
        reports = {r.bound_id: r for r in check_all(fam, Disk(-1.0, 1.0))}
        assert not reports["theorem21"].preconditions_met
        assert not reports["triangle_reverse_l2"].preconditions_met
        # the squared-form bound needs Re positive, also unavailable here
        assert not reports["theorem22"].preconditions_met
        # an orthonormal family gets its specialised reports skipped, not raised
        ortho = Family([0.5, 0.0], [[1.0, 0.0]])
        reports = {r.bound_id: r for r in check_all(ortho, Disk(-1.0, 1.0))}
        assert not reports["orthonormal30"].preconditions_met
        assert not reports["orthonormal31"].preconditions_met

    def test_orthonormal_detection_uses_tol(self):
        # Gram diagonal 6e-9 off the identity: orthonormal within 1e-8 only
        es = np.diag([1.0 + 3e-9, 1.0, 1.0])
        fam = Family([1.5, 1.2, 1.8], es)

        def ids(tol):
            return {r.bound_id for r in check_all(fam, Disk(1.0, 2.0), tol=tol)}

        assert "orthonormal30" not in ids(1e-9)
        assert {"orthonormal30", "orthonormal31"} <= ids(1e-8)

    def test_reports_follow_table_order(self):
        position = {bid: k for k, b in enumerate(BOUNDS) for bid in b.ids}
        fam, d = sample_orthonormal_family(small_cfg(), 1)
        ids = [r.bound_id for r in check_all(fam, d, c=np.ones(fam.n))]
        assert set(ids) == set(position)  # every entry ran
        assert [position[bid] for bid in ids] == sorted(position[bid] for bid in ids)

    def test_p_values_filtered(self):
        fam = Family([1.0, 0.0], [[1, 0], [0, 1]])
        ids = [r.bound_id for r in check_all(fam, p_values=(0.5, 2.0))]
        assert ids.count("dragomir_pq") == 1
        # q = p / (p - 1) is NaN at p = inf, so non-finite exponents are dropped too
        ids = [r.bound_id for r in check_all(fam, p_values=(float("nan"), float("inf"), 2.0))]
        assert ids.count("dragomir_pq") == 1
        assert ids.count("dragomir04_cor2") == 1


class TestSpecialChoices:
    def test_batch_matches_direct_pecaric(self):
        cfg = small_cfg()
        for i in range(20):
            fam = sample_family(cfg, i)
            choices = classical_weights(fam)
            batch = pecaric_reports(fam, choices)
            for k in range(choices.shape[0]):
                direct = pecaric(fam, choices[k])
                assert batch[2 * k].lhs == pytest.approx(direct.lhs, rel=1e-12, abs=1e-300)
                assert batch[2 * k].rhs == pytest.approx(
                    direct.rhs_first, rel=1e-12, abs=1e-300
                )
                assert batch[2 * k + 1].rhs == pytest.approx(
                    direct.rhs_second, rel=1e-12, abs=1e-300
                )

    def test_choices_guard_zero_entries(self):
        fam = Family([0.0, 1.0], [[1, 0], [0, 0]])  # one zero vector, one zero coeff
        choices = classical_weights(fam)
        assert np.all(np.isfinite(choices.view(float)))


class TestFuzz:
    def test_no_violations_and_determinism(self):
        cfg = small_cfg()
        s1 = fuzz(cfg)
        s2 = fuzz(cfg)
        assert s1.violations == []
        assert s1.as_dict() == s2.as_dict()

    def test_worker_count_does_not_change_bytes(self):
        cfg = small_cfg(instances=600)
        text1 = json.dumps(fuzz(cfg, workers=1).as_dict(), sort_keys=True)
        text2 = json.dumps(fuzz(cfg, workers=2).as_dict(), sort_keys=True)
        assert text1 == text2

    def test_zero_instances(self):
        s = fuzz(small_cfg(instances=0))
        assert s.checked == {}
        assert s.violations == []

    def test_checked_counts(self):
        cfg = small_cfg(instances=50)
        s = fuzz(cfg)
        # both samplers always produce an applicable report for these ids
        assert s.checked["boas_bellman"] == 100
        assert s.checked["bombieri"] == 100
        # the squared-form sharp bound needs Re > 0, guaranteed on evens
        assert s.checked["theorem22"] >= 25

    def test_wins_sum_to_family_count(self):
        cfg = small_cfg(instances=80)
        s = fuzz(cfg)
        assert sum(s.tightness_wins.values()) == 160

    def test_real_mode_run(self):
        s = fuzz(small_cfg(instances=60, field_mode="real"))
        assert s.violations == []

    @pytest.mark.parametrize("scale", [1e80, 1e160, 1e170, 1e-170])
    def test_sides_beyond_double_range(self, scale):
        # at 1e80 the classical-weight Pecaric sides overflow, at 1e160 the
        # sharp bounds' too; a NaN slack is checked but never enters min_slack.
        # From 1e160 up and at 1e-170, |center|^2 leaves the double range, so
        # the equality case is infeasible and the disk gets independent points.
        for extremal_fraction in (0.0, 1.0):
            sampler = DiskSampler(scale=scale, extremal_fraction=extremal_fraction)
            cfg = FuzzConfig(instances=64, disk_sampler=sampler)
            s1 = fuzz(cfg, workers=1)
            assert not any(math.isnan(v) for v in s1.min_slack.values())
            assert set(s1.min_slack) <= set(s1.checked)
            text2 = json.dumps(fuzz(cfg, workers=2).as_dict(), sort_keys=True)
            assert json.dumps(s1.as_dict(), sort_keys=True) == text2


@pytest.fixture
def planted(monkeypatch):
    """``BOUNDS`` entries ``planted_b`` and ``planted_a``, violated where ``|a_0| > 1`` and ``2 |a_0| > 1``,
    and ``planted_nan``, whose lhs is NaN where ``|a_0| < 1/4`` and 0 elsewhere.

    The ids of the first two sort in the reverse of their table order.
    """

    def formula(bound_id, factor):
        def batch(s):
            return [BatchReport(bound_id, factor * s.abs_a[..., 0], np.ones(s.shape), s.always)]

        return batch

    def nan_batch(s):
        lhs = np.where(s.abs_a[..., 0] < 0.25, np.nan, 0.0)
        return [BatchReport("planted_nan", lhs, np.ones(s.shape), s.always)]

    entries = (Bound(("planted_b",), "family", formula("planted_b", 1.0)),)
    entries += (Bound(("planted_a",), "family", formula("planted_a", 2.0)),)
    entries += (Bound(("planted_nan",), "family", nan_batch),)
    monkeypatch.setattr(harness, "BOUNDS", harness.BOUNDS + entries)
    harness._formulas.cache_clear()
    yield
    monkeypatch.undo()
    harness._formulas.cache_clear()


class TestFuzzViolations:
    def test_violations_recorded_in_order(self, planted):
        cfg = small_cfg(instances=300)  # stacked by family size, so violations arrive out of index order
        expected = []
        for i in range(cfg.instances):
            for sampler, f in (("disk", sample_disk_family(cfg, i)[0]), ("generic", sample_family(cfg, i))):
                for bound_id, factor in (("planted_a", 2.0), ("planted_b", 1.0)):
                    slack = 1.0 - factor * f.abs_coefficients[0]
                    if slack < -cfg.tolerance:
                        expected.append(
                            {"bound_id": bound_id, "sampler": sampler, "instance_seed": i, "slack": slack}
                        )
        summary = fuzz(cfg)
        assert 0 < len(summary.violations) < 4 * cfg.instances
        assert summary.violations == expected
        assert all(list(v) == ["bound_id", "sampler", "instance_seed", "slack"] for v in summary.violations)
        assert all(type(v["slack"]) is float for v in summary.violations)
        assert summary.checked["planted_a"] == summary.checked["planted_b"] == 2 * cfg.instances
        assert summary.min_slack["planted_a"] == min(v["slack"] for v in expected)

    def test_cli_exits_two(self, planted, tmp_path):
        out = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "3", "--instances", "40", "--output", str(out)]) == 2
        assert json.loads(out.read_text())["violations"]

    def test_nan_side_is_checked_never_violated(self, planted, tmp_path, capsys):
        # one verdict rule: fuzz, check_all and eval all let a NaN relative slack pass
        cfg = small_cfg(instances=40)
        out = tmp_path / "fuzz.json"
        main(["fuzz", "--seed", "123", "--instances", "40", "--n", "1:6", "--dim", "1:5", "--output", str(out)])
        summary = json.loads(out.read_text())
        assert summary == json.loads(json.dumps(fuzz(cfg).as_dict()))
        assert summary["checked"]["planted_nan"] == 2 * cfg.instances
        # a NaN relative slack is neither the least slack nor tight
        assert summary["min_slack"]["planted_nan"] == 1.0 and "planted_nan" not in summary["tight"]
        flagged = {(v["sampler"], v["instance_seed"]) for v in summary["violations"]}
        nan_families = [i for i in range(cfg.instances) if sample_family(cfg, i).abs_coefficients[0] < 0.25]
        assert nan_families
        for i in nan_families:
            f = sample_family(cfg, i)
            (rep,) = [r for r in check_all(f) if r.bound_id == "planted_nan"]
            assert math.isnan(rep.relative_slack()) and rep.holds() and not rep.is_tight()
            path = tmp_path / "family.json"
            path.write_text(json.dumps(family_payload(f)))
            code = main(["eval", "--input", str(path)])
            reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert any(r["bound_id"] == "planted_nan" and math.isnan(r["lhs"]) for r in reports)
            assert ("generic", i) not in flagged and code == 0


class TestStackMatchesFamilyAlone:
    """Every formula over a stack gives each family the reports ``check_all`` gives it alone."""

    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize("sampler", [DiskSampler(), HEAVY])
    def test_whole_chunk(self, mode, sampler):
        cfg = FuzzConfig(master_seed=11, instances=256, field_mode=mode, disk_sampler=sampler)
        rng = np.random.default_rng(5)
        for disk in (False, True):
            drawn = [
                sample_disk_family(cfg, i) if disk else (sample_family(cfg, i), None) for i in range(256)
            ]
            imag = 1j if mode == "complex" else 0j
            weights = [rng.standard_normal(f.n) + imag * rng.standard_normal(f.n) for f, _ in drawn]
            for n in {f.n for f, _ in drawn}:
                members = [k for k, (f, _) in enumerate(drawn) if f.n == n]
                s = stack_of([drawn[k][0] for k in members]).bind(
                    ends=np.array([(drawn[k][1].gamma, drawn[k][1].Gamma) for k in members]).T if disk else None,
                    weights=np.array([weights[k] for k in members])[:, None],
                    p_values=DEFAULT_P_VALUES,
                    tol=cfg.tolerance,
                )
                batch = s.evaluate(*(b.formula for b in BOUNDS if disk or b.needs != "disk"))
                batch += s.bind(weights=classical_weights_batch(s)).evaluate(pecaric_batch)
                for b, k in enumerate(members):
                    f, d = drawn[k]
                    alone = check_all(f, d, weights[k], DEFAULT_P_VALUES, cfg.tolerance)
                    alone += pecaric_reports(f, classical_weights(f))
                    assert [r.as_dict() for r in reports_of(batch, b)] == [r.as_dict() for r in alone]


class TestSeedStreams:
    """A task's seeds, computed in one pass, give the generators numpy's ``SeedSequence`` gives."""

    @staticmethod
    def numpy_rng(seed, index, lane):
        ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=(index, lane))
        return np.random.Generator(np.random.PCG64(ss))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 20050808])
    def test_first_draws_equal_numpy(self, seed):
        cfg = FuzzConfig(master_seed=seed, instances=2**33)
        draws = (
            lambda g: g.standard_normal(3),
            lambda g: g.random(3),
            lambda g: g.integers(0, 2**40, 3),
        )
        for lane in (0, 1, 4):
            for index in (0, 255, 256, 10**6, 2**32 - 1, 2**32):
                # a window around the index; those next to 2**32 cross to numpy's own seeding
                start, stop = max(0, index - 2), index + 3
                for i, rng in zip(range(start, stop), harness._streams(cfg, lane, start, stop)):
                    ref = self.numpy_rng(seed, i, lane)
                    for draw in draws:
                        assert draw(rng).tobytes() == draw(ref).tobytes(), (seed, lane, i)

    def test_whole_chunk(self):
        cfg = FuzzConfig(master_seed=7, instances=600)
        for lane in (0, 1, 4):
            for i, rng in zip(range(256, 512), harness._streams(cfg, lane, 256, 512)):
                ref = self.numpy_rng(7, i, lane)
                assert rng.standard_normal(2).tobytes() == ref.standard_normal(2).tobytes()


class TestChunkMatchesSamplers:
    """Every stack of a task holds the bits the public samplers give its instances alone."""

    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize("sampler", [DiskSampler(), HEAVY, DiskSampler(scale=2**-40)])
    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_stacks(self, ensemble, sampler, mode):
        cfg = FuzzConfig(master_seed=29, instances=300, field_mode=mode, disk_sampler=sampler)
        self.check(cfg, ensemble, 44, 300)
        # n = 3 alone: its one size group spans five stacks, sorted by dimension across them
        one_size = FuzzConfig(master_seed=29, instances=300, n_range=(3, 3), field_mode=mode, disk_sampler=sampler)
        self.check(one_size, ensemble, 0, 300)
        if ensemble == "disk" and mode == "complex" and sampler is HEAVY:
            # the equality-case branch ran
            assert any(harness._draw(cfg, i, "disk")[0].zs is not None for i in range(44, 300))

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_rows_longer_than_the_kept_layouts(self, ensemble):
        # rows of more than 1024 normals take a layout computed per call
        cfg = FuzzConfig(master_seed=31, instances=24, n_range=(20, 24), d_range=(24, 30), disk_sampler=HEAVY)
        self.check(cfg, ensemble, 0, 24)

    @staticmethod
    def check(cfg, ensemble, start, stop):
        public = {
            "generic": lambda i: (sample_family(cfg, i), None),
            "disk": lambda i: sample_disk_family(cfg, i),
            "orthonormal": lambda i: sample_orthonormal_family(cfg, i),
        }[ensemble]
        seen = []
        for indices, s in harness._stacks(cfg, ensemble, start, stop):
            drawn = [public(i) for i in indices]
            # the weights of each instance alone: its stream continues with them
            cs = [harness._draw(cfg, i, ensemble)[1][2] for i in indices]
            ref = stack_of([f for f, _ in drawn]).bind(
                ends=None if ensemble == "generic" else np.array([(d.gamma, d.Gamma) for _, d in drawn]).T,
                weights=None if cs[0] is None else np.array([c[0] for c in cs])[:, None],
            )
            assert len(s.parts) == len(ref.parts)
            for part, ref_part in zip(s.parts, ref.parts):  # (x, ys)
                for a, b in zip(part, ref_part):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            for name in ("weights", "gamma", "Gamma"):
                a, b = getattr(s, name), getattr(ref, name)
                assert (a is None and b is None) or (a.shape, a.tobytes()) == (b.shape, b.tobytes())
            seen += indices
        assert sorted(seen) == list(range(start, stop))


class TestTightnessCompare:
    def test_rows_and_conservation_generic(self):
        cfg = small_cfg(instances=120)
        rows = tightness_compare(cfg, "generic")
        assert [r.bound_id for r in rows] == [
            "boas_bellman",
            "bombieri",
            "dragomir03",
            "theorem21",
            "theorem22",
        ]
        assert sum(r.wins for r in rows) == 120
        for r in rows:
            if r.bound_id in ("theorem21", "theorem22"):
                assert r.wins == 0  # no disk, never applicable

    def test_orthonormal_sharp_bounds_never_win(self):
        cfg = small_cfg(instances=150)
        rows = {r.bound_id: r for r in tightness_compare(cfg, "orthonormal")}
        assert rows["theorem21"].wins == 0
        assert rows["theorem22"].wins == 0
        assert sum(r.wins for r in rows.values()) == 150

    def test_disk_ensemble_deterministic_and_reported(self):
        cfg = small_cfg(instances=100)
        rows1 = tightness_compare(cfg, "disk")
        rows2 = tightness_compare(cfg, "disk", workers=2)
        assert rows1 == rows2
        assert sum(r.wins for r in rows1) == 100

    def test_mean_ratio_in_unit_interval(self):
        cfg = small_cfg(instances=100)
        for row in tightness_compare(cfg, "disk"):
            if row.wins or not np.isnan(row.mean_ratio):
                assert -1e-12 <= row.mean_ratio <= 1.0 + 1e-9

    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_rows_match_families_alone(self, mode, ensemble):
        # the winner scan and the correctly rounded sum of all ratios, family by family
        cfg = small_cfg(instances=300, field_mode=mode, disk_sampler=HEAVY)
        sampler = {
            "generic": lambda c, i: (sample_family(c, i), None),
            "disk": sample_disk_family,
            "orthonormal": sample_orthonormal_family,
        }[ensemble]
        competing = [b for b in BOUNDS if b.competes]
        wins = {b.ids[0]: 0 for b in competing}
        ratios = {b.ids[0]: [] for b in competing}  # in index order
        for i in range(cfg.instances):
            f, d = sampler(cfg, i)
            reports = {r.bound_id: r for r in check_all(f, d, p_values=()) if r.preconditions_met}
            best = None
            for b in competing:
                r = reports.get(b.ids[0])
                if r is None:
                    continue
                if best is None or r.rhs**b.competes < best[1]:
                    best = (b.ids[0], r.rhs**b.competes)
                if r.rhs > 0.0:
                    ratios[b.ids[0]].append(r.ratio)
            wins[best[0]] += 1
        expected = [
            (bid, wins[bid], math.fsum(ratios[bid]) / len(ratios[bid]) if ratios[bid] else math.nan)
            for bid in wins
        ]
        rows = tightness_compare(cfg, ensemble)
        assert [(r.bound_id, r.wins) for r in rows] == [e[:2] for e in expected]
        for r, e in zip(rows, expected):
            assert r.mean_ratio == e[2] or (math.isnan(r.mean_ratio) and math.isnan(e[2]))

    def test_unknown_ensemble(self):
        for instances in (4, 0):
            with pytest.raises(ValueError):
                tightness_compare(small_cfg(instances=instances), "bogus")


class TestTaskSplit:
    """No fuzz or compare output depends on how the instances are split into tasks or workers."""

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_outputs_byte_identical(self, mode, monkeypatch):
        cfg = FuzzConfig(master_seed=41, instances=300, field_mode=mode, disk_sampler=HEAVY, tolerance=1e-9)
        outputs = set()
        for size in (64, 256, 4096):
            monkeypatch.setattr(harness, "_task_size", lambda cfg, workers, size=size: size)
            for workers in (1, 2):
                text = json.dumps(fuzz(cfg, workers).as_dict(), sort_keys=True)
                outputs.add((text, *(repr(tightness_compare(cfg, e, workers)) for e in harness.ENSEMBLES)))
        assert len(outputs) == 1


class TestConfigValidation:
    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            FuzzConfig(n_range=(0, 3))
        with pytest.raises(ValueError):
            FuzzConfig(d_range=(5, 2))
        with pytest.raises(ValueError, match="instances"):
            FuzzConfig(instances=-1)
        with pytest.raises(ValueError, match="field_mode"):
            FuzzConfig(field_mode="quaternion")

    def test_bad_p_values(self):
        for p in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="exceed 1"):
                FuzzConfig(p_values=(p,))

    def test_bad_tolerance(self):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                FuzzConfig(tolerance=tol)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            DiskSampler(boundary_fraction=1.5)

    def test_bad_scale(self):
        for scale in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                DiskSampler(scale=scale)

    def test_scaled_ends_beyond_double_range(self):
        # a valid scale whose scaled unit ends overflow: the draw raises, as a Disk does
        cfg = FuzzConfig(instances=64, disk_sampler=DiskSampler(scale=1e308))
        with pytest.raises(ValueError, match="must be finite"):
            fuzz(cfg)
