"""Samplers, check_all dispatch, fuzz aggregation, tightness comparison."""

import collections
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sample_families,
    sample_family,
    sample_orthonormal_family,
    tightness_compare,
)
from besselkit.classical import classical_weights_batch, pecaric_batch
from besselkit.cli import family_payload, main
from besselkit.core import BoundStats, Stats
from besselkit.harness import BOUNDS, DEFAULT_P_VALUES, Bound
from besselkit.report import BatchReport, reports_of, verdict
from besselkit.sharp import orthonormal_batch

HEAVY = DiskSampler(boundary_fraction=0.9, extremal_fraction=0.5)
# finite Theorem 2.1 sides whose squares, which compete in tightness, leave the double range
SQUARES_OVERFLOW = FuzzConfig(master_seed=2, instances=64, field_mode="real", disk_sampler=DiskSampler(scale=1e153))


def small_cfg(**kw):
    base = dict(master_seed=123, instances=200, n_range=(1, 6), d_range=(1, 5))
    base.update(kw)
    return FuzzConfig(**base)


def stack_of(families):
    """``Stats.stack`` of families of one size, one part per run of equal dimension."""
    runs = [list(run) for _, run in groupby(families, key=lambda f: f.dim)]
    return Stats.stack([(np.array([f.x for f in run]), np.array([f.ys for f in run])) for run in runs])


def fuzz_entries():
    """The entries ``fuzz`` evaluates: ``BOUNDS`` as it is when called (a test may patch it), then the classical
    Pečarić entry."""
    return (*harness.BOUNDS, harness._CLASSICAL)


COMPETING = tuple(b for b in BOUNDS if b.competes)


def tables(cfg, names, entries, start=0, stop=None):
    """The draws ``harness._tables`` yields for the instances ``start`` to ``stop - 1`` (all by default), one task."""
    return harness._tables(harness.Task(cfg, start, cfg.instances if stop is None else stop), names, entries)


def bits(*values):
    """The bytes of ``values`` as doubles, so that NaNs and signed zeros compare too."""
    return np.array(values, dtype=float).tobytes()


@pytest.fixture
def built(monkeypatch):
    """The stacks ``Stats.stack`` builds from here on, in order, as ``(n, families, arrays, freed)``: their size,
    their number of families, weak references to the arrays of their parts, and whether every array of the
    stacks built before was freed by the time this one was built."""
    records, stack = [], Stats.stack.__func__

    def recording(cls, parts):
        freed = all(ref() is None for *_, refs, _ in records for ref in refs)
        s = stack(cls, parts)
        records.append((s.n, s.shape[0], [weakref.ref(a) for part in parts for a in part], freed))
        return s

    monkeypatch.setattr(Stats, "stack", classmethod(recording))
    return records


def winners(ids, rhs, ok):
    """The winner of each column of a table, family by family: the competing bound of least ``rhs ** competes``
    among its rows ``ids`` that apply, the earlier on a tie; a NaN never wins.  None where none applies."""
    won = []
    for b in range(rhs.shape[1]):
        best = None
        for bound in COMPETING:
            k = ids.index(bound.ids[0]) if bound.ids[0] in ids else None
            val = None if k is None or not ok[k, b] else math.prod([float(rhs[k, b])] * bound.competes)
            if val is not None and not math.isnan(val) and (best is None or val < best[1]):
                best = bound.ids[0], val
        won.append(best and best[0])
    return won


def reference(cfg, ensembles=("generic", "disk")):
    """The fuzz summary of ``cfg`` (as ``FuzzSummary.as_dict()``, the ensembles of ``fuzz`` among ``ensembles``) and
    the compare rows of each of ``ensembles``, reduced by hand from each ensemble's own tables, drawn with
    ``fuzz``'s entries in one task of all instances; and each ensemble's number of draws."""
    counts = {name: collections.Counter() for name in ("checked", "tight", "tightness_wins")}
    violations, least, rows, draws = [], {}, {}, {}
    for ensemble in ensembles:
        wins, ratios, draws[ensemble] = collections.Counter(), {b.ids[0]: [] for b in COMPETING}, 0
        fuzzed = ensemble in ("generic", "disk")
        for _, indices, (ids, lhs, rhs, ok) in tables(cfg, (ensemble,), fuzz_entries()):
            draws[ensemble] += 1
            won = [bid for bid in winners(ids, rhs, ok) if bid]
            wins.update(won)
            rel, violated, tight = verdict(lhs, rhs, cfg.tolerance)
            for bid, num, den, use, slack, bad, close in zip(ids, lhs, rhs, ok, rel, violated, tight):
                if bid in ratios:
                    ratios[bid] += (num[use & (den > 0.0)] / den[use & (den > 0.0)]).tolist()
                if fuzzed:
                    counts["checked"][bid] += int(use.sum())
                    counts["tight"][bid] += int((use & close).sum())
                    slack_seen = slack[use & ~np.isnan(slack)]
                    if slack_seen.size:
                        least[bid] = min(least.get(bid, math.inf), float(slack_seen.min()))
                    for i, s in zip(indices[use & bad].tolist(), slack[use & bad].tolist()):
                        violations.append({"bound_id": bid, "sampler": ensemble, "instance_seed": i, "slack": s})
            if fuzzed:
                counts["tightness_wins"].update(won)
        rows[ensemble] = [
            harness.TightnessRow(bid, wins[bid], math.fsum(ratios[bid]) / len(ratios[bid]) if ratios[bid] else math.nan)
            for bid in ratios
        ]
    violations.sort(key=lambda v: (v["instance_seed"], v["sampler"], v["bound_id"]))  # stable: rows in order
    summary = {name: {k: v for k, v in c.items() if v} for name, c in counts.items()}
    summary.update(config=dataclasses.asdict(cfg), violations=violations, min_slack=least)
    return summary, rows, draws


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

    def test_integer_index(self):
        # a uint64 cast would truncate 1.5, and True is an int, to instance 1
        cfg = small_cfg(instances=5)
        for sampler in (sample_family, sample_disk_family, sample_orthonormal_family):
            for index in (1.5, True, np.True_, np.float64(1.0)):
                with pytest.raises(ValueError, match="not an integer"):
                    sampler(cfg, index)
        assert sample_family(cfg, np.int64(1)).x.tobytes() == sample_family(cfg, 1).x.tobytes()

    def test_collision_check_large(self):
        cfg = small_cfg(instances=10_000)
        seen = {f.x.tobytes() for f, _ in sample_families(cfg, "generic", range(0, 10_000, 10))}
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


ONE_INSTANCE = {
    "generic": lambda cfg, i: (sample_family(cfg, i), None),
    "disk": sample_disk_family,
    "orthonormal": sample_orthonormal_family,
}


class TestSampleFamilies:
    """``sample_families`` gives each index the bits the one-instance samplers give it, in the order given."""

    @staticmethod
    def check(cfg, ensemble, indices):
        batch = sample_families(cfg, ensemble, indices)
        assert len(batch) == len(indices)
        for i, (f, d) in zip(indices, batch):
            ref, ref_d = ONE_INSTANCE[ensemble](cfg, i)
            assert (f.x.tobytes(), f.ys.shape, f.ys.tobytes()) == (ref.x.tobytes(), ref.ys.shape, ref.ys.tobytes())
            assert f.field_mode == cfg.field_mode
            assert (d is None and ref_d is None) or (d.gamma, d.Gamma) == (ref_d.gamma, ref_d.Gamma)
        return batch

    @pytest.mark.parametrize("sampler", [DiskSampler(), HEAVY], ids=["default", "heavy"])
    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_unsorted_and_repeated(self, ensemble, mode, sampler):
        cfg = FuzzConfig(master_seed=29, instances=300, field_mode=mode, disk_sampler=sampler)
        indices = [299, 5, 44, 5, 0, 0, *range(298, 43, -3), 44]
        batch = self.check(cfg, ensemble, indices)
        # a repeated index gives equal families that share no memory
        assert batch[1][0].x is not batch[3][0].x and not np.shares_memory(batch[1][0].ys, batch[3][0].ys)
        if ensemble == "disk" and mode == "complex" and sampler is HEAVY:
            # the equality-case branch ran
            lane, draw, _ = harness.ENSEMBLES["disk"]
            assert draw(cfg, lane, np.array(indices, dtype=np.uint64)).zs is not None

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_several_draws(self, ensemble):
        # families of about 12k Gram entries: the batch draws their vectors a few families at a time
        cfg = FuzzConfig(master_seed=37, instances=14, n_range=(90, 130), d_range=(90, 130), disk_sampler=HEAVY)
        batch = self.check(cfg, ensemble, [13, *range(13)])
        assert sum(f.n * max(f.n, 130) for f, _ in batch) > 2 * harness._DRAW_ENTRIES

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_largest_indices(self, ensemble):
        # an index is two counter words: the indices around the first word's end, and the last
        self.check(FuzzConfig(master_seed=41, instances=2**64), ensemble, [2**64 - 1, 2**32, 2**32 - 1])

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_none_and_one(self, ensemble):
        cfg = small_cfg(instances=5)
        assert sample_families(cfg, ensemble, []) == []
        self.check(cfg, ensemble, [np.int64(4)])

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_indices_checked_before_drawing(self, ensemble, monkeypatch):
        cfg = small_cfg(instances=5)

        def words(*args):
            raise AssertionError("drew before checking every index")

        monkeypatch.setattr(harness, "_words", words)
        for bad, message in (
            (5, "index 5 out of range for 5 instances"),
            (-1, "index -1 out of range"),
            (1.5, "index: 1.5 is not an integer"),
            (True, "not an integer"),
        ):
            with pytest.raises(ValueError, match=message):
                sample_families(cfg, ensemble, [0, 1, bad, 2])

    def test_unknown_ensemble(self):
        cfg = small_cfg(instances=4)
        with pytest.raises(ValueError) as compared:
            tightness_compare(cfg, "bogus")
        for indices in ([], [0], [9]):
            with pytest.raises(ValueError) as sampled:
                sample_families(cfg, "bogus", indices)
            assert str(sampled.value) == str(compared.value) == "unknown ensemble 'bogus'"

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_no_cache(self, ensemble):
        # a call's result depends on its arguments alone: changing a family given earlier changes no later one
        cfg = small_cfg(instances=50)
        first = sample_families(cfg, ensemble, range(50))
        for f, _ in first:
            f.x[...] = 0.0
        second = sample_families(cfg, ensemble, range(50))
        assert all(f.x.any() and not np.shares_memory(f.x, g.x) for (f, _), (g, _) in zip(second, first))
        self.check(cfg, ensemble, list(range(50)))

    @pytest.mark.parametrize("ensemble", ["disk", "orthonormal"])
    def test_beyond_the_double_range(self, ensemble, monkeypatch):
        # entries beyond the double range raise the one-instance sampler's ValueError for the first such
        # index given, and no RuntimeWarning (which the test configuration makes an error)
        cfg = FuzzConfig(instances=64, disk_sampler=DiskSampler(scale=1e308))
        bad = []
        for i in range(64):
            try:
                ONE_INSTANCE[ensemble](cfg, i)
            except ValueError as exc:
                bad.append((i, str(exc)))
        assert bad
        good = [i for i in range(64) if i not in dict(bad)]
        self.check(cfg, ensemble, good)
        built = []

        class Counted(Family):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(harness, "Family", Counted)
        first, message = bad[-1]
        indices = good[:5] + [first] + good[5:] + [i for i, _ in bad]
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_families(cfg, ensemble, indices)
        assert len(built) == 6  # the families given before the first bad index, and its own


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

    def test_stack_without_orthonormal_family_gets_both_reports(self):
        # no family fits (n > dim), and families that fit but are not orthonormal: both reports all the
        # same, none met and none reported, so a draw's stacks give the same rows
        for ys in ([[1.0], [2.0]], [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]):
            s = stack_of([Family([1.0] * len(ys[0]), ys), Family([0.5] * len(ys[0]), ys)])
            reports = s.bind(ends=(np.ones(2), np.full(2, 2.0))).evaluate(orthonormal_batch)
            assert [r.bound_id for r in reports] == ["orthonormal30", "orthonormal31"]
            assert [r.ok.tolist() for r in reports] == [[False, False]] * 2
            assert reports_of(reports, 0) == reports_of(reports, 1) == []

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
            choices = classical_weights_batch(fam.stats)
            batch = reports_of(fam.stats.bind(weights=choices).evaluate(pecaric_batch))
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
        choices = classical_weights_batch(fam.stats)
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

    @staticmethod
    def sample_all(cfg):
        for i in range(cfg.instances):
            try:
                sample_disk_family(cfg, i)
            except ValueError as exc:  # an entry beyond the double range
                assert "must be finite" in str(exc)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: tightness_compare(FuzzConfig(instances=64, disk_sampler=DiskSampler(scale=1e160)), "disk"),
            lambda: tightness_compare(FuzzConfig(instances=64, disk_sampler=DiskSampler(scale=1e160)), "orthonormal"),
            lambda: fuzz(FuzzConfig(instances=256, disk_sampler=DiskSampler(scale=1e306))),
            lambda: TestFuzz.sample_all(FuzzConfig(instances=64, disk_sampler=DiskSampler(scale=1e308))),
            lambda: fuzz(SQUARES_OVERFLOW),
            lambda: tightness_compare(SQUARES_OVERFLOW, "disk"),
        ],
        ids=[
            "compare-disk-1e160",
            "compare-orthonormal-1e160",
            "fuzz-1e306",
            "sample-disk-1e308",
            "fuzz-real-1e153",
            "compare-disk-real-1e153",
        ],
    )
    def test_no_numpy_warnings_beyond_double_range(self, run):
        # draws, stacks and ratios beyond the double range are inf or NaN, never a
        # RuntimeWarning, which the test configuration turns into an error
        run()


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


class TestFuzzViolations:
    def test_violations_recorded_in_order(self, planted):
        cfg = small_cfg(instances=300)  # stacked by family size, so violations arrive out of index order
        expected = []
        disk, generic = (sample_families(cfg, name, range(cfg.instances)) for name in ("disk", "generic"))
        for i in range(cfg.instances):
            for sampler, (f, _) in (("disk", disk[i]), ("generic", generic[i])):
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
            drawn = sample_families(cfg, "disk" if disk else "generic", range(256))
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
                batch += s.evaluate(harness._CLASSICAL.formula)
                for b, k in enumerate(members):
                    f, d = drawn[k]
                    stacked = [r.as_dict() for r in reports_of(batch, b)]
                    # the family alone, also with a strided x
                    for x in (f.x, np.repeat(f.x, 2)[::2]):
                        alone = check_all(Family(x, f.ys, mode), d, weights[k], DEFAULT_P_VALUES, cfg.tolerance)
                        classical = f.stats.bind(weights=classical_weights_batch(f.stats))
                        alone += reports_of(classical.evaluate(pecaric_batch))
                        assert stacked == [r.as_dict() for r in alone]


_M32 = 0xFFFFFFFF


def philox_reference(counter, key):
    """Philox4x32-10 on Python ints, as Random123 states it."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + 0x9E3779B9) & _M32, (k1 + 0xBB67AE85) & _M32
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _M32, (p0 >> 32) ^ c3 ^ k1, p0 & _M32
    return [c0, c1, c2, c3]


def reference_words(seed, lane, index, block, count):
    """The words of ``harness._words`` for one instance, on Python ints."""
    seed &= 2**64 - 1
    words = []
    while len(words) < count:
        words += philox_reference((block, lane, index & _M32, index >> 32), (seed & _M32, seed >> 32))
        block += 1
    return words[:count]


class TestSeedStreams:
    """The streams are Philox4x32-10 counters, and a task's words are each instance's words alone."""

    # Random123's philox4x32_10 known-answer vectors: counter, key, output
    KNOWN_ANSWERS = [
        ((0, 0, 0, 0), (0, 0), [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]),
        ((_M32,) * 4, (_M32,) * 2, [0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1],
        ),
    ]
    INDICES = (0, 2**32 - 1, 2**32, 2**64 - 1)
    # the first four words (block 0 of lane 0) of instances INDICES of master seeds 0 and 2**64 - 1
    FIRST_WORDS = {
        0: [
            [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8],
            [0x7BFA44E7, 0x273D2ED9, 0xFE4D95C5, 0xB919770A],
            [0x2DCE73E5, 0x1348E23F, 0xFCF8E0EC, 0xA287AADB],
            [0xD68421A3, 0x81D075E2, 0x3B221E4F, 0x53175065],
        ],
        2**64 - 1: [
            [0x72A47709, 0x15474739, 0x9F41B01F, 0x22799A5A],
            [0x254A02F9, 0x9BD9D7F4, 0x77D0ED97, 0xF6965A8B],
            [0x3CB754D5, 0x34111BE3, 0x0274D162, 0xCBF6076B],
            [0x3D3BE307, 0x716983D6, 0x70094BED, 0x36C3CF91],
        ],
    }

    def test_known_answers(self):
        for counter, key, out in self.KNOWN_ANSWERS:
            keys = harness._round_keys(key[0] | key[1] << 32)
            a, b = harness._philox(np.array(counter, dtype=np.uint32)[:, None], keys)
            assert [int(a[0, 0]), int(b[0, 0]), int(a[1, 0]), int(b[1, 0])] == out
            assert philox_reference(counter, key) == out

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1])
    def test_first_words(self, seed):
        # all four indices in one call, across the 2**32 and 2**64 edges of the index words
        cfg = FuzzConfig(master_seed=seed, instances=2**64)
        (words,) = harness._words(cfg, 0, np.array(self.INDICES, dtype=np.uint64), (0, 4))
        assert words.dtype == np.uint64
        assert words.reshape(4, 4).tolist() == self.FIRST_WORDS[seed & (2**64 - 1)]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 20050808])
    def test_first_draws_equal_numpy(self, seed):
        # under the installed numpy, every region's words equal the reference on Python ints,
        # so they do not depend on numpy's promotion rules for uint64
        cfg = FuzzConfig(master_seed=seed, instances=2**64)
        indices = [0, 255, 256, 10**6, 2**32 - 1, 2**32, 2**64 - 1]
        # ten words a stream and one more for each next stream, so that blocks are cut off,
        # of three regions drawn together
        counts = np.arange(10, 10 + len(indices))
        regions = [(harness._HEAD, counts), (harness._ENDS + 3, 5), (harness._VECTORS, counts)]
        for lane in (0, 1, 4):
            drawn = harness._words(cfg, lane, np.array(indices, dtype=np.uint64), *regions)
            for words, (block, count) in zip(drawn, regions):
                count = np.broadcast_to(count, len(indices))
                expected = [reference_words(seed, lane, i, block, int(k)) for i, k in zip(indices, count)]
                assert words.tolist() == [w for ws in expected for w in ws]

    def test_rejected_rows_are_drawn_again(self):
        # rows whose tries are all rejected take their next tries, from the next blocks of the
        # region, until one is taken; accepted rows keep their first
        cfg = FuzzConfig(master_seed=5, instances=10)
        index, d = np.arange(3, dtype=np.uint64), 2

        def tries(k, rows):
            (words,) = harness._words(cfg, 1, index[rows], (harness._X + k * d, 4))
            return harness._fields(words, [(len(rows), ((d,),))], "complex")[0][0]

        first = tries(0, [0, 1, 2])[:, None]
        first[1] = 0.0
        calls = []

        def accept(rows, t):  # nonzero, and row 1's second try is rejected too
            calls.append(rows.tolist())
            return t.any(axis=2) & ((rows != 1) | (len(calls) > 2))[:, None]

        x = harness._accepted(cfg, 1, index, harness._X, d, first, accept)
        assert calls == [[0, 1, 2], [1], [1]]
        assert x.tobytes() == np.stack([first[0, 0], tries(2, [1])[0], first[2, 0]]).tobytes()

    def test_whole_chunk(self):
        cfg = FuzzConfig(master_seed=7, instances=600)
        index = np.arange(256, 512, dtype=np.uint64)
        for lane in (0, 1, 4):
            (chunk,) = harness._words(cfg, lane, index, (harness._VECTORS, 9))
            alone = [harness._words(cfg, lane, index[k : k + 1], (harness._VECTORS, 9))[0] for k in range(256)]
            assert chunk.tobytes() == np.concatenate(alone).tobytes()


class TestChunkMatchesSamplers:
    """Every column of a draw's table holds the reports the public samplers' families give alone."""

    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize("sampler", [DiskSampler(), HEAVY, DiskSampler(scale=2**-40)])
    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_stacks(self, ensemble, sampler, mode):
        cfg = FuzzConfig(master_seed=29, instances=300, field_mode=mode, disk_sampler=sampler)
        self.check(cfg, ensemble, 44, 300)
        # n = 40 alone: its one size group spans several draws, sorted by dimension across them
        one_size = FuzzConfig(master_seed=29, instances=300, n_range=(40, 40), field_mode=mode, disk_sampler=sampler)
        assert len(self.check(one_size, ensemble, 0, 300)) > 1
        if ensemble == "disk" and mode == "complex" and sampler is HEAVY:
            # the equality-case branch ran
            lane, draw, _ = harness.ENSEMBLES["disk"]
            assert draw(cfg, lane, np.arange(44, 300, dtype=np.uint64)).zs is not None

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_long_rows(self, ensemble):
        # 20 to 24 vectors in dimension 24 to 30: complex rows of 1008 to 1548 normals
        cfg = FuzzConfig(master_seed=31, instances=24, n_range=(20, 24), d_range=(24, 30), disk_sampler=HEAVY)
        self.check(cfg, ensemble, 0, 24)

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_draw_batches(self, ensemble):
        # families of about 12k Gram entries: a task draws their vectors a few families at a time
        cfg = FuzzConfig(master_seed=37, instances=14, n_range=(90, 130), d_range=(90, 130), disk_sampler=HEAVY)
        sizes = [sample_family(cfg, i).n for i in range(cfg.instances)]
        assert sum(n * max(n, 130) for n in sizes) > 2 * harness._DRAW_ENTRIES
        self.check(cfg, ensemble, 0, 14)

    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_one_stack_per_size(self, ensemble, built):
        # 1024 families at the default sizes fit in one draw, which makes one stack per size, its columns in
        # stack order
        cfg = FuzzConfig(master_seed=43, instances=1024)
        lane, draw, _ = harness.ENSEMBLES[ensemble]
        n = draw(cfg, lane, np.arange(1024, dtype=np.uint64)).n
        assert (n * np.maximum(n, 8)).sum() <= harness._DRAW_ENTRIES
        ((_, indices, _),) = tables(cfg, (ensemble,), BOUNDS)
        sizes = np.unique(n).tolist()
        assert [size for size, *_ in built] == sizes
        stacks = np.split(indices, np.cumsum([rows for _, rows, *_ in built])[:-1])
        assert [set(stack.tolist()) for stack in stacks] == [set(np.flatnonzero(n == size).tolist()) for size in sizes]

    @staticmethod
    def check(cfg, ensemble, start, stop):
        """Compares each column of the tables of instances ``start`` to ``stop - 1`` with the reports that
        ``check_all`` and the classical entry give the public sampler's family alone, with the weights of its
        own stream; returns the draws' instance indices."""
        seen = []
        for samplers, indices, (ids, lhs, rhs, ok) in tables(cfg, (ensemble,), fuzz_entries(), start, stop):
            assert samplers.tolist() == [ensemble] * len(indices)
            indices = indices.tolist()
            for b, (i, (f, d)) in enumerate(zip(indices, sample_families(cfg, ensemble, indices))):
                c = TestChunkMatchesSamplers.own_weights(cfg, ensemble, i, f)
                alone = check_all(f, d, c, cfg.p_values, cfg.tolerance)
                alone += reports_of(harness._CLASSICAL.formula(f.stats.bind()))
                alone = [r for r in alone if r.preconditions_met]
                use = ok[:, b]
                assert [ids[k] for k in np.flatnonzero(use)] == [r.bound_id for r in alone]
                assert bits(lhs[use, b], rhs[use, b]) == bits([r.lhs for r in alone], [r.rhs for r in alone])
            seen.append(indices)
        assert sorted(sum(seen, [])) == list(range(start, stop))
        return seen

    @staticmethod
    def own_weights(cfg, ensemble, i, f):
        """The weights (n,) of instance ``i``, whose family is ``f``, read from its own stream alone: the last
        n field entries of its vector region, after its x (generic) and the n d entries of its test vectors
        or free components; None in the orthonormal ensemble, which draws none."""
        if ensemble == "orthonormal":
            return None
        shapes = ((f.n * f.dim + f.dim * (ensemble == "generic"),), (f.n,))
        region = (harness._VECTORS, harness._count(cfg, shapes))
        (words,) = harness._words(cfg, harness.ENSEMBLES[ensemble][0], np.array([i], dtype=np.uint64), region)
        return harness._fields(words, [(1, shapes)], cfg.field_mode)[0][1][0]


class TestDrawHoldsWhatIsRead:
    """A draw holds the weights only when an evaluated entry needs them, and leaving them out moves no other bit."""

    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize("ensemble", ["generic", "disk", "orthonormal"])
    def test_compare_draws_no_weights(self, ensemble, mode, monkeypatch):
        # the words drawn from the vector regions: with the weights, the last n entries of a generic or disk row
        words, drawn = harness._words, []

        def counting(cfg, lane, index, *regions):
            counts = [np.broadcast_to(c, len(index)).sum() for block, c in regions if block == harness._VECTORS]
            drawn.extend(map(int, counts))
            return words(cfg, lane, index, *regions)

        monkeypatch.setattr(harness, "_words", counting)
        # default sizes in one draw, and n = 40 alone, a size group that spans several draws
        for n_range in ((1, 12), (40, 40)):
            cfg = FuzzConfig(master_seed=71, instances=300, n_range=n_range, field_mode=mode, disk_sampler=HEAVY)
            drawn.clear()
            families = sample_families(cfg, ensemble, range(cfg.instances))  # a public sampler draws none either
            vectors = {
                "generic": lambda f: f.dim + f.n * f.dim,
                "disk": lambda f: f.n * f.dim,
                "orthonormal": lambda f: f.dim * f.n + f.dim * (f.dim > f.n),
            }[ensemble]
            per_entry = 2 if mode == "complex" else 1
            without = per_entry * sum(vectors(f) for f, _ in families)
            assert sum(drawn) == without
            drawn.clear()
            compared = list(tables(cfg, (ensemble,), COMPETING))
            assert sum(drawn) == without
            drawn.clear()
            fuzzed = list(tables(cfg, (ensemble,), BOUNDS))
            assert sum(drawn) == without + per_entry * sum(f.n for f, _ in families) * (ensemble != "orthonormal")
            # the competing rows of a compare draw have the bits of the same rows of a fuzz draw
            assert len(compared) == len(fuzzed)
            for (_, at, (ids, *sides)), (_, ref_at, (ref_ids, *ref_sides)) in zip(compared, fuzzed):
                assert at.tobytes() == ref_at.tobytes()
                rows = [ref_ids.index(i) for i in ids]
                assert [a.tobytes() for a in sides] == [a[rows].tobytes() for a in ref_sides]


class TestFieldFormat:
    """``_fields`` reads each array from its own run of a row: a word a real entry, two a complex one."""

    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize(
        "shapes",
        [((2,),), ((3,), (4, 3), (4,)), ((1,), (1, 1)), ((30, 24), (30,)), ((26,), (40, 26), (40,))],
    )
    def test_runs_of_normals(self, shapes, mode):
        per_entry = 1 if mode == "real" else 2
        words = np.random.default_rng(17).integers(
            0, 2**32, (5, per_entry * sum(math.prod(s) for s in shapes)), dtype=np.uint64
        )
        words[0, :2] = (0, 2**32 - 1)  # the ends of [-1, 1)
        v = (words.astype(float) - 2**31) / 2**31  # uniform dyadic values, exact
        assert v[0, 0] == -1.0 and v[0, 1] == 1.0 - 2.0**-31
        a = 0  # the entry the array starts at
        for z, shape in zip(harness._fields(words, [(len(words), shapes)], mode)[0], shapes):
            m = math.prod(shape)
            if mode == "real":
                ref = v[:, a : a + m].astype(complex)
            else:  # pairs of a real and an imaginary part
                ref = v[:, 2 * a : 2 * a + 2 * m : 2] + 1j * v[:, 2 * a + 1 : 2 * a + 2 * m : 2]
            ref = ref.reshape(len(v), *shape)
            assert (z.dtype, z.shape, z.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
            a += m
        assert per_entry * a == v.shape[1]

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_runs_decoded_in_one_pass(self, mode):
        # a region of several runs, as a draw holds them: each run's arrays have the bits of that run
        # decoded alone, and a run of one array is a view of the region's decoded entries
        runs = [(3, ((2,), (4, 2), (4,))), (1, ((5,),)), (4, ((1,), (1, 1))), (2, ((6, 3),))]
        counts = [k * harness._count(FuzzConfig(field_mode=mode), shapes) for k, shapes in runs]
        words = np.random.default_rng(19).integers(0, 2**32, sum(counts), dtype=np.uint64)
        region = harness._fields(words, runs, mode)
        assert len(region) == len(runs)
        for arrays, run, part in zip(region, runs, np.split(words, np.cumsum(counts)[:-1])):
            alone = harness._fields(part.reshape(run[0], -1), [run], mode)[0]
            assert [(z.shape, z.tobytes()) for z in arrays] == [(z.shape, z.tobytes()) for z in alone]
            assert all(z.flags.c_contiguous for z in arrays)
        assert not region[1][0].flags.owndata and not region[3][0].flags.owndata


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
        competing = [b for b in BOUNDS if b.competes]
        wins = {b.ids[0]: 0 for b in competing}
        ratios = {b.ids[0]: [] for b in competing}  # in index order
        for f, d in sample_families(cfg, ensemble, range(cfg.instances)):
            reports = {r.bound_id: r for r in check_all(f, d, p_values=()) if r.preconditions_met}
            best = None
            for b in competing:
                r = reports.get(b.ids[0])
                if r is None:
                    continue
                val = math.prod([r.rhs] * b.competes)  # squared as an IEEE product, as _winners squares
                if best is None or val < best[1]:
                    best = (b.ids[0], val)
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

    def test_nan_side_never_wins(self, monkeypatch):
        # a side beyond the double range is NaN: it takes no win, neither first nor by displacing a number;
        # numbers and ties keep their table priority.  One draw of three families, whose table is given.
        rhs = np.array([[math.nan, 1.0, math.nan], [2.0, 1.0, math.nan]])
        table = ("boas_bellman", "bombieri"), np.ones(rhs.shape), rhs, np.ones(rhs.shape, dtype=bool)

        def drawn(task, names, entries):
            yield np.array(names[:1] * 3, dtype=object), np.arange(3, dtype=np.uint64), table

        monkeypatch.setattr(harness, "_tables", drawn)
        cfg = small_cfg(instances=3)
        assert fuzz(cfg).tightness_wins == {"boas_bellman": 1, "bombieri": 1}
        rows = [(r.bound_id, r.wins) for r in tightness_compare(cfg, "generic")]
        assert rows == [("boas_bellman", 1), ("bombieri", 1), ("dragomir03", 0), ("theorem21", 0), ("theorem22", 0)]

    def test_unknown_ensemble(self):
        for instances in (4, 0):
            with pytest.raises(ValueError):
                tightness_compare(small_cfg(instances=instances), "bogus")


class _InProcess:
    """A stand-in for the kept pool's executor: runs the tasks it is given in this process, in order, and counts
    them."""

    def __init__(self):
        self.tasks = 0

    def map(self, fn, tasks):
        for task in tasks:
            self.tasks += 1
            yield fn(task)

    def shutdown(self, wait=True):
        pass


@contextlib.contextmanager
def split(draw=True):
    """The tasks that ``fuzz`` and ``tightness_compare`` run in this block, in order, as ``_tables`` is called for
    each; without ``draw``, a task draws nothing.  A pool's tasks run in this process (``_InProcess`` stands in for
    its executor), so that no process starts and every task is seen."""
    tasks, drawn = [], harness._tables

    def recording(task, names, entries):
        tasks.append(task)
        return drawn(task, names, entries) if draw else iter(())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", lambda workers, initializer=None: _InProcess())
        mp.setattr(harness, "_pool", None)
        mp.setattr(harness, "_tables", recording)
        yield tasks


class TestTaskSplit:
    """No fuzz or compare output depends on how the instances are split into tasks or workers."""

    # n_range: the tasks of a call on 300 instances at workers 1, 2, 3 and 13
    SPLITS = {
        (1, 12): [1, 2, 3, 24],  # by size, then by size and index (chunks of 256 and 44)
        (5, 5): [1, 2, 2, 2],  # one size: by index alone
        (3, 4): [1, 2, 4, 4],  # two sizes: by size, then by both
        (60, 64): [3, 6, 9, 15],  # chunks of 144, the entries cap
    }

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_outputs_byte_identical(self, mode):
        # split by size alone, by index alone (one size), and by both; at tolerance 0.05, a draw whose stacks
        # detect orthonormal families in one size and none in the others
        configs = [
            FuzzConfig(
                master_seed=41, instances=300, n_range=n_range, field_mode=mode, disk_sampler=HEAVY, tolerance=1e-9
            )
            for n_range in self.SPLITS
        ]
        mixed = FuzzConfig(master_seed=47, instances=300, field_mode=mode, disk_sampler=HEAVY, tolerance=0.05)
        assert fuzz(mixed).checked.get("orthonormal30")
        for cfg, counts in zip([*configs, mixed], [*self.SPLITS.values(), self.SPLITS[(1, 12)]]):
            outputs = set()
            for workers, count in zip((1, 2, 3, 13), counts):
                with split() as tasks:
                    text = json.dumps(fuzz(cfg, workers).as_dict(), sort_keys=True)
                    outputs.add((text, *(repr(tightness_compare(cfg, e, workers)) for e in harness.ENSEMBLES)))
                assert len(tasks) == 4 * count  # a fuzz call and three compare calls
            assert len(outputs) == 1, cfg

    def test_task_fits_its_entries_cap(self):
        # 256 families of 200 vectors in dimension 200 are no one task's worth, for one size or two
        for n_range in ((200, 200), (199, 200)):
            cfg = FuzzConfig(instances=256, n_range=n_range, d_range=(200, 200))
            for workers in (1, 2, 3):
                with split(draw=False) as tasks:
                    fuzz(cfg, workers)
                assert len(tasks) > 1
                assert all((t.stop - t.start) * 200 * 200 <= harness._TASK_ENTRIES for t in tasks)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n_range=st.tuples(st.integers(1, 20), st.integers(0, 6)).map(lambda r: (r[0], r[0] + r[1])),
        d_range=st.tuples(st.integers(1, 20), st.integers(0, 6)).map(lambda r: (r[0], r[0] + r[1])),
        instances=st.integers(0, 600),
        workers=st.integers(1, 4),
        lane=st.sampled_from([lane for lane, _, _ in harness.ENSEMBLES.values()]),
    )
    def test_tasks_partition_by_size(self, n_range, d_range, instances, workers, lane):
        # the tasks' kept rows are range(instances), each once, and each size of an index chunk is in one task
        cfg = FuzzConfig(master_seed=53, instances=instances, n_range=n_range, d_range=d_range)
        with split(draw=False) as tasks:
            fuzz(cfg, workers)
        kept, sizes = [], {}
        for task in tasks:
            index = task.index(lane)
            kept += index.tolist()
            n = set(harness._head(cfg, lane, index)[0].tolist())
            for other in sizes.setdefault((task.start, task.stop), []):
                assert not n & other
            sizes[(task.start, task.stop)].append(n)
        assert sorted(kept) == list(range(instances))

    def test_each_size_stacked_in_one_task(self, monkeypatch, built):
        # 512 default instances at workers=2: two tasks that stack disjoint sets of sizes, each size once, in
        # one stack that holds the families of that size of both samplers
        pool, draws, stacks = _InProcess(), harness._tables, []

        def labelling(*args):
            done = len(built)
            for draw in draws(*args):
                new, done = built[done:], len(built)
                columns = np.split(draw[0], np.cumsum([rows for _, rows, *_ in new])[:-1])
                # the task, the samplers and the size of each stack
                stacks.extend((pool.tasks, set(names), n) for (n, *_), names in zip(new, columns))
                yield draw

        monkeypatch.setattr(harness, "_tables", labelling)
        monkeypatch.setattr(harness, "_pool", (2, pool))
        fuzz(FuzzConfig(master_seed=59, instances=512), workers=2)
        assert pool.tasks == 2 and len(stacks) == len(built)
        sizes = [[n for t, _, n in stacks if t == task] for task in (1, 2)]
        assert sorted(sizes[0] + sizes[1]) == list(range(1, 13))
        assert not set(sizes[0]) & set(sizes[1])
        assert all(names == {"generic", "disk"} for _, names, _ in stacks)

    def test_one_instance_is_one_task(self):
        # a 1-instance call at workers=2 is one task, run in this process: no empty task goes to the pool
        cfg = FuzzConfig(master_seed=3, instances=1)
        with split() as tasks:
            assert fuzz(cfg, workers=2).as_dict() == fuzz(cfg, workers=1).as_dict()
            assert tightness_compare(cfg, "disk", workers=2) == tightness_compare(cfg, "disk", workers=1)
            assert harness._pool is None
        assert len(tasks) == 4

    def test_pool_sized_by_its_tasks(self, monkeypatch):
        # 600 default instances at workers=64 are 36 tasks: the pool is made for 36 workers, not 64, and kept
        # under that count for the compare call; an in-process stand-in replaces the executor, so that no
        # process starts
        import concurrent.futures

        sizes = []

        def executor(workers, initializer=None):
            sizes.append(workers)
            return _InProcess()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
        monkeypatch.setattr(harness, "_pool", None)
        cfg = FuzzConfig(master_seed=5, instances=600)
        assert fuzz(cfg, workers=64).as_dict() == fuzz(cfg, workers=1).as_dict()
        assert tightness_compare(cfg, "disk", workers=64) == tightness_compare(cfg, "disk", workers=1)
        assert sizes == [36] and harness._pool[0] == 36
        assert harness._pool[1].tasks == 72


class TestDrawReduction:
    """A draw's stacks are reduced together, with the outputs of reducing each ensemble alone."""

    def test_one_reduction_per_draw(self, monkeypatch):
        # 512 default instances of both samplers are one draw: one table per call, whose winners are counted once
        draws, count = harness._tables, collections.Counter()

        def counting(task, names, entries):
            for draw in draws(task, names, entries):
                count[names] += 1
                yield draw

        monkeypatch.setattr(harness, "_tables", counting)
        cfg = FuzzConfig(master_seed=61, instances=512)
        assert sum(fuzz(cfg, workers=1).tightness_wins.values()) == 2 * cfg.instances
        assert sum(r.wins for r in tightness_compare(cfg, "generic", workers=1)) == cfg.instances
        assert count == {("generic", "disk"): 1, ("generic",): 1}

    @pytest.mark.parametrize(
        "cfg,mixed",
        [
            (FuzzConfig(master_seed=89, instances=2100), True),
            # each family holds more than the cap alone: a draw of one row each
            (FuzzConfig(master_seed=89, instances=6, n_range=(280, 300)), False),
        ],
        ids=["default", "one-row"],
    )
    def test_draw_within_entries_cap(self, cfg, mixed):
        # a draw of the generic and the disk ensemble together holds at most _DRAW_ENTRIES Gram entries,
        # n * max(n, d_range[1]) a family, over both ensembles, or one row
        draws = []
        for samplers, indices, _ in tables(cfg, ("generic", "disk"), BOUNDS):
            names = set(samplers)
            n = np.concatenate([harness._head(cfg, harness.ENSEMBLES[e][0], indices[samplers == e])[0] for e in names])
            assert (n * np.maximum(n, cfg.d_range[1])).sum() <= harness._DRAW_ENTRIES or len(indices) == 1
            draws.append((len(indices), names))
        assert sum(rows for rows, _ in draws) == 2 * cfg.instances and len(draws) > 2
        assert any(len(names) == 2 for _, names in draws) == mixed  # draws that hold both ensembles

    @pytest.mark.parametrize("names", [("generic", "disk"), ("orthonormal",)])
    def test_runs_freed_with_their_stack(self, names, built):
        # a stack's arrays are freed by the time the next stack is built, and the last stack's once its draw's
        # table is yielded, before the tally
        cfg = FuzzConfig(master_seed=67, instances=512, disk_sampler=HEAVY)
        for _ in tables(cfg, names, fuzz_entries()):
            assert built and all(ref() is None for *_, refs, _ in built for ref in refs)
        assert len(built) > 1 and all(freed for *_, freed in built)

    def test_table_freed_before_the_next_draw(self, monkeypatch):
        # 2100 default instances of both samplers make several draws: a draw's table, once its reader drops it,
        # is freed before the next draw's words are drawn
        words, held, freed = harness._words, [], []

        def checking(*args):
            freed.append(all(ref() is None for ref in held))
            return words(*args)

        monkeypatch.setattr(harness, "_words", checking)
        cfg = FuzzConfig(master_seed=89, instances=2100)
        draws = 0
        for _, _, table in tables(cfg, ("generic", "disk"), fuzz_entries()):
            held, draws = [weakref.ref(a) for a in table[1:]], draws + 1
            del table
        assert draws > 2 and all(freed)

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_same_reports_on_every_stack(self, mode, monkeypatch):
        # every stack of an ensemble, and of the generic and disk ensembles drawn together as fuzz draws them,
        # gives the same rows, also where its draw detects orthonormal families in one stack and none in the
        # others, and where a stack of both holds one sampler's families alone (16 instances)
        evaluate, stacks = BoundStats.evaluate, []

        def recording(s, *formulas):
            reports = evaluate(s, *formulas)
            detected = {bool(r.ok.any()) for r in reports if r.bound_id == "orthonormal30"}
            stacks.append((tuple(r.bound_id for r in reports), s.shape[0], detected))
            return reports

        monkeypatch.setattr(BoundStats, "evaluate", recording)
        cases = {
            ("generic",): set(),
            ("disk",): {False, True},
            ("orthonormal",): {True},
            ("generic", "disk"): {False, True},
        }
        for instances in (1024, 16):
            cfg = FuzzConfig(master_seed=13, instances=instances, field_mode=mode, tolerance=0.05)
            for names, expected in cases.items():
                ids, detected, alone = set(), set(), set()
                for samplers, _, table in tables(cfg, names, fuzz_entries()):
                    ids.update([table[0]] + [stack_ids for stack_ids, *_ in stacks])
                    detected.update(*(found for *_, found in stacks))
                    alone.update(map(frozenset, np.split(samplers, np.cumsum([rows for _, rows, _ in stacks])[:-1])))
                    stacks.clear()
                assert len(ids) == 1, names
                if instances == 1024:
                    assert detected == expected
                elif len(names) == 2:
                    assert alone == {frozenset(["generic"]), frozenset(["disk"]), frozenset(names)}

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_joined_equals_per_stack(self, mode):
        # size groups that span several draws, and a draw whose stacks detect orthonormal families in one
        # size and none in the others; the reference reduces each ensemble's draws alone
        spanning = [
            FuzzConfig(master_seed=29, instances=300, n_range=(40, 40), field_mode=mode, disk_sampler=HEAVY),
            FuzzConfig(
                master_seed=37, instances=14, n_range=(90, 130), d_range=(90, 130), field_mode=mode, disk_sampler=HEAVY
            ),
        ]
        mixed = FuzzConfig(master_seed=13, instances=1024, field_mode=mode, tolerance=0.05)
        for cfg in [*spanning, mixed]:
            summary, rows, draws = reference(cfg, tuple(harness.ENSEMBLES))
            if cfg is mixed:
                detected = {}  # per size, whether any disk family of it is detected as orthonormal
                for f, _ in sample_families(cfg, "disk", range(cfg.instances)):
                    found = bool(f.n <= f.dim and f.stats.ortho_dev <= cfg.tolerance)
                    detected[f.n] = detected.get(f.n, False) or found
                assert draws["disk"] == 1 and set(detected.values()) == {False, True}
            else:
                assert draws["disk"] > 1
            text = json.dumps(summary, sort_keys=True, default=repr)
            assert json.dumps(fuzz(cfg).as_dict(), sort_keys=True, default=repr) == text
            for ensemble in harness.ENSEMBLES:
                assert repr(tightness_compare(cfg, ensemble)) == repr(rows[ensemble])

    def test_zero_x_draws_its_run_again(self, monkeypatch):
        # instance 5's first x is zeroed in its words: its run alone goes to ``_accepted``, and the tables
        # still hold the reports of the public sampler's family, whose x is drawn again too
        cfg, target = FuzzConfig(master_seed=67, instances=64), 5
        words, accepted, retried = harness._words, harness._accepted, []

        def zeroing(cfg, lane, index, *regions):
            drawn = words(cfg, lane, index, *regions)
            for w, (block, count) in zip(drawn, regions):
                if lane == 1 and block == harness._X:
                    count = np.broadcast_to(count, len(index))
                    starts = np.cumsum(count) - count
                    for row in np.flatnonzero(index == target).tolist():
                        w[starts[row] : starts[row] + count[row]] = 2**31  # the words of 0.0
            return drawn

        def recording(cfg, lane, index, block, *args):
            if block == harness._X:
                retried.append(index.tolist())
            return accepted(cfg, lane, index, block, *args)

        monkeypatch.setattr(harness, "_words", zeroing)
        monkeypatch.setattr(harness, "_accepted", recording)
        lane, draw, _ = harness.ENSEMBLES["disk"]
        raw = draw(cfg, lane, np.arange(64, dtype=np.uint64))
        run = np.flatnonzero((raw.n == raw.n[target]) & (raw.d == raw.d[target])).tolist()
        list(tables(cfg, ("disk",), BOUNDS))
        assert retried == [run]
        family, _ = sample_disk_family(cfg, target)
        assert np.any(family.x != 0)
        TestChunkMatchesSamplers.check(cfg, "disk", 0, 64)


class TestNoDisk:
    """A family without a disk, in a draw that binds disks, meets no disk entry."""

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_disk_entries_never_apply(self, mode):
        # every report of every disk entry has ok false on a generic family of a draw that holds disk families
        cfg = FuzzConfig(master_seed=17, instances=300, field_mode=mode)
        disk = [b for b in BOUNDS if b.needs == "disk"]
        disk_ids = [i for b in disk for i in b.ids]
        for samplers, _, (ids, _, _, ok) in tables(cfg, ("generic", "disk"), BOUNDS):
            rows = [k for k, i in enumerate(ids) if i in disk_ids]
            assert [ids[k] for k in rows] == disk_ids
            generic = samplers == "generic"
            assert generic.any() and not ok[rows][:, generic].any() and ok[rows][:, ~generic].any()
        # its end points (nan, nan) fail every disk entry's preconditions without a warning, also where
        # orthonormal_batch detects the family
        ends = np.full((2, 1), complex(math.nan, math.nan))
        for name in ("generic", "orthonormal"):
            families = [f for f, _ in sample_families(cfg, name, range(cfg.instances))]
            families.sort(key=lambda f: (f.n, f.dim))
            for _, group in groupby(families, key=lambda f: f.n):
                s = stack_of(list(group))
                assert name == "generic" or ((s.n <= s.dim) & (s.ortho_dev <= cfg.tolerance)).all()
                bound = s.bind(ends=ends.repeat(s.shape[0], 1), p_values=cfg.p_values, tol=cfg.tolerance)
                with warnings.catch_warnings(), np.errstate(all="warn"):
                    warnings.simplefilter("error")
                    reports = [r for b in disk for r in b.formula(bound)]
                assert len(reports) == len(disk_ids)
                assert not any(np.any(r.ok) for r in reports)


_INFLATED = ("selberg", "dragomir_pq", "theorem22")


def label(monkeypatch, factor):
    """Patch ``BOUNDS`` so that the entries ``_INFLATED`` inflate their lhs by ``factor`` on the families picked
    by a property of the family alone, ``floor(||x||^2 1e6) % 5 == 0``, not by their place in a stack."""

    def inflated(formula):
        def batch(s):
            picked = np.floor(s.xsq * 1e6) % 5 == 0
            return [r._replace(lhs=np.where(picked, factor * r.lhs, r.lhs)) for r in formula(s)]

        return batch

    entries = tuple(b._replace(formula=inflated(b.formula)) if b.ids[0] in _INFLATED else b for b in BOUNDS)
    monkeypatch.setattr(harness, "BOUNDS", entries)


class TestViolationLabels:
    """Each violation of a stack that holds both samplers' families names the sampler and instance of its family."""

    @pytest.mark.parametrize(
        "cfg,factor",
        [
            (FuzzConfig(master_seed=73, instances=600), 1.5),
            (FuzzConfig(master_seed=79, instances=600, field_mode="real", disk_sampler=HEAVY), 1.5),
            # several draws, cut inside size groups, so that a stack at a cut can hold one sampler's families
            # alone; the bounds are looser at these sizes
            (FuzzConfig(master_seed=83, instances=400, n_range=(20, 40), d_range=(10, 50), disk_sampler=HEAVY), 4.0),
        ],
    )
    def test_violations_match_each_sampler_alone(self, cfg, factor, monkeypatch):
        label(monkeypatch, factor)
        violations = reference(cfg)[0]["violations"]
        assert {v["sampler"] for v in violations} == {"generic", "disk"}
        assert {v["bound_id"] for v in violations} == set(_INFLATED)
        monkeypatch.setattr(harness, "_pool", (2, _InProcess()))
        for workers in (1, 2):
            assert fuzz(cfg, workers).violations == violations


class TestConfigValidation:
    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            FuzzConfig(n_range=(0, 3))
        with pytest.raises(ValueError):
            FuzzConfig(d_range=(5, 2))
        with pytest.raises(ValueError, match="instances"):
            FuzzConfig(instances=-1)
        # an index is two 32-bit counter words, a size one 32-bit word
        with pytest.raises(ValueError, match="instances"):
            FuzzConfig(instances=2**64 + 1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            FuzzConfig(d_range=(1, 2**32 + 1))
        FuzzConfig(instances=2**64, n_range=(1, 2**32))
        with pytest.raises(ValueError, match="field_mode"):
            FuzzConfig(field_mode="quaternion")
        # the seed, counts and sizes are integers: n 1.5 would fail in numpy, 3.0 instances in range, d 2.5
        # would run as a float size
        for kw, name in (
            ({"master_seed": 1.5}, "master_seed"),
            ({"n_range": (1.5, 3)}, "n_range"),
            ({"instances": 3.0}, "instances"),
            ({"d_range": (2, 2.5)}, "d_range"),
            ({"instances": True}, "instances"),
        ):
            with pytest.raises(ValueError, match=f"{name}: .* is not an integer"):
                FuzzConfig(**kw)
        # numpy integers are held as Python ints: a uint64 count would wrap in the task split
        cfg = FuzzConfig(master_seed=np.int64(3), instances=np.uint64(3), n_range=(np.int64(1), np.uint64(3)))
        assert all(type(v) is int for v in (cfg.master_seed, cfg.instances, *cfg.n_range))
        plain = FuzzConfig(master_seed=3, instances=3, n_range=(1, 3))
        assert fuzz(cfg, workers=2).as_dict() == fuzz(plain, workers=2).as_dict()

    def test_bad_workers(self):
        # a float, bool or string worker count failed deep inside (2.0, 1.5 and "2") or ran
        # (compare at 1.5, True as 1); both entry points name it
        cfg = small_cfg(instances=10)
        for workers in (2.0, 1.5, "2", True):
            with pytest.raises(ValueError, match="workers: .* is not an integer"):
                fuzz(cfg, workers)
            with pytest.raises(ValueError, match="workers: .* is not an integer"):
                tightness_compare(cfg, "generic", workers)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                fuzz(cfg, workers)
            with pytest.raises(ValueError, match="workers must be >= 1"):
                tightness_compare(cfg, "generic", workers)
        assert fuzz(cfg, np.int64(2)).as_dict() == fuzz(cfg, 1).as_dict()

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
        # the parts of a unit end lie in [-1, 1), so not even the largest scale takes an
        # end beyond the double range, and fuzz checks every instance
        cfg = FuzzConfig(instances=64, disk_sampler=DiskSampler(scale=sys.float_info.max))
        lane, draw, _ = harness.ENSEMBLES["disk"]
        ends = draw(cfg, lane, np.arange(64, dtype=np.uint64)).ends
        assert np.isfinite(ends).all() and np.abs(ends.view(float)).max() > 1e307
        assert fuzz(cfg).checked["boas_bellman"] == 128  # both samplers, every instance


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited and been reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _openblas():
    """numpy's BLAS library, reached through a module that links it."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


def _blas_threads(task) -> int:
    """A pool task: the number of threads numpy's bundled OpenBLAS uses in this worker."""
    get = _openblas().scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


class TestPool:
    """One pool per worker count, kept across fuzz and compare calls, replaced when broken."""

    def test_kept_across_calls(self):
        cfg = small_cfg(instances=600)
        fuzz(cfg, workers=2)
        pids = _worker_pids()
        tightness_compare(cfg, "disk", workers=2)
        fuzz(cfg, workers=2)
        assert len(pids) == 2 and _worker_pids() == pids

    def test_other_worker_count_replaces_the_pool(self):
        cfg = small_cfg(instances=600)
        fuzz(cfg, workers=2)
        old = _worker_pids()
        fuzz(cfg, workers=3)
        new = _worker_pids()
        assert len(new) == 3 and not old & new
        assert all(_gone(pid) for pid in old)

    def test_broken_pool_raises_once(self):
        cfg = small_cfg(instances=2048)
        text = json.dumps(fuzz(cfg, workers=2).as_dict(), sort_keys=True)
        victim = min(_worker_pids())
        os.kill(victim, signal.SIGKILL)
        # the pool reaps a dead worker only once it has found itself broken
        deadline = time.monotonic() + 30.0
        while not _gone(victim) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _gone(victim)
        with pytest.raises(BrokenProcessPool):
            fuzz(cfg, workers=2)
        assert json.dumps(fuzz(cfg, workers=2).as_dict(), sort_keys=True) == text

    def test_workers_exit_with_the_interpreter(self):
        proc = _fresh(
            "import multiprocessing\n"
            "from besselkit import FuzzConfig, fuzz\n"
            "fuzz(FuzzConfig(instances=600), workers=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        # no traceback either, from the executor collected at interpreter teardown
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2 and all(_gone(pid) for pid in pids)

    def test_cli_import_leaves_the_pool_out(self):
        proc = _fresh(
            "import sys, besselkit.cli\n"
            "print(*[m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_workers_run_one_blas_thread(self):
        if not hasattr(_openblas(), "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy has no bundled scipy-openblas")
        parent = _blas_threads(None)
        fuzz(small_cfg(instances=600), workers=2)  # two tasks: the odd and the even family sizes
        workers, pool = harness._pool
        assert workers == 2 and list(pool.map(_blas_threads, range(2))) == [1, 1]
        assert _blas_threads(None) == parent
