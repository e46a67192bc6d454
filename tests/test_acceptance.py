"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; nothing is deferred to later calibration.  The randomized
criteria are fully seeded, so each run checks the identical instances.
"""

import json
import math
import time

import numpy as np
import pytest

from besselkit import (
    Disk,
    DiskSampler,
    ExtremalTarget,
    Family,
    FuzzConfig,
    bessel_sum,
    boas_bellman,
    bombieri,
    build,
    disk_condition_abs,
    disk_condition_re,
    dragomir03,
    dragomir_pq,
    fuzz,
    heilbronn,
    lemma_eq6,
    lift_gram_values,
    orthonormal_remark,
    pecaric,
    plan,
    sample_families,
    selberg,
    theorem21,
    theorem21_residuals,
    theorem22,
    theorem22_residuals,
)
from besselkit.cli import main

TOL = 1e-9


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_criterion_1_validity_suite():
    """10^5 seeded instances across samplers and field modes, no violations."""
    t0 = time.time()
    total_checked = 0
    for mode in ("complex", "real"):
        cfg = FuzzConfig(
            master_seed=20240817 if mode == "complex" else 20240818,
            instances=50_000,
            n_range=(1, 12),
            d_range=(1, 8),
            field_mode=mode,
            tolerance=TOL,
        )
        summary = fuzz(cfg, workers=2)
        assert summary.violations == [], (
            f"{mode}: {len(summary.violations)} violations, "
            f"first: {summary.violations[:3]}"
        )
        total_checked += sum(summary.checked.values())
    elapsed = time.time() - t0
    _report(
        "criterion 1 (validity)",
        f"10^5 instances, {total_checked} bound evaluations, "
        f"0 violations at rel slack >= -1e-9, {elapsed:.1f}s",
    )


def test_criterion_2_disk_condition_equivalence():
    """Both disk-membership forms agree on 10^6 random (z, gamma, Gamma)."""
    rng = np.random.default_rng(77001)
    batches, per_batch = 1000, 1000
    checked = 0
    boundary_band = 0
    for _ in range(batches):
        d = Disk(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        z_far = 2.0 * (
            rng.standard_normal(per_batch // 2) + 1j * rng.standard_normal(per_batch // 2)
        )
        # near-boundary samples stress the interesting region
        s = rng.uniform(0.9, 1.1, per_batch - per_batch // 2)
        ang = rng.uniform(0.0, 2.0 * np.pi, per_batch - per_batch // 2)
        z_near = d.center + d.radius * s * np.exp(1j * ang)
        z = np.concatenate([z_far, z_near])
        got_re = disk_condition_re(z, d, TOL)
        got_abs = disk_condition_abs(z, d, TOL)
        dist = np.abs(z - d.center)
        scale = max(1.0, d.radius)
        ambiguous = (np.abs(dist**2 - d.radius**2) <= 4.0 * TOL * scale**2) | (
            np.abs(dist - d.radius) <= 4.0 * TOL * scale
        )
        disagree = got_re != got_abs
        assert not bool(np.any(disagree & ~ambiguous)), "disagreement outside boundary band"
        boundary_band += int(ambiguous.sum())
        checked += z.size
    assert checked == 1_000_000
    assert boundary_band <= 1000
    _report(
        "criterion 2 (equivalence)",
        f"10^6 triples agree, {boundary_band} within the 1e-9 boundary band",
    )


def test_criterion_3_sharpness_suite():
    """10^3 feasible equality constructions attain both sharp bounds."""
    rng = np.random.default_rng(88002)
    done = 0
    while done < 1000:
        target = ExtremalTarget.THM21 if done % 2 == 0 else ExtremalTarget.THM22
        n = int(rng.integers(2, 11))
        d_dim = int(rng.integers(1, 7))
        g = complex(*rng.standard_normal(2))
        G = complex(*rng.standard_normal(2))
        disk = Disk(g, G)
        if abs(disk.center) < 1e-3:
            continue
        if target is ExtremalTarget.THM22 and disk.re_product <= 0.0:
            continue
        if not plan(target, n, disk).feasible:
            continue
        x = rng.standard_normal(d_dim) + 1j * rng.standard_normal(d_dim)
        if done % 2 == 0:
            ws = None
        else:
            raw = rng.standard_normal((n, d_dim)) + 1j * rng.standard_normal((n, d_dim))
            ws = raw - raw.mean(axis=0)
        fam = build(target, x, n, disk, ws=ws)
        if target is ExtremalTarget.THM21:
            rep = theorem21(fam, disk)
            res = theorem21_residuals(fam, disk)
        else:
            rep = theorem22(fam, disk)
            res = theorem22_residuals(fam, disk)
        assert rep.preconditions_met
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * max(1.0, rep.rhs)
        assert res.max_residual <= 1e-9
        done += 1
    # the two worked fixtures, both sides evaluated independently
    d0 = Disk(1.0, 3.0)
    fam21 = build(ExtremalTarget.THM21, [1.0, 0.0], 2, d0)
    rep21 = theorem21(fam21, d0)
    direct21 = math.sqrt(float((np.abs(fam21.coefficients) ** 2).sum()))
    assert rep21.lhs == pytest.approx(direct21, rel=1e-12)
    assert rep21.lhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
    assert rep21.rhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
    fam22 = build(ExtremalTarget.THM22, [1.0, 0.0], 2, d0)
    rep22 = theorem22(fam22, d0)
    direct22 = float((np.abs(fam22.coefficients) ** 2).sum())
    assert rep22.lhs == pytest.approx(direct22, rel=1e-12)
    assert rep22.lhs == pytest.approx(6.0, rel=1e-9)
    assert rep22.rhs == pytest.approx(6.0, rel=1e-9)
    _report(
        "criterion 3 (sharpness)",
        "10^3 constructions tight to 1e-9 with residuals <= 1e-9; "
        "worked fixtures 2*sqrt(2) and 6 reproduced",
    )


def test_criterion_4_specialization_identities():
    """p = 2 collapse, the three weight choices, orthonormal reduction."""
    rng = np.random.default_rng(99003)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        d_dim = int(rng.integers(1, 7))
        x = rng.standard_normal(d_dim) + 1j * rng.standard_normal(d_dim)
        ys = rng.standard_normal((n, d_dim)) + 1j * rng.standard_normal((n, d_dim))
        fam = Family(x, ys)
        bom = bombieri(fam)
        # (a) p = q = 2 collapse
        pq = dragomir_pq(fam, 2.0)
        assert pq.lhs == pytest.approx(bom.lhs, rel=1e-12, abs=1e-300)
        assert pq.rhs == pytest.approx(bom.rhs, rel=1e-12, abs=1e-300)
        # (b) the three weight choices
        a = fam.coefficients
        total = bessel_sum(fam)
        if total > 0.0:
            res = pecaric(fam, np.conj(a))
            assert res.lhs == pytest.approx(total**2, rel=1e-12)
            assert res.rhs_second == pytest.approx(total * bom.rhs, rel=1e-12)
        rows = fam.gram_row_sums
        if np.all(rows > 0.0):
            sel = selberg(fam)
            res = pecaric(fam, np.conj(a) / rows)
            assert res.lhs == pytest.approx(sel.lhs**2, rel=1e-12, abs=1e-300)
            assert res.rhs_first == pytest.approx(
                fam.x_norm_sq * sel.lhs, rel=1e-12, abs=1e-300
            )
        abs_a = np.abs(a)
        if np.all(abs_a > 0.0):
            res = pecaric(fam, np.conj(a) / abs_a)
            hei = heilbronn(fam)
            assert res.lhs == pytest.approx(float(abs_a.sum()) ** 2, rel=1e-12)
            assert res.rhs_first == pytest.approx(hei.rhs**2, rel=1e-12)
    # (c) exact orthonormal families reduce the three right sides exactly
    for _ in range(10_000):
        d_dim = int(rng.integers(1, 9))
        n = int(rng.integers(1, d_dim + 1))
        x = rng.standard_normal(d_dim) + 1j * rng.standard_normal(d_dim)
        rows = rng.permutation(d_dim)[:n]
        es = np.eye(d_dim, dtype=complex)[rows]
        fam = Family(x, es)
        xsq = fam.x_norm_sq
        assert boas_bellman(fam).rhs == xsq
        assert bombieri(fam).rhs == xsq
        assert dragomir03(fam).rhs == xsq
    _report(
        "criterion 4 (specializations)",
        "10^4 families: p=2 collapse and weight-choice identities at 1e-12; "
        "10^4 orthonormal families reduce rhs to ||x||^2 exactly",
    )


def test_criterion_5_coarseness_remark():
    """Orthonormal-case bounds never undercut the plain Bessel right side."""
    cfg = FuzzConfig(
        master_seed=55004,
        instances=10_000,
        n_range=(1, 8),
        d_range=(1, 8),
        tolerance=TOL,
    )
    for fam, d in sample_families(cfg, "orthonormal", range(cfg.instances)):
        rem = orthonormal_remark(fam.x, fam.ys, d, TOL)
        assert rem.report30.preconditions_met, rem.report30.reason
        assert rem.report31.preconditions_met, rem.report31.reason
        assert rem.report30.rhs >= fam.x_norm - TOL * max(1.0, fam.x_norm)
        assert rem.report31.rhs >= fam.x_norm_sq - TOL * max(1.0, fam.x_norm_sq)
        assert rem.coarser_than_bessel
        assert rem.report30.holds(TOL) and rem.report31.holds(TOL)
    _report(
        "criterion 5 (coarseness)",
        "10^4 orthonormal+disk instances: rhs(30) >= ||x||, rhs(31) >= ||x||^2",
    )


def test_criterion_6_reproducibility(tmp_path):
    """Identical flags give byte-identical summaries across runs and workers."""
    base = ["fuzz", "--seed", "424242", "--instances", "1200", "--n", "1:10", "--dim", "1:6"]
    paths = [tmp_path / f"run{k}.json" for k in range(4)]
    assert main(base + ["--workers", "1", "--output", str(paths[0])]) == 0
    assert main(base + ["--workers", "1", "--output", str(paths[1])]) == 0
    assert main(base + ["--workers", "2", "--output", str(paths[2])]) == 0
    assert main(base + ["--workers", "3", "--output", str(paths[3])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1], "same flags, same bytes"
    assert blobs[0] == blobs[2], "workers=2 changed the output"
    assert blobs[0] == blobs[3], "workers=3 changed the output"
    summary = json.loads(blobs[0])
    assert summary["violations"] == []
    _report(
        "criterion 6 (reproducibility)",
        "byte-identical summaries across repeated runs and workers 1/2/3",
    )


def test_criterion_7_lemma_check():
    """Summed disk lemma holds, with equality exactly on boundary-only runs."""
    boundary_cfg = FuzzConfig(
        master_seed=66005,
        instances=2000,
        n_range=(1, 10),
        d_range=(1, 6),
        disk_sampler=DiskSampler(boundary_fraction=1.0),
        tolerance=TOL,
    )
    for i, (fam, d) in enumerate(sample_families(boundary_cfg, "disk", range(boundary_cfg.instances))):
        lhs, rhs = lemma_eq6(fam, d, TOL)
        assert abs(lhs - rhs) <= TOL * max(1.0, abs(rhs)), (i, lhs, rhs)
    interior_cfg = FuzzConfig(
        master_seed=66006,
        instances=2000,
        n_range=(1, 10),
        d_range=(1, 6),
        disk_sampler=DiskSampler(boundary_fraction=0.0),
        tolerance=TOL,
    )
    strict_checked = 0
    for i, (fam, d) in enumerate(sample_families(interior_cfg, "disk", range(interior_cfg.instances))):
        lhs, rhs = lemma_eq6(fam, d, TOL)
        assert lhs <= rhs + TOL * max(1.0, abs(rhs))
        if d.radius >= 0.05:
            # a zero-radius disk makes every point a boundary point, so
            # strictness is only meaningful for genuinely wide disks
            assert rhs - lhs > TOL * max(1.0, abs(rhs)), (i, lhs, rhs)
            strict_checked += 1
    assert strict_checked > 1500
    _report(
        "criterion 7 (lemma)",
        f"2000 boundary-only instances tight to 1e-9; "
        f"{strict_checked} interior instances strictly below",
    )
