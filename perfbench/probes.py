"""Per-layer metrics for the traced run (``--trace 1``).

Every figure comes from spans recorded around calls into the public
functions of each besselkit module, on inputs of the workload's own kind.
Times are medians per call; ``*_us`` in microseconds, ``*_ms`` in
milliseconds.  The fuzz chunk is also replayed call by call with the public
samplers, ``check_all`` (on the same instances, with weights of the same
length drawn here) and ``pecaric`` on the three classical weight choices
that ``fuzz`` adds per family.  The replay builds the reports ``fuzz``
builds, and gives the share of fuzz time that these calls do not cover.  The tracing overhead compares the same
end-to-end section (``phases.Run`` rounds) run with spans off and on.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import workloads as W
from besselkit import (
    Family,
    boas_bellman,
    bombieri,
    check_all,
    dragomir03,
    dragomir04,
    dragomir04_corollaries,
    dragomir_pq,
    heilbronn,
    lemma_eq6,
    lift_gram_values,
    orthonormal_remark,
    pecaric,
    sample_disk_family,
    sample_family,
    sample_orthonormal_family,
    selberg,
    solve_phases,
    theorem21,
    theorem22,
    triangle_reverse_l2,
    triangle_reverse_sq,
)
from besselkit.cli import read_family_file
from besselkit.report import evaluated

P = 1.5
REPEAT = 5  # identical calls per span for the sub-10-microsecond bounds
IMPORT_SAMPLES = 5
IMPORT_SCRIPT = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import besselkit.cli; print(t1 - t0, time.perf_counter() - t1)"
)


def _families(run, count: int):
    cfg = replace(run.wl.fuzz_config(run.seed, 0), instances=count)
    generic = [sample_family(cfg, i) for i in range(count)]
    disk = [sample_disk_family(cfg, i) for i in range(count)]
    ortho = [sample_orthonormal_family(cfg, i) for i in range(count)]
    return cfg, generic, disk, ortho


def _core(tr, generic, disk) -> None:
    for f in generic:
        tr.call("core.family_init", Family, f.x, f.ys, f.field_mode)
        fresh = Family(f.x, f.ys, f.field_mode)
        tr.call("core.gram", getattr, fresh, "gram")
        fresh.abs_gram  # noqa: B018  the q-norm span covers only its own work
        tr.call("core.row_q_norm", fresh.row_q_norm_max, 3.0)
    for f, _ in disk:
        tr.call("core.lift_gram_values", lift_gram_values, f.x, f.coefficients, f.ys)


def _classical(tr, generic, rng) -> None:
    for f in generic:
        c = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
        calls = (
            ("boas_bellman", boas_bellman, ()),
            ("bombieri", bombieri, ()),
            ("selberg", selberg, ()),
            ("dragomir03", dragomir03, ()),
            ("dragomir_pq", dragomir_pq, (P,)),
            ("heilbronn", heilbronn, ()),
            ("pecaric", pecaric, (c,)),
            ("dragomir04", dragomir04, (c, P)),
            ("dragomir04_corollaries", dragomir04_corollaries, (P,)),
        )
        for _, fn, args in calls:
            fn(f, *args)  # fill the family's caches first
        for name, fn, args in calls:
            tr.call(f"classical.{name}", fn, f, *args, calls=REPEAT)


def _sharp(tr, disk, ortho) -> None:
    for f, d in disk:
        if d.re_product <= 0.0:  # theorem22 needs Re(Gamma conj(gamma)) > 0
            continue
        theorem21(f, d), theorem22(f, d), lemma_eq6(f, d)
        tr.call("sharp.theorem21", theorem21, f, d, calls=REPEAT)
        tr.call("sharp.theorem22", theorem22, f, d, calls=REPEAT)
        tr.call("sharp.lemma_eq6", lemma_eq6, f, d, calls=REPEAT)
        tr.call("sharp.triangle_reverse", triangle_reverse_l2, f.coefficients, d)
        tr.call("sharp.triangle_reverse", triangle_reverse_sq, f.coefficients, d)
    for f, d in ortho:
        tr.call("sharp.orthonormal_remark", orthonormal_remark, f.x, f.ys, d)


def classical_weight_reports(f) -> list:
    """``pecaric`` on the weights conj(a), conj(a)/S and conj(a)/|a|, as ``fuzz`` adds them.

    a are the coefficients <x, y_i> and S the Gram row sums; a zero
    divisor gives weight 0 for S and weight 1 for |a|, as in ``fuzz``.
    """
    conj_a = np.conj(f.coefficients)
    row, mod = f.gram_row_sums, f.abs_coefficients
    choices = (
        conj_a,
        np.where(row == 0.0, 0.0, conj_a / np.where(row == 0.0, 1.0, row)),
        np.where(mod == 0.0, 1.0 + 0.0j, conj_a / np.where(mod == 0.0, 1.0, mod)),
    )
    reports = []
    for c in choices:
        res = pecaric(f, c)
        reports.append(evaluated("pecaric_first", res.lhs, res.rhs_first))
        reports.append(evaluated("pecaric_second", res.lhs, res.rhs_second))
    return reports


def _harness(run, tr, cfg, ortho_count: int, rng) -> dict:
    """Chunk wall time, its replay, the pool's cost and the report counts."""
    chunk_cfg = replace(cfg, instances=256)
    chunk_runs = 3
    for _ in range(chunk_runs):
        summary, _ = tr.call("harness.chunk", W.fuzz, chunk_cfg, 1)
    built = applicable = 0
    for i in range(chunk_cfg.instances):
        fam, _ = tr.call("harness.sample_family", sample_family, chunk_cfg, i)
        (dfam, disk), _ = tr.call("harness.sample_disk_family", sample_disk_family, chunk_cfg, i)
        for name, f, d in (("generic", fam, None), ("disk", dfam, disk)):
            c = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
            reports, _ = tr.call(f"harness.check_all_{name}", check_all, f, d, c, cfg.p_values, cfg.tolerance)
            extra, _ = tr.call("harness.classical_weights", classical_weight_reports, f)
            reports += extra
            built += len(reports)
            applicable += sum(r.preconditions_met for r in reports)
    for i in range(ortho_count):
        tr.call("harness.sample_orthonormal_family", sample_orthonormal_family, chunk_cfg, i)
    chunk_us = tr.median_us("harness.chunk")
    covered_us = sum(
        sum(tr.per_call_us(name))
        for name in (
            "harness.sample_family",
            "harness.sample_disk_family",
            "harness.check_all_generic",
            "harness.check_all_disk",
            "harness.classical_weights",
        )
    )
    pool_cfg = run.wl.fuzz_config(run.seed, 0)  # two or more chunks
    overheads = []
    for _ in range(chunk_runs):
        _, w1 = tr.call("harness.fuzz_w1", W.fuzz, pool_cfg, 1)
        _, w2 = tr.call("harness.fuzz_w2", W.fuzz, pool_cfg, 2)
        overheads.append((w2 - w1 / 2.0) * 1e3)
    return {
        "harness.chunk_ms": (chunk_us / 1e3, "ms"),
        "harness.pool_overhead_ms": (statistics.median(overheads), "ms"),
        "harness.uncovered_share": (max(0.0, 1.0 - covered_us / chunk_us), "ratio"),
        "report.reports_per_instance": (built / chunk_cfg.instances, "count"),
        "report.applicable_ratio": (applicable / built, "ratio"),
        "report.checked_per_instance": (sum(summary.checked.values()) / chunk_cfg.instances, "count"),
    }


def _extremal(tr, run) -> None:
    for target, x, n, disk in W.witness_inputs(run.wl, run.seed, 0):
        spec, _ = tr.call("extremal.plan", W.plan, target, n, disk)
        tr.call("extremal.solve_phases", solve_phases, spec)
        tr.call("extremal.build", W.build, target, x, n, disk)


def _cli(tr, run) -> dict:
    overhead = []
    for k, path in enumerate(run.corpus):
        data, read_s = tr.call("cli.read_family_file", read_family_file, path)
        args = (data["family"], data["disk"], data["coeffs"], data["p_values"], W.TOL)
        _, check_s = tr.call("cli.check_all", check_all, *args)
        _, main_s = tr.call("cli.main_eval", W.run_eval, path, run.out(f"out-{k:03d}.json"))
        overhead.append((main_s - read_s - check_s) * 1e6)
    imports = []
    for _ in range(IMPORT_SAMPLES):
        proc, _ = tr.call(
            "cli.import_subprocess",
            subprocess.run,
            [sys.executable, "-c", IMPORT_SCRIPT],
            env=run.env,
            cwd=run.root,
            capture_output=True,
            text=True,
            check=True,
        )
        imports.append(float(proc.stdout.split()[-1]) * 1e3)
    return {
        "cli.import_ms": (statistics.median(imports), "ms"),
        "cli.overhead_us": (statistics.median(overhead), "us"),
    }


def _tracing_overhead(run) -> dict:
    """Each round's compare, witnesses and eval share, once with spans off and once on.

    The order alternates from round to round, so a drift in the machine's
    speed weighs on both sides alike.
    """
    tr = run.tracer
    seconds = {False: 0.0, True: 0.0}
    for rnd in range(run.rounds):
        for enabled in (False, True) if rnd % 2 == 0 else (True, False):
            tr.enabled = enabled
            start = time.perf_counter()
            run.compare_round(rnd)
            run.extremal_round(rnd)
            run.eval_round(rnd)
            seconds[enabled] += time.perf_counter() - start
    tr.enabled = True
    noop_start = time.perf_counter()
    for _ in range(1000):
        tr.call("trace.noop", int)
    noop_us = (time.perf_counter() - noop_start) * 1e3  # 1000 calls, so us per call
    return {
        "trace.overhead_pct": (100.0 * (seconds[True] - seconds[False]) / seconds[False], "%"),
        "trace.span_cost_us": (noop_us, "us"),
    }


def per_layer(run) -> dict:
    run.prepare()
    tr = run.tracer
    rng = np.random.default_rng([run.seed, run.wl.index, 10])
    count = W.PROBE_FAMILIES
    figures = _tracing_overhead(run)
    for rnd in range(run.rounds):
        run.rescaled_round(rnd)
    with tr.section("probe.inputs"):
        cfg, generic, disk, ortho = _families(run, count)
    with tr.section("probe.core"):
        _core(tr, generic, disk)
    with tr.section("probe.classical"):
        _classical(tr, generic, rng)
    with tr.section("probe.sharp"):
        _sharp(tr, disk, ortho)
    with tr.section("probe.report"):
        for _ in range(20):
            tr.call("report.evaluated", evaluated, "bombieri", 1.0, 2.0, calls=1000)
    with tr.section("probe.harness"):
        figures.update(_harness(run, tr, cfg, count, rng))
    with tr.section("probe.extremal"):
        _extremal(tr, run)
    with tr.section("probe.cli"):
        figures.update(_cli(tr, run))
    timed = {
        "core.family_init_us": "core.family_init",
        "core.gram_us": "core.gram",
        "core.row_q_norm_us": "core.row_q_norm",
        "core.lift_gram_values_us": "core.lift_gram_values",
        **{
            f"classical.{b}_us": f"classical.{b}"
            for b in (
                "boas_bellman",
                "bombieri",
                "selberg",
                "dragomir03",
                "dragomir_pq",
                "heilbronn",
                "pecaric",
                "dragomir04",
                "dragomir04_corollaries",
            )
        },
        **{
            f"sharp.{b}_us": f"sharp.{b}"
            for b in ("theorem21", "theorem22", "lemma_eq6", "triangle_reverse", "orthonormal_remark")
        },
        "report.evaluated_us": "report.evaluated",
        "harness.sample_family_us": "harness.sample_family",
        "harness.sample_disk_family_us": "harness.sample_disk_family",
        "harness.sample_orthonormal_family_us": "harness.sample_orthonormal_family",
        "harness.check_all_generic_us": "harness.check_all_generic",
        "harness.check_all_disk_us": "harness.check_all_disk",
        "extremal.plan_us": "extremal.plan",
        "extremal.solve_phases_us": "extremal.solve_phases",
        "extremal.build_us": "extremal.build",
        "cli.read_family_file_us": "cli.read_family_file",
    }
    for metric, span in timed.items():
        figures[metric] = (tr.median_us(span), "us")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(figures.items())}
