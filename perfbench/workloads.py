"""The two workloads: their inputs, the timed operations and the checks.

Every input is derived from the workload seed.  Sizes of files and
witnesses follow fixed grids and only their contents are drawn, so the
mix of sizes (which sets most of the cost) is the same for every seed.
Each workload runs the same six operations, on inputs of its own kind:

* ``fuzz-small``: the tier-1 traffic.  Tiny families (n 1:12, d 1:8), half
  complex and half real; time goes to per-instance interpreter overhead.
* ``sharp-eval``: boundary-heavy disks (and equality-case phases inside
  fuzz), ``tightness_compare`` on the disk and orthonormal ensembles,
  many extremal witnesses, and an ``eval`` corpus of disk, orthonormal
  and witness files, a tenth of them with n 32:64.  It also evaluates
  power-of-two rescaled copies of four fixed files, which must keep the
  ratios of their originals.

There is no workload of large families (n 128:256, d 64:128): on a
two-core machine its figures spread by 10-26% from run to run, because the
pool workers' BLAS threads oversubscribe the cores, beyond any bound the
benchmark may set.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from besselkit import (
    Disk,
    DiskSampler,
    ExtremalTarget,
    FuzzConfig,
    build,
    fuzz,
    plan,
    sample_disk_family,
    sample_family,
    sample_orthonormal_family,
    theorem21,
    theorem21_residuals,
    theorem22,
    theorem22_residuals,
    tightness_compare,
)
from besselkit.cli import family_payload, main as cli_main, write_family_file

TOL = 1e-9
P_GRID = (1.25, 1.5, 2.5, 3.0, 4.0)
BOUNDARY_HEAVY = DiskSampler(boundary_fraction=0.9, extremal_fraction=0.5)
# Entry scales of the rescaled copies.  The Bessel sum then lies near
# 2**560 and 2**-640, and its square leaves the double range.
RESCALE_EXPONENTS = (140, -160)
RESCALE_BASE_SEED = 20050808  # fixed: these failures must not depend on --seed
# 200 files, so ten lie beyond the 95th percentile of per-file latency
CORPUS_FILES = 200
# Wall time of one round of either workload on a two-core machine, as
# measured; sets the number of rounds that ``--seconds`` asks for.
ROUND_SECONDS = 2.5
# Both workloads fuzz and compare tiny families, as tier-1 does; fuzz
# calls cover two full 256-instance chunks, so workers=2 uses two processes.
FUZZ_MODES = ("complex", "real")
FUZZ_N = (1, 12)
FUZZ_D = (1, 8)
FUZZ_INSTANCES = 512
PROBE_FAMILIES = 128  # families per layer probe in the traced run


def derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class FileSpec:
    kind: str  # "generic", "disk", "orthonormal" or "witness"
    mode: str  # "complex" or "real"
    n: int
    d: int


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    sampler: DiskSampler
    compare: tuple[tuple[str, str], ...]  # (ensemble, field mode)
    compare_instances: int
    witness_sizes: tuple[tuple[int, int], ...]  # (n, dim) per witness
    corpus: tuple[FileSpec, ...]
    oracle_samples: tuple[tuple[str, int], ...]  # (source, count) checked against the oracle
    rescaled: bool = False

    def fuzz_config(self, seed: int, rnd: int) -> FuzzConfig:
        """The fuzz input of round ``rnd``; field modes take turns."""
        return FuzzConfig(
            master_seed=derive_seed(seed, self.index, 1, rnd),
            instances=FUZZ_INSTANCES,
            n_range=FUZZ_N,
            d_range=FUZZ_D,
            field_mode=FUZZ_MODES[rnd % len(FUZZ_MODES)],
            disk_sampler=self.sampler,
            tolerance=TOL,
        )

    def compare_configs(self, seed: int, rnd: int) -> list[tuple[FuzzConfig, str]]:
        """The ``tightness_compare`` inputs and ensembles of round ``rnd``."""
        return [
            (
                FuzzConfig(
                    master_seed=derive_seed(seed, self.index, 2, rnd, k),
                    instances=self.compare_instances,
                    n_range=FUZZ_N,
                    d_range=FUZZ_D,
                    field_mode=mode,
                    disk_sampler=self.sampler,
                    tolerance=TOL,
                ),
                ensemble,
            )
            for k, (ensemble, mode) in enumerate(self.compare)
        ]


def rounds(seconds: int) -> int:
    """Rounds in a run of ``seconds``: fixed work, never a time box.

    A multiple of the number of fuzz field modes, so every run fuzzes
    each mode equally often.
    """
    step = len(FUZZ_MODES)
    return step * max(1, round(seconds / ROUND_SECONDS / step))


def _grid(count: int, n_range, d_range, n_step: int = 1, d_step: int = 1):
    n_lo, n_hi = n_range
    d_lo, d_hi = d_range
    return tuple(
        (n_lo + (k * n_step) % (n_hi - n_lo + 1), d_lo + (k * d_step) % (d_hi - d_lo + 1))
        for k in range(count)
    )


def _small_corpus():
    sizes = _grid(CORPUS_FILES, (1, 12), (1, 8), 1, 3)
    return tuple(
        FileSpec(("generic", "disk")[k % 2], ("complex", "real")[(k // 2) % 2], n, d)
        for k, (n, d) in enumerate(sizes)
    )


def _sharp_corpus():
    small = _grid(CORPUS_FILES - CORPUS_FILES // 10, (1, 12), (1, 8), 1, 3)
    large = _grid(CORPUS_FILES // 10, (32, 64), (16, 32), 3, 5)
    kinds = ("disk", "orthonormal", "witness")
    files = []
    for k in range(CORPUS_FILES):
        n, d = large[k // 10] if k % 10 == 9 else small[k - k // 10]
        kind = kinds[k % 3]
        mode = "complex" if kind == "witness" or (k // 3) % 2 == 0 else "real"
        files.append(FileSpec(kind, mode, max(n, 2) if kind == "witness" else n, d))
    return tuple(files)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fuzz-small",
            index=1,
            sampler=DiskSampler(),
            compare=(("generic", "complex"), ("generic", "real")),
            compare_instances=512,
            witness_sizes=_grid(256, (2, 12), (1, 8)),
            corpus=_small_corpus(),
            oracle_samples=(("fuzz-generic", 4), ("fuzz-disk", 4), ("compare", 4), ("witness", 4), ("file", 4)),
        ),
        Workload(
            name="sharp-eval",
            index=3,
            sampler=BOUNDARY_HEAVY,
            compare=(
                ("disk", "complex"),
                ("disk", "real"),
                ("orthonormal", "complex"),
                ("orthonormal", "real"),
            ),
            compare_instances=128,
            witness_sizes=tuple(
                (n, d) if k % 10 else (32 + (k * 3) % 33, 16 + k % 17)
                for k, (n, d) in enumerate(_grid(256, (2, 12), (1, 8)))
            ),
            corpus=_sharp_corpus(),
            oracle_samples=(("fuzz-generic", 2), ("fuzz-disk", 2), ("compare", 6), ("witness", 6), ("file", 6)),
            rescaled=True,
        ),
    )
}


# --- input generation -------------------------------------------------------


def _complex_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def feasible_disk(rng: np.random.Generator) -> Disk:
    """A disk with ``radius < |center|``, where both equality targets are feasible."""
    center = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    radius = rng.uniform(0.2, 0.9) * abs(center)
    turn = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return Disk(center - radius * turn, center + radius * turn)


def witness_inputs(wl: Workload, seed: int, rnd: int) -> list[tuple]:
    """(target, x, n, disk) per witness of round ``rnd``, drawn from the workload seed."""
    rng = np.random.default_rng([seed, wl.index, 3, rnd])
    out = []
    for k, (n, dim) in enumerate(wl.witness_sizes):
        target = (ExtremalTarget.THM21, ExtremalTarget.THM22)[k % 2]
        out.append((target, _complex_vector(rng, dim), n, feasible_disk(rng)))
    return out


def _file_payload(spec: FileSpec, seed: int, rng: np.random.Generator, sampler: DiskSampler) -> dict:
    cfg = FuzzConfig(
        master_seed=seed,
        instances=1,
        n_range=(spec.n, spec.n),
        d_range=(spec.d, spec.d),
        field_mode=spec.mode,
        disk_sampler=sampler,
    )
    p_values = tuple(sorted(rng.choice(P_GRID, size=2, replace=False).tolist()))
    if spec.mode == "real":
        coeffs = rng.standard_normal(spec.n).astype(np.complex128)
    else:
        coeffs = _complex_vector(rng, spec.n)
    if spec.kind == "generic":
        return family_payload(sample_family(cfg, 0), None, coeffs, p_values)
    if spec.kind == "disk":
        fam, disk = sample_disk_family(cfg, 0)
        return family_payload(fam, disk, coeffs, p_values)
    if spec.kind == "orthonormal":
        fam, disk = sample_orthonormal_family(cfg, 0)
        return family_payload(fam, disk)
    disk = feasible_disk(rng)
    target = (ExtremalTarget.THM21, ExtremalTarget.THM22)[int(rng.integers(2))]
    return family_payload(build(target, _complex_vector(rng, spec.d), spec.n, disk), disk)


def write_corpus(wl: Workload, seed: int, workdir: str) -> list[str]:
    """Write the eval corpus of ``wl`` and return the file paths."""
    rng = np.random.default_rng([seed, wl.index, 4])
    paths = []
    for k, spec in enumerate(wl.corpus):
        path = os.path.join(workdir, f"corpus-{k:03d}.json")
        write_family_file(path, _file_payload(spec, derive_seed(seed, wl.index, 5, k), rng, wl.sampler))
        paths.append(path)
    return paths


def write_cold_file(seed: int, workdir: str) -> str:
    """The small (9 x 4) file that cold-start evals read."""
    rng = np.random.default_rng([seed, 0, 6])
    path = os.path.join(workdir, "cold.json")
    payload = _file_payload(FileSpec("generic", "complex", 9, 4), derive_seed(seed, 0, 6), rng, DiskSampler())
    write_family_file(path, payload)
    return path


def _rescaled_payload(payload: dict, exponent: int) -> dict:
    """Scale x and ys by ``2**exponent`` and the disk by ``2**(2 exponent)``; exact."""

    def scale(value, e):
        if isinstance(value, list):
            return [scale(v, e) for v in value]
        return math.ldexp(value, e)

    out = dict(payload)
    for key in ("x", "ys"):
        out[key] = scale(payload[key], exponent)
    for key in ("gamma", "Gamma"):
        out[key] = scale(payload[key], 2 * exponent)
    return out


def write_rescaled(workdir: str) -> list[tuple[str, str]]:
    """(original, rescaled copy) path pairs from four fixed disk files."""
    rng = np.random.default_rng(RESCALE_BASE_SEED)
    pairs = []
    for k, (n, d) in enumerate(((6, 3), (9, 4), (12, 8), (40, 20))):
        spec = FileSpec("disk", "complex", n, d)
        payload = _file_payload(spec, derive_seed(RESCALE_BASE_SEED, k), rng, DiskSampler())
        base = os.path.join(workdir, f"rescale-base-{k}.json")
        write_family_file(base, payload)
        for e in RESCALE_EXPONENTS:
            copy = os.path.join(workdir, f"rescale-{k}-2e{e}.json")
            write_family_file(copy, _rescaled_payload(payload, e))
            pairs.append((base, copy))
    return pairs


# --- operations -------------------------------------------------------------


def run_witness(target, x, n, disk):
    """Plan and build a witness, then what ``besselkit extremal`` reports: the bound and its residuals."""
    plan(target, n, disk)
    fam = build(target, x, n, disk)
    if target is ExtremalTarget.THM21:
        return fam, theorem21(fam, disk, TOL), theorem21_residuals(fam, disk, TOL)
    return fam, theorem22(fam, disk, TOL), theorem22_residuals(fam, disk, TOL)


def run_eval(path: str, out: str) -> int:
    return cli_main(["eval", "--input", path, "--output", out])


def warm_up(wl: Workload, eval_file: str, out: str) -> None:
    """One small call of every operation, to load lazy imports and caches."""
    cfg = FuzzConfig(
        master_seed=1,
        instances=2,
        n_range=FUZZ_N,
        d_range=FUZZ_D,
        field_mode=FUZZ_MODES[0],
        disk_sampler=wl.sampler,
    )
    fuzz(cfg, 1)
    for ensemble, _ in wl.compare:
        tightness_compare(cfg, ensemble, 1)
    disk = Disk(1.0, 3.0)
    run_witness(ExtremalTarget.THM21, np.array([1.0, 0.0]), 2, disk)
    run_witness(ExtremalTarget.THM22, np.array([1.0, 0.0]), 3, disk)
    run_eval(eval_file, out)


# --- checks -----------------------------------------------------------------


def read_reports(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def report_problems(reports: list[dict]) -> list[str]:
    """Reports that do not hold at the tolerance, judged from lhs and rhs alone."""
    bad = []
    for r in reports:
        if not r["preconditions_met"]:
            continue
        lhs, rhs = r["lhs"], r["rhs"]
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            bad.append(f"{r['bound_id']}: non-finite lhs/rhs {lhs} {rhs}")
        elif (rhs - lhs) / max(1.0, abs(rhs)) < -TOL:
            bad.append(f"{r['bound_id']}: lhs {lhs} > rhs {rhs}")
    return bad


def same_ratios(original: list[dict], copy: list[dict]) -> bool:
    """Same applicable set, in order, and equal ratios; bounds are homogeneous."""
    if [(r["bound_id"], r["preconditions_met"]) for r in original] != [
        (r["bound_id"], r["preconditions_met"]) for r in copy
    ]:
        return False
    for a, b in zip(original, copy):
        if a["preconditions_met"] and not math.isclose(a["ratio"], b["ratio"], rel_tol=1e-12):
            return False
    return True


def witness_problems(target, x, n, disk, fam, rep) -> list[str]:
    bad = []
    coeffs = np.conj(fam.ys) @ np.asarray(x, dtype=np.complex128)
    off = np.abs(np.abs(coeffs - disk.center) - disk.radius)
    if float(off.max()) > TOL * max(1.0, disk.radius):
        bad.append(f"{target.value} n={n}: coefficient {float(off.max()):.3g} off the boundary")
    if not rep.preconditions_met or abs(rep.rhs - rep.lhs) > TOL * max(1.0, abs(rep.rhs)):
        bad.append(f"{target.value} n={n}: not tight, lhs {rep.lhs} rhs {rep.rhs}")
    return bad


def compare_problems(rows, cfg: FuzzConfig, ensemble: str) -> list[str]:
    bad = []
    if sum(r.wins for r in rows) > cfg.instances:
        bad.append(f"compare {ensemble}: wins exceed {cfg.instances} instances")
    for r in rows:
        if math.isnan(r.mean_ratio):
            if ensemble != "generic" or r.bound_id not in ("theorem21", "theorem22"):
                bad.append(f"compare {ensemble}: {r.bound_id} never applied")
        elif r.mean_ratio > 1.0 + TOL:
            bad.append(f"compare {ensemble}: {r.bound_id} mean ratio {r.mean_ratio}")
    return bad
