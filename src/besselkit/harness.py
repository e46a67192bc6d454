"""Reproducible randomized verification of every bound in the package.

Instance generation is a pure function of ``(master_seed, index)``: each
instance derives its own generator from that pair through numpy's
``SeedSequence``, so results never depend on execution order or on the
number of workers.  Aggregation merges fixed-size index chunks in index
order, which keeps floating-point accumulations byte-stable as well.

The table ``ENSEMBLES`` holds the three ensembles: unconstrained families,
families whose coefficients are placed inside a sampled disk (so the sharp
bounds apply by construction), and orthonormal families paired with a disk
that contains their coefficients.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .classical import (
    boas_bellman,
    bombieri,
    classical_weights,
    dragomir03,
    dragomir04_corollary_reports,
    dragomir04_reports,
    dragomir_pq,
    heilbronn,
    pecaric_reports,
    selberg,
)
from .core import Family, ParameterError, PreconditionError, lift_gram_values
from .extremal import ExtremalTarget, plan, solve_phases
from .report import DEFAULT_TOLERANCE, BoundReport, check_tolerance, evaluated, is_exponent, skipped
from .sharp import (
    Disk,
    lemma_eq6,
    orthonormal_family_remark,
    theorem21,
    theorem22,
    triangle_reverse_l2,
    triangle_reverse_sq,
)

__all__ = [
    "BOUNDS",
    "Bound",
    "BoundInputs",
    "DEFAULT_P_VALUES",
    "DiskSampler",
    "ENSEMBLES",
    "FuzzConfig",
    "FuzzSummary",
    "TightnessRow",
    "sample_family",
    "sample_disk_family",
    "sample_orthonormal_family",
    "check_all",
    "fuzz",
    "tightness_compare",
]

DEFAULT_P_VALUES = (1.5, 3.0)

_CHUNK = 256  # fixed chunk size; must not depend on the worker count


@dataclass(frozen=True)
class DiskSampler:
    """Parameters for drawing (gamma, Gamma) pairs and in-disk coefficients.

    ``boundary_fraction`` is the per-coefficient probability of placing a
    value exactly on the disk boundary; ``extremal_fraction`` is the
    per-instance probability of using the equality-case phase allocation
    instead of independent draws (complex mode only).
    """

    scale: float = 1.0
    boundary_fraction: float = 0.25
    extremal_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        for name in ("boundary_fraction", "extremal_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class FuzzConfig:
    master_seed: int = 0
    instances: int = 1000
    n_range: tuple[int, int] = (1, 12)
    d_range: tuple[int, int] = (1, 8)
    field_mode: str = "complex"
    disk_sampler: DiskSampler = field(default_factory=DiskSampler)
    p_values: tuple[float, ...] = DEFAULT_P_VALUES
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.instances < 0:
            raise ValueError("instances must be >= 0")
        for name, (lo, hi) in (("n_range", self.n_range), ("d_range", self.d_range)):
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must be a non-empty range of integers >= 1")
        if self.field_mode not in ("real", "complex"):
            raise ValueError(f"field_mode must be 'real' or 'complex', got {self.field_mode!r}")
        if not all(map(is_exponent, self.p_values)):
            raise ValueError("all p values must exceed 1")
        check_tolerance(self.tolerance)


def _rng(cfg: FuzzConfig, index: int, lane: int) -> np.random.Generator:
    seed = cfg.master_seed & 0xFFFFFFFFFFFFFFFF
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, lane))
    return np.random.Generator(np.random.PCG64(ss))


def _draw_matrix(rng: np.random.Generator, n: int, d: int, mode: str) -> np.ndarray:
    if mode == "real":
        return rng.standard_normal((n, d)).astype(np.complex128)
    re = rng.standard_normal((n, d))
    im = rng.standard_normal((n, d))
    return (re + 1j * im) / np.sqrt(2.0)


def _draw_sizes(rng: np.random.Generator, cfg: FuzzConfig) -> tuple[int, int]:
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    d = int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
    return n, d


def _draw_disk(rng: np.random.Generator, cfg: FuzzConfig, want_positive_re: bool) -> Disk:
    scale = cfg.disk_sampler.scale
    while True:
        if cfg.field_mode == "real":
            g = complex(scale * rng.standard_normal())
            G = complex(scale * rng.standard_normal())
        else:
            vals = _draw_matrix(rng, 1, 2, "complex")[0] * scale
            g, G = complex(vals[0]), complex(vals[1])
        d = Disk(g, G)
        if abs(d.center) <= 1e-6 * scale:
            continue
        if want_positive_re and d.re_product <= 0.0:
            continue
        return d


def _draw_disk_points(
    rng: np.random.Generator, d: Disk, n: int, boundary_fraction: float, mode: str
) -> np.ndarray:
    # draw all randomness unconditionally so the stream layout is fixed
    on_boundary = rng.random(n) < boundary_fraction
    if mode == "real":
        interior = rng.uniform(-1.0, 1.0, n)
        signs = rng.integers(0, 2, n) * 2.0 - 1.0
        t = np.where(on_boundary, signs, interior)
        return d.center + d.radius * t.astype(np.complex128)
    u = rng.random(n)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    rho = d.radius * np.where(on_boundary, 1.0, np.sqrt(u))
    return d.center + rho * np.exp(1j * ang)


def _draw_generic(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> tuple[Family, None]:
    n, d = _draw_sizes(rng, cfg)
    x = _draw_matrix(rng, 1, d, cfg.field_mode)[0]
    ys = _draw_matrix(rng, n, d, cfg.field_mode)
    return Family(x, ys, cfg.field_mode), None


def _draw_in_disk(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    n, d_dim = _draw_sizes(rng, cfg)
    while True:
        x = _draw_matrix(rng, 1, d_dim, cfg.field_mode)[0]
        if np.linalg.norm(x) > 0.0:
            break
    disk = _draw_disk(rng, cfg, want_positive_re=(index % 2 == 0))
    use_extremal = rng.random() < cfg.disk_sampler.extremal_fraction
    zs = None
    if use_extremal and cfg.field_mode == "complex" and disk.re_product > 0.0:
        target = ExtremalTarget.THM21 if (index // 2) % 2 == 0 else ExtremalTarget.THM22
        spec = plan(target, n, disk)
        if spec.feasible:
            zs = disk.center + disk.radius * np.exp(1j * solve_phases(spec))
    if zs is None:
        zs = _draw_disk_points(rng, disk, n, cfg.disk_sampler.boundary_fraction, cfg.field_mode)
    ws = _draw_matrix(rng, n, d_dim, cfg.field_mode)
    ys = lift_gram_values(x, zs, ws)
    return Family(x, ys, cfg.field_mode), disk


def _draw_orthonormal(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    n, d_draw = _draw_sizes(rng, cfg)
    dim = max(d_draw, n)
    disk = _draw_disk(rng, cfg, want_positive_re=True)
    coeffs = _draw_disk_points(rng, disk, n, cfg.disk_sampler.boundary_fraction, cfg.field_mode)
    if cfg.field_mode == "real":
        # QR in real arithmetic keeps imaginary parts exactly zero
        q, _ = np.linalg.qr(rng.standard_normal((dim, n)))
        es = q.T.astype(np.complex128)
    else:
        q, _ = np.linalg.qr(_draw_matrix(rng, dim, n, "complex"))
        es = q.T.copy()  # rows are orthonormal
    x = coeffs @ es
    if dim > n:
        extra = _draw_matrix(rng, 1, dim, cfg.field_mode)[0]
        extra = extra - (es.conj() @ extra) @ es
        x = x + extra
    return Family(x, es, cfg.field_mode), disk


# The ensembles: name -> (lane, draw(rng, cfg, index) -> (family, disk or None)).  Instance
# ``index`` is drawn from the stream (master_seed, index, lane), so a lane must never change.
ENSEMBLES = {
    "generic": (0, _draw_generic),
    "disk": (1, _draw_in_disk),
    "orthonormal": (4, _draw_orthonormal),
}


def _draw(
    cfg: FuzzConfig, index: int, name: str
) -> tuple[np.random.Generator, Family, Disk | None]:
    """Instance ``index`` of ensemble ``name``, with its stream for further draws."""
    if not 0 <= index < cfg.instances:
        raise ValueError(f"index {index} out of range for {cfg.instances} instances")
    lane, draw = ENSEMBLES[name]
    rng = _rng(cfg, index, lane)
    return (rng, *draw(rng, cfg, index))


def sample_family(cfg: FuzzConfig, index: int) -> Family:
    """Unconstrained family, deterministic in ``(master_seed, index)``."""
    return _draw(cfg, index, "generic")[1]


def sample_disk_family(cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    """Family whose coefficients lie in a sampled disk, plus that disk.

    The disk center is never zero, and even-indexed instances force
    ``Re(Gamma conj(gamma)) > 0`` so both sharp bounds are exercised.
    Free components orthogonal to ``x`` are added to every test vector.
    """
    return _draw(cfg, index, "disk")[1:]


def sample_orthonormal_family(cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    """Orthonormal family with coefficients confined to a valid disk.

    The disk always satisfies ``Re(Gamma conj(gamma)) > 0`` so that both
    specialised orthonormal bounds apply.  The reference vector is built
    from prescribed in-disk coefficients plus a component outside the span.
    """
    return _draw(cfg, index, "orthonormal")[1:]


class BoundInputs(NamedTuple):
    """What a bound may read besides the family; see ``check_all``."""

    disk: Disk | None
    weights: np.ndarray | None  # the 1-D weight vector c
    p_values: tuple[float, ...]  # every p > 1
    tol: float


class Bound(NamedTuple):
    """One entry of the catalogue ``BOUNDS``.

    ``kernel(f, inputs)`` returns the entry's reports, with ids from ``ids``.
    ``needs`` names what it reads besides the family: "family" (nothing),
    "p" (the exponents, always given), "weights" or "disk"; an entry that
    needs weights or a disk runs only when they are given.  A bound with
    ``competes > 0`` competes in tightness through ``rhs ** competes``.
    """

    ids: tuple[str, ...]
    needs: str
    kernel: Callable[[Family, BoundInputs], list[BoundReport]]
    competes: int = 0


def _on_coefficients(fn: Callable[[np.ndarray, Disk, float], BoundReport]):
    """Kernel of a scalar form of a sharp bound, run on the family's coefficients."""
    return lambda f, i: [fn(f.coefficients, i.disk, i.tol)]


def _orthonormal(f: Family, i: BoundInputs) -> list[BoundReport]:
    # only a family detected as orthonormal gets the specialised reports
    if f.n > f.dim or f.orthonormal_deviation > i.tol:
        return []
    return list(orthonormal_family_remark(f, i.disk, i.tol)[:2])


# The catalogue.  Its order is the order of check_all's reports and the
# tie-break priority of the tightness competition.
BOUNDS = (
    Bound(("boas_bellman",), "family", lambda f, i: [boas_bellman(f)], 1),
    Bound(("bombieri",), "family", lambda f, i: [bombieri(f)], 1),
    Bound(("selberg",), "family", lambda f, i: [selberg(f)]),
    Bound(("dragomir03",), "family", lambda f, i: [dragomir03(f)], 1),
    Bound(("dragomir_pq",), "p", lambda f, i: [dragomir_pq(f, p) for p in i.p_values]),
    Bound(("heilbronn",), "family", lambda f, i: [heilbronn(f)]),
    Bound(
        ("pecaric_first", "pecaric_second"),
        "weights",
        lambda f, i: pecaric_reports(f, i.weights[None]),
    ),
    Bound(
        ("dragomir04_b1", "dragomir04_b2", "dragomir04_b3"),
        "weights",
        lambda f, i: dragomir04_reports(f, i.weights, i.p_values),
    ),
    Bound(
        ("dragomir04_cor1", "dragomir04_cor2", "dragomir04_cor3"),
        "p",
        lambda f, i: dragomir04_corollary_reports(f, i.p_values),
    ),
    Bound(("theorem21",), "disk", lambda f, i: [theorem21(f, i.disk, i.tol)], 2),
    Bound(("theorem22",), "disk", lambda f, i: [theorem22(f, i.disk, i.tol)], 1),
    Bound(
        ("lemma_eq6",), "disk", lambda f, i: [evaluated("lemma_eq6", *lemma_eq6(f, i.disk, i.tol))]
    ),
    Bound(("triangle_reverse_l2",), "disk", _on_coefficients(triangle_reverse_l2)),
    Bound(("triangle_reverse_sq",), "disk", _on_coefficients(triangle_reverse_sq)),
    Bound(("orthonormal30", "orthonormal31"), "disk", _orthonormal),
)


@cache
def _entries(weights: bool, disk: bool, competing: bool) -> tuple[Bound, ...]:
    """The entries of ``BOUNDS`` that run on these inputs, in table order."""
    return tuple(
        b
        for b in BOUNDS
        if (weights or b.needs != "weights")
        and (disk or b.needs != "disk")
        and (b.competes or not competing)
    )


# the competing entries, in tie-break priority order
_COMPETITORS = _entries(True, True, True)


def _evaluate(entries: Sequence[Bound], f: Family, inputs: BoundInputs) -> list[BoundReport]:
    reports = []
    for b in entries:
        try:
            reports += b.kernel(f, inputs)
        except (ParameterError, PreconditionError) as exc:
            # a disk the bound does not admit is reported, never raised
            reports.extend(skipped(bid, str(exc)) for bid in b.ids)
    return reports


def check_all(
    f: Family,
    d: Disk | None = None,
    c: Sequence[complex] | None = None,
    p_values: Sequence[float] = DEFAULT_P_VALUES,
    tol: float = DEFAULT_TOLERANCE,
) -> list[BoundReport]:
    """Evaluate every applicable bound of ``BOUNDS`` on one family.

    Bounds whose preconditions fail are reported with
    ``preconditions_met = False`` instead of raising.  The disk-based
    bounds run only when ``d`` is given; the weighted bounds only when the
    coefficient list ``c`` is given; the orthonormal specialisations only
    when the family is orthonormal within ``tol``.  Exponents that are not
    finite and > 1 are dropped.
    """
    p_values = tuple(filter(is_exponent, p_values))
    weights = None if c is None else np.asarray(c, dtype=np.complex128)
    inputs = BoundInputs(d, weights, p_values, tol)
    return _evaluate(_entries(c is not None, d is not None, False), f, inputs)


@dataclass
class FuzzSummary:
    """Aggregated outcome of a fuzz run; a pure function of its config."""

    config: FuzzConfig
    checked: dict[str, int]
    violations: list[dict]
    min_slack: dict[str, float]
    tight: dict[str, int]
    tightness_wins: dict[str, int]

    def as_dict(self) -> dict:
        return asdict(self)


def _tightness_winner(reports: Iterable[BoundReport]) -> str | None:
    by_id = {r.bound_id: r for r in reports if r.preconditions_met}
    best_id, best_val = None, None
    for b in _COMPETITORS:
        rep = by_id.get(b.ids[0])
        if rep is None:
            continue
        val = rep.rhs**b.competes
        if best_val is None or val < best_val:
            best_id, best_val = b.ids[0], val
    return best_id


def _fuzz_chunk(args: tuple[FuzzConfig, int, int]) -> FuzzSummary:
    cfg, start, stop = args
    part = FuzzSummary(cfg, {}, [], {}, {}, {})
    checked, min_slack, tight, wins = part.checked, part.min_slack, part.tight, part.tightness_wins
    for index in range(start, stop):
        for sampler in ("generic", "disk"):
            # the weights c continue the instance's stream after the family
            rng, f, disk = _draw(cfg, index, sampler)
            c = _draw_matrix(rng, 1, f.n, cfg.field_mode)[0]
            reports = check_all(f, disk, c, cfg.p_values, cfg.tolerance)
            reports += pecaric_reports(f, classical_weights(f))
            for rep in reports:
                rel = rep.relative_slack()
                if rel is None:
                    continue
                checked[rep.bound_id] = checked.get(rep.bound_id, 0) + 1
                prev = min_slack.get(rep.bound_id)
                if prev is None or rel < prev:
                    min_slack[rep.bound_id] = rel
                if rel < -cfg.tolerance:
                    part.violations.append(
                        {
                            "bound_id": rep.bound_id,
                            "sampler": sampler,
                            "instance_seed": index,
                            "slack": rel,
                        }
                    )
                elif abs(rel) <= cfg.tolerance:
                    tight[rep.bound_id] = tight.get(rep.bound_id, 0) + 1
            winner = _tightness_winner(reports)
            if winner is not None:
                wins[winner] = wins.get(winner, 0) + 1
    return part


def _chunks(instances: int) -> list[tuple[int, int]]:
    return [(a, min(a + _CHUNK, instances)) for a in range(0, instances, _CHUNK)]


def _map_chunks(fn, cfg: FuzzConfig, workers: int) -> list:
    tasks = [(cfg, a, b) for a, b in _chunks(cfg.instances)]
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def fuzz(cfg: FuzzConfig, workers: int = 1) -> FuzzSummary:
    """Check every bound over all seeded instances of both samplers.

    Violations are recorded, never raised.  The summary is identical for
    any ``workers`` value because instances are independent and chunk
    results merge in index order.
    """
    total = FuzzSummary(cfg, {}, [], {}, {}, {})
    for part in _map_chunks(_fuzz_chunk, cfg, workers):
        for name in ("checked", "tight", "tightness_wins"):
            counts = getattr(total, name)
            for key, val in getattr(part, name).items():
                counts[key] = counts.get(key, 0) + val
        total.violations.extend(part.violations)
        for key, val in part.min_slack.items():
            if key not in total.min_slack or val < total.min_slack[key]:
                total.min_slack[key] = val
    total.violations.sort(key=lambda v: (v["instance_seed"], v["sampler"], v["bound_id"]))
    return total


class TightnessRow(NamedTuple):
    bound_id: str
    wins: int
    mean_ratio: float


def _compare_chunk(ensemble: str, args: tuple[FuzzConfig, int, int]) -> dict[str, list]:
    """Per competing bound: [wins, sum of ratios, number of ratios]."""
    cfg, start, stop = args
    totals = {b.ids[0]: [0, 0.0, 0] for b in _COMPETITORS}
    for index in range(start, stop):
        _, f, d = _draw(cfg, index, ensemble)
        inputs = BoundInputs(d, None, (), cfg.tolerance)
        reports = _evaluate(_entries(False, d is not None, True), f, inputs)
        winner = _tightness_winner(reports)
        if winner is not None:
            totals[winner][0] += 1
        for rep in reports:
            if rep.preconditions_met and rep.rhs > 0.0:
                totals[rep.bound_id][1] += rep.ratio
                totals[rep.bound_id][2] += 1
    return totals


def tightness_compare(
    cfg: FuzzConfig, ensemble: str = "generic", workers: int = 1
) -> list[TightnessRow]:
    """Which bound gives the smallest Bessel-sum right side, per instance.

    The competing bounds are the entries of ``BOUNDS`` with ``competes``
    set, and ties go to the earlier entry, so the sharp bounds only win
    when strictly smallest.  ``ensemble`` is a key of ``ENSEMBLES``.
    Returns one row per competing bound with its win count and mean
    tightness ratio (NaN when the bound never applied).
    """
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    totals = {b.ids[0]: [0, 0.0, 0] for b in _COMPETITORS}
    for part in _map_chunks(partial(_compare_chunk, ensemble), cfg, workers):
        for bid, counts in part.items():
            totals[bid] = [t + c for t, c in zip(totals[bid], counts)]
    return [
        TightnessRow(bid, wins, ratio_sum / count if count else float("nan"))
        for bid, (wins, ratio_sum, count) in totals.items()
    ]
