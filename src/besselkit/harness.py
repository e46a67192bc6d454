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

The table ``BOUNDS`` holds the bounds.  Each entry's formula, written
once, maps the statistics of a stack of families (``core.BoundStats``:
coefficients, norms, Gram row sums and maxima, and the disks, weights and
exponents bound to it) to one ``BatchReport`` per report.  ``fuzz`` and
``tightness_compare`` draw each instance as arrays, stack the instances of
a chunk that share a family size n (``Stats.stack``), and reduce a stack's
reports with masks; ``check_all`` runs these formulas on one family, a
stack without the batch axis, and builds its ``BoundReport``s.  No array
is padded, so a family's reports have the same bits in a stack as alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cache, partial, reduce
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .classical import (
    as_weights,
    boas_bellman_batch,
    bombieri_batch,
    classical_weights_batch,
    dragomir03_batch,
    dragomir04_batch,
    dragomir04_corollaries_batch,
    dragomir_pq_batch,
    heilbronn_batch,
    pecaric_batch,
    selberg_batch,
)
from .core import BoundStats, Family, Stats, libm_pow, lift_gram_values
from .extremal import ExtremalTarget, equality_coefficients, plan
from .report import DEFAULT_TOLERANCE, BatchReport, BoundReport, check_tolerance, is_exponent, reports_of, verdict
from .sharp import (
    Disk,
    lemma_eq6_batch,
    orthonormal_batch,
    theorem21_batch,
    theorem22_batch,
    triangle_reverse_l2_batch,
    triangle_reverse_sq_batch,
)

__all__ = [
    "BOUNDS",
    "Bound",
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
_SQRT2 = np.sqrt(2.0)
# Gram entries per stack, n * max(n, d) per family: 64 families at n = 12,
# d <= 8, and one family from n = 96 up.
_STACK_ENTRIES = 64 * 12 * 12


@dataclass(frozen=True)
class DiskSampler:
    """Parameters for drawing (gamma, Gamma) pairs and in-disk coefficients.

    A disk is ``scale`` times a unit draw, which is tested for a center and
    the sign of ``Re(Gamma conj(gamma))`` before it is scaled, so the draws
    at scales 1 and ``2**k`` differ by the factor alone.
    ``boundary_fraction`` is the per-coefficient probability of placing a
    value exactly on the disk boundary; ``extremal_fraction`` is the
    per-instance probability of using the equality-case phase allocation
    instead of independent draws (complex mode only, where ``extremal.plan``
    finds it feasible).
    """

    scale: float = 1.0
    boundary_fraction: float = 0.25
    extremal_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
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


def _field(v: np.ndarray, shape: tuple[int, ...], mode: str) -> np.ndarray:
    """Standard normals ``v`` as entries of ``shape``; complex ones take their
    real parts from the first half of ``v`` and imaginary parts from the second."""
    if mode == "real":
        return v.reshape(shape).astype(np.complex128)
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = v.reshape(2, *shape)
    z /= _SQRT2  # the bits of (re + 1j * im) / sqrt(2)
    return z


def _draw_fields(rng: np.random.Generator, shapes: list[tuple[int, ...]], mode: str) -> list[np.ndarray]:
    """Arrays of these shapes in turn, from one normal draw: it gives the numbers that
    drawing them one by one would."""
    k = 1 if mode == "real" else 2
    z = rng.standard_normal(k * sum(math.prod(shape) for shape in shapes))
    fields, start = [], 0
    for shape in shapes:
        stop = start + k * math.prod(shape)
        fields.append(_field(z[start:stop], shape, mode))
        start = stop
    return fields


def _draw_sizes(rng: np.random.Generator, cfg: FuzzConfig) -> tuple[int, int]:
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    d = int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
    return n, d


def _draw_disk(rng: np.random.Generator, cfg: FuzzConfig, want_positive_re: bool) -> Disk:
    while True:
        if cfg.field_mode == "real":
            g, G = rng.standard_normal(), rng.standard_normal()
        else:
            g, G = _draw_fields(rng, [(2,)], "complex")[0].tolist()
        unit = Disk(g, G)
        if abs(unit.center) > 1e-6 and (unit.re_product > 0.0 or not want_positive_re):
            scale = cfg.disk_sampler.scale
            return unit if scale == 1.0 else Disk(scale * g, scale * G)


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


class Draw(NamedTuple):
    """One instance as arrays; ``Family`` objects are built only by the public samplers."""

    x: np.ndarray  # (d,)
    ys: np.ndarray  # (n, d): the test vectors, or the free components lifted onto zs
    zs: np.ndarray | None  # the coefficients inner(x, y_j) the ys are lifted to
    disk: Disk | None
    c: np.ndarray | None  # weights (n,); the instance's stream continues with them


def _draw_generic(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> Draw:
    n, d = _draw_sizes(rng, cfg)
    x, ys, c = _draw_fields(rng, [(d,), (n, d), (n,)], cfg.field_mode)
    return Draw(x, ys, None, None, c)


def _draw_in_disk(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> Draw:
    n, d_dim = _draw_sizes(rng, cfg)
    mode = cfg.field_mode
    while True:
        x = _draw_fields(rng, [(d_dim,)], mode)[0]
        if x.any():
            break
    disk = _draw_disk(rng, cfg, want_positive_re=(index % 2 == 0))
    use_extremal = rng.random() < cfg.disk_sampler.extremal_fraction
    zs = None
    if use_extremal and mode == "complex" and disk.re_product > 0.0:
        target = ExtremalTarget.THM21 if (index // 2) % 2 == 0 else ExtremalTarget.THM22
        spec = plan(target, n, disk)
        if spec.feasible:
            zs = equality_coefficients(spec)
    if zs is None:
        zs = _draw_disk_points(rng, disk, n, cfg.disk_sampler.boundary_fraction, mode)
    ws, c = _draw_fields(rng, [(n, d_dim), (n,)], mode)
    return Draw(x, ws, zs, disk, c)


def _draw_orthonormal(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> Draw:
    n, d_draw = _draw_sizes(rng, cfg)
    dim = max(d_draw, n)
    disk = _draw_disk(rng, cfg, want_positive_re=True)
    coeffs = _draw_disk_points(rng, disk, n, cfg.disk_sampler.boundary_fraction, cfg.field_mode)
    if cfg.field_mode == "real":
        # QR in real arithmetic keeps imaginary parts exactly zero
        q, _ = np.linalg.qr(rng.standard_normal((dim, n)))
        es = q.T.astype(np.complex128)
    else:
        q, _ = np.linalg.qr(_draw_fields(rng, [(dim, n)], "complex")[0])
        es = q.T.copy()  # rows are orthonormal
    x = coeffs @ es
    if dim > n:
        extra = _draw_fields(rng, [(dim,)], cfg.field_mode)[0]
        extra = extra - (es.conj() @ extra) @ es
        x = x + extra
    return Draw(x, es, None, disk, None)


# The ensembles: name -> (lane, draw(rng, cfg, index) -> Draw).  Instance ``index`` is
# drawn from the stream (master_seed, index, lane), so a lane must never change.
ENSEMBLES = {
    "generic": (0, _draw_generic),
    "disk": (1, _draw_in_disk),
    "orthonormal": (4, _draw_orthonormal),
}


def _draw(cfg: FuzzConfig, index: int, name: str) -> Draw:
    """Instance ``index`` of ensemble ``name``."""
    if not 0 <= index < cfg.instances:
        raise ValueError(f"index {index} out of range for {cfg.instances} instances")
    lane, draw = ENSEMBLES[name]
    return draw(_rng(cfg, index, lane), cfg, index)


def _family(cfg: FuzzConfig, index: int, name: str) -> tuple[Family, Disk | None]:
    draw = _draw(cfg, index, name)
    ys = draw.ys if draw.zs is None else lift_gram_values(draw.x, draw.zs, draw.ys)
    return Family(draw.x, ys, cfg.field_mode), draw.disk


def sample_family(cfg: FuzzConfig, index: int) -> Family:
    """Unconstrained family, deterministic in ``(master_seed, index)``."""
    return _family(cfg, index, "generic")[0]


def sample_disk_family(cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    """Family whose coefficients lie in a sampled disk, plus that disk.

    The disk center is never zero, and even-indexed instances force
    ``Re(Gamma conj(gamma)) > 0`` on the unit draw (see ``DiskSampler``) so
    both sharp bounds are exercised.
    Free components orthogonal to ``x`` are added to every test vector.
    """
    return _family(cfg, index, "disk")


def sample_orthonormal_family(cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    """Orthonormal family with coefficients confined to a valid disk.

    The disk always satisfies ``Re(Gamma conj(gamma)) > 0`` so that both
    specialised orthonormal bounds apply.  The reference vector is built
    from prescribed in-disk coefficients plus a component outside the span.
    """
    return _family(cfg, index, "orthonormal")


def _stacks(cfg: FuzzConfig, name: str, start: int, stop: int) -> Iterator[tuple[list[int], BoundStats]]:
    """Instances ``start`` to ``stop - 1`` of ensemble ``name``, as stacks of one family size.

    Yields each stack's instance indices and the stack with the draws'
    disks and weights and ``cfg``'s exponents and tolerance bound.  A stack
    holds at most 64 families, fewer when they are large, so that its
    arrays stay near 1 MB; each is built when the previous one is done.
    """
    by_n: dict[int, list[tuple[int, Draw]]] = {}
    for index in range(start, stop):
        draw = _draw(cfg, index, name)
        by_n.setdefault(draw.ys.shape[0], []).append((index, draw))
    for n, members in sorted(by_n.items()):
        size = max(1, min(64, _STACK_ENTRIES // (n * max(n, cfg.d_range[1]))))
        for k in range(0, len(members), size):
            indices, draws = zip(*members[k : k + size])
            xs, ys, zs, disks, cs = zip(*draws)  # the fields of the Draws, each over the stack
            s = Stats.stack(xs, ys, None if zs[0] is None else zs)
            yield list(indices), s.bind(
                disks=None if disks[0] is None else disks,
                weights=None if cs[0] is None else np.array(cs)[:, None],
                p_values=cfg.p_values,
                tol=cfg.tolerance,
            )


class Bound(NamedTuple):
    """One entry of the catalogue ``BOUNDS``.

    ``formula(s)`` returns the entry's ``BatchReport``s on the stack ``s``,
    with ids from ``ids``.  ``needs`` names what it reads besides the
    family: "family" (nothing), "p" (``s.p_values``, always given),
    "weights" (``s.weights``) or "disk" (``s.disks``, ``s.tol``);
    an entry that needs weights or a disk runs only when they are given.  A
    bound with ``competes > 0`` competes in tightness through
    ``rhs ** competes``.
    """

    ids: tuple[str, ...]
    needs: str
    formula: Callable[[BoundStats], list[BatchReport]]
    competes: int = 0


def _orthonormal(s: BoundStats) -> list[BatchReport]:
    # only a family detected as orthonormal gets the specialised reports; n
    # orthonormal vectors need n <= dim, which spares the Gram deviation
    fits = s.n <= s.dim
    if not fits.any():
        return []
    detected = fits & (s.ortho_dev <= s.tol)
    if not detected.any():
        return []
    return [
        r._replace(ok=r.ok & detected, why=lambda b, why=r.why: why(b) if detected[b] else None)
        for r in orthonormal_batch(s)
    ]


# The catalogue.  Its order is the order of check_all's reports and the
# tie-break priority of the tightness competition.
BOUNDS = (
    Bound(("boas_bellman",), "family", boas_bellman_batch, 1),
    Bound(("bombieri",), "family", bombieri_batch, 1),
    Bound(("selberg",), "family", selberg_batch),
    Bound(("dragomir03",), "family", dragomir03_batch, 1),
    Bound(("dragomir_pq",), "p", dragomir_pq_batch),
    Bound(("heilbronn",), "family", heilbronn_batch),
    Bound(("pecaric_first", "pecaric_second"), "weights", pecaric_batch),
    Bound(("dragomir04_b1", "dragomir04_b2", "dragomir04_b3"), "weights", dragomir04_batch),
    Bound(("dragomir04_cor1", "dragomir04_cor2", "dragomir04_cor3"), "p", dragomir04_corollaries_batch),
    Bound(("theorem21",), "disk", theorem21_batch, 2),
    Bound(("theorem22",), "disk", theorem22_batch, 1),
    Bound(("lemma_eq6",), "disk", lemma_eq6_batch),
    Bound(("triangle_reverse_l2",), "disk", triangle_reverse_l2_batch),
    Bound(("triangle_reverse_sq",), "disk", triangle_reverse_sq_batch),
    Bound(("orthonormal30", "orthonormal31"), "disk", _orthonormal),
)


@cache
def _formulas(weights: bool, disk: bool, competing: bool) -> tuple[Callable, ...]:
    """The formulas of the ``BOUNDS`` entries that run on these inputs, in table order."""
    return tuple(
        b.formula
        for b in BOUNDS
        if (weights or b.needs != "weights")
        and (disk or b.needs != "disk")
        and (b.competes or not competing)
    )


# the competing entries, in tie-break priority order
_COMPETITORS = tuple(b for b in BOUNDS if b.competes)


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
    finite and > 1 are dropped, and a bad ``tol`` raises ValueError
    (``core.Stats.bind``).  The formulas are those ``fuzz`` runs, on
    the family alone (a stack without the batch axis).
    """
    s = f.stats.bind(
        disks=None if d is None else (d,),
        weights=None if c is None else as_weights(f, c, 1)[None],
        p_values=p_values,
        tol=tol,
    )
    return reports_of(s.evaluate(*_formulas(c is not None, d is not None, False)))


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


def _winners(reports: list[BatchReport]) -> dict[str, int]:
    """Per competing bound, the families whose smallest ``rhs ** competes`` it gives.

    A later entry of ``_COMPETITORS`` wins only when strictly smaller, so
    ties go to the earlier one, and a NaN never displaces a winner.
    """
    by_id = {r.bound_id: r for r in reports}
    win = np.full(reports[0].ok.shape, -1)
    best = np.zeros(win.shape)
    for k, b in enumerate(_COMPETITORS):
        r = by_id.get(b.ids[0])
        if r is None:
            continue
        val = r.rhs if b.competes == 1 else libm_pow(r.rhs, b.competes)
        take = r.ok & ((win < 0) | (val < best))
        best = np.where(take, val, best)
        win = np.where(take, k, win)
    return {b.ids[0]: int(np.count_nonzero(win == k)) for k, b in enumerate(_COMPETITORS)}


@cache
def _groups(ids: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """The distinct ``ids`` in order of appearance, and (K, U) whether ``ids[k]`` is the u-th."""
    keys = list(dict.fromkeys(ids))
    return keys, np.array([[i == key for key in keys] for i in ids])


def _tally(cfg: FuzzConfig, reports: list[BatchReport], sampler: str, indices: list[int]) -> FuzzSummary:
    """The summary of one stack's reports and tightness winners, judged by ``report.verdict``.

    The reports of one bound id (one per weight row or exponent) are
    counted together.  A NaN slack (a side beyond the double range) is
    checked, but never the least slack.
    """
    ok = np.array([r.ok for r in reports])
    rel, violated, tight = verdict(
        np.array([r.lhs for r in reports]), np.array([r.rhs for r in reports]), cfg.tolerance
    )
    slack = ok & ~np.isnan(rel)
    keys, group = _groups(tuple(r.bound_id for r in reports))
    least = np.where(group, np.where(slack, rel, np.inf).min(axis=1)[:, None], np.inf).min(axis=0)
    bad = ok & violated
    return FuzzSummary(
        cfg,
        checked=dict(zip(keys, (ok.sum(axis=1) @ group).tolist())),
        violations=[
            {
                "bound_id": reports[k].bound_id,
                "sampler": sampler,
                "instance_seed": indices[b],
                "slack": float(rel[k, b]),
            }
            for b, k in np.argwhere(bad.T)  # instance by instance, reports in order
        ],
        min_slack={key: v for key, v, has in zip(keys, least.tolist(), slack.any(axis=1) @ group) if has},
        tight=dict(zip(keys, ((ok & tight).sum(axis=1) @ group).tolist())),
        tightness_wins=_winners(reports),
    )


def _merge(total: FuzzSummary, part: FuzzSummary) -> FuzzSummary:
    """``total`` with ``part`` added: counts add, violations extend, each bound keeps its least slack.

    A count of 0 adds no key, so a summary names only what happened.
    """
    for name in ("checked", "tight", "tightness_wins"):
        counts = getattr(total, name)
        for key, val in getattr(part, name).items():
            if val:
                counts[key] = counts.get(key, 0) + val
    total.violations.extend(part.violations)
    for key, val in part.min_slack.items():
        if key not in total.min_slack or val < total.min_slack[key]:
            total.min_slack[key] = val
    return total


def _fuzz_chunk(args: tuple[FuzzConfig, int, int]) -> FuzzSummary:
    cfg, start, stop = args
    part = FuzzSummary(cfg, {}, [], {}, {}, {})
    for sampler in ("generic", "disk"):
        for indices, s in _stacks(cfg, sampler, start, stop):
            reports = s.evaluate(*_formulas(True, s.gamma is not None, False))
            with np.errstate(all="ignore"):  # sides beyond the double range are tallied as NaN
                # the three classical weight choices, after every other report; they
                # are their own stack of rows, since a row of a k-row product can
                # differ in its last bit from the same row in a 1-row product
                reports += s.bind(weights=classical_weights_batch(s)).evaluate(pecaric_batch)
                _merge(part, _tally(cfg, reports, sampler, indices))
    return part


def _map_chunks(fn, cfg: FuzzConfig, workers: int) -> list:
    tasks = [(cfg, a, min(a + _CHUNK, cfg.instances)) for a in range(0, cfg.instances, _CHUNK)]
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
    total = reduce(_merge, _map_chunks(_fuzz_chunk, cfg, workers), FuzzSummary(cfg, {}, [], {}, {}, {}))
    total.violations.sort(key=lambda v: (v["instance_seed"], v["sampler"], v["bound_id"]))
    return total


class TightnessRow(NamedTuple):
    bound_id: str
    wins: int
    mean_ratio: float


def _running_sum(values: np.ndarray) -> float:
    """``values`` added one at a time, in order (``np.sum`` adds them pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _compare_chunk(ensemble: str, args: tuple[FuzzConfig, int, int]) -> dict[str, list]:
    """Per competing bound: [wins, sum of ratios in index order, number of ratios]."""
    cfg, start, stop = args
    ids = [b.ids[0] for b in _COMPETITORS]
    wins = dict.fromkeys(ids, 0)
    ratios = {bid: np.zeros(stop - start) for bid in ids}
    used = {bid: np.zeros(stop - start, dtype=bool) for bid in ids}
    for indices, s in _stacks(cfg, ensemble, start, stop):
        reports = s.evaluate(*_formulas(False, s.gamma is not None, True))
        for bid, count in _winners(reports).items():
            wins[bid] += count
        at = np.array(indices) - start
        for r in reports:
            use = r.ok & (r.rhs > 0.0)
            ratios[r.bound_id][at[use]] = r.lhs[use] / r.rhs[use]
            used[r.bound_id][at[use]] = True
    return {
        bid: [wins[bid], _running_sum(ratios[bid][used[bid]]), int(used[bid].sum())] for bid in ids
    }


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
