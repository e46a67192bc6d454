"""Reproducible randomized verification of every bound in the package.

Instance generation is a pure function of ``(master_seed, index)``: each
instance derives its own generator from that pair (and its ensemble's
lane) through numpy's ``SeedSequence`` spawn keys, so results never depend
on execution order or on the number of workers.  The public samplers call
``SeedSequence`` itself; a task computes the seeds of all its instances
in one pass of the same algorithm on arrays (``_seed_states``).  No output
depends on how the instances are split into tasks: fuzz summaries hold
counts, extrema and violations sorted by instance, and ``compare`` sums all
its ratios at once with ``math.fsum``, which is correctly rounded.  So the
task size (``_task_size``) serves throughput and a memory cap alone.

With more than one worker and task, the tasks run in a process pool that is
made once per worker count and kept for every later ``fuzz`` and
``tightness_compare`` call in the process; it is replaced when a call asks for
another worker count or found the pool broken.  Its workers run numpy's BLAS
on one thread (``_one_blas_thread``).  Where they are forked (Linux), they
are forked at the first such call and see module state as it was then: a
change to this module made later, such as a test's monkeypatch, does not
reach them.

The table ``ENSEMBLES`` holds the three ensembles: unconstrained families,
families whose coefficients are placed inside a sampled disk (so the sharp
bounds apply by construction), and orthonormal families paired with a disk
that contains their coefficients.  Each draws an instance's raw numbers (a
``Raw``, with a disk as its end points) and turns those of many instances of
one size into arrays at once; a public sampler does the same for one instance.
Every field entry drawn, of the vectors, the weights and the disk end points
alike, comes from standard normals in one format, which ``_fields`` reads.
Entries and ratios beyond the double range are inf or NaN, never a numpy warning.

The table ``BOUNDS`` holds the bounds.  Each entry's formula, written
once, maps the statistics of a stack of families (``core.BoundStats``:
coefficients, norms, Gram row sums and maxima, and the disk end points,
weights and exponents bound to it) to one ``BatchReport`` per report.
``fuzz`` and ``tightness_compare`` draw a task's instances as arrays
(``_stacks``), stack those that share a family size n, sorted by dimension
into runs of one dimension (``Stats.stack``), and reduce a stack's reports
with masks; ``check_all`` runs these formulas on one family, a stack
without the batch axis, and builds its ``BoundReport``s.
No array is padded, so a family's reports have the same bits in a stack as
alone.
"""

from __future__ import annotations

import atexit
import math
import threading
from dataclasses import asdict, dataclass, field
from functools import cache, partial, reduce
from itertools import groupby
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
from .core import BoundStats, Family, Stats, libm_pow, lift_stack
from .extremal import ExtremalTarget, equality_coefficients, plan
from .report import DEFAULT_TOLERANCE, BatchReport, BoundReport, check_tolerance, is_exponent, reports_of, verdict
from .sharp import (
    Disk,
    disk_quantities,
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

_SQRT2 = np.sqrt(2.0)
# Gram entries per stack, n * max(n, d) per family: 64 families at n = 12,
# d <= 8, and one family from n = 96 up.
_STACK_ENTRIES = 64 * 12 * 12
# A task draws all its instances before it stacks them, so its size is capped in Gram
# entries of its largest families: 64 full stacks, 4096 instances (about 8 MB of draws)
# at the default sizes, down to one instance.  Split over workers, tasks hold at least
# 256 instances under that cap, since smaller ones spread a task's fixed costs (the seed
# pass, the stacks, sending the task and its result between processes) over too few.
_TASK_ENTRIES = 64 * _STACK_ENTRIES
_TASK_MIN = 256


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
    """The generator of stream ``(master_seed, index, lane)``, seeded by numpy's ``SeedSequence``."""
    seed = cfg.master_seed & 0xFFFFFFFFFFFFFFFF
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, lane))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence hash constants; NEP 19 keeps its algorithm fixed across releases
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32, _M128 = 2**32 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hashmix(v, h: int, mult: int = _MULT_A) -> tuple:
    """SeedSequence's ``hashmix`` of the word ``v`` under the hash constant ``h``, and the next constant.

    ``v`` is a Python int below 2**32 or a uint32 array; both wrap modulo 2**32.
    """
    h_next = h * mult & _M32
    v = (v ^ h) * h_next & _M32
    return v ^ v >> 16, h_next


def _mix(x, y):
    """SeedSequence's ``mix`` of two words."""
    r = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return r ^ r >> 16


def _seed_states(master_seed: int, indices: np.ndarray, lane: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``_rng`` gives each of ``indices`` (all below 2**32), in one pass.

    This is numpy's ``SeedSequence(entropy=master_seed & (2**64 - 1),
    spawn_key=(index, lane)).generate_state(4, np.uint64)``, then PCG64's
    seeding: on Python ints while the words depend on the seed alone, on
    uint32 arrays once the index enters.  The hash constants follow a fixed
    sequence, whatever the words.
    """
    seed = master_seed & (2**64 - 1)
    entropy = [seed & _M32] + ([seed >> 32] if seed >> 32 else [])
    entropy += [0] * (4 - len(entropy))  # a spawn key pads the seed's words to the pool size
    # the pool: hash the seed's words, mix every pair, then mix in each spawn-key word
    h, pool = _INIT_A, []
    for word in entropy:
        v, h = _hashmix(word, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    for word in (indices.astype(np.uint32), lane):
        for dst in range(4):
            v, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], v)
    # generate_state: eight words from the cycled pool, read as four little-endian uint64
    words, h = [], _INIT_B
    for k in range(8):
        v, h = _hashmix(pool[k % 4], h, _MULT_B)
        words.append(v)
    states = []
    for s_hi, s_lo, q_hi, q_lo in np.stack(words, axis=-1).astype("<u4").view("<u8").tolist():
        # PCG64 takes the seed s and the stream q: inc = 2 q + 1, state = (s + inc) MULT + inc
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _M128, inc))
    return states


def _streams(cfg: FuzzConfig, lane: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """The generators that ``_rng`` gives instances ``start`` to ``stop - 1`` of ``lane``, in turn.

    Below index 2**32 one generator serves them all: its state is set to
    each instance's from ``_seed_states``, so each is valid until the next
    is yielded.  A larger index takes a second spawn-key word and numpy's
    own ``SeedSequence``.
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for state, inc in _seed_states(cfg.master_seed, np.arange(start, min(stop, 2**32)), lane):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
    for index in range(max(start, 2**32), stop):
        yield _rng(cfg, index, lane)


def _normals(rng: np.random.Generator, cfg: FuzzConfig, entries: int) -> np.ndarray:
    """The standard normals of ``entries`` field entries: one per real entry, two per complex one."""
    return rng.standard_normal(entries if cfg.field_mode == "real" else 2 * entries)


def _fields(v: np.ndarray, shapes: tuple[tuple[int, ...], ...], mode: str) -> list[np.ndarray]:
    """Rows of standard normals ``v`` as contiguous complex arrays of these shapes, each (B, *shape).

    A row holds the arrays in turn.  A real array of ``m`` entries takes
    ``m`` normals; a complex one takes ``2 m``, its real parts and then its
    imaginary parts, and is ``(re + 1j * im) / sqrt(2)``.
    """
    arrays, start = [], 0
    for shape in shapes:
        m = math.prod(shape)
        z = v[:, start : start + m].astype(np.complex128)
        start += m
        if mode == "complex":
            z.imag = v[:, start : start + m]
            z /= _SQRT2
            start += m
        arrays.append(z.reshape(len(v), *shape))
    return arrays


def _draw_sizes(rng: np.random.Generator, cfg: FuzzConfig) -> tuple[int, int]:
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    d = int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
    return n, d


def _draw_disk(rng: np.random.Generator, cfg: FuzzConfig, want_positive_re: bool) -> tuple[complex, complex]:
    """The end points ``(gamma, Gamma)`` of a disk, as Python complex numbers.

    Each try draws one array of two field entries (``_fields``), until the
    unit disk has a center and, if ``want_positive_re``, ``Re(Gamma conj(gamma)) > 0``.
    """
    while True:
        g, G = _fields(_normals(rng, cfg, 2)[None], ((2,),), cfg.field_mode)[0][0].tolist()
        _, center, _, re_product, _ = disk_quantities(g, G)
        if abs(center) > 1e-6 and (re_product > 0.0 or not want_positive_re):
            scale = cfg.disk_sampler.scale
            if scale == 1.0:
                return g, G
            disk = Disk(scale * g, scale * G)  # raises ValueError where an end leaves the double range
            return disk.gamma, disk.Gamma


def _draw_points(rng: np.random.Generator, cfg: FuzzConfig, n: int) -> tuple[np.ndarray, ...]:
    """The uniform draws of ``n`` disk points, all drawn so that the stream layout is fixed.

    Real mode: the boundary test, a point of (-1, 1), a sign.  Complex mode:
    the boundary test, the radial draw and the angle, in one call of ``3 n``.
    """
    if cfg.field_mode == "real":
        return rng.random(n), rng.uniform(-1.0, 1.0, n), rng.integers(0, 2, n)
    return (rng.random(3 * n),)


def _disk_points(
    center: np.ndarray, radius: np.ndarray, draws: list[np.ndarray], cfg: FuzzConfig
) -> np.ndarray:
    """(k, n) points of the disks with ``center`` and ``radius`` (k, 1), from rows of their ``_draw_points``.

    A point lies on the boundary with probability ``boundary_fraction``;
    otherwise it is uniform on the real diameter (real mode) or in the disk.
    """
    bf = cfg.disk_sampler.boundary_fraction
    if cfg.field_mode == "real":
        u, interior, signs = draws
        return center + radius * np.where(u < bf, np.where(signs, 1.0, -1.0), interior)
    n = draws[0].shape[1] // 3
    u, r, turn = draws[0][:, :n], draws[0][:, n : 2 * n], draws[0][:, 2 * n :]
    rho = radius * np.where(u < bf, 1.0, np.sqrt(r))
    return center + rho * np.exp(2j * np.pi * turn)  # the bits of exp(1j * uniform(0, 2 pi))


class Raw(NamedTuple):
    """One instance's generator output, in draw order; its ensemble's ``assemble`` turns the
    ``Raw``s of one family size and dimension into arrays."""

    n: int
    d: int  # the family's dimension
    normals: np.ndarray  # its normal draws in turn, laid out as ``assemble`` reads them
    ends: tuple[complex, complex] | None = None  # its disk's (gamma, Gamma)
    points: tuple[np.ndarray, ...] | None = None  # the ``_draw_points`` of its coefficients
    zs: np.ndarray | None = None  # equality coefficients, taken in place of disk points


def _coefficients(cfg: FuzzConfig, raws: Sequence[Raw]) -> np.ndarray:
    """(k, n): each instance's equality coefficients, or else its disk points."""
    drawn = [r for r in raws if r.zs is None]
    zs = []
    if drawn:
        g, G = np.array([r.ends for r in drawn]).T[:, :, None]  # each (k, 1)
        _, center, radius, _, _ = disk_quantities(g, G)
        draws = [np.array(column) for column in zip(*[r.points for r in drawn])]
        zs = _disk_points(center, radius, draws, cfg)
    if len(drawn) < len(raws):
        points = iter(zs)
        zs = np.array([next(points) if r.zs is None else r.zs for r in raws])
    return zs


def _draw_generic(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> Raw:
    n, d = _draw_sizes(rng, cfg)
    return Raw(n, d, _normals(rng, cfg, d + n * d + n))


def _assemble_generic(cfg: FuzzConfig, raws: Sequence[Raw]) -> tuple:
    n, d = raws[0].n, raws[0].d
    return tuple(_fields(np.array([r.normals for r in raws]), ((d,), (n, d), (n,)), cfg.field_mode))


def _draw_in_disk(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> Raw:
    n, d = _draw_sizes(rng, cfg)
    while True:
        x = _normals(rng, cfg, d)
        if x.any():  # x is nonzero where its normals are
            break
    ends = _draw_disk(rng, cfg, want_positive_re=(index % 2 == 0))
    use_extremal = rng.random() < cfg.disk_sampler.extremal_fraction
    zs = points = None
    if use_extremal and cfg.field_mode == "complex":
        disk = Disk(*ends)
        if disk.re_product > 0.0:
            target = ExtremalTarget.THM21 if (index // 2) % 2 == 0 else ExtremalTarget.THM22
            spec = plan(target, n, disk)
            if spec.feasible:
                zs = equality_coefficients(spec)
    if zs is None:
        points = _draw_points(rng, cfg, n)
    return Raw(n, d, np.concatenate((x, _normals(rng, cfg, n * d + n))), ends, points, zs)


def _assemble_in_disk(cfg: FuzzConfig, raws: Sequence[Raw]) -> tuple:
    x, ws, c = _assemble_generic(cfg, raws)  # x, then the free components and the weights
    return x, lift_stack(x, _coefficients(cfg, raws), ws), c


def _draw_orthonormal(rng: np.random.Generator, cfg: FuzzConfig, index: int) -> Raw:
    n, d_draw = _draw_sizes(rng, cfg)
    dim = max(d_draw, n)
    ends = _draw_disk(rng, cfg, want_positive_re=True)
    points = _draw_points(rng, cfg, n)
    # the matrix whose QR gives the e_j, then, when dim > n, a component outside their span
    return Raw(n, dim, _normals(rng, cfg, dim * n + (dim if dim > n else 0)), ends, points)


def _assemble_orthonormal(cfg: FuzzConfig, raws: Sequence[Raw]) -> tuple:
    n, dim, mode = raws[0].n, raws[0].d, cfg.field_mode
    v = np.array([r.normals for r in raws])
    m, *extra = _fields(v, ((dim, n),) + ((dim,),) * (dim > n), mode)
    if mode == "real":
        # QR in real arithmetic keeps imaginary parts exactly zero
        es = np.linalg.qr(m.real)[0].swapaxes(-1, -2).astype(np.complex128)
    else:
        es = np.linalg.qr(m)[0].swapaxes(-1, -2).copy()  # rows are orthonormal
    x = (_coefficients(cfg, raws)[:, None, :] @ es)[:, 0]
    for w in extra:  # the component outside the span of the e_j
        x = x + (w - ((es.conj() @ w[:, :, None])[:, :, 0][:, None, :] @ es)[:, 0])
    return x, es, None


# The ensembles: name -> (lane, draw(rng, cfg, index) -> Raw, assemble(cfg, raws)).
# ``assemble`` turns the Raws of k instances of one size n and dimension d into
# (x, ys, c): x (k, d); ys (k, n, d), the test vectors; and the weights c (k, n), with
# which the instance's stream continues, or None.  A disk is drawn as its end points,
# ``Raw.ends``.  Instance ``index`` is drawn from the stream (master_seed, index, lane),
# so a lane must never change.
ENSEMBLES = {
    "generic": (0, _draw_generic, _assemble_generic),
    "disk": (1, _draw_in_disk, _assemble_in_disk),
    "orthonormal": (4, _draw_orthonormal, _assemble_orthonormal),
}


def _draw(cfg: FuzzConfig, index: int, name: str) -> tuple[Raw, tuple]:
    """Instance ``index`` of ensemble ``name``: its ``Raw`` and its arrays, a part of one family."""
    if not 0 <= index < cfg.instances:
        raise ValueError(f"index {index} out of range for {cfg.instances} instances")
    lane, draw, assemble = ENSEMBLES[name]
    raw = draw(_rng(cfg, index, lane), cfg, index)
    with np.errstate(all="ignore"):  # as in ``_stacks``
        return raw, assemble(cfg, [raw])


def _family(cfg: FuzzConfig, index: int, name: str) -> tuple[Family, Disk | None]:
    raw, (x, ys, _) = _draw(cfg, index, name)
    return Family(x[0], ys[0], cfg.field_mode), None if raw.ends is None else Disk(*raw.ends)


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

    The instances are drawn in three steps, with the bits the public
    samplers give: the seeds of all of them in one pass (``_streams``);
    each instance's generator calls, in its ensemble's order (a ``Raw``);
    and the arrays of each part of a stack in one pass, by the ensemble's
    ``assemble``.  The instances of one size are sorted by dimension, in
    index order within a dimension, so a part is a run of the stack.
    Yields each stack's instance indices and the stack with the draws'
    disk end points and weights and ``cfg``'s exponents and tolerance bound.
    A stack holds at most 64 families, fewer when they are large, so that
    its arrays stay near 1 MB; each is built when the previous one is done.
    """
    lane, draw, assemble = ENSEMBLES[name]
    by_n: dict[int, list[tuple[int, Raw]]] = {}
    for index, rng in zip(range(start, stop), _streams(cfg, lane, start, stop)):
        raw = draw(rng, cfg, index)
        by_n.setdefault(raw.n, []).append((index, raw))
    for n, members in sorted(by_n.items()):
        members.sort(key=lambda member: member[1].d)  # stable: index order within a dimension
        size = max(1, min(64, _STACK_ENTRIES // (n * max(n, cfg.d_range[1]))))
        for k in range(0, len(members), size):
            indices, raws = zip(*members[k : k + size])
            with np.errstate(all="ignore"):  # a disk near the double range gives inf or NaN entries
                parts = [assemble(cfg, list(run)) for _, run in groupby(raws, key=lambda raw: raw.d)]
            weights = None
            if parts[0][2] is not None:
                weights = np.concatenate([c for *_, c in parts])[:, None]  # (B, 1, n): one row per family
            yield list(indices), Stats.stack([part[:2] for part in parts]).bind(
                ends=None if raws[0].ends is None else np.array([r.ends for r in raws]).T,
                weights=weights,
                p_values=cfg.p_values,
                tol=cfg.tolerance,
            )


class Bound(NamedTuple):
    """One entry of the catalogue ``BOUNDS``.

    ``formula(s)`` returns the entry's ``BatchReport``s on the stack ``s``,
    with ids from ``ids``.  ``needs`` names what it needs bound besides the
    family: "family" (nothing; the exponents ``s.p_values`` are always
    bound), "weights" (``s.weights``) or "disk" (``s.gamma``, ``s.Gamma``);
    an entry runs only on a stack that holds what it needs (``_evaluate``).
    A bound with ``competes > 0`` competes in tightness through
    ``rhs ** competes``.
    """

    ids: tuple[str, ...]
    needs: str
    formula: Callable[[BoundStats], list[BatchReport]]
    competes: int = 0


# The catalogue.  Its order is the order of check_all's reports and the
# tie-break priority of the tightness competition.
BOUNDS = (
    Bound(("boas_bellman",), "family", boas_bellman_batch, 1),
    Bound(("bombieri",), "family", bombieri_batch, 1),
    Bound(("selberg",), "family", selberg_batch),
    Bound(("dragomir03",), "family", dragomir03_batch, 1),
    Bound(("dragomir_pq",), "family", dragomir_pq_batch),
    Bound(("heilbronn",), "family", heilbronn_batch),
    Bound(("pecaric_first", "pecaric_second"), "weights", pecaric_batch),
    Bound(("dragomir04_b1", "dragomir04_b2", "dragomir04_b3"), "weights", dragomir04_batch),
    Bound(("dragomir04_cor1", "dragomir04_cor2", "dragomir04_cor3"), "family", dragomir04_corollaries_batch),
    Bound(("theorem21",), "disk", theorem21_batch, 2),
    Bound(("theorem22",), "disk", theorem22_batch, 1),
    Bound(("lemma_eq6",), "disk", lemma_eq6_batch),
    Bound(("triangle_reverse_l2",), "disk", triangle_reverse_l2_batch),
    Bound(("triangle_reverse_sq",), "disk", triangle_reverse_sq_batch),
    Bound(("orthonormal30", "orthonormal31"), "disk", orthonormal_batch),
)


# the competing entries, in tie-break priority order
_COMPETITORS = tuple(b for b in BOUNDS if b.competes)


def _evaluate(s: BoundStats, entries: Sequence[Bound]) -> list[BatchReport]:
    """The reports of those ``entries`` that run on what ``s`` holds, in their order."""
    held = {"family": True, "weights": s.weights is not None, "disk": s.gamma is not None}
    return s.evaluate(*(b.formula for b in entries if held[b.needs]))


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
        ends=None if d is None else (d.gamma, d.Gamma),
        weights=None if c is None else as_weights(f, c, 1)[None],
        p_values=p_values,
        tol=tol,
    )
    return reports_of(_evaluate(s, BOUNDS))


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
    ties go to the earlier one.  A NaN (a side beyond the double range)
    never wins: neither first nor by displacing a winner.
    """
    by_id = {r.bound_id: r for r in reports}
    win = np.full(reports[0].ok.shape, -1)
    best = np.zeros(win.shape)
    for k, b in enumerate(_COMPETITORS):
        r = by_id.get(b.ids[0])
        if r is None:
            continue
        val = r.rhs if b.competes == 1 else libm_pow(r.rhs, b.competes)
        take = r.ok & ~np.isnan(val) & ((win < 0) | (val < best))
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


def _fuzz_task(args: tuple[FuzzConfig, int, int]) -> FuzzSummary:
    cfg, start, stop = args
    part = FuzzSummary(cfg, {}, [], {}, {}, {})
    for sampler in ("generic", "disk"):
        for indices, s in _stacks(cfg, sampler, start, stop):
            reports = _evaluate(s, BOUNDS)
            with np.errstate(all="ignore"):  # sides beyond the double range are tallied as NaN
                # the three classical weight choices, after every other report; they
                # are their own stack of rows, since a row of a k-row product can
                # differ in its last bit from the same row in a 1-row product
                reports += s.bind(weights=classical_weights_batch(s)).evaluate(pecaric_batch)
                _merge(part, _tally(cfg, reports, sampler, indices))
    return part


def _task_size(cfg: FuzzConfig, workers: int) -> int:
    """Instances per task: as many as ``_TASK_ENTRIES`` allows on one worker, else about
    ``4 * workers`` tasks, so that the pool stays busy, of at least ``_TASK_MIN`` under that cap."""
    n, d = cfg.n_range[1], cfg.d_range[1]
    cap = max(1, _TASK_ENTRIES // (n * max(n, d)))
    if workers <= 1:
        return cap
    return min(cap, max(_TASK_MIN, -(-cfg.instances // (4 * workers))))


def _one_blas_thread() -> None:
    """Pool initializer: run numpy's bundled OpenBLAS on one thread in this worker.

    Workers that each keep OpenBLAS's default threads contend for the cores.
    The setter is numpy's ``scipy_openblas_set_num_threads64_``, reached
    through ``ctypes``; where numpy has no such symbol (another BLAS, another
    build), this does nothing and the worker keeps its BLAS threads.
    """
    import ctypes

    try:
        setter = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)


# The pool of the last multi-worker call, as (workers, executor), kept for the next call
# with that worker count; its workers exit through concurrent.futures' interpreter-exit hook.
_pool: tuple | None = None
_pool_lock = threading.Lock()


@atexit.register
def _close_pool() -> None:
    """Shut the kept pool down and forget it.

    At interpreter exit this runs after concurrent.futures' hook has joined the
    workers, so the executor is collected while its module is intact; collected
    at module teardown, it prints an ignored exception from its weakref callback.
    """
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


def _map_tasks(fn, cfg: FuzzConfig, workers: int) -> list:
    global _pool
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    size = _task_size(cfg, workers)
    tasks = [(cfg, a, min(a + size, cfg.instances)) for a in range(0, cfg.instances, size)]
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            _close_pool()  # before the fork, so that no fork runs beside the old pool's threads
            _pool = (workers, ProcessPoolExecutor(workers, initializer=_one_blas_thread))
        try:
            return list(_pool[1].map(fn, tasks))
        except BrokenProcessPool:
            _close_pool()
            raise


def fuzz(cfg: FuzzConfig, workers: int = 1) -> FuzzSummary:
    """Check every bound over all seeded instances of both samplers.

    Violations are recorded, never raised.  The summary is identical for
    any ``workers`` value and any split into tasks: counts add, each bound
    keeps its least slack, and violations are sorted by instance.
    """
    total = reduce(_merge, _map_tasks(_fuzz_task, cfg, workers), FuzzSummary(cfg, {}, [], {}, {}, {}))
    total.violations.sort(key=lambda v: (v["instance_seed"], v["sampler"], v["bound_id"]))
    return total


class TightnessRow(NamedTuple):
    bound_id: str
    wins: int
    mean_ratio: float


def _compare_task(ensemble: str, args: tuple[FuzzConfig, int, int]) -> dict[str, tuple[int, list[float]]]:
    """Per competing bound: its wins, and its ratios lhs / rhs where it applies with rhs > 0, in stack order."""
    cfg, start, stop = args
    ids = [b.ids[0] for b in _COMPETITORS]
    wins, ratios = dict.fromkeys(ids, 0), {bid: [] for bid in ids}
    for _, s in _stacks(cfg, ensemble, start, stop):
        reports = _evaluate(s, _COMPETITORS)
        for bid, count in _winners(reports).items():
            wins[bid] += count
        with np.errstate(all="ignore"):  # sides beyond the double range give NaN ratios
            for r in reports:
                use = r.ok & (r.rhs > 0.0)
                ratios[r.bound_id] += (r.lhs[use] / r.rhs[use]).tolist()
    return {bid: (wins[bid], ratios[bid]) for bid in ids}


def tightness_compare(
    cfg: FuzzConfig, ensemble: str = "generic", workers: int = 1
) -> list[TightnessRow]:
    """Which bound gives the smallest Bessel-sum right side, per instance.

    The competing bounds are the entries of ``BOUNDS`` with ``competes``
    set, and ties go to the earlier entry, so the sharp bounds only win
    when strictly smallest.  ``ensemble`` is a key of ``ENSEMBLES``.
    Returns one row per competing bound with its win count and mean
    tightness ratio (NaN when the bound never applied).  The ratios are
    summed once, correctly rounded (``math.fsum``), so no split or order changes it.
    """
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    results = _map_tasks(partial(_compare_task, ensemble), cfg, workers)
    rows = []
    for bid in (b.ids[0] for b in _COMPETITORS):
        ratios = [v for result in results for v in result[bid][1]]
        mean = math.fsum(ratios) / len(ratios) if ratios else float("nan")
        rows.append(TightnessRow(bid, sum(result[bid][0] for result in results), mean))
    return rows
