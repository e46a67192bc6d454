"""Reproducible randomized verification of every bound in the package.

Instance generation is a pure function of ``(master_seed, index)``: each
instance has its own stream of 32-bit words, the Philox4x32-10 counter
blocks ``(block, lane, index)`` keyed by the master seed (``_words``), so
results never depend on execution order or on the number of workers.  A task
draws the words of all its instances as arrays, in the loop ``_drawn``,
which the public samplers share.  No output depends on how the instances are
split into tasks: fuzz summaries hold counts, extrema and violations sorted
by instance, and ``compare`` sums all its ratios at once with ``math.fsum``,
which is correctly rounded.  So the split into tasks (``_tasks``) serves
throughput and a memory cap alone.  A task's fixed cost is mostly one stack
per family size and draw, so a call on several workers is split by size
first: each index chunk is cut into m tasks by the class of n modulo
m, m the smaller of the worker count and the number of sizes, and each size
of a chunk is stacked in one task alone.  Chunks are cut by index only
where the memory cap or the worker count needs it.

With more than one worker and task, the tasks run in a process pool that is
made once per worker count and kept for every later ``fuzz`` and
``tightness_compare`` call in the process; it is replaced when a call asks for
another worker count or found the pool broken.  Its workers run numpy's BLAS
on one thread (``_one_blas_thread``).  Where they are forked (Linux), they
are forked at the first such call and see module state as it was then: a
change to this module made later, such as a test's monkeypatch, does not
reach them.  ``_pool`` holds the kept pool as ``(workers, executor)``.  It is
the one seam through which tests reach the pool: a test may set it, or the
executor it is made from, to a stand-in that runs the tasks in process, where
a patch does reach them.

The table ``ENSEMBLES`` holds the three ensembles: unconstrained families,
families whose coefficients are placed inside a sampled disk (so the sharp
bounds apply by construction), and orthonormal families paired with a disk
that contains their coefficients.  Each draws its instances' sizes and
disks (a ``Raw``, with a disk as its end points), then their vectors, a run
of one size and dimension at a time.  A draw holds the weights only when an
entry it is evaluated for needs them (``Bound.needs``): ``fuzz`` draws them,
``tightness_compare`` and the public samplers do not.  They are the last
words of each instance's vector region, so leaving them out moves no other
word.  Every field entry drawn, of the vectors, the weights and the disk end
points alike, is uniform dyadic, read from the words in one format by
``_fields``; no draw calls numpy's
``Generator``, so the draws do not depend on numpy's version.  The platform's
BLAS and libm still enter through the arithmetic on the draws: the QR of the
orthonormal ensemble, ``np.exp`` in the angles of complex disk points, and
the bounds' products and powers.  In the bounds libm's ``pow`` takes only
the p-norm roots (``core.p_norm``); every square is an IEEE product
(``np.square``), correctly rounded on every platform.  Entries and ratios
beyond the double range are inf or NaN, never a numpy warning.

The table ``BOUNDS`` holds the bounds.  Each entry's formula, written
once, maps the statistics of a stack of families (``core.BoundStats``:
coefficients, norms, Gram row sums and maxima, and the disk end points,
weights and exponents bound to it) to one ``BatchReport`` per report.
``fuzz`` and ``tightness_compare`` read a task's reports one table a draw
(``_tables``, the seam through which tests read the draws): ``fuzz`` of
``BOUNDS`` and then ``_CLASSICAL`` on the generic and the disk ensemble,
``tightness_compare`` of the competing entries on one.  One loop (``_drawn``)
sorts all of a task's rows together by size and dimension and draws their
vectors a draw of at most ``_DRAW_ENTRIES`` Gram entries at a time, over all
its ensembles, one or several alike; each ensemble's runs of one size
and dimension (``_runs``) are found once and each region of its words decoded
once.  The families of one size n in one draw are a stack, held in runs of
one dimension (``Stats.stack``), the runs of the ensembles joined.  Where a
draw holds disks, every stack of it binds them, a family drawn without one
at the end points (nan, nan), on which every disk entry's preconditions
fail.  Every formula gives the same reports on every stack, so a draw's
reports are one table: the ids of its K reports and (K, B) arrays of both
sides and the preconditions over its B families, whose columns each stack
fills as soon as it is evaluated.  ``_tally``, ``_winners`` and
``_compare_task`` read that table once per draw, so that bookkeeping is paid
per draw, not per stack or per run.  ``check_all`` runs the formulas of
``BOUNDS`` on one family, a stack without the batch axis, and builds its
``BoundReport``s.  No array is padded, so a family's reports have the same
bits in a stack as alone.
"""

from __future__ import annotations

import atexit
import math
import operator
import sys
import threading
from dataclasses import asdict, dataclass, field
from functools import cache, partial, reduce
from itertools import accumulate, pairwise
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
from .core import BoundStats, Family, Stats, lift_stack, modulus
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
    "sample_families",
    "sample_family",
    "sample_disk_family",
    "sample_orthonormal_family",
    "check_all",
    "fuzz",
    "tightness_compare",
]

DEFAULT_P_VALUES = (1.5, 3.0)

# A task draws the vectors of consecutive rows at once, up to this many Gram entries, n * max(n, d) per
# family, over all the ensembles it draws, or one row, so that a draw's arrays stay within a few MB: about
# 1200 families at the default sizes (n <= 12, d <= 8), one from n = 272 up.
_DRAW_ENTRIES = 512 * 12 * 12
# A task's index chunk is capped in Gram entries of its largest families: 8 full draws, 4096 instances at
# the default sizes, down to one instance.  Chunks cut by index to feed more workers than there are family
# sizes hold at least 256 instances under that cap, since smaller ones spread a task's fixed costs (a stack
# per size, sending the task and its result between processes) over too few.
_TASK_ENTRIES = 8 * _DRAW_ENTRIES
_TASK_MIN = 256


def _integer(name: str, value) -> int:
    """``value`` as an int: a Python or numpy integer.  Anything else, a bool or a float such as 1.5 (which a
    uint64 cast would truncate), raises a ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name}: {value!r} is not an integer")


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
        # held as Python ints, whose arithmetic neither wraps nor overflows as numpy integers' does
        for name in ("master_seed", "instances"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("n_range", "d_range"):
            object.__setattr__(self, name, tuple(_integer(name, v) for v in getattr(self, name)))
        if not 0 <= self.instances <= 2**64:  # an index is two counter words
            raise ValueError("instances must be >= 0 and at most 2**64")
        for name, (lo, hi) in (("n_range", self.n_range), ("d_range", self.d_range)):
            if lo < 1 or hi < lo or hi - lo >= 2**32:
                raise ValueError(f"{name} must be a non-empty range of at most 2**32 integers >= 1")
        if self.field_mode not in ("real", "complex"):
            raise ValueError(f"field_mode must be 'real' or 'complex', got {self.field_mode!r}")
        if not all(map(is_exponent, self.p_values)):
            raise ValueError("all p values must exceed 1")
        check_tolerance(self.tolerance)


# Philox4x32-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): its multipliers, and r times its key increments for rounds r = 0 to 9.  Both are
# uint64 arrays, never scalars, whose promotion rules differ between numpy 1.x and 2.x (NEP 50).
_PHILOX_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_PHILOX_W = np.arange(10, dtype=np.uint64)[:, None, None] * np.array([[0x9E3779B9], [0xBB67AE85]], dtype=np.uint64)
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)  # the uint32 halves of a uint64
_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_CHUNK = 8192  # counter blocks a Philox pass, so that its arrays stay in cache
_TRIES = 4  # unit disks drawn at once, a block each; about half of them are rejected

# An instance's stream is cut into regions of counter blocks, 2**28 blocks apart: the head
# (sizes, the equality-case draw), the disk end points, x of the disk ensemble, the disk
# points, and last, so that no family size bounds it, the vectors and weights.
_HEAD, _ENDS, _X, _POINTS, _VECTORS = (k << 28 for k in range(5))

# The end points of a family with no disk in a stack that binds disks: every disk entry's preconditions fail on it.
_NO_DISK = np.full((1, 2), complex(math.nan, math.nan))


def _round_keys(seed: int) -> np.ndarray:
    """(10, 2, 1) uint32: the round keys of the Philox4x32-10 key ``seed``, its low word first."""
    key = np.array([[seed & 0xFFFFFFFF], [seed >> 32]], dtype=np.uint64)
    return (key + _PHILOX_W).astype(np.uint32)  # each word mod 2**32


def _philox(counter: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox4x32-10 of the uint32 counters ``counter`` (4, m): its words 0 and 2, and 1 and 3, each (2, m)."""
    a, b = counter[0::2], counter[1::2]  # the words a round multiplies, and those it adds to the products
    for k in keys:
        halves = (a * _PHILOX_M).view(np.uint32)[::-1]  # (2, 2 m): the second product, then the first
        a, b = halves[:, _HI::2] ^ b ^ k, halves[:, _LO::2]
    return a, b


def _words(cfg: FuzzConfig, lane: int, index: np.ndarray, *regions: tuple) -> list[np.ndarray]:
    """Per region ``(block, count)``: ``count`` words (a number, or one per instance) of each stream of
    ``index`` in turn from its counter block ``block`` on, all drawn together.  Instance ``index`` of
    ``lane`` has the stream ``(master_seed, index, lane)``: its block ``b`` is Philox4x32-10 of the
    counter ``(b, lane, index mod 2**32, index // 2**32)`` under the key ``master_seed mod 2**64``."""
    count = np.concatenate([np.zeros(len(index), dtype=np.int64) + c for _, c in regions])  # per region and row
    blocks = (count + 3) // 4
    segment = np.arange(count.size).repeat(blocks)  # of each counter block
    within = np.arange(segment.size) - (blocks.cumsum() - blocks)[segment]  # its place in the region
    at = index[segment % len(index)]
    counter = np.empty((4, segment.size), dtype=np.uint32)
    counter[0] = np.array([block for block, _ in regions]).repeat(len(index))[segment] + within
    counter[1], counter[2], counter[3] = lane, at & _M32, at >> _S32
    keys = _round_keys(cfg.master_seed & (2**64 - 1))
    words = np.empty((segment.size, 4), dtype=np.uint64)
    for a in range(0, segment.size, _CHUNK):
        rows = slice(a, a + _CHUNK)
        words[rows, 0::2].T[...], words[rows, 1::2].T[...] = _philox(counter[:, rows], keys)
    words = words[np.arange(4) < (count[segment] - 4 * within)[:, None]]  # each region's first count words
    ends = count.reshape(len(regions), -1).sum(axis=1).cumsum().tolist()
    return [words[a:b] for a, b in zip([0, *ends], ends)]


def _uniform(words: np.ndarray) -> np.ndarray:
    """The uniform values ``w 2**-32`` of [0, 1) of 32-bit words, exact in a double."""
    return words.astype(np.float64) * 2.0**-32


def _dyadic(words: np.ndarray) -> np.ndarray:
    """The uniform values ``(w - 2**31) 2**-31`` of [-1, 1) of 32-bit words, exact in a double."""
    return (words.astype(np.float64) - 2.0**31) * 2.0**-31


def _sizes(words: np.ndarray, bounds: tuple[int, int]) -> np.ndarray:
    """Integers of ``bounds = (lo, hi)`` by multiply-shift, ``lo + (w span >> 32)`` with ``span = hi - lo + 1``;
    the relative bias of each is below ``span / 2**32``."""
    lo, hi = bounds
    return lo + (words * np.uint64(hi - lo + 1) >> _S32).astype(np.int64)


def _fields(words: np.ndarray, runs: Iterable[tuple[int, tuple]], mode: str) -> list[list[np.ndarray]]:
    """Per run ``(k, shapes)`` in turn, the next k rows of ``words`` (row-major, of any shape) as contiguous
    complex arrays of these shapes (k, *shape), each from its own run of a row, of uniform dyadic parts
    (``_dyadic``): a word a real entry, a real and an imaginary part a complex one.  The words are decoded
    at once, and an array that is a whole run is a view of the decoded entries."""
    v = _dyadic(words).reshape(-1)
    z = v.view(np.complex128) if mode == "complex" else v.astype(np.complex128)
    out, start = [], 0
    for k, shapes in runs:
        cuts = [0, *accumulate(math.prod(shape) for shape in shapes)]
        rows, start = z[start : start + k * cuts[-1]].reshape(k, cuts[-1]), start + k * cuts[-1]
        bounds = zip(pairwise(cuts), shapes)
        out.append([np.ascontiguousarray(rows[:, a:b]).reshape(k, *shape) for (a, b), shape in bounds])
    return out


def _count(cfg: FuzzConfig, shapes: tuple) -> int:
    """The words of field arrays of ``shapes``."""
    return sum(map(math.prod, shapes)) * (1 if cfg.field_mode == "real" else 2)


def _accepted(cfg: FuzzConfig, lane: int, index: np.ndarray, block: int, stride: int, tries, accept) -> np.ndarray:
    """Each instance's first try that ``accept(rows, tries)`` takes, of its ``tries`` (B, T, m), try j the field
    array of m entries from counter block ``block + j stride`` on.  An instance none of whose tries is
    taken draws its next T, until one is: none is ever given up."""
    out, rows, j = np.empty_like(tries[:, 0]), np.arange(len(index)), 0
    while rows.size:
        ok = accept(rows, tries)
        first, taken = ok.argmax(axis=1), ok.any(axis=1)
        out[rows[taken]] = tries[taken, first[taken]]
        rows, j = rows[~taken], j + tries.shape[1]
        if rows.size:
            shapes = (tries.shape[2:],)
            regions = [(block + (j + t) * stride, _count(cfg, shapes)) for t in range(tries.shape[1])]
            words = _words(cfg, lane, index[rows], *regions)
            tries = np.stack([_fields(w, [(len(rows), shapes)], cfg.field_mode)[0][0] for w in words], 1)
    return out


def _head(cfg: FuzzConfig, lane: int, index: np.ndarray, positive_re=None) -> tuple:
    """Each instance's size n, dimension d, the uniform that decides its equality case and, given
    ``positive_re``, its disk's end points (B, 2): ``scale`` times its first unit draw (a block each)
    with a center and, where ``positive_re``, ``Re(Gamma conj(gamma)) > 0``.  Its parts lie in
    [-1, 1), so no finite scale takes it beyond the double range."""
    disks = () if positive_re is None else ((_ENDS, 4 * _TRIES),)
    head, *words = _words(cfg, lane, index, (_HEAD, 3), *disks)
    head = head.reshape(-1, 3)
    sizes = _sizes(head[:, 0], cfg.n_range), _sizes(head[:, 1], cfg.d_range), _uniform(head[:, 2])
    if positive_re is None:
        return sizes

    def accept(rows: np.ndarray, tries: np.ndarray) -> np.ndarray:
        _, center, _, re_product, _ = disk_quantities(tries[..., 0], tries[..., 1])
        return (modulus(center) > 1e-6) & ((re_product > 0.0) | ~positive_re[rows, None])

    words = words[0].reshape(-1, 4)[:, : _count(cfg, ((2,),))]  # a try's words, the first of its block
    tries = _fields(words, [(len(words), ((2,),))], cfg.field_mode)[0][0]
    return *sizes, cfg.disk_sampler.scale * _accepted(cfg, lane, index, _ENDS, 1, tries.reshape(-1, _TRIES, 2), accept)


def _disk_points(center: np.ndarray, radius: np.ndarray, words: np.ndarray, cfg: FuzzConfig) -> np.ndarray:
    """(m,) points of the disks with ``center`` and ``radius`` (m,), from (m, 3) words, three a point: on the
    boundary where its first word's uniform is below ``boundary_fraction`` (real mode: at the end its third
    word's top bit picks), else given by its second word on the real diameter (real mode), or by its
    second word's radius and its third word's angle (complex mode)."""
    boundary = _uniform(words[:, 0]) < cfg.disk_sampler.boundary_fraction
    if cfg.field_mode == "real":
        side = np.where(words[:, 2] >> np.uint64(31), 1.0, -1.0)
        return center + radius * np.where(boundary, side, _dyadic(words[:, 1]))
    rho = radius * np.where(boundary, 1.0, np.sqrt(_uniform(words[:, 1])))
    return center + rho * np.exp(2j * np.pi * _uniform(words[:, 2]))


class Raw(NamedTuple):
    """The draws of a batch of instances that come before their vectors, row by row."""

    lane: int
    index: np.ndarray  # (B,) the instance indices, uint64
    n: np.ndarray  # (B,) the family sizes
    d: np.ndarray  # (B,) the dimensions
    ends: np.ndarray | None = None  # (B, 2) the disks' end points (gamma, Gamma)
    zs: dict[int, np.ndarray] | None = None  # equality coefficients by instance, in place of disk points


def _runs(raw: Raw) -> list[tuple[slice, int, int]]:
    """The runs of rows of one size n and dimension d of ``raw``, in order: (rows, n, d)."""
    n, d = raw.n.tolist(), raw.d.tolist()
    cuts = (((raw.n[1:] != raw.n[:-1]) | (raw.d[1:] != raw.d[:-1])).nonzero()[0] + 1).tolist()
    return [(slice(a, b), n[a], d[a]) for a, b in zip([0, *cuts], [*cuts, len(n)])]


def _run_entries(cfg: FuzzConfig, raw: Raw, runs: list, *regions: tuple, points: bool = False) -> list:
    """Per region ``(block, shapes)``, per run of ``raw``: the field arrays of ``shapes(n, d)`` of its rows
    from counter block ``block`` on; with ``points``, then per run the instances' (k, n) equality
    coefficients, or else disk points (``_disk_points``).  All are drawn together, and each region's words
    are decoded at once (``_fields``), its runs' arrays cut from them."""
    sizes = [rows.stop - rows.start for rows, _, _ in runs]
    shapes = [[region(n, d) for _, n, d in runs] for _, region in regions]
    counts = [np.array([_count(cfg, s) for s in run_shapes]).repeat(sizes) for run_shapes in shapes]
    wanted = [(block, c) for (block, _), c in zip(regions, counts)]
    words = _words(cfg, raw.lane, raw.index, *wanted, *[(_POINTS, 3 * raw.n)] * points)
    out = [_fields(w, zip(sizes, run_shapes), cfg.field_mode) for w, run_shapes in zip(words, shapes)]
    if not points:
        return out
    _, center, radius, _, _ = disk_quantities(raw.ends[:, 0], raw.ends[:, 1])
    zs = _disk_points(center.repeat(raw.n), radius.repeat(raw.n), words[-1].reshape(-1, 3), cfg)
    starts = raw.n.cumsum() - raw.n  # of each row's points
    for row, index in enumerate(raw.index.tolist() if raw.zs else ()):
        if index in raw.zs:
            zs[starts[row] : starts[row] + raw.n[row]] = raw.zs[index]
    return out + [[zs[starts[rows.start] :][: k * n].reshape(k, n) for (rows, n, _), k in zip(runs, sizes)]]


def _draw_generic(cfg: FuzzConfig, lane: int, index: np.ndarray) -> Raw:
    n, d, _ = _head(cfg, lane, index)
    return Raw(lane, index, n, d)


def _assemble_generic(cfg: FuzzConfig, raw: Raw, runs: list, weights: bool) -> list[tuple]:
    (vectors,) = _run_entries(cfg, raw, runs, (_VECTORS, lambda n, d: ((d,), (n, d)) + ((n,),) * weights))
    return [tuple(arrays) for arrays in vectors]


def _draw_in_disk(cfg: FuzzConfig, lane: int, index: np.ndarray) -> Raw:
    n, d, u, ends = _head(cfg, lane, index, positive_re=index % np.uint64(2) == 0)
    zs, extremal = {}, (u < cfg.disk_sampler.extremal_fraction) & (cfg.field_mode == "complex")
    for row in np.flatnonzero(extremal).tolist():
        disk = Disk(*ends[row].tolist())
        if disk.re_product > 0.0:
            i = int(index[row])
            spec = plan(ExtremalTarget.THM21 if (i // 2) % 2 == 0 else ExtremalTarget.THM22, int(n[row]), disk)
            if spec.feasible:
                zs[i] = equality_coefficients(spec)
    return Raw(lane, index, n, d, ends, zs or None)


def _assemble_in_disk(cfg: FuzzConfig, raw: Raw, runs: list, weights: bool) -> list[tuple]:
    xs, vectors, coefficients = _run_entries(
        cfg, raw, runs, (_X, lambda n, d: ((d,),)), (_VECTORS, lambda n, d: ((n, d),) + ((n,),) * weights), points=True
    )  # x, then the free components and, where drawn, the weights
    # x is drawn again, d blocks a try, until it is nonzero; one test over the draw's entries finds the
    # rows whose x is zero, so that only their runs draw again
    nonzero = np.logical_or.reduceat(np.concatenate([x.reshape(-1) for (x,) in xs]) != 0, raw.d.cumsum() - raw.d)
    zero = np.flatnonzero(~nonzero).tolist()
    parts = []
    for (rows, _, d), (x,), (ws, *c), zs in zip(runs, xs, vectors, coefficients):
        if any(rows.start <= row < rows.stop for row in zero):
            x = _accepted(cfg, raw.lane, raw.index[rows], _X, d, x[:, None], lambda _, tries: tries.any(axis=2))
        parts.append((x, lift_stack(x, zs, ws), *c))
    return parts


def _draw_orthonormal(cfg: FuzzConfig, lane: int, index: np.ndarray) -> Raw:
    n, d, _, ends = _head(cfg, lane, index, positive_re=np.ones(len(index), dtype=bool))
    return Raw(lane, index, n, np.maximum(d, n), ends)


def _assemble_orthonormal(cfg: FuzzConfig, raw: Raw, runs: list, weights: bool) -> list[tuple]:
    # the matrix whose QR gives the e_j, then, when dim > n, a component outside their span; no weights
    shapes = lambda n, dim: ((dim, n),) + ((dim,),) * (dim > n)  # noqa: E731
    parts = []
    for (m, *extra), zs in zip(*_run_entries(cfg, raw, runs, (_VECTORS, shapes), points=True)):
        if cfg.field_mode == "real":
            # QR in real arithmetic keeps imaginary parts exactly zero
            es = np.linalg.qr(m.real)[0].swapaxes(-1, -2).astype(np.complex128)
        else:
            es = np.linalg.qr(m)[0].swapaxes(-1, -2).copy()  # rows are orthonormal
        x = (zs[:, None, :] @ es)[:, 0]
        for w in extra:  # the component outside the span of the e_j
            x = x + (w - ((es.conj() @ w[:, :, None])[:, :, 0][:, None, :] @ es)[:, 0])
        parts.append((x, es))
    return parts


# The ensembles: name -> (lane, draw(cfg, lane, index) -> Raw, assemble(cfg, raw, runs, weights)).
# ``draw`` draws a batch of instances' sizes and disks.  ``assemble`` turns rows sorted by size and
# dimension into one (x, ys) per run ``runs`` of one size n and dimension d (``_runs``), of k rows: x
# (k, d) and ys (k, n, d), the test vectors; with ``weights`` (an evaluated entry needs them), the
# generic and disk ensembles give (x, ys, c) with the weights c (k, n), the last words of a row's
# vector region, so that leaving them out moves no other word.  Instance ``index`` is drawn from the
# stream (master_seed, index, lane), so a lane must never change.
ENSEMBLES = {
    "generic": (0, _draw_generic, _assemble_generic),
    "disk": (1, _draw_in_disk, _assemble_in_disk),
    "orthonormal": (4, _draw_orthonormal, _assemble_orthonormal),
}


def _ensemble(name: str) -> None:
    """Raise a ValueError unless ``name`` is a key of ``ENSEMBLES``."""
    if name not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {name!r}")


def _drawn(cfg: FuzzConfig, names: Sequence[str], indices: Sequence[np.ndarray], weights: bool) -> Iterator[tuple]:
    """The instances ``indices[k]`` of each ensemble ``names[k]``: their sizes and disks by its ``draw``, then, all
    rows sorted together by size and dimension (stably: within one, the ensembles in order), their vectors by its
    ``assemble``, with the weights where ``weights``, a draw of at most ``_DRAW_ENTRIES`` Gram entries (or one row)
    at a time.  Yields each draw as ``(at, ends, runs)``: the places of its rows in the joined ``indices``, their
    disks' end points (B, 2) or None, and its runs of one size, dimension and ensemble in row order, ``(n, d,
    parts)`` with their parts (x, ys[, c]), which the caller takes over.  One ensemble takes the same path as
    several: its rows are masked out of the joined order per draw, and its end points joined per draw."""
    ensembles = [ENSEMBLES[name] for name in names]
    raws = [draw(cfg, lane, index) for (lane, draw, _), index in zip(ensembles, indices)]
    n, d = np.concatenate([raw.n for raw in raws]), np.concatenate([raw.d for raw in raws])
    bounds = list(pairwise([0, *accumulate(len(raw.n) for raw in raws)]))  # of each ensemble's rows
    order = np.lexsort((d, n))
    cost = (n * np.maximum(n, cfg.d_range[1]))[order]  # each family's Gram entries, sorted
    del n, d  # not held through the draws
    lo = 0
    while lo < len(cost):
        hi = lo + max(1, int(cost[lo:].cumsum().searchsorted(_DRAW_ENTRIES, side="right")))
        at, lo = order[lo:hi], hi
        runs = []
        for raw, (a, b), (_, _, assemble) in zip(raws, bounds, ensembles):
            rows = at[(a <= at) & (at < b)] - a  # the ensemble's rows of the draw, in order
            if rows.size:  # an ensemble may hold no row of a draw
                points = None if raw.ends is None else raw.ends[rows]
                sub = Raw(raw.lane, raw.index[rows], raw.n[rows], raw.d[rows], points, raw.zs)
                cuts = _runs(sub)
                with np.errstate(all="ignore"):  # a disk near the double range gives inf or NaN entries
                    runs += [(size, dim, part) for (_, size, dim), part in zip(cuts, assemble(cfg, sub, cuts, weights))]
        runs.sort(key=operator.itemgetter(0, 1))  # stable: the ensembles in order within one size and dimension
        ends = None  # the rows' end points, _NO_DISK for an ensemble without disks, joined once assembled
        if any(raw.ends is not None for raw in raws):
            ends = [_NO_DISK.repeat(len(raw.n), 0) if raw.ends is None else raw.ends for raw in raws]
            ends = np.concatenate(ends)[at]
        yield at, ends, runs


def sample_families(cfg: FuzzConfig, ensemble: str, indices: Iterable[int]) -> list[tuple[Family, Disk | None]]:
    """One ``(family, disk)`` per index of ``indices``, in the order given, of ensemble ``ensemble`` (a key of
    ``ENSEMBLES``; the disk is None in the generic one).  An index may repeat.  Every index is checked before
    any is drawn; all are drawn together, with the bits ``fuzz`` and ``tightness_compare`` give them.  An entry
    beyond the double range raises ``Family``'s ValueError, for the first such index given."""
    _ensemble(ensemble)
    index = [_integer("index", i) for i in indices]
    for i in index:
        if not 0 <= i < cfg.instances:
            raise ValueError(f"index {i} out of range for {cfg.instances} instances")
    drawn = [None] * len(index)
    for at, ends, runs in _drawn(cfg, [ensemble], [np.array(index, dtype=np.uint64)], False):
        families = [(x[k], ys[k]) for *_, (x, ys) in runs for k in range(len(x))]  # in row order
        for row, (place, (x, ys)) in enumerate(zip(at.tolist(), families)):
            drawn[place] = x, ys, None if ends is None else ends[row]
    return [(Family(x, ys, cfg.field_mode), None if e is None else Disk(*e.tolist())) for x, ys, e in drawn]


def sample_family(cfg: FuzzConfig, index: int) -> Family:
    """Unconstrained family, deterministic in ``(master_seed, index)``; ``sample_families`` of one index."""
    return sample_families(cfg, "generic", [index])[0][0]


def sample_disk_family(cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    """Family whose coefficients lie in a sampled disk, plus that disk.

    The disk center is never zero, and even-indexed instances force
    ``Re(Gamma conj(gamma)) > 0`` on the unit draw (see ``DiskSampler``) so
    both sharp bounds are exercised.
    Free components orthogonal to ``x`` are added to every test vector.
    """
    return sample_families(cfg, "disk", [index])[0]


def sample_orthonormal_family(cfg: FuzzConfig, index: int) -> tuple[Family, Disk]:
    """Orthonormal family with coefficients confined to a valid disk.

    The disk always satisfies ``Re(Gamma conj(gamma)) > 0`` so that both
    specialised orthonormal bounds apply.  The reference vector is built
    from prescribed in-disk coefficients plus a component outside the span.
    """
    return sample_families(cfg, "orthonormal", [index])[0]


class Task(NamedTuple):
    """A pool task: the instances ``start`` to ``stop - 1`` whose size n lies in the class ``part`` of
    ``classes``, ``(n - n_range[0]) % classes == part``; with one class, all of them."""

    cfg: FuzzConfig
    start: int
    stop: int
    classes: int = 1
    part: int = 0

    def index(self, lane: int) -> np.ndarray:
        """The task's instance indices in ensemble lane ``lane``, in order (uint64).  With more than one
        class, the sizes of the whole range are drawn first, a counter block each, to pick them."""
        index = np.arange(self.start, self.stop, dtype=np.uint64)
        if self.classes == 1:
            return index
        n = _head(self.cfg, lane, index)[0]
        return index[(n - self.cfg.n_range[0]) % self.classes == self.part]


class Bound(NamedTuple):
    """One entry of the catalogue ``BOUNDS``.

    ``formula(s)`` returns the entry's ``BatchReport``s on the stack ``s``,
    with ids from ``ids``.  ``needs`` names what it needs bound besides the
    family: "family" (nothing; the exponents ``s.p_values`` are always
    bound), "weights" (``s.weights``) or "disk" (``s.gamma``, ``s.Gamma``);
    an entry runs only on a stack that holds what it needs (``_evaluate``).
    A bound with ``competes`` 1 or 2 competes in tightness through
    ``rhs ** competes``: its right side, or that side squared.
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


def _classical_pecaric(s: BoundStats) -> list[BatchReport]:
    """``pecaric_first`` and ``pecaric_second`` at each of the three classical weights
    (``classical_weights_batch``), bound apart from the drawn weights, since a row of a
    k-row product can differ in its last bit from the same row in a 1-row product."""
    return pecaric_batch(s.bind(weights=classical_weights_batch(s)))


# The entry fuzz evaluates after BOUNDS; check_all never runs it.
_CLASSICAL = Bound(("pecaric_first", "pecaric_second"), "family", _classical_pecaric)


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
        weights=None if c is None else as_weights(f, c)[None],
        p_values=p_values,
        tol=tol,
    )
    return reports_of(_evaluate(s, BOUNDS))


def _tables(task: Task, names: Sequence[str], entries: Sequence[Bound]) -> Iterator[tuple]:
    """The reports of ``entries`` (``_evaluate``) on the instances of ``task`` in the ensembles ``names``,
    drawn together (``_drawn``; the weights only when an entry needs "weights").  Yields each draw as
    ``(samplers, indices, (ids, lhs, rhs, ok))``: column b is instance ``indices[b]`` (uint64) of ensemble
    ``samplers[b]`` (an object array), and the table holds the ids of its K reports and (K, B) arrays of
    their sides and preconditions.  A stack is the families of one size in one draw (so a size group at a
    draw's cut is two), its parts the runs of one dimension (one an ensemble) joined.  Every stack of a draw
    binds the same inputs, and every formula gives the same reports on every stack (``orthonormal_batch``
    with ``ok`` false where it detects no family), so each fills its columns of the table once evaluated.
    The stacks are built one at a time, each run taken out of ``runs``, so that a stack's arrays are freed
    before the next stack is built, and the last one's before the table is yielded; the table is freed once
    its reader drops it."""
    cfg = task.cfg
    weights = any(b.needs == "weights" for b in entries)
    indices = [task.index(ENSEMBLES[name][0]) for name in names]
    samplers = np.array(names, dtype=object).repeat([len(index) for index in indices])
    joined = np.concatenate(indices)
    for at, ends, runs in _drawn(cfg, names, indices, weights):
        runs.reverse()  # taken from the end, in row order
        table, start = None, 0
        while runs:
            size, dims = runs[-1][0], {}  # per dimension of the size, the arrays of its runs
            while runs and runs[-1][0] == size:
                dims.setdefault(runs[-1][1], []).append(runs.pop()[2])
            parts = [run[0] if len(run) == 1 else tuple(map(np.concatenate, zip(*run))) for run in dims.values()]
            cols = slice(start, start + sum(len(part[0]) for part in parts))
            start = cols.stop
            c = np.concatenate([part[2] for part in parts])[:, None] if len(parts[0]) > 2 else None  # (B, 1, n)
            s = Stats.stack([part[:2] for part in parts]).bind(
                ends=None if ends is None else ends[cols].T, weights=c, p_values=cfg.p_values, tol=cfg.tolerance
            )
            del dims, parts, c  # held by the stack alone
            reports = _evaluate(s, entries)
            if table is None:
                shape = (len(reports), len(at))
                table = tuple(r.bound_id for r in reports), np.empty(shape), np.empty(shape), np.empty(shape, bool)
            for f in (1, 2, 3):
                table[f][:, cols] = [r[f] for r in reports]
            del s, reports
        yield samplers[at], joined[at], table
        del table  # held by the reader alone while the next draw is drawn


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


def _winners(ids: tuple[str, ...], rhs: np.ndarray, ok: np.ndarray) -> dict[str, int]:
    """Per competing bound, the families whose smallest ``rhs ** competes`` it gives, of a table's rows
    ``ids``, right sides and preconditions (``_tables``); a competitor not in ``ids`` wins nothing.

    A later entry of ``_COMPETITORS`` wins only when strictly smaller, so
    ties go to the earlier one.  A NaN (a side beyond the double range)
    never wins: neither first nor by displacing a winner.
    """
    win = np.full(ok.shape[1], -1)
    best = np.zeros(win.shape)
    with np.errstate(over="ignore"):  # a side beyond the root of the double range squares to inf
        for k, b in enumerate(_COMPETITORS):
            if b.ids[0] not in ids:
                continue
            row = ids.index(b.ids[0])
            val = rhs[row] if b.competes == 1 else np.square(rhs[row])
            take = ok[row] & ~np.isnan(val) & ((win < 0) | (val < best))
            best = np.where(take, val, best)
            win = np.where(take, k, win)
    return {b.ids[0]: int(np.count_nonzero(win == k)) for k, b in enumerate(_COMPETITORS)}


@cache
def _groups(ids: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """The distinct ``ids`` in order of appearance, and (K, U) whether ``ids[k]`` is the u-th."""
    keys = list(dict.fromkeys(ids))
    return keys, np.array([[i == key for key in keys] for i in ids])


def _tally(cfg: FuzzConfig, samplers: np.ndarray, indices: np.ndarray, table: tuple) -> FuzzSummary:
    """The summary of one draw (``_tables``), whose column b is instance ``indices[b]`` of ensemble
    ``samplers[b]``, and its tightness winners, judged by ``report.verdict``.

    The rows of one bound id (one per weight row or exponent) are
    counted together.  A NaN slack (a side beyond the double range) is
    checked, but never the least slack.
    """
    ids, lhs, rhs, ok = table
    rel, violated, tight = verdict(lhs, rhs, cfg.tolerance)
    slack = ok & ~np.isnan(rel)
    keys, group = _groups(ids)
    least = np.where(group, np.where(slack, rel, np.inf).min(axis=1)[:, None], np.inf).min(axis=0)
    bad = ok & violated
    return FuzzSummary(
        cfg,
        checked=dict(zip(keys, (ok.sum(axis=1) @ group).tolist())),
        violations=[
            {
                "bound_id": ids[k],
                "sampler": samplers[b],
                "instance_seed": int(indices[b]),
                "slack": float(rel[k, b]),
            }
            for b, k in np.argwhere(bad.T)  # instance by instance, rows in order
        ],
        min_slack={key: v for key, v, has in zip(keys, least.tolist(), slack.any(axis=1) @ group) if has},
        tight=dict(zip(keys, ((ok & tight).sum(axis=1) @ group).tolist())),
        tightness_wins=_winners(ids, rhs, ok),
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


def _fuzz_task(task: Task) -> FuzzSummary:
    part = FuzzSummary(task.cfg, {}, [], {}, {}, {})
    # BOUNDS is read when the task runs, not at import, so that a patch of it reaches later calls in this process
    for draw in _tables(task, ("generic", "disk"), (*BOUNDS, _CLASSICAL)):
        _merge(part, _tally(task.cfg, *draw))
        del draw  # freed before the next draw is drawn
    return part


def _tasks(cfg: FuzzConfig, workers: int) -> list[Task]:
    """The tasks of a call on ``workers`` workers: index chunks of ``ceil(instances / ceil(workers / m))``
    instances, but at least ``_TASK_MIN`` and at most what ``_TASK_ENTRIES`` allows of the largest families,
    each cut into m tasks by the class of its sizes modulo m, ``m = min(workers, sizes, instances)`` for the
    ``sizes`` of ``n_range`` (at least 1).  So each size of a chunk is drawn and stacked in one task alone, and
    no task is made for want of instances; with m = workers the chunks are as large as the cap allows, and
    with one size they are split by index alone."""
    lo, hi = cfg.n_range
    m = max(1, min(workers, hi - lo + 1, cfg.instances))
    cap = max(1, _TASK_ENTRIES // (hi * max(hi, cfg.d_range[1])))
    size = min(cap, max(_TASK_MIN, -(-cfg.instances // -(-workers // m))))
    return [Task(cfg, a, min(a + size, cfg.instances), m, r) for a in range(0, cfg.instances, size) for r in range(m)]


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
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = _tasks(cfg, workers)
    workers = min(workers, len(tasks))  # a process per task at most: the pool forks them all at once
    if workers <= 1:
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


def _compare_task(ensemble: str, task: Task) -> dict[str, tuple[int, list[float]]]:
    """Per competing bound: its wins, and its ratios lhs / rhs where it applies with rhs > 0, in row order."""
    competing = [b.ids[0] for b in _COMPETITORS]
    wins, ratios = dict.fromkeys(competing, 0), {bid: [] for bid in competing}
    for _, _, (ids, lhs, rhs, ok) in _tables(task, (ensemble,), _COMPETITORS):
        for bid, count in _winners(ids, rhs, ok).items():
            wins[bid] += count
        with np.errstate(all="ignore"):  # sides beyond the double range give NaN ratios
            for bid, num, den, use in zip(ids, lhs, rhs, ok & (rhs > 0.0)):
                ratios[bid] += (num[use] / den[use]).tolist()
    return {bid: (wins[bid], ratios[bid]) for bid in competing}


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
    _ensemble(ensemble)
    results = _map_tasks(partial(_compare_task, ensemble), cfg, workers)
    rows = []
    for bid in (b.ids[0] for b in _COMPETITORS):
        ratios = [v for result in results for v in result[bid][1]]
        mean = math.fsum(ratios) / len(ratios) if ratios else float("nan")
        rows.append(TightnessRow(bid, sum(result[bid][0] for result in results), mean))
    return rows
