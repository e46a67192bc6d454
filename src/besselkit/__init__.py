"""Evaluation and verification toolkit for Bessel-type inequalities.

The package computes a catalogue of upper bounds on the Bessel sum
``sum_j |inner(x, y_j)|^2`` for arbitrary finite vector families, checks
their preconditions, constructs families attaining equality in the two
sharp disk-constrained bounds, and fuzzes everything with reproducible
seeded instances.
"""

from .classical import (
    Dragomir04Bounds,
    PecaricBounds,
    bessel_sum,
    boas_bellman,
    bombieri,
    dragomir03,
    dragomir04,
    dragomir04_corollaries,
    dragomir_pq,
    heilbronn,
    pecaric,
    selberg,
)
from .core import (
    BesselkitError,
    DegenerateReference,
    DimensionMismatch,
    Family,
    ParameterError,
    PreconditionError,
    gram,
    inner,
    lift_gram_values,
    norm,
    project_orthogonal,
)
from .extremal import (
    ExtremalSpec,
    ExtremalTarget,
    InfeasibleConstruction,
    build,
    plan,
    solve_phases,
)
from .harness import (
    DiskSampler,
    FuzzConfig,
    FuzzSummary,
    check_all,
    fuzz,
    sample_disk_family,
    sample_families,
    sample_family,
    sample_orthonormal_family,
    tightness_compare,
)
from .report import DEFAULT_TOLERANCE, BoundReport
from .sharp import (
    Disk,
    EqualityResiduals,
    OrthonormalRemark,
    disk_condition_abs,
    disk_condition_re,
    lemma_eq6,
    orthonormal_remark,
    sufficient_condition_box,
    theorem21,
    theorem21_residuals,
    theorem22,
    theorem22_residuals,
    triangle_reverse_l2,
    triangle_reverse_sq,
)

__version__ = "0.1.0"
