"""Tests of the benchmark's oracle.

Run from the repository root:
``PYTHONPATH=src python3 -m pytest perfbench/test_oracle.py``.
"""

import math

import mpmath
import numpy as np
import pytest

import oracle
from besselkit import Disk, Family, bessel_sum, boas_bellman, bombieri, theorem21, theorem22


def _library(f: Family, d: Disk) -> dict:
    return {
        "bessel": bessel_sum(f),
        "bombieri": bombieri(f).rhs,
        "boas_bellman": boas_bellman(f).rhs,
        "theorem21": theorem21(f, d).rhs,
        "theorem22": theorem22(f, d).rhs,
    }


def _disk_family(seed: int, n: int, dim: int) -> tuple[Family, Disk]:
    """A family whose coefficients lie in a disk with Re(Gamma conj(gamma)) > 0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    center, radius = 3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi)), 2.0
    z = center + radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    w = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    xx = np.vdot(x, x).real
    # y_j = conj(z_j) x / ||x||^2 plus the part of w_j orthogonal to x, so inner(x, y_j) = z_j
    ys = np.outer(np.conj(z) / xx, x) + w - np.outer(w @ np.conj(x) / xx, x)
    return Family(x, ys), Disk(center - radius, center + radius)


def test_closed_form_on_an_orthonormal_basis():
    x = [3.0 + 4.0j, 0.5, -2.0j]
    ref = oracle.reference(x, np.eye(3), 1.0, 3.0)
    with mpmath.workdps(oracle.DIGITS):
        assert ref["bessel"] == 25 + mpmath.mpf("0.25") + 4
        assert ref["bombieri"] == ref["bessel"]  # ||x||^2 times a max row sum of 1
        assert ref["boas_bellman"] == ref["bessel"]  # no off-diagonal Gram entries
        # (1/n) |G + g|^2 / (4 Re(G conj g)) ||sum e_j||^2 ||x||^2 with n = 3
        assert mpmath.almosteq(ref["theorem22"], mpmath.mpf(16) / 12 * ref["bessel"], 1e-45)


@pytest.mark.parametrize("seed,n,dim", [(1, 1, 1), (2, 7, 4), (3, 12, 8), (4, 40, 9)])
def test_agrees_with_the_library(seed, n, dim):
    f, d = _disk_family(seed, n, dim)
    ref = oracle.reference(f.x, f.ys, d.gamma, d.Gamma)
    assert set(ref) == {"bessel", "bombieri", "boas_bellman", "theorem21", "theorem22"}
    assert oracle.mismatches(ref, _library(f, d)) == []


@pytest.mark.parametrize("key", ["bessel", "bombieri", "boas_bellman", "theorem21", "theorem22"])
def test_flags_a_perturbed_rhs(key):
    f, d = _disk_family(5, 9, 4)
    ref = oracle.reference(f.x, f.ys, d.gamma, d.Gamma)
    lib = _library(f, d)
    lib[key] *= 1.0 + 1e-11
    assert [m.split(":")[0] for m in oracle.mismatches(ref, lib)] == [key]
    lib[key] = math.nextafter(_library(f, d)[key], math.inf)  # one ulp stays within 1e-12
    assert oracle.mismatches(ref, lib) == []


@pytest.mark.parametrize("e", [300, -300])
def test_no_overflow_or_underflow_where_doubles_would(e):
    f, d = _disk_family(6, 5, 3)
    ref = oracle.reference(f.x, f.ys, d.gamma, d.Gamma)
    scaled = oracle.reference(
        f.x * 2.0**e, f.ys * 2.0**e, d.gamma * 2.0 ** (2 * e), d.Gamma * 2.0 ** (2 * e)
    )
    with mpmath.workdps(oracle.DIGITS):
        two = mpmath.mpf(2)
        for key, power in (("bessel", 4), ("bombieri", 4), ("boas_bellman", 4), ("theorem21", 2), ("theorem22", 4)):
            assert mpmath.almosteq(scaled[key], ref[key] * two ** (power * e), 1e-45), key
