"""The one verdict rule: ``BoundReport`` and the array rule agree on every report."""

import math

import numpy as np
import pytest

from besselkit.report import evaluated, skipped, verdict

INF, NAN = math.inf, math.nan


def table(tol):
    """(lhs, rhs) pairs: non-finite and signed-zero sides, and points around both edges of tolerance."""
    pairs = [(a, b) for a in (NAN, INF, -INF, 0.0, -0.0, 1.0) for b in (NAN, INF, -INF, 0.0, -0.0, 1.0)]
    for rhs in (0.0, 0.25, 1.0, -2.0, 3.0, 1e10, -1e-10):
        for edge in (rhs + tol * max(1.0, abs(rhs)), rhs - tol * max(1.0, abs(rhs))):
            pairs += [(np.nextafter(edge, -INF), rhs), (edge, rhs), (np.nextafter(edge, INF), rhs)]
    return pairs


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_report_agrees_with_the_array_rule(tol):
    pairs = table(tol)
    lhs, rhs = np.array(pairs).T
    rel, violated, tight = verdict(lhs, rhs, tol)
    reports = [evaluated("b", a, b) for a, b in pairs]
    assert np.array_equal([r.relative_slack() for r in reports], rel, equal_nan=True)
    assert [not r.holds(tol) for r in reports] == violated.tolist()
    assert [r.is_tight(tol) for r in reports] == tight.tolist()
    # the table reaches every outcome, and a NaN relative slack is neither violated nor tight
    assert violated.any() and tight.any() and (~violated & ~tight).any()
    assert not (violated | tight)[np.isnan(rel)].any() and np.isnan(rel).any()


def test_verdicts_at_known_points():
    tol = 1e-9
    for lhs, rhs, want in (
        (1.0, 1.0, (False, True)),
        (1.0 + 2e-9, 1.0, (True, False)),
        (1.0 - 2e-9, 1.0, (False, False)),
        (INF, NAN, (False, False)),
        (INF, INF, (False, False)),  # inf - inf is NaN
        (INF, 1.0, (True, False)),
        (-INF, 1.0, (False, False)),
        (-0.0, 0.0, (False, True)),
    ):
        rep = evaluated("b", lhs, rhs)
        assert (not rep.holds(tol), rep.is_tight(tol)) == want, (lhs, rhs)
        assert tuple(map(bool, verdict(lhs, rhs, tol)[1:])) == want, (lhs, rhs)
    # a skipped report is never violated nor tight, and has no relative slack
    rep = skipped("b", "why")
    assert (rep.holds(tol), rep.is_tight(tol), rep.relative_slack()) == (True, False, None)


@pytest.mark.parametrize("tol", [NAN, INF, 0.0, -1.0])
def test_bad_tolerance_raises(tol):
    for rep in (evaluated("b", 1.0, 2.0), evaluated("b", NAN, 1.0), skipped("b", "why")):
        with pytest.raises(ValueError, match="finite and positive"):
            rep.holds(tol)
        with pytest.raises(ValueError, match="finite and positive"):
            rep.is_tight(tol)
    with pytest.raises(ValueError, match="finite and positive"):
        verdict(np.ones(3), np.ones(3), tol)
