"""The catalogue's equality cases, in one table.

Two families built in closed form, with weights all 1, attain every report
id of ``harness.BOUNDS``:

- ``repeated``: ``y_j = x`` for every j, on the disk of the one point
  ``(a, a)``, where ``a = ||x||^2`` is every coefficient;
- ``constant_orthonormal``: ``x = c sum(e_j)`` over orthonormal ``e_j``, on
  the disk of the one point ``(c, c)``, where ``c`` is every coefficient.

"Attains" is ``|lhs - rhs| <= 32 eps max(|lhs|, |rhs|)``, a rounding bound
much stricter than ``is_tight()``'s 1e-9.  It checks truth, not recorded
bits, so the last bits that a BLAS kernel moves do not fail it.
"""

import numpy as np
import pytest

from besselkit import Disk, Family, check_all
from besselkit.core import BoundStats
from besselkit.harness import BOUNDS

IDS = tuple(bound_id for b in BOUNDS for bound_id in b.ids)
FIELDS = ("complex", "real")
P_VALUES = (1.1, 1.5, 3.0, 7.0)
ULPS = 32 * np.finfo(float).eps


def _draw(rng, shape, field):
    v = rng.standard_normal(shape)
    return v + 1j * rng.standard_normal(shape) if field == "complex" else v


def repeated(rng, n, d, field):
    x = _draw(rng, d, field)
    f = Family(x, [x] * n, field)
    a = complex(f.coefficients[0])
    return f, Disk(a, a)


def constant_orthonormal(rng, n, d, field):
    es = np.linalg.qr(_draw(rng, (d, n), field))[0].T
    c = complex(_draw(rng, (), field))
    return Family(c * es.sum(axis=0), es, field), Disk(c, c)


# the ids each family does not attain at n >= 2; at n = 1 both attain every id they report
UNATTAINED = {
    repeated: {"boas_bellman", "orthonormal30", "orthonormal31"},
    constant_orthonormal: {"dragomir04_b2", "dragomir04_b3", "dragomir04_cor2", "dragomir04_cor3"},
}


def failures(field: str) -> set[str]:
    """The ids the table finds at fault in ``field``, over n = 1 to 6 and d in {n, n + 2}.

    An id fails where one of its reports is skipped or violated, or is not
    attained on a family that attains it, and where neither family attains it
    anywhere on the grid.
    """
    rng = np.random.default_rng(37)
    failed, attained = set(), set()
    for n in range(1, 7):
        for d in (n, n + 2):
            for build, unattained in UNATTAINED.items():
                f, disk = build(rng, n, d, field)
                for r in check_all(f, disk, np.ones(n), P_VALUES):
                    if not r.preconditions_met or not r.holds():
                        failed.add(r.bound_id)
                    elif abs(r.lhs - r.rhs) <= ULPS * max(abs(r.lhs), abs(r.rhs)):
                        attained.add(r.bound_id)
                    elif n == 1 or r.bound_id not in unattained:
                        failed.add(r.bound_id)
    return failed | (set(IDS) - attained)


@pytest.mark.parametrize("field", FIELDS)
def test_two_families_attain_every_id(field):
    assert failures(field) == set()


@pytest.mark.parametrize("bound_id", IDS)
def test_table_sees_a_right_side_loosened_by_1e_12(monkeypatch, bound_id):
    evaluate = BoundStats.evaluate

    def loosened(self, *formulas):
        reports = evaluate(self, *formulas)
        return [r._replace(rhs=r.rhs * (1 + 1e-12)) if r.bound_id == bound_id else r for r in reports]

    monkeypatch.setattr(BoundStats, "evaluate", loosened)
    assert [failures(field) for field in FIELDS] == [{bound_id}, {bound_id}]
