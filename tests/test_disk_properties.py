"""Property: where a disk is admissible, its bounds apply exactly when every coefficient lies in it."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from besselkit import (
    Disk,
    Family,
    check_all,
    disk_condition_abs,
    lift_gram_values,
    theorem21,
    theorem22,
    triangle_reverse_l2,
)


# end points at the edges of the double range, then ordinary ones
EDGE_ENDS = (0.0, 5e-324, -5e-324, 5e-324j, 1e-310 - 1e-310j, 1e-170, 3e-170j, 1.0, -1.0, 1j, 2.0 - 0.5j)
disk_ends = st.one_of(
    st.sampled_from(EDGE_ENDS),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def disk_and_coefficients(draw):
    """A disk, possibly of zero radius, and coefficients at its ends, center and boundary, and near it.

    Some lie just inside or just outside the tolerance band of the boundary.
    """
    d = Disk(draw(disk_ends), draw(disk_ends))
    band = 1e-9 * max(1.0, d.radius)  # the default tolerance, scaled as membership scales it
    on_disk = (d.gamma, d.Gamma, d.center, d.center + d.radius, d.center - 1j * d.radius)
    on_disk += tuple(d.center + (d.radius + k * band) * 1j**q for k in (0.5, 2.0) for q in range(4))
    near = st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 2.0 * math.pi)).map(
        lambda tp: d.center + tp[0] * d.radius * cmath.exp(1j * tp[1])
    )
    zs = draw(st.lists(st.one_of(st.sampled_from(on_disk), near), min_size=1, max_size=6))
    return d, zs


class TestPreconditionsAreMembership:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(disk_and_coefficients())
    def test_disk_bounds_apply_exactly_inside(self, case):
        d, zs = case
        fam = Family([1.0], lift_gram_values([1.0], zs))
        inside = bool(np.all(disk_condition_abs(fam.coefficients, d)))
        reports = {r.bound_id: r for r in check_all(fam, d)}
        admissible = {
            "theorem21": d.centered,
            "triangle_reverse_l2": d.centered,
            "theorem22": d.re_product > 0.0,
            "triangle_reverse_sq": d.re_product > 0.0,
            "lemma_eq6": True,
        }
        for bound_id, ok in admissible.items():
            if ok:
                assert reports[bound_id].preconditions_met == inside, bound_id
        if d.centered:
            assert theorem21(fam, d).preconditions_met == inside
            assert triangle_reverse_l2(zs, d).preconditions_met == bool(np.all(disk_condition_abs(zs, d)))
        if d.re_product > 0.0:
            assert theorem22(fam, d).preconditions_met == inside
