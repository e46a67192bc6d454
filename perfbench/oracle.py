"""Independent reference values for the Bessel sum and four of its bounds.

Works straight from the definitions and shares no code with besselkit:

* every float is a dyadic rational, so all inner products are formed
  exactly in integer arithmetic over a common power-of-two exponent;
* everything after the inner products (moduli, square roots, maxima,
  quotients) is evaluated in mpmath at 50 significant digits.

The rounding of the reference values is therefore far below the 1e-12
relative tolerance at which the benchmark compares the library against it.
"""

from __future__ import annotations

from operator import mul

import mpmath

DIGITS = 50
REL_TOL = 1e-12


def _common_scale(values):
    """Integers ``k`` and an exponent ``e`` with ``value == k * 2**e`` for all."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = -max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (-e - (den.bit_length() - 1)) for num, den in ratios], e


class _Exact:
    """Complex vectors as integer real and imaginary parts times ``2**e``."""

    def __init__(self, x, ys):
        flat = [complex(z) for z in x]
        for row in ys:
            flat.extend(complex(z) for z in row)
        ints, self.e = _common_scale([z.real for z in flat] + [z.imag for z in flat])
        half = len(flat)
        re, im = ints[:half], ints[half:]
        d = len(x)
        self.x = (re[:d], im[:d])
        self.ys = [(re[k : k + d], im[k : k + d]) for k in range(d, half, d)]

    def inner(self, u, v):
        """``inner(u, v) = sum u_k conj(v_k)``, exact, scaled by ``2**(-2e)``."""
        (ur, ui), (vr, vi) = u, v
        re = sum(map(mul, ur, vr)) + sum(map(mul, ui, vi))
        im = sum(map(mul, ui, vr)) - sum(map(mul, ur, vi))
        return re, im

    def value(self, k: int, power: int):
        """``mpf(k * 2**(power * e))``, exact."""
        return mpmath.ldexp(mpmath.mpf(k), power * self.e)


def _abs(ex: _Exact, z):
    re, im = z
    return mpmath.sqrt(ex.value(re * re + im * im, 4))


def reference(x, ys, gamma=None, Gamma=None) -> dict:
    """Reference values as mpmath numbers, keyed like the library's bounds.

    Keys: ``bessel`` (the Bessel sum), and the right sides ``bombieri``,
    ``boas_bellman``, plus ``theorem21`` when ``Gamma != -gamma`` and
    ``theorem22`` when ``Re(Gamma conj(gamma)) > 0``.  The disk bounds are
    returned whenever the disk is given; whether the coefficients lie in
    the disk is the caller's concern.
    """
    with mpmath.workdps(DIGITS):
        ex = _Exact(x, ys)
        n = len(ex.ys)
        xx = ex.value(ex.inner(ex.x, ex.x)[0], 2)
        bessel = mpmath.fsum(_abs(ex, ex.inner(ex.x, y)) ** 2 for y in ex.ys)
        mod = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mod[i][j] = mod[j][i] = _abs(ex, ex.inner(ex.ys[i], ex.ys[j]))
        row_sums = [mpmath.fsum(row) for row in mod]
        diag_max = max(mod[i][i] for i in range(n))
        off_sq = mpmath.fsum(
            mod[i][j] ** 2 for i in range(n) for j in range(n) if i != j
        )
        out = {
            "bessel": bessel,
            "bombieri": xx * max(row_sums),
            "boas_bellman": xx * (diag_max + mpmath.sqrt(off_sq)),
        }
        if gamma is None:
            return out
        g, G = (mpmath.mpc(complex(v).real, complex(v).imag) for v in (gamma, Gamma))
        s_re = [sum(col) for col in zip(*(y[0] for y in ex.ys))]
        s_im = [sum(col) for col in zip(*(y[1] for y in ex.ys))]
        ss = ex.value(ex.inner((s_re, s_im), (s_re, s_im))[0], 2)
        if abs(G + g) != 0:
            out["theorem21"] = mpmath.sqrt(xx) * mpmath.sqrt(ss) / mpmath.sqrt(n) + (
                mpmath.sqrt(n) / 4
            ) * abs(G - g) ** 2 / abs(G + g)
        re_prod = (G * mpmath.conj(g)).real
        if re_prod > 0:
            out["theorem22"] = abs(G + g) ** 2 / (4 * re_prod * n) * ss * xx
        return out


def mismatches(reference_values: dict, library_values: dict, tol: float = REL_TOL) -> list[str]:
    """Keys present in both dicts whose values differ by more than ``tol`` relative."""
    bad = []
    with mpmath.workdps(DIGITS):
        for key in sorted(reference_values.keys() & library_values.keys()):
            ref = reference_values[key]
            got = mpmath.mpf(library_values[key])  # exact: 50 digits hold a double
            scale = abs(ref) if ref != 0 else mpmath.mpf(1)
            if abs(got - ref) > tol * scale:
                bad.append(f"{key}: library {library_values[key]!r}, reference {mpmath.nstr(ref, 20)}")
    return bad
