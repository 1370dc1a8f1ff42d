"""Special functions: gamma and the 1F1 simplification identities.

The reduction kernels call scipy.special directly (error-function family,
Faddeeva function, K0/K1/K2, real-argument 1F1); of this module they use
only ``gamma_fn``, scipy's gamma with a pole check.  The rest is the
paper's simplification claims: 1F1 at the parameter patterns b = 2a - m,
2a, 2a + m written through Bessel I (``scipy.special.ive``, the
exponentially scaled I of real order and complex z, so large |Re z|
neither overflows nor underflows) and at b = a - m through a generalized
Laguerre polynomial (DLMF 13.6).  Far out on the left the b = 2a - m sum
cancels, and that form takes DLMF 13.7.2's asymptotic series instead; far
out on the right the b = 2a + m sum cancels alike, and Kummer's
transformation (DLMF 13.2.39) maps it onto that same series.
Laguerre polynomials and Pochhammer symbols are short exact recurrences,
kept because scipy's ``eval_genlaguerre`` returns NaN for alpha <= -1,
which the Laguerre form needs.  The tests check every identity against
mpmath's 1F1.

Everything is a pure function; nothing mutates shared state.
"""

from __future__ import annotations

import cmath
import math

from scipy import special as _sp

__all__ = [
    "SpecialFunctionError",
    "gamma_fn",
    "kummer_via_bessel_2a_minus",
    "kummer_via_bessel_2a",
    "kummer_via_bessel_2a_plus",
    "kummer_via_laguerre",
    "laguerre_gen",
    "pochhammer",
]


class SpecialFunctionError(ValueError):
    """Domain or parameter violation for a special-function call."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ..."""
    if not math.isfinite(x):
        raise SpecialFunctionError("gamma_fn requires finite x")
    if _is_nonpositive_integer(x):
        raise SpecialFunctionError(f"gamma_fn pole at x={x}")
    return float(_sp.gamma(x))


def pochhammer(x: float, k: int) -> float:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1); (x)_0 = 1."""
    if k < 0:
        raise SpecialFunctionError("pochhammer requires k >= 0")
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def laguerre_gen(m: int, alpha: float, z: float | complex) -> float | complex:
    """Generalized Laguerre polynomial L_m^alpha(z), real or complex z, by recurrence."""
    if m < 0:
        raise SpecialFunctionError("laguerre_gen requires m >= 0")
    if m == 0:
        return 1.0
    lkm1, lk = 1.0, 1.0 + alpha - z
    for k in range(1, m):
        lkm1, lk = lk, ((2 * k + 1 + alpha - z) * lk - (k + alpha) * lkm1) / (k + 1)
    return lk


# ----------------------------------------------------------------------------
# Simplified forms of 1F1 at the special parameter patterns the catalog
# meets: b = 2a - m, b = 2a, b = 2a + m (Bessel-I forms) and b = a - m
# (Laguerre form).  Complex intermediates on principal branches; the result
# is real for real arguments.  On the negative real axis scipy's ive takes
# the upper side of its cut whatever the sign of a zero imaginary part, and
# _cpow does the same.
# ----------------------------------------------------------------------------


def _cpow(base: complex, expo: float) -> complex:
    if base == 0:
        return 0.0 + 0.0j
    base = complex(base)
    if base.imag == 0.0:
        base = complex(base.real, 0.0)  # drop a signed zero: one branch for real args
    return cmath.exp(expo * cmath.log(base))


def _exp_half_scaled(z: complex) -> complex:
    """exp(z/2) times the exp(|Re z|/2) that scipy's ive(v, +-z/2) divides out.

    exp(z/2) I_v(+-z/2) = exp((z + |Re z|)/2) ive(v, +-z/2): the scaled
    form neither overflows in I_v nor underflows in exp(z/2) at large |Re z|.
    """
    return cmath.exp((z + abs(z.real)) / 2.0)


# From Re z <= -_FAR_OUT on, kummer_via_bessel_2a_minus takes DLMF 13.7.2;
# the e^z z^(a-b) part that drops is then about e^-100 |z|^m of the value.
# kummer_via_bessel_2a_plus reaches it from Re z >= _FAR_OUT on.
_FAR_OUT = 100.0


def _kummer_far_left(a: float, b: float, z: complex) -> complex | None:
    """1F1(a; b; z) for Re z <= -_FAR_OUT by DLMF 13.7.2, or None.

    Gamma(b)/Gamma(b-a) (-z)^-a sum_s (a)_s (a-b+1)_s / s! (-z)^-s, summed
    while its terms fall; None when they stop falling before reaching
    rounding, or when 1/Gamma(b-a) vanishes and the dropped part is all.
    """
    scale = _sp.rgamma(b - a)
    if scale == 0.0:
        return None
    w = -z
    term = total = 1.0 + 0.0j
    for s in range(200):
        nxt = term * (a + s) * (a - b + 1.0 + s) / ((s + 1) * w)
        if abs(nxt) >= abs(term):
            return None
        term = nxt
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return gamma_fn(b) * scale * _cpow(w, -a) * total
    return None


def kummer_via_bessel_2a_minus(a: float, m: int, z: complex) -> complex:
    """1F1(a; 2a-m; z) through a finite sum of Bessel-I terms.

    Once m >= 1 the terms cancel to O(|z|^-m) of their size far out on the
    left, where 1F1 itself decays only as |z|^-a.  So from
    Re z <= -_FAR_OUT on, the value is DLMF 13.7.2's asymptotic series
    wherever that reaches rounding.
    """
    if m < 0:
        raise SpecialFunctionError("m must be a non-negative integer")
    if _is_nonpositive_integer(2 * a - m):
        raise SpecialFunctionError(f"b=2a-m={2*a-m} is a non-positive integer")
    if _is_nonpositive_integer(a - m - 0.5):
        raise SpecialFunctionError(f"gamma pole at a-m-1/2={a-m-0.5}")
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    if z.real <= -_FAR_OUT:
        far = _kummer_far_left(a, 2 * a - m, z)
        if far is not None:
            return far
    total = 0.0 + 0.0j
    for k in range(m + 1):
        coeff = (
            (-1.0) ** k
            * pochhammer(-m, k)
            * pochhammer(2 * a - 2 * m - 1, k)
            * (a + k - m - 0.5)
            / (pochhammer(2 * a - m, k) * math.factorial(k))
        )
        total += coeff * complex(_sp.ive(a + k - m - 0.5, z / 2.0))
    pref = gamma_fn(a - m - 0.5) * _cpow(z / 4.0, m - a + 0.5) * _exp_half_scaled(z)
    return pref * total


def kummer_via_bessel_2a(a: float, z: complex) -> complex:
    """1F1(a; 2a; z) = 2^(2a-1) e^(z/2) (-z)^(1/2-a) Gamma(a+1/2) I_(a-1/2)(-z/2)."""
    if _is_nonpositive_integer(2 * a):
        raise SpecialFunctionError(f"b=2a={2*a} is a non-positive integer")
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    return (
        2.0 ** (2 * a - 1)
        * _exp_half_scaled(z)
        * _cpow(-z, 0.5 - a)
        * gamma_fn(a + 0.5)
        * complex(_sp.ive(a - 0.5, -z / 2.0))
    )


def kummer_via_bessel_2a_plus(a: float, m: int, z: complex) -> complex:
    """1F1(a; 2a+m; z) through a finite sum of Bessel-I terms.

    Once m >= 1 the terms cancel to O(|z|^-m) of their size far out on the
    right.  So from Re z >= _FAR_OUT on, the value is Kummer's
    transformation, e^z 1F1(a+m; 2(a+m)-m; -z), whose 2a-minus form takes
    the far-left series; both forms have the same poles.
    """
    if m < 0:
        raise SpecialFunctionError("m must be a non-negative integer")
    if _is_nonpositive_integer(2 * a + m):
        raise SpecialFunctionError(f"b=2a+m={2*a+m} is a non-positive integer")
    if _is_nonpositive_integer(a - 0.5):
        raise SpecialFunctionError(f"gamma pole at a-1/2={a-0.5}")
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    if z.real >= _FAR_OUT:
        return cmath.exp(z) * kummer_via_bessel_2a_minus(a + m, m, -z)
    total = 0.0 + 0.0j
    for k in range(m + 1):
        coeff = (
            pochhammer(-m, k)
            * pochhammer(2 * a - 1, k)
            * (a + k - 0.5)
            / (pochhammer(2 * a + m, k) * math.factorial(k))
        )
        total += coeff * complex(_sp.ive(a + k - 0.5, z / 2.0))
    pref = gamma_fn(a - 0.5) * _cpow(z / 4.0, 0.5 - a) * _exp_half_scaled(z)
    return pref * total


def kummer_via_laguerre(a: float, m: int, z: complex) -> complex:
    """1F1(a; a-m; z) = (-1)^m e^z m! L_m^(a-m-1)(-z) / (1-a)_m."""
    if m < 0:
        raise SpecialFunctionError("m must be a non-negative integer")
    if _is_nonpositive_integer(a - m):
        raise SpecialFunctionError(f"b=a-m={a-m} is a non-positive integer")
    denom = pochhammer(1.0 - a, m)
    if denom == 0.0:
        raise SpecialFunctionError(f"(1-a)_m vanishes for a={a}, m={m}")
    z = complex(z)
    lag = laguerre_gen(m, a - m - 1.0, -z)
    return (-1.0) ** m * cmath.exp(z) * math.factorial(m) * lag / denom
