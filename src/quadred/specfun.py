"""Special functions: gamma, erfi and the confluent hypergeometric family.

The reduction kernels call scipy.special directly for the error-function
family, the Faddeeva function, K0/K1/K2 and real-argument 1F1.  This
module keeps gamma with its pole check, erfi through the Faddeeva
function, and the series 1F1 ``kummer_1f1`` (real a, b; complex z), which
serves as the reference for the simplification identities
``kummer_via_*``.  Half-integer-order Bessel I, generalized Laguerre
polynomials and Pochhammer symbols are small exact recurrences.

Everything is a pure function; nothing mutates shared state.
"""

from __future__ import annotations

import cmath
import math

from scipy import special as _sp

__all__ = [
    "SpecialFunctionError",
    "gamma_fn",
    "faddeeva",
    "erfi",
    "bessel_i_half",
    "kummer_1f1",
    "kummer_via_bessel_2a_minus",
    "kummer_via_bessel_2a",
    "kummer_via_bessel_2a_plus",
    "kummer_via_laguerre",
    "laguerre_gen",
    "pochhammer",
]

_SERIES_MAX_TERMS = 700
_KUMMER_REFLECT_CUTOFF = 300.0


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


def faddeeva(z: complex) -> complex:
    """w(z) = exp(-z**2) erfc(-iz)."""
    w = complex(_sp.wofz(complex(z)))
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise SpecialFunctionError(f"faddeeva overflow at z={z}")
    return w


def erfi(z: complex) -> complex:
    """Imaginary error function erfi(z) = -i erf(iz).

    Grows like exp(z**2); use the Faddeeva-based combinations in the
    kernels when that growth must cancel against a Gaussian factor.
    """
    z = complex(z)
    # erf(iz) = 1 - exp(z**2) w(-(iz)*i) = 1 - exp(z**2) w(z) ... via w(iz'):
    # erf(w') = 1 - exp(-w'**2) w(i w'); with w' = iz this gives
    # erfi(z) = -i (1 - exp(z**2) w(-z))
    ez2 = cmath.exp(z * z)
    val = -1j * (1.0 - ez2 * faddeeva(-z))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise SpecialFunctionError(f"erfi overflow at z={z}")
    if z.imag == 0.0:
        return complex(val.real, 0.0)
    return val


def _bessel_i_series(nu: float, z: complex) -> complex:
    """Ascending series for I_nu(z), real order, complex z (principal branch).

    All terms share one sign for z > 0 real, so there is no cancellation;
    used for the moderate |z| the Kummer identities produce.
    """
    if z == 0:
        return 1.0 + 0.0j if nu == 0 else 0.0 + 0.0j
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # drop a signed zero: one branch for real args
    quarter = z * z / 4.0
    term = 1.0 / _sp.gamma(nu + 1.0)
    total = term
    for k in range(1, _SERIES_MAX_TERMS):
        term *= quarter / (k * (nu + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    else:
        raise SpecialFunctionError(f"Bessel-I series did not converge at nu={nu}, z={z}")
    return cmath.exp(nu * cmath.log(z / 2.0)) * total


def bessel_i_half(two_order: int, x: float) -> float:
    """Modified Bessel I of half-integer order two_order/2 at real x > 0."""
    if two_order % 2 == 0:
        raise SpecialFunctionError("bessel_i_half takes an odd numerator (order = two_order/2)")
    if not x > 0.0:
        raise SpecialFunctionError("bessel_i_half requires x > 0")
    return _bessel_i_series(two_order / 2.0, complex(x)).real


def pochhammer(x: float, k: int) -> float:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1); (x)_0 = 1."""
    if k < 0:
        raise SpecialFunctionError("pochhammer requires k >= 0")
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def laguerre_gen(m: int, alpha: float, z: float) -> float:
    """Generalized Laguerre polynomial L_m^alpha(z) by the three-term recurrence."""
    if m < 0:
        raise SpecialFunctionError("laguerre_gen requires m >= 0")
    if m == 0:
        return 1.0
    lkm1, lk = 1.0, 1.0 + alpha - z
    for k in range(1, m):
        lkm1, lk = lk, ((2 * k + 1 + alpha - z) * lk - (k + alpha) * lkm1) / (k + 1)
    return lk


def _kummer_series(a: float, b: float, z: complex) -> complex:
    term = 1.0 + 0.0j
    total = term
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
        if abs(term) <= 1e-17 * max(abs(total), 1e-300):
            return total
    raise SpecialFunctionError(f"1F1 series did not converge at a={a}, b={b}, z={z}")


def _kummer_asymptotic(a: float, b: float, z: complex) -> complex:
    """Large negative argument: 1F1(a;b;z) ~ G(b)/G(b-a) (-z)^(-a) 2F0(...).

    Valid when the exp(z) term is negligible, which the caller guarantees.
    """
    w = -z
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(400):
        term *= (a + k) * (a - b + 1.0 + k) / ((k + 1.0) * w)
        if abs(term) > abs(s) * 10.0:  # asymptotic series turned; stop
            break
        s += term
        if abs(term) <= 1e-17 * abs(s):
            break
    pref = _sp.gamma(b) / _sp.gamma(b - a)
    return pref * cmath.exp(-a * cmath.log(w)) * s


def kummer_1f1(a: float, b: float, z: complex) -> complex:
    """Confluent hypergeometric 1F1(a; b; z) for real a, b and complex z.

    Direct Taylor for Re z >= 0, the e^z 1F1(b-a;b;-z) reflection for
    moderate negative arguments, and the descending series beyond that.
    1F1(a;b;0) = 1 exactly.
    """
    if _is_nonpositive_integer(b):
        raise SpecialFunctionError(f"1F1 undefined for b={b} (non-positive integer)")
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    if z.real >= 0.0:
        return _kummer_series(a, b, z)
    if _is_nonpositive_integer(b - a) or abs(z) <= _KUMMER_REFLECT_CUTOFF:
        # reflection: the series argument has positive real part (or the
        # series terminates), so there is no cancellation
        return cmath.exp(z) * _kummer_series(b - a, b, -z)
    if abs(z.imag) > abs(z.real):
        raise SpecialFunctionError(
            "1F1 for large z needs Re z dominant (only such arguments arise here)"
        )
    return _kummer_asymptotic(a, b, z)


# ----------------------------------------------------------------------------
# Simplified forms of 1F1 at the special parameter patterns the catalog
# meets: b = 2a - m, b = 2a, b = 2a + m (Bessel-I forms) and b = a - m
# (Laguerre form).  Complex intermediates on principal branches; the result
# is real for real arguments.
# ----------------------------------------------------------------------------


def _cpow(base: complex, expo: float) -> complex:
    if base == 0:
        return 0.0 + 0.0j
    base = complex(base)
    if base.imag == 0.0:
        base = complex(base.real, 0.0)  # drop a signed zero: one branch for real args
    return cmath.exp(expo * cmath.log(base))


def kummer_via_bessel_2a_minus(a: float, m: int, z: complex) -> complex:
    """1F1(a; 2a-m; z) through a finite sum of Bessel-I terms."""
    if m < 0:
        raise SpecialFunctionError("m must be a non-negative integer")
    if _is_nonpositive_integer(2 * a - m):
        raise SpecialFunctionError(f"b=2a-m={2*a-m} is a non-positive integer")
    if _is_nonpositive_integer(a - m - 0.5):
        raise SpecialFunctionError(f"gamma pole at a-m-1/2={a-m-0.5}")
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for k in range(m + 1):
        coeff = (
            (-1.0) ** k
            * pochhammer(-m, k)
            * pochhammer(2 * a - 2 * m - 1, k)
            * (a + k - m - 0.5)
            / (pochhammer(2 * a - m, k) * math.factorial(k))
        )
        total += coeff * _bessel_i_series(a + k - m - 0.5, z / 2.0)
    pref = gamma_fn(a - m - 0.5) * _cpow(z / 4.0, m - a + 0.5) * cmath.exp(z / 2.0)
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
        * cmath.exp(z / 2.0)
        * _cpow(-z, 0.5 - a)
        * gamma_fn(a + 0.5)
        * _bessel_i_series(a - 0.5, -z / 2.0)
    )


def kummer_via_bessel_2a_plus(a: float, m: int, z: complex) -> complex:
    """1F1(a; 2a+m; z) through a finite sum of Bessel-I terms."""
    if m < 0:
        raise SpecialFunctionError("m must be a non-negative integer")
    if _is_nonpositive_integer(2 * a + m):
        raise SpecialFunctionError(f"b=2a+m={2*a+m} is a non-positive integer")
    if _is_nonpositive_integer(a - 0.5):
        raise SpecialFunctionError(f"gamma pole at a-1/2={a-0.5}")
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for k in range(m + 1):
        coeff = (
            pochhammer(-m, k)
            * pochhammer(2 * a - 1, k)
            * (a + k - 0.5)
            / (pochhammer(2 * a + m, k) * math.factorial(k))
        )
        total += coeff * _bessel_i_series(a + k - 0.5, z / 2.0)
    pref = gamma_fn(a - 0.5) * _cpow(z / 4.0, 0.5 - a) * cmath.exp(z / 2.0)
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
    if z.imag == 0.0:
        lag = laguerre_gen(m, a - m - 1.0, -z.real)
        return (-1.0) ** m * cmath.exp(z) * math.factorial(m) * lag / denom
    # complex z: evaluate the polynomial via its 1F1 definition
    lag = pochhammer(a - m, m) / math.factorial(m) * _kummer_series(-m, a - m, z)
    return (-1.0) ** m * cmath.exp(z) * math.factorial(m) * lag / denom
