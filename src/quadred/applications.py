"""Two-center integrals of Yukawa potentials and their Fourier transforms.

The overlap of two Yukawa potentials centered a distance x2 apart,

    S1 = integral d^3x  exp(-eta1 |x|)/|x| * exp(-eta2 |x - x2|)/|x - x2|,

reduces through Gaussian transforms to sqrt(pi) times the quadrant integral
with exponents (4, 4, 0) and coefficients a = eta1^2/4, b = eta2^2/4,
c = x2^2, taking f(t) = t**(3/2): fourier_params at k = 0.  This module
carries the closed forms, the catalog-reduction routes, and the
brute-force oracle route, plus the momentum-space version where the
phase exp(-i k.x) adds h = i k.x2 and j = k^2/4 and the reduced kernel
acquires an erfi difference.  Every quantity is computable two
independent ways, which is the whole point.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np
from scipy.special import exprel

from .catalog import get_rule
from .kernels import FourierErfiFactor, KernelTerm, eval_kernel_with_f
from .params import Params, TestIntegrand
from .quadrature import QuadResult, Tolerance, integrate_half_line, integrate_interval
from .reducer import direct_2d

SQPI = math.sqrt(math.pi)
# f = t^(3/2), the Gaussian transform's test function on the (4,4,0) instance
_F_PAIR = TestIntegrand(1.0, 1.5, 0.0)
# below this k (relative to the larger eta) the erfi route loses digits to
# the removable k->0 structure; delegate to the tau route instead
_ERFI_SMALL_K = 1e-3


def _check_pair(x2: float, **etas: float) -> None:
    """Each range must be positive and finite, the separation >= 0 and finite."""
    for name, eta in etas.items():
        if not (eta > 0.0 and math.isfinite(eta)):
            raise ValueError(f"{name} must be positive and finite")
    if not (x2 >= 0.0 and math.isfinite(x2)):
        raise ValueError("x2 must be >= 0 and finite")


@dataclass(frozen=True)
class YukawaPairSpec:
    """Two Yukawa ranges and the separation of their centers."""

    eta1: float
    eta2: float
    x2: float = 0.0

    def __post_init__(self):
        _check_pair(eta1=self.eta1, eta2=self.eta2, x2=self.x2)


@dataclass(frozen=True)
class FourierSpec:
    """Momentum magnitude k and the scalar product k.x2 alongside the pair."""

    k: float
    k_dot_x2: float
    eta1: float
    eta2: float
    x2: float

    def __post_init__(self):
        if not (self.k >= 0.0 and math.isfinite(self.k)):
            raise ValueError("k must be >= 0 and finite")
        if not math.isfinite(self.k_dot_x2):
            raise ValueError("k_dot_x2 must be finite")
        _check_pair(self.x2, eta1=self.eta1, eta2=self.eta2)
        if abs(self.k_dot_x2) > self.k * self.x2 * (1.0 + 1e-12):
            raise ValueError("|k_dot_x2| cannot exceed k*x2")


def yukawa_pair(spec: YukawaPairSpec) -> float:
    """Closed form 4 pi (exp(-x2 eta1) - exp(-x2 eta2)) / (x2 (eta2^2 - eta1^2)).

    Taken without cancellation, so the same form gives the equal-range
    limit 2 pi exp(-x2 eta)/eta and the x2 = 0 limit 4 pi/(eta1 + eta2).
    """
    e1, e2, x2 = spec.eta1, spec.eta2, spec.x2
    lo, hi = min(e1, e2), max(e1, e2)
    # (e^(-x2 lo) - e^(-x2 hi)) / (x2 (hi - lo)), without the cancellation
    return 4.0 * math.pi * math.exp(-x2 * lo) * float(exprel(-x2 * (hi - lo))) / (lo + hi)


def hydrogenic_pair(spec: YukawaPairSpec) -> float:
    """1s-orbital x Yukawa overlap, the eta1-derivative of the pair overlap.

    Closed form
        8 sqrt(pi) eta1^(5/2)/(eta1^2-eta2^2)^2
          * (exp(-eta2 x2)/x2 - ((eta1^2-eta2^2)/(2 eta1) + 1/x2) exp(-eta1 x2));
    equals -(eta1^(3/2)/sqrt(pi)) d/d(eta1) of ``yukawa_pair``.  Near equal
    ranges the cancellation-free branch also gives the equal-range limit
    sqrt(pi) (1 + x2 eta)/sqrt(eta) exp(-eta x2) and the x2 = 0 limit
    4 sqrt(pi) eta1^(3/2)/(eta1 + eta2)^2.
    """
    e1, e2, x2 = spec.eta1, spec.eta2, spec.x2
    z = (e1 - e2) * x2
    if abs(z) < 1.0:
        # the bracket of the form below cancels to (e1 - e2)^2 e^(-e1 x2)
        # (x2 phi2(z) + 1/(2 e1)); that product is taken directly
        return (8.0 * SQPI * e1**2.5 * math.exp(-e1 * x2)
                * (x2 * _phi2(z) + 0.5 / e1) / (e1 + e2) ** 2)
    diff = e1 * e1 - e2 * e2
    return (
        8.0 * SQPI * e1**2.5 / diff**2
        * (math.exp(-e2 * x2) / x2 - (diff / (2.0 * e1) + 1.0 / x2) * math.exp(-e1 * x2))
    )


def _phi2(z: float) -> float:
    """(e^z - 1 - z)/z^2 = sum of z^k/(k+2)! for |z| < 1, to double precision."""
    acc = 1.0
    for n in range(20, 2, -1):  # z^18/20! < 5e-19
        acc = 1.0 + z * acc / n
    return 0.5 * acc


def _pair_params(spec: YukawaPairSpec) -> Params:
    # the momentum-space instance at k = 0, mirrored where a < b, as the
    # hypergeometric rule requires a >= b; the mirror keeps the integral
    params = fourier_params(FourierSpec(0.0, 0.0, spec.eta1, spec.eta2, spec.x2))
    return params.mirrored() if params.a < params.b else params


def _reduced_pair(params: Params, f: TestIntegrand, tol: Tolerance | None) -> QuadResult:
    # equal ranges included: at a = b, h = 0 G1 builds N6-aeqb's kernel
    # (see catalog._g1_kernel)
    return get_rule("G1-general").reduce_to_1d(params, f, tol).scaled(SQPI)


def yukawa_pair_reduced(spec: YukawaPairSpec, tol: Tolerance | None = None) -> QuadResult:
    """The pair overlap through the catalog: sqrt(pi) times the reduced
    (4,4,0) integral with f = t**(3/2)."""
    return _reduced_pair(_pair_params(spec), _F_PAIR, tol)


def yukawa_pair_reduced_alt(spec: YukawaPairSpec, tol: Tolerance | None = None) -> QuadResult:
    """Same value through the alternative exponent choice (1,1,3) with mu = 0.

    This repeats yukawa_pair_reduced bit for bit.  The (1,1,3) instance is
    the (4,4,0) one power-shifted by 3/2, and G1's kernel depends on the
    triple only through A, B, the gamma ratio and alpha + mu, which a power
    shift keeps.  So this route checks how the (1,1,3) instance is built,
    not the kernel.
    """
    base = _pair_params(spec)
    params = Params(1, 1, 3, a=base.a, b=base.b, c=base.c)
    return _reduced_pair(params, _F_PAIR.shifted(1.5), tol)


def yukawa_pair_oracle(spec: YukawaPairSpec, tol: Tolerance | None = None) -> QuadResult:
    """The pair overlap through the brute-force quadrant oracle."""
    # the integrand is real, so the oracle's value is a float
    return direct_2d(_pair_params(spec), _F_PAIR, tol).scaled(SQPI)


# ----------------------------------------------------------------------------
# Momentum space.
# ----------------------------------------------------------------------------


def fourier_params(spec: FourierSpec) -> Params:
    """The quadrant-integral parameters of the momentum-space overlap.

    At k = 0 these are the pair overlap's: (4,4,0) with a = eta1^2/4,
    b = eta2^2/4 and c = x2^2, h = j = 0.
    """
    return Params(
        4, 4, 0,
        a=spec.eta1**2 / 4.0,
        b=spec.eta2**2 / 4.0,
        c=spec.x2**2,
        h=1j * spec.k_dot_x2,
        j=spec.k * spec.k / 4.0,
    )


def _erfi_kernel(spec: FourierSpec) -> list[KernelTerm]:
    # t^(-m/2) e^(-b/t - c t) times the closed inner integral
    # sqrt(pi)/(k sqrt(t)) e^(-zp^2) (erfi(zp) - erfi(zm)); the term carries
    # the Gaussians' common decay and the factor what is left, bounded
    factor = FourierErfiFactor(spec.k, spec.k_dot_x2, spec.eta1, spec.eta2, spec.x2)
    return [KernelTerm(SQPI / spec.k, -2.5, beta=factor.beta, gamma=factor.gamma, special=factor)]


def fourier_pair_erfi_result(spec: FourierSpec, tol: Tolerance | None = None) -> QuadResult:
    """Momentum-space overlap via the half-line integral with the erfi kernel.

    Below k ~ 1e-3 max(eta) the kernel's removable 0/0 structure costs
    digits, so the equivalent tau-form is substituted.
    """
    if spec.k < _ERFI_SMALL_K * max(spec.eta1, spec.eta2):
        return fourier_pair_tau_result(spec, tol)
    terms = _erfi_kernel(spec)
    res = integrate_half_line(lambda t: eval_kernel_with_f(terms, _F_PAIR, t), tol)
    # a complex factor keeps the value complex when its imaginary part is 0
    return res.scaled(complex(SQPI))


def fourier_pair_tau_result(spec: FourierSpec, tol: Tolerance | None = None) -> QuadResult:
    """Momentum-space overlap via the finite parametric integral

        2 pi integral_0^1 exp(-i k.x2 tau) exp(-x2 L)/L dtau,
        L = sqrt((1-tau)(k^2 tau + eta2^2) + eta1^2 tau).
    """
    k, chi, x2 = spec.k, spec.k_dot_x2, spec.x2
    e1sq, e2sq = spec.eta1**2, spec.eta2**2

    def integrand(x):
        tau, rest = x.T  # rest is 1 - tau, exact where it is small
        ell = np.sqrt(rest * (k * k * tau + e2sq) + e1sq * tau)
        vals = np.exp(-x2 * ell) / ell
        if chi != 0.0:
            vals = vals * np.exp(-1j * chi * tau)
        return vals

    return integrate_interval(integrand, tol).scaled(complex(2.0 * math.pi))
