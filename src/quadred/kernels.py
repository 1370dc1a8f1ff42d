"""Weight kernels w(t) as sums of power * exponential * special-function terms.

A reduction rule turns the quadrant integral into  integral f(t) w(t) dt
with w a short sum of

    coeff * t**alpha * exp(-beta*t - gamma/t) * special(t)

The special factors are kept in forms that stay bounded on (0, inf):
Macdonald functions of order k >= 1 are carried as (s*t)**k K_k(s*t) with
the compensating power folded into the term's exponent, and the
complementary-error factors of the constrained-exponential family are
carried as erfcx so their exp(4(a-b)/t) growth cancels analytically.
The evaluator assembles f(t) times each term in log magnitude, so
integrands stay finite wherever the convergence floor mu > mu_min holds,
no matter how deep the quadrature probes.  Each special factor follows
the protocol of ``_Factor``.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .params import TestIntegrand
from .quadrature import (
    QuadratureError,
    Tolerance,
    _UNIT_PAIR,
    _drive,
)

_LOG_DEAD = -745.0
_LOG_OVERFLOW = 705.0
_KUMMER_LEADING_FROM = 1e16
# R1's inner integral needs no work bound: _drive evaluates only new nodes
# per level, so through _MAX_LEVEL a row costs at most 50 081 evaluations,
# every node of the (s, 1 - s) ladder
_R_INNER_TOL = Tolerance(rel=1e-11, abs=1e-15)


class KernelError(ValueError):
    """A kernel was evaluated outside its validity domain."""


class _Factor:
    """Special-factor protocol, with the defaults a factor overrides as needed:

      bounded_part(t)    value of t**(-alpha_shift()) * factor(t); O(1) near 0
      alpha_shift()      power folded out of bounded_part into the term exponent
      floor_decay()      additional small-t decay of bounded_part itself, counted
                         only when computing the convergence floor
      cuts_off_at_zero() True when the factor decays exponentially at t -> 0
      is_complex()       True when bounded_part returns complex values
    """

    def alpha_shift(self) -> float:
        return 0.0

    def floor_decay(self) -> float:
        return 0.0

    def cuts_off_at_zero(self) -> bool:
        return False

    def is_complex(self) -> bool:
        return False


@dataclass(frozen=True)
class BesselKFactor(_Factor):
    """K_order(scale * t), order in {0, 1, 2}."""

    order: int
    scale: float

    def alpha_shift(self) -> float:
        # K_k(x) ~ x**-k for k >= 1; the pole is folded into the exponent
        return -float(self.order)

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        x = self.scale * t
        small = x < 1e-8
        if self.order == 0:
            out = np.empty_like(x)
            # kv itself overflows on denormal arguments
            out[small] = -np.log(x[small] / 2.0) - np.euler_gamma
            out[~small] = _sp.kv(0, x[~small])
            return out
        # t**k K_k(s t) = [(s t)**k K_k(s t)] / s**k, bounded at 0
        k = self.order
        g = np.empty_like(x)
        g[small] = 2.0 ** (k - 1) * math.factorial(k - 1)
        xs = x[~small]
        with np.errstate(under="ignore"):
            g[~small] = xs**k * _sp.kv(k, xs)
        return g / self.scale**k


@dataclass(frozen=True)
class ErfSqrtInvFactor(_Factor):
    """erf(sqrt(amount / t))."""

    amount: float

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        return _sp.erf(np.sqrt(self.amount / t))


@dataclass(frozen=True)
class ErfcxSqrtInvFactor(_Factor):
    """erfcx(2 sqrt(amount / t)) = exp(4 amount/t) erfc(2 sqrt(amount/t))."""

    amount: float

    def floor_decay(self) -> float:
        return 0.5  # erfcx(x) ~ 1/(x sqrt(pi)), an extra sqrt(t) at the origin

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        return _sp.erfcx(2.0 * np.sqrt(self.amount / t))


@dataclass(frozen=True)
class KummerFactor(_Factor):
    """1F1(A; B; -w) with w = shift/t + h, shift >= 0, h >= 0.

    For the parameter patterns the catalog produces (0 < A <= B) the value
    lies in (0, 1], so the factor is bounded outright.  Below w = 1e16 it is
    scipy's hyp1f1; from there on it is the leading term of DLMF 13.7.2,
    Gamma(B)/Gamma(B-A) w**-A, whose next term is below rounding while
    scipy's series degrades and finally returns 0 or NaN.
    """

    a: float
    b: float
    shift: float
    h: float

    def floor_decay(self) -> float:
        # 1F1(A;B;-w) ~ w**-A as w -> inf: an extra t**A of decay at 0
        return self.a if self.shift > 0.0 else 0.0

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        w = self.shift / t + self.h
        big = w >= _KUMMER_LEADING_FROM
        out = np.empty_like(w)
        out[~big] = _sp.hyp1f1(self.a, self.b, -w[~big])
        out[big] = _sp.gamma(self.b) * _sp.rgamma(self.b - self.a) * w[big] ** -self.a
        return out


@dataclass(frozen=True)
class FourierErfiFactor(_Factor):
    """The momentum-transform kernel factor, Gaussians folded in:

        exp(-eta2^2/(4t) - x2^2 t) * exp(-zp^2) * (erfi(zp) - erfi(zm))

    with z+- = (i chi t + (eta1^2 - eta2^2)/4 +- k^2/4) / (k sqrt(t)) and
    chi the scalar product of the momentum with the separation.  Evaluated
    through the Faddeeva function so every exponent keeps a non-positive
    real part; the lower half plane is reached via the w(-z) reflection.
    """

    k: float
    chi: float
    eta1: float
    eta2: float
    x2: float

    def cuts_off_at_zero(self) -> bool:
        return self.eta1 > 0.0 and self.eta2 > 0.0

    def is_complex(self) -> bool:
        return True

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        k, chi, x2 = self.k, self.chi, self.x2
        g = (self.eta1**2 - self.eta2**2) / 4.0
        d = k * k / 4.0
        rt = np.sqrt(t)
        zp = (1j * chi * t + (g + d)) / (k * rt)
        zm = (1j * chi * t + (g - d)) / (k * rt)
        # prefactor exponents, assembled so each real part is <= 0
        a2 = -self.eta2**2 / (4.0 * t) - x2 * x2 * t + 0j
        a1 = -self.eta1**2 / (4.0 * t) - x2 * x2 * t - 1j * chi
        # expo - z^2, built analytically: the x2^2 t part cancels against
        # (chi/k)^2 t up to the Cauchy-Schwarz residual, which must not be
        # left to floating-point subtraction of huge intermediates
        resid = max(x2 * x2 - (chi / k) ** 2, 0.0)

        def minus_z2(eta: float, gg: float, phase0: float) -> np.ndarray:
            re = -eta * eta / (4.0 * t) - resid * t - gg * gg / (k * k * t)
            return re + 1j * (phase0 - 2.0 * chi * gg / (k * k))

        a1_z2 = minus_z2(self.eta1, g - d, -chi)
        a2_z2 = minus_z2(self.eta2, g + d, 0.0)

        def stable_term(z, expo, expo_minus_z2):
            out = np.zeros(z.shape, dtype=complex)
            up = z.imag >= 0.0
            with np.errstate(under="ignore"):
                out[up] = np.exp(expo[up]) * _sp.wofz(z[up])
                dn = ~up
                if dn.any():
                    # w(z) = 2 exp(-z^2) - w(-z); both exponents stay <= 0
                    out[dn] = (
                        2.0 * np.exp(expo_minus_z2[dn])
                        - np.exp(expo[dn]) * _sp.wofz(-z[dn])
                    )
            return out

        return 1j * (stable_term(zm, a1, a1_z2) - stable_term(zp, a2, a2_z2))


@dataclass(frozen=True)
class RInnerFactor(_Factor):
    """Numerically evaluated inner integral of the r-substitution family:

        integral_0^(1/t) r**((n+nu)/2-2) (1-r t)**((m+nu)/2-2)
                         exp(-b/t + j r^2 t - r(a-b+j) - r h t) dr

    The e^(-b/t) cutoff is folded inside, so the exponent stays bounded by
    -min(a,b)/t even when b > a.  With s = r t every t row runs over the
    fixed interval (0, 1), and the integrand takes the node pair (s, 1 - s):
    the member that is small is the exact tanh-sinh offset from its
    endpoint, so the (1 - r t) power at the moving endpoint r = 1/t never
    sees a cancelled difference.  All live rows of one call are one batch
    of the double-exponential driver, judged by its largest row against
    _R_INNER_TOL with no work bound of its own: the level cap bounds the
    work, and a batch that has not converged by then raises
    QuadratureError.  So a row's value depends, within _R_INNER_TOL.rel, on
    which t share the call.  The 1-D driver fetches each level's head of t
    nodes in one call; against one call per block, that grouping moves 13
    of the 200 R1-rint records of `verify --samples 20` at seeds 0-9, by at
    most 4.3e-12 relative, with the same evaluations.
    """

    n: int
    m: int
    nu: int
    a: float
    b: float
    h: complex
    j: float

    def cuts_off_at_zero(self) -> bool:
        return self.b > 0.0 and self.a > 0.0

    def is_complex(self) -> bool:
        return complex(self.h).imag != 0.0

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        pr = (self.n + self.nu) / 2.0 - 2.0
        ps = (self.m + self.nu) / 2.0 - 2.0
        h = complex(self.h)
        out = np.zeros(t.shape, dtype=complex if h.imag != 0.0 else float)
        live = self.b / t <= 745.0  # beyond, the folded cutoff already underflowed
        rows = int(live.sum())
        if rows == 0:
            return out
        col = t[live][:, None]
        # dr = ds/t and r**pr = s**pr t**-pr
        lead = (pr + 1.0) * np.log(col)

        def batch(x: np.ndarray) -> np.ndarray:
            s, c = x.T
            # -b/t + j r^2 t - r(a-b+j) - r h t, every part <= 0:
            #   = -(a s + (b + j s)(1 - s))/t - h s
            logmag = (
                pr * np.log(s) + ps * np.log(c) - lead
                - (self.a * s + (self.b + self.j * s) * c) / col
                - h.real * s
            )
            vals = np.exp(logmag)
            if h.imag != 0.0:
                vals = vals * np.exp(-1j * h.imag * s)
            return vals

        value, estimate, converged = _drive(batch, _UNIT_PAIR, _R_INNER_TOL)
        if not converged:
            raise QuadratureError(
                f"R1 inner integral did not converge over {rows} t rows "
                f"(estimate {estimate:.3e})"
            )
        out[live] = value if h.imag != 0.0 else value.real
        return out


@dataclass(frozen=True)
class KernelTerm:
    """coeff * t**alpha * exp(-beta t - gamma/t) * special(t)."""

    coeff: float
    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    special: _Factor | None = None

    def mu_floor(self) -> float:
        """Smallest power mu with t**mu * term integrable at the origin."""
        if self.gamma > 0.0 or (self.special and self.special.cuts_off_at_zero()):
            return -math.inf
        extra = 0.0
        if self.special is not None:
            extra = self.special.alpha_shift() + self.special.floor_decay()
        return -1.0 - (self.alpha + extra)


def kernel_mu_min(terms: list[KernelTerm]) -> float:
    return max(term.mu_floor() for term in terms)


def kernel_is_complex(terms: list[KernelTerm]) -> bool:
    return any(term.special is not None and term.special.is_complex() for term in terms)


def eval_kernel_with_f(terms: list[KernelTerm], f: TestIntegrand, t: np.ndarray) -> np.ndarray:
    """f(t) * w(t), assembled term by term in log magnitude.

    Finite for all t > 0 whenever f.mu exceeds the kernel's mu floor; nodes
    whose exponential part underflows contribute exact zeros.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex if kernel_is_complex(terms) else float)
    logt = np.log(t)
    lead = abs(f.coeff)
    if lead == 0.0:
        return out
    fsign = 1.0 if f.coeff >= 0 else -1.0
    for term in terms:
        if term.coeff == 0.0:
            continue
        shift = term.special.alpha_shift() if term.special is not None else 0.0
        csign = fsign * (1.0 if term.coeff >= 0 else -1.0)
        logmag = (
            math.log(lead * abs(term.coeff))
            + (f.mu + term.alpha + shift) * logt
            - (f.sigma + term.beta) * t
            - term.gamma / t
        )
        live = logmag > _LOG_DEAD
        if not live.any():
            continue
        if term.special is None:
            logtot = logmag[live]
            phase = None
        else:
            bounded = term.special.bounded_part(t[live])
            if np.iscomplexobj(bounded):
                # lift denormals into the normal range before the complex
                # division: numpy's complex divide NaNs out on denormals
                shift = np.where(np.abs(bounded) < 1e-280, 2.0**1000, 1.0)
                bounded = bounded * shift
                mag = np.abs(bounded)
                with np.errstate(divide="ignore"):
                    logtot = logmag[live] + np.log(mag) - np.log(shift)
                phase = np.where(mag > 0.0, bounded / np.where(mag > 0.0, mag, 1.0), 0.0)
            else:
                mag = np.abs(bounded)
                with np.errstate(divide="ignore"):
                    logtot = logmag[live] + np.log(mag)
                phase = np.sign(bounded)
        if np.any(logtot > _LOG_OVERFLOW):
            raise KernelError(
                "kernel term overflow: f violates the convergence floor of this rule"
            )
        with np.errstate(under="ignore"):
            vals = np.exp(logtot)
        if phase is not None:
            vals = vals * phase
        out[live] += csign * vals
    return out


def eval_kernel(terms: list[KernelTerm], t) -> np.ndarray | complex | float:
    """Pointwise weight w(t) for finite t > 0."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ts > 0.0) & (ts < math.inf)):  # also rejects NaN
        raise KernelError("kernel weights are defined for finite t > 0 only")
    vals = eval_kernel_with_f(terms, TestIntegrand(1.0, 0.0, 0.0), ts)
    if np.isscalar(t) or np.ndim(t) == 0:
        v = vals[0]
        return complex(v) if np.iscomplexobj(vals) else float(v)
    return vals
