"""Weight kernels w(t) as sums of power * exponential * special-function terms.

A reduction rule turns the quadrant integral into  integral f(t) w(t) dt
with w a short sum of

    coeff * t**alpha * exp(-beta*t - gamma/t) * special(t)

with coeff > 0 and a real special factor >= 0: every kernel the package
builds from the paper's reductions is a sum of positive terms, so the
evaluator only adds.  The special factors are kept in forms that stay
bounded on (0, inf): a Macdonald kernel's integer orders are carried as
polynomials in t times K_0(s*t) and s*t K_1(s*t), their poles in t
(DLMF 10.30.2) written into the term's alpha, and the complementary-error
factors of the mixed-tilde family are carried as one
combination of erfcx per kernel, so their exp(4(a-b)/t) growth cancels
analytically and their tabulated terms never subtract in floats (T5's
combination grows like t**-1/2 at the origin, where its term's gamma
cuts it off).
The evaluator computes exactly that sum, assembling t**mu e^(-sigma t),
f without its coefficient, times each term in log magnitude, so nothing
overflows on the way, however deep the quadrature probes: with f's power
above the convergence contract's small-t floor (params.mu_floor), a value
is finite unless it leaves the double range itself.  f's coefficient
scales the reduced integral once (ReductionRule.reduce_to_1d), so it
never reaches an exp.  Each special factor follows the protocol of
``_Factor``.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special as _sp

from .params import TestIntegrand
from .quadrature import QuadratureError, Tolerance, integrate_interval

# np.exp(x) is exactly 0, and slow, for every x <= -745.1332191019412: here and in
# reducer.quadrant_integrand a log-magnitude below this is 0, without exp
_EXP_ZERO = -745.2
_LOG_OVERFLOW = 705.0
_KUMMER_SERIES_FROM = 1e5
_SQPI = math.sqrt(math.pi)
_TWO_BY_SQPI = 2.0 / _SQPI
# Targets of R1's inner integrate_interval batch; the level cap bounds its
# work, at most 50 081 evaluations a row, every node of the (s, 1 - s) ladder
_R_INNER_TOL = Tolerance(rel=1e-11, abs=1e-15)


class KernelError(ValueError):
    """A kernel was built or evaluated outside its validity domain, or a
    term of it left the double range (a divergent integral raises
    params.DivergentIntegralError instead)."""


class _Factor:
    """Special-factor protocol: bounded_part(t) is the factor's value
    special(t), O(1) near 0, or for K_0 logarithmic and for
    ErfcxSqrtInvFactor's T5 form O(t**-1/2).

    The evaluator calls bounded_part only on live rows: the 1-D array of
    t at which its term has not underflowed, never an empty one.  A
    factor's powers of t go to its KernelTerm's alpha, and its
    exponentials to beta and gamma, where that dead-row test sees them.
    A factor's contract holds on the rows its terms can leave live; where
    it fails on rows no term leaves live, its docstring says where and why.
    A real factor's values are >= 0, or NaN, which the quadrature driver
    reports: the evaluator takes their log as it is, where a negative
    value would be an invalid log.
    A complex factor must be bounded, its values multiplying exp's in the
    evaluator (see eval_kernel_with_f): |FourierErfiFactor| <= 2, and
    RInnerFactor's |J| <= B(pr+1, ps+1) <= B(1/2, 1/2) = pi, since R1
    admits only n + nu >= 3 and m + nu >= 3.
    A factor sets no np.errstate: it runs under the evaluator's.
    """


@dataclass(frozen=True)
class BesselKFactor(_Factor):
    """A Macdonald kernel's integer orders, brought down to K_0 and K_1:

        sum_j k0_weights[j] t**j K_0(x) + sum_j k1_weights[j] t**j x K_1(x) / scale

    at x = scale * t.  The upward recurrence K_(v+1) = K_(v-1) + (2v/x) K_v
    (DLMF 10.29.1), whose terms are never negative, takes every integer
    order to these two (catalog._order_rows), and its poles in t go to the
    KernelTerm's alpha, so the weights are of t**0, t**1, ... and never
    negative: nothing subtracts, and the factor is never negative.  A
    factor with no weight, or a negative one, raises KernelError.
    t**k K_k(s t) is bounded near 0, K_k(x) ~ 2**(k-1) (k-1)! x**-k for
    k >= 1 (DLMF 10.30.2), and K_0 grows only like a logarithm.  scipy's
    integer-order k0 and k1 are each called once, and only where their
    weights are not empty; a weight of exactly 1 at t**0 alone is k0(x) or
    x k1(x) / scale, with no multiply.  Below x = 1e-300 scipy's k0 is its
    limit -log(x/2) - euler_gamma to the bit, finite down to the smallest
    denormals, where x/2 is 0; x k1(x) overflows below x of about 5.6e-309,
    so below 1e-300 it is its limit x K_1(x) = 1.  The half-line ladder's
    t > 1e-160 keeps catalog draws above that floor.
    The factor is finite for t below about 1e154.  From there on _weigh's
    acc * t overflows for a weight at t**2 or above, and inf times an
    underflowed k0 or x k1(x) is NaN; the term's e^-(p+q)t, p + q > 0, has
    cut those rows off long before, so they are never live.
    """

    scale: float
    k0_weights: tuple[float, ...] = (1.0,)
    k1_weights: tuple[float, ...] = ()

    def __post_init__(self):
        weights = self.k0_weights + self.k1_weights
        if not weights or not all(weight >= 0.0 for weight in weights):  # also rejects NaN
            raise KernelError(f"no weight, or one not >= 0: {self.k0_weights}, {self.k1_weights}")

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        x = self.scale * t
        parts = []
        if self.k0_weights:
            parts.append(_weigh(self.k0_weights, t, _sp.k0(x)))
        if self.k1_weights:
            xk1 = x * _sp.k1(x)
            if np.fmin.reduce(x) < 1e-300:  # fmin skips NaN, as the mask does
                xk1[x < 1e-300] = 1.0  # x k1(x) overflows on denormal arguments
            parts.append(_weigh(self.k1_weights, t, xk1 / self.scale))
        return sum(parts[1:], parts[0])


def _weigh(weights: tuple[float, ...], t: np.ndarray, base: np.ndarray) -> np.ndarray:
    """sum_j weights[j] t**j base, by Horner's rule; a lone weight 1 is base itself.

    acc * t overflows from t of about 1e154 for a weight at t**2 or above,
    and its product with a base of 0 is NaN there: see BesselKFactor for
    why no live row reaches it."""
    acc = weights[-1]
    for weight in weights[-2::-1]:
        acc = acc * t + weight if weight else acc * t
    return base if weights == (1.0,) else acc * base


@dataclass(frozen=True)
class ErfcxSqrtInvFactor(_Factor):
    """psi(z) at z = 2 sqrt(amount/t): one combination of erfcx(z) = exp(z^2) erfc(z).

    form     psi(z)                                     a mixed-tilde kernel's
    erfcx    erfcx z                                    T3
    T1       1 - erfcx z                                T1
    T2       1 + erfcx z                                T2
    T4       sqrt(pi) ((2 z^2 - 1) erfcx z + 1) - 2 z   T4
    T5       1 + 2 z/sqrt(pi) + (1 - z^2) erfcx z       T5

    Each is the sum of its kernel's tabulated terms with their common
    coefficient and power taken out, so a kernel is one term and computes
    erfcx once.  Below z = 1 the tabulated terms cancel, T1's and T4's to
    O(z) and O(z^2); there these two are formed from erf z = P(1/2, z^2)
    and P(3/2, z^2) = erf z - 2 z e^(-z^2)/sqrt(pi), P the regularized lower
    incomplete gamma function (DLMF 7.11.1, 8.8.5), which carry their
    leading powers themselves:

        1 - erfcx z = e^(z^2) erf z - expm1(z^2)
        psi_4 = sqrt(pi) (2 z^2 erfcx z - expm1(z^2) + e^(z^2) P(3/2, z^2))
              = sqrt(pi) sum_(k>=2) (k-1) (-z)^k / Gamma(k/2 + 1)

    From z = 1 on, T5 loses at most a bit and T4 subtracts 2z from about
    2z + sqrt(pi), which costs about z ulps: 1.5e-14 relative at z = 60,
    where the term's gamma has cut it below e^-1800.  Every psi is
    positive up to z of about 4e15; T5's grows like z/sqrt(pi) as t -> 0,
    where the term's gamma cuts it off.  From z of about 4e15 on T4's
    sqrt(pi) is below the rounding of its 2z terms, and the form is noise
    that can be negative.  The term's gamma/t there is at least
    2 amount/t = z^2/2, above 8e30, so those rows are never live.
    """

    amount: float
    form: str = "erfcx"

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        z = 2.0 * np.sqrt(self.amount / t)
        ex = _sp.erfcx(z)
        form = self.form
        if form == "erfcx":
            return ex
        if form == "T2":
            return 1.0 + ex
        if form == "T5":
            return 1.0 + _TWO_BY_SQPI * z + (1.0 - z * z) * ex
        if form == "T1":
            out = 1.0 - ex
        elif form == "T4":
            out = _SQPI * ((2.0 * z * z - 1.0) * ex + 1.0) - 2.0 * z
        else:
            raise KernelError(f"unknown erfcx combination {form!r}")
        if np.fmin.reduce(z) < 1.0:  # fmin skips NaN, as the mask does
            small = z < 1.0
            zs = z[small]
            x = zs * zs
            if form == "T1":
                out[small] = np.exp(x) * _sp.erf(zs) - np.expm1(x)
            else:
                out[small] = _SQPI * (2.0 * x * ex[small] - np.expm1(x)
                                      + np.exp(x) * _sp.gammainc(1.5, x))
        return out


@dataclass(frozen=True)
class KummerFactor(_Factor):
    """1F1(A; B; -w) with w = shift/t + h, shift >= 0, h >= 0.

    For the parameter patterns the catalog produces (0 < A <= B) the value
    lies in (0, 1], so the factor is bounded outright.  Below w = 1e5 it is
    scipy's hyp1f1, finite and in (0, 1] there for 0.5 <= A <= 12 and
    A < B <= 200.  From w = 1e5 on it is six terms of DLMF 13.7.2's series,

        Gamma(B)/Gamma(B-A) w**-A sum_(s<6) (A)_s (A-B+1)_s / (s! w**s),

    whose s-th term is about (A (B-A) / w)**s / s! of the leading one.
    For A <= 12 and B <= 80 it is within 8.5e-16 of mpmath, at worst just
    above w = 1e5, wherever the value is a normal double: w**-A is taken
    in two halves, so it does not underflow before the value does.  There
    scipy 1.17's hyp1f1 is 1.1e-12 off at w = 1e10 for (1, 10.5), and NaN
    on [5.5e10, 1e16) for A = 1 with B >= 10.5 and A = 1.5 with
    B >= 15.5.  The catalog's sweep draws and the Yukawa pairs leave no
    row at w >= 5e4 live (tests pin it); G1 at b = 0 and small t does.
    """

    a: float
    b: float
    shift: float
    h: float

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        w = self.shift / t + self.h
        out = _sp.hyp1f1(a, b, -w)
        if np.fmax.reduce(w) >= _KUMMER_SERIES_FROM:  # fmax skips NaN
            big = w >= _KUMMER_SERIES_FROM
            series = [_sp.poch(a, s) * _sp.poch(a - b + 1.0, s) / math.factorial(s) for s in range(6)]
            half = w[big] ** (-0.5 * a)  # w**-a can underflow where the value does not
            out[big] = (_sp.gamma(b) * _sp.rgamma(b - a) * half
                        * np.polynomial.polynomial.polyval(1.0 / w[big], series) * half)
        return out


@dataclass(frozen=True)
class FourierErfiFactor(_Factor):
    """The momentum-transform kernel factor with its Gaussians taken out:

        exp(-eta2^2/(4t) - x2^2 t) * exp(-zp^2) * (erfi(zp) - erfi(zm))
            = exp(-beta t - gamma/t) * bounded_part(t)

    with z+- = (i chi t + (eta1^2 - eta2^2)/4 +- k^2/4) / (k sqrt(t)) and
    chi the scalar product of the momentum with the separation.  gamma is
    the common cut-off min(eta1, eta2)^2/4 and beta the whole Gaussian
    decay x2^2; both go to the factor's KernelTerm, whose dead-row test so
    drops every t at which the decay underflows.  Evaluated through the
    Faddeeva function w, z- and z+ as the two rows of one array.
    Im z+- = chi sqrt(t)/k has the sign s of chi at every t > 0, so one
    branch serves a whole call: w(z) for chi >= 0, else the reflection
    w(z) = 2 exp(-z^2) - w(-z) (DLMF 7.4.3).  With expo a row's prefactor
    exponent, the reflection's 2 exp(expo - z^2) is the same in both rows,
    so it drops out of their difference and is never computed.  Each row
    is then s exp(expo) w(s z), with expo = -cut/t real and <= 0, cut a
    row's cut-off less gamma, and Im(s z) >= 0, so at most 1 in magnitude
    (|w| <= 1 in the closed upper half plane).  z-'s row also carries the
    phase e^(-i chi), one constant per factor.
    """

    k: float
    chi: float
    eta1: float
    eta2: float
    x2: float

    @property
    def gamma(self) -> float:
        return min(self.eta1, self.eta2) ** 2 / 4.0

    @property
    def beta(self) -> float:
        return self.x2 * self.x2

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, complex]:
        """Rows z- and z+: real offsets and cut-offs less gamma; z-'s phase."""
        g, d = (self.eta1**2 - self.eta2**2) / 4.0, self.k * self.k / 4.0
        return (np.array([[g - d], [g + d]]),
                np.array([[self.eta1**2 / 4.0], [self.eta2**2 / 4.0]]) - self.gamma,
                cmath.exp(-1j * self.chi))

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        k, chi = self.k, self.chi
        gg, cut, turn = self._rows
        z = (1j * chi * t + gg) / (k * np.sqrt(t))
        up = chi >= 0.0
        terms = np.exp(-cut / t) * _sp.wofz(z if up else -z)
        minus = terms[0] * turn
        # for chi < 0 both rows are negated, so the difference is taken the other way
        return 1j * (minus - terms[1] if up else terms[1] - minus)


@dataclass(frozen=True)
class RInnerFactor(_Factor):
    """The r-substitution family's inner integral, its term scale taken out:

        integral_0^(1/t) r**pr (1-r t)**ps exp(-b/t + j r^2 t - r(a-b+j) - r h t) dr
            = t**-(pr+1) exp(-min(a,b)/t) J(t),
        J(t) = integral_0^1 s**pr (1-s)**ps exp(-(|a-b| s' + j s(1-s))/t - h s) ds

    with pr = (n+nu)/2 - 2, ps = (m+nu)/2 - 2, s = r t, and s' = s where
    a >= b, else 1 - s; the power is in the KernelTerm's alpha and the
    cut-off in its gamma.  No part of J's exponent is positive, so
    |J| <= B(pr+1, ps+1).  The integrand reads s' and 1 - s from the node
    pair (s, 1 - s), whose small member is the exact tanh-sinh offset from
    its endpoint, so nothing cancels.  All rows of one call are one row
    batch of integrate_interval (see quadrature._drive), each row's share
    its term scale t**-(pr+1) exp(-min(a,b)/t), against _R_INNER_TOL and
    with no work bound of its own: the level cap bounds the work, and a
    batch not converged by then raises QuadratureError.  Alone at
    t = 1e-3, the row of (4, 2, 1) with a = 10, b = 0.5 and h = j = 0.1 is
    3.9e-8 off relative.
    """

    n: int
    m: int
    nu: int
    a: float
    b: float
    h: complex
    j: float

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        pr = (self.n + self.nu) / 2.0 - 2.0
        ps = (self.m + self.nu) / 2.0 - 2.0
        h = complex(self.h)
        slope = abs(self.a - self.b)
        near = 0 if self.a >= self.b else 1  # the pair's member that is s'

        def batch(col: np.ndarray, x: np.ndarray) -> np.ndarray:
            s, c = x.T
            logmag = (
                pr * np.log(s) + ps * np.log(c)
                - (slope * x[:, near] + self.j * s * c) / col
                - h.real * s
            )
            vals = np.exp(logmag)
            if h.imag != 0.0:
                vals = vals * np.exp(-1j * h.imag * s)
            return vals

        log2_share = (-(pr + 1.0) * np.log(t) - min(self.a, self.b) / t) / math.log(2.0)
        res = integrate_interval(batch, _R_INNER_TOL, rows=(t[:, None], log2_share))
        if not res.converged:
            raise QuadratureError(
                f"R1 inner integral did not converge over {len(t)} t rows "
                f"(estimate {res.abs_error_estimate:.3e})"
            )
        return res.value


@dataclass(frozen=True)
class KernelTerm:
    """coeff * t**alpha * exp(-beta t - gamma/t) * special(t), coeff finite and > 0.

    Every kernel the catalog and the applications build is a sum of
    positive terms, so a term's coefficient is a magnitude, and one that
    is not finite and positive raises KernelError here rather than in the
    evaluator.
    """

    coeff: float
    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    special: _Factor | None = None

    def __post_init__(self):
        if not 0.0 < self.coeff < math.inf:  # also rejects NaN
            raise KernelError(f"kernel term coefficient {self.coeff!r} is not finite and > 0")


@np.errstate(divide="ignore", under="ignore")
def eval_kernel_with_f(terms: list[KernelTerm], f: TestIntegrand, t: np.ndarray) -> np.ndarray:
    """t**mu e^(-sigma t) w(t) at a 1-D float array t of finite t > 0, f's
    power and exponential times the weight, assembled term by term in log
    magnitude.  f's coefficient is not read: the caller scales the integral
    by it (ReductionRule.reduce_to_1d).

    Finite for all t > 0 whenever f.mu exceeds params.mu_floor and no
    term leaves the double range; a term that does raises KernelError.
    Nodes whose exponential part underflows contribute exact zeros.  The
    values turn complex at the first complex contribution.  The function,
    its factors included, runs under an np.errstate decorator that
    ignores log(0) and underflow whatever the caller has set.

    Each term takes the rows where it has not underflowed by one mask.  A
    call costs more per term than per node (a drive's first head is 197
    nodes on the half line), so a term tests by ufunc reductions and sizes
    and skips what cannot change a bit: a zero gamma (t is finite and
    positive).  Every term is positive (see KernelTerm), and a real
    factor's values are >= 0 or NaN (see _Factor), so a real factor goes
    into the log as it is: log 0 is -inf, whose exp is an exact 0.  A
    complex factor's values multiply exp's instead, with no log.  Every
    complex factor is bounded, |b| <= pi (see _Factor), so the overflow
    test reads the exponent alone: a term whose exponent is at most 705 is
    below pi e^705, finite, and one whose exponent is above raises
    KernelError.  -(sigma + beta) t is always applied, and at
    sigma + beta = 0 it keeps every bit too.  The first term to contribute,
    if its factor is not complex, writes exp's values into the zero output
    instead of adding them: 0.0 + v is v for every value exp returns (a
    complex product's part can be -0.0, where 0.0 + -0.0 is 0.0).  Each
    term forms its own exponent and calls its own factor on its own live
    rows.
    """
    out = np.zeros(t.shape)
    fresh = True  # out holds only zeros
    logt = np.log(t)
    for term in terms:
        logmag = (math.log(term.coeff) + (f.mu + term.alpha) * logt
                  - (f.sigma + term.beta) * t)
        if term.gamma != 0.0:
            logmag = logmag - term.gamma / t
        live = logmag > _EXP_ZERO
        # phase multiplies exp's values: a complex factor's, bounded, so no log is needed
        logtot, phase = logmag[live], None
        if not logtot.size:
            continue  # a factor never sees zero rows
        if term.special is not None:
            bounded = term.special.bounded_part(t[live])
            if bounded.dtype.kind == "c":
                phase = bounded
            else:
                logtot = logtot + np.log(bounded)
        # fmax skips NaN, so this is any(logtot > _LOG_OVERFLOW)
        if np.fmax.reduce(logtot) > _LOG_OVERFLOW:
            at = float(t[live][np.argmax(logtot > _LOG_OVERFLOW)])
            raise KernelError(f"kernel term overflow at t = {at!r}: "
                              "f(t) w(t) leaves the double range")
        vals = np.exp(logtot)
        if phase is not None:
            vals = vals * phase
            out = out.astype(vals.dtype, copy=False)  # complex from the first complex term on
        out[live] = vals if fresh and phase is None else out[live] + vals
        fresh = False
    return out


def eval_kernel(terms: list[KernelTerm], t) -> np.ndarray | complex | float:
    """Pointwise weight w(t) for finite t > 0, of t's shape: t is flattened
    for eval_kernel_with_f and its values reshaped."""
    ts = np.asarray(t, dtype=float)
    if not np.all((ts > 0.0) & (ts < math.inf)):  # also rejects NaN
        raise KernelError("kernel weights are defined for finite t > 0 only")
    vals = eval_kernel_with_f(terms, TestIntegrand(1.0, 0.0, 0.0), ts.ravel()).reshape(ts.shape)
    return vals if ts.ndim else vals.item()
