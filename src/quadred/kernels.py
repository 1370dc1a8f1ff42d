"""Weight kernels w(t) as sums of power * exponential * special-function terms.

A reduction rule turns the quadrant integral into  integral f(t) w(t) dt
with w a short sum of

    coeff * t**alpha * exp(-beta*t - gamma/t) * special(t)

The special factors are kept in forms that stay bounded on (0, inf):
a Macdonald function of order k >= 1 is carried as t**k K_k(s*t), its
t**-k pole (DLMF 10.30.2) written into the term's alpha, and the
complementary-error factors of the constrained-exponential family are
carried as erfcx so their exp(4(a-b)/t) growth cancels analytically.
The evaluator computes exactly that sum, assembling f(t) times each term
in log magnitude, so integrands stay finite wherever the convergence
floor mu > mu_min holds, no matter how deep the quadrature probes.  Each
special factor follows the protocol of ``_Factor``.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special as _sp

from .params import TestIntegrand
from .quadrature import QuadratureError, Tolerance, _row_share, integrate_interval

# np.exp(x) is exactly 0, and slow, for every x <= -745.1332191019412: here and in
# reducer.quadrant_integrand a log-magnitude below this is 0, without exp
_EXP_ZERO = -745.2
_LOG_OVERFLOW = 705.0
_KUMMER_LEADING_FROM = 1e16
# Targets of R1's inner integrate_interval batch; the level cap bounds its
# work, at most 50 081 evaluations a row, every node of the (s, 1 - s) ladder
_R_INNER_TOL = Tolerance(rel=1e-11, abs=1e-15)


class KernelError(ValueError):
    """A kernel was evaluated outside its validity domain."""


class _Factor:
    """Special-factor protocol, with the default a factor overrides as needed:

      bounded_part(t)    the factor's value special(t); O(1) near 0, or for
                         K_0 logarithmic
      floor_decay()      additional small-t decay of bounded_part itself, as a
                         power of t; read only by the convergence floor
                         (KernelTerm.mu_floor)

    A factor's powers of t go to its KernelTerm's alpha, and its exponentials
    to beta and gamma, where the dead-row test sees them: bounded_part is
    called with the t rows whose term has not underflowed, never with none.
    A factor sets no np.errstate: it runs under the evaluator's.
    """

    def floor_decay(self) -> float:
        return 0.0


@dataclass(frozen=True)
class BesselKFactor(_Factor):
    """t**order K_order(scale * t), order in {0, 1, 2}.

    K_k(x) ~ 2**(k-1) (k-1)! x**-k as x -> 0 for k >= 1 (DLMF 10.30.2); the
    t**order taken in here is the t**-order its KernelTerm's alpha carries.
    """

    order: int
    scale: float

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
        g[~small] = xs**k * _sp.kv(k, xs)
        return g / self.scale**k


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
        if not np.logical_or.reduce(big):  # the usual call
            return _sp.hyp1f1(self.a, self.b, -w)
        out = np.empty_like(w)
        out[~big] = _sp.hyp1f1(self.a, self.b, -w[~big])
        out[big] = _sp.gamma(self.b) * _sp.rgamma(self.b - self.a) * w[big] ** -self.a
        return out


@dataclass(frozen=True)
class FourierErfiFactor(_Factor):
    """The momentum-transform kernel factor with its Gaussians taken out:

        exp(-eta2^2/(4t) - x2^2 t) * exp(-zp^2) * (erfi(zp) - erfi(zm))
            = exp(-beta t - gamma/t) * bounded_part(t)

    with z+- = (i chi t + (eta1^2 - eta2^2)/4 +- k^2/4) / (k sqrt(t)) and
    chi the scalar product of the momentum with the separation.  gamma is
    the common cut-off min(eta1, eta2)^2/4 and beta the Cauchy-Schwarz
    residual max(x2^2 - (chi/k)^2, 0); both go to the factor's KernelTerm.
    Evaluated through the Faddeeva function w, z- and z+ as the two rows of
    one array.  Im z+- = chi sqrt(t)/k has the sign s of chi at every t > 0,
    so one branch serves a whole call: w(z) for chi >= 0, else the
    reflection w(z) = 2 exp(-z^2) - w(-z) (DLMF 7.4.3).  With expo a row's
    prefactor exponent, the reflection's 2 exp(expo - z^2) is the same in
    both rows, so it drops out of their difference and is never computed.
    Each row is then s exp(expo) w(s z), with Re expo <= 0 and
    Im(s z) >= 0, so at most 1 in magnitude.
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
        return max(self.x2 * self.x2 - (self.chi / self.k) ** 2, 0.0)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows z- and z+: real offsets, cut-offs less gamma, exponent phases."""
        g, d = (self.eta1**2 - self.eta2**2) / 4.0, self.k * self.k / 4.0
        return (np.array([[g - d], [g + d]]),
                np.array([[self.eta1**2 / 4.0], [self.eta2**2 / 4.0]]) - self.gamma,
                np.array([[-self.chi], [0.0]]))

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        k, chi = self.k, self.chi
        gg, cut, phase = self._rows
        z = (1j * chi * t + gg) / (k * np.sqrt(t))
        # prefactor exponents with -beta t - gamma/t taken out, each real part <= 0
        expo = -cut / t - (self.x2 * self.x2 - self.beta) * t + 1j * phase
        up = chi >= 0.0
        terms = np.exp(expo) * _sp.wofz(z if up else -z)
        # for chi < 0 both rows are negated, so the difference is taken the other way
        return 1j * (terms[0] - terms[1] if up else terms[1] - terms[0])


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
    its endpoint, so nothing cancels.  All rows of one call are one
    (rows, n) batch of integrate_interval, judged by its largest scaled
    row, with no floor (see quadrature.Tolerance.scale), against
    _R_INNER_TOL, and with no work bound of its own: the level cap bounds
    the work, and a batch not converged by then raises QuadratureError.
    Each row is judged by its share of the weight, as in
    integrate_quadrant: its values are multiplied by its term scale
    t**-(pr+1) exp(-min(a,b)/t), taken in logs, rounded down to a power of
    two and clipped to the normal range (quadrature._row_share); that share
    is divided out again on return.  So a row's value depends, within
    _R_INNER_TOL.rel, on which t share the call, and it is accurate
    relative to its batch's largest scaled row, not to itself:
    alone at t = 1e-3, the row of (4, 2, 1) with a = 10, b = 0.5 and
    h = j = 0.1 is 3.9e-8 off relative.
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
        col = t[:, None]
        share = _row_share((-(pr + 1.0) * np.log(col) - min(self.a, self.b) / col) / math.log(2.0))
        slope = abs(self.a - self.b)
        near = 0 if self.a >= self.b else 1  # the pair's member that is s'

        def batch(x: np.ndarray) -> np.ndarray:
            s, c = x.T
            logmag = (
                pr * np.log(s) + ps * np.log(c)
                - (slope * x[:, near] + self.j * s * c) / col
                - h.real * s
            )
            vals = np.exp(logmag)
            if h.imag != 0.0:
                vals = vals * np.exp(-1j * h.imag * s)
            return vals * share

        res = integrate_interval(batch, _R_INNER_TOL)
        if not res.converged:
            raise QuadratureError(
                f"R1 inner integral did not converge over {len(t)} t rows "
                f"(estimate {res.abs_error_estimate:.3e})"
            )
        return res.value / share[:, 0]


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
        if self.gamma > 0.0:
            return -math.inf
        decay = self.special.floor_decay() if self.special is not None else 0.0
        return -1.0 - (self.alpha + decay)


def kernel_mu_min(terms: list[KernelTerm]) -> float:
    return max(term.mu_floor() for term in terms)


def eval_kernel_with_f(terms: list[KernelTerm], f: TestIntegrand, t: np.ndarray) -> np.ndarray:
    """f(t) * w(t), assembled term by term in log magnitude.

    Finite for all t > 0 whenever f.mu exceeds the kernel's mu floor; nodes
    whose exponential part underflows contribute exact zeros.  The values
    turn complex at the first complex contribution.  The terms, their
    special factors included, run under one np.errstate that ignores
    log(0) and underflow whatever the caller has set.

    Each term takes the rows where it has not underflowed by one mask.  A
    call costs more per term than per node (a drive's first head is 197
    nodes on the half line), so a term tests by ufunc reductions and skips what cannot
    change a bit: a zero gamma (t is finite and positive), a phase or lift
    of 1, and a sign, added or subtracted.  A real factor whose values are
    all at least 1e-280 is its own magnitude, with phase exactly 1, so it
    goes into the log without abs or phase.  -(sigma + beta) t is always
    applied, and at sigma + beta = 0 it keeps every bit too; it and gamma/t
    are formed once per call for each value of sigma + beta and of gamma,
    which a kernel's terms share.  So the values keep their bits.
    """
    t = np.asarray(t, dtype=float)
    shape, t = t.shape, t.ravel()  # a factor takes a 1-D array of rows
    out = np.zeros(t.shape)
    logt = np.log(t)
    lead = abs(f.coeff)
    if lead == 0.0:
        return out.reshape(shape)
    # (sigma + beta) t and gamma / t by their factor: a kernel's terms share them
    decay, inverse = {}, {}
    with np.errstate(divide="ignore", under="ignore"):
        for term in terms:
            if term.coeff == 0.0:
                continue
            rate = f.sigma + term.beta
            if rate not in decay:
                decay[rate] = rate * t
            logmag = math.log(lead * abs(term.coeff)) + (f.mu + term.alpha) * logt - decay[rate]
            if term.gamma != 0.0:
                if term.gamma not in inverse:
                    inverse[term.gamma] = term.gamma / t
                logmag = logmag - inverse[term.gamma]
            live = logmag > _EXP_ZERO
            if np.count_nonzero(live) == 0:
                continue  # a factor never sees zero rows
            logtot, phase = logmag[live], None
            if term.special is not None:
                bounded = term.special.bounded_part(t[live])
                if bounded.dtype.kind != "c" and np.minimum.reduce(bounded) >= 1e-280:
                    # positive and normal (a NaN fails the test): |b| is b, its phase 1
                    logtot = logtot + np.log(bounded)
                else:
                    mag = np.abs(bounded)
                    if np.minimum.reduce(mag, axis=None) < 1e-280:
                        # lift denormals into the normal range before the division:
                        # numpy's complex divide NaNs out on denormals
                        lift = np.where(mag < 1e-280, 2.0**1000, 1.0)
                        bounded = bounded * lift
                        mag = np.abs(bounded)
                        logtot = logtot + np.log(mag) - np.log(lift)
                    else:
                        logtot = logtot + np.log(mag)
                    # every nonzero mag is now normal, and a zero's phase is 0 / 1e-300
                    phase = bounded / np.maximum(mag, 1e-300)
            # fmax skips NaN, so this is any(logtot > _LOG_OVERFLOW)
            if np.fmax.reduce(logtot) > _LOG_OVERFLOW:
                raise KernelError(
                    "kernel term overflow: f violates the convergence floor of this rule"
                )
            vals = np.exp(logtot) if phase is None else np.exp(logtot) * phase
            if vals.dtype.kind == "c" and out.dtype.kind != "c":
                out = out.astype(vals.dtype)
            add = np.subtract if (f.coeff >= 0) != (term.coeff >= 0) else np.add
            out[live] = add(out[live], vals)
    return out.reshape(shape)


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
