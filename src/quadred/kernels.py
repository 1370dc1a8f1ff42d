"""Weight kernels w(t) as sums of power * exponential * special-function terms.

A reduction rule turns the quadrant integral into  integral f(t) w(t) dt
with w a short sum of

    coeff * t**alpha * exp(-beta*t - gamma/t) * special(t)

The special factors are kept in forms that stay bounded on (0, inf):
a Macdonald function of order k >= 1 is carried as t**k K_k(s*t), its
t**-k pole (DLMF 10.30.2) written into the term's alpha, and the
complementary-error factors of the mixed-tilde family are carried as one
combination of erfcx per kernel, so their exp(4(a-b)/t) growth cancels
analytically and their tabulated terms never subtract in floats (T5's
combination grows like t**-1/2 at the origin, where its term's gamma
cuts it off).
The evaluator computes exactly that sum, assembling f(t) times each term
in log magnitude, so nothing overflows on the way, however deep the
quadrature probes: with f's power above the convergence contract's
small-t floor (params.mu_floor), a value is finite unless it leaves the
double range itself.  Each special factor follows the protocol of
``_Factor``.
"""

from __future__ import annotations

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
_KUMMER_LEADING_FROM = 1e16
_SQPI = math.sqrt(math.pi)
_TWO_BY_SQPI = 2.0 / _SQPI
# Targets of R1's inner integrate_interval batch; the level cap bounds its
# work, at most 50 081 evaluations a row, every node of the (s, 1 - s) ladder
_R_INNER_TOL = Tolerance(rel=1e-11, abs=1e-15)


class KernelError(ValueError):
    """A kernel was evaluated outside its validity domain."""


class _Factor:
    """Special-factor protocol: bounded_part(t) is the factor's value
    special(t), O(1) near 0, or for K_0 logarithmic and for
    ErfcxSqrtInvFactor's T5 form O(t**-1/2).

    A factor's powers of t go to its KernelTerm's alpha, and its exponentials
    to beta and gamma, where the dead-row test sees them: bounded_part is
    called with the t rows whose term has not underflowed, never with none.
    A factor sets no np.errstate: it runs under the evaluator's.
    """


@dataclass(frozen=True)
class BesselKFactor(_Factor):
    """t**order K_order(scale * t), order in {0, 1, 2}.

    K_k(x) ~ 2**(k-1) (k-1)! x**-k as x -> 0 for k >= 1 (DLMF 10.30.2); the
    t**order taken in here is the t**-order its KernelTerm's alpha carries.
    Every order is formed from scipy's integer-order k0 and k1 at
    x = scale * t: k0(x), x k1(x) / scale, and
    x**2 K_2(x) = x**2 k0(x) + 2 x k1(x) (DLMF 10.29.1), whose terms are
    never negative, over scale**2.  These are finite down to x = 1e-300;
    only below it are they the limits -log(x/2) - euler_gamma and
    order / scale**order.  The half-line ladder's t > 1e-160 keeps catalog
    draws above that floor.
    """

    order: int
    scale: float

    def bounded_part(self, t: np.ndarray) -> np.ndarray:
        x = self.scale * t
        if self.order == 0:
            out = _sp.k0(x)
        else:
            out = x * _sp.k1(x)
            if self.order == 2:
                out = x * (x * _sp.k0(x)) + 2.0 * out
            out = out / self.scale**self.order
        tiny = x < 1e-300
        if np.logical_or.reduce(tiny):
            # x k1(x) overflows on denormal arguments, and k0 is inf at 0
            out[tiny] = (-np.log(x[tiny] / 2.0) - np.euler_gamma if self.order == 0
                         else self.order / self.scale**self.order)
        return out


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
    positive; T5's grows like z/sqrt(pi) as t -> 0, where the term's gamma
    cuts it off.
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
        small = z < 1.0
        if np.logical_or.reduce(small):
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
    lies in (0, 1], so the factor is bounded outright.  Below w = 1e16 it is
    scipy's hyp1f1; from there on it is the leading term of DLMF 13.7.2,
    Gamma(B)/Gamma(B-A) w**-A, whose next term is below rounding while
    scipy's series degrades and finally returns 0 or NaN.
    """

    a: float
    b: float
    shift: float
    h: float

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
    """coeff * t**alpha * exp(-beta t - gamma/t) * special(t)."""

    coeff: float
    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    special: _Factor | None = None


def eval_kernel_with_f(terms: list[KernelTerm], f: TestIntegrand, t: np.ndarray) -> np.ndarray:
    """f(t) * w(t), assembled term by term in log magnitude.

    Finite for all t > 0 whenever f.mu exceeds params.mu_floor and no
    term leaves the double range; a term that does raises KernelError.
    Nodes whose exponential part underflows contribute exact zeros.  The
    values turn complex at the first complex contribution.  The terms,
    their special factors included, run under one np.errstate that ignores
    log(0) and underflow whatever the caller has set.

    Each term takes the rows where it has not underflowed by one mask.  A
    call costs more per term than per node (a drive's first head is 197
    nodes on the half line), so a term tests by ufunc reductions and skips what cannot
    change a bit: a zero gamma (t is finite and positive), a phase or lift
    of 1, and a sign, added or subtracted.  A real factor whose values are
    all at least 1e-280 is its own magnitude, with phase exactly 1, so it
    goes into the log without abs or phase.  -(sigma + beta) t is always
    applied, and at sigma + beta = 0 it keeps every bit too.  Each term
    forms its own exponent and calls its own factor on its own live rows.
    """
    t = np.asarray(t, dtype=float)
    shape, t = t.shape, t.ravel()  # a factor takes a 1-D array of rows
    out = np.zeros(t.shape)
    logt = np.log(t)
    lead = abs(f.coeff)
    if lead == 0.0:
        return out.reshape(shape)
    with np.errstate(divide="ignore", under="ignore"):
        for term in terms:
            if term.coeff == 0.0:
                continue
            logmag = (math.log(lead * abs(term.coeff)) + (f.mu + term.alpha) * logt
                      - (f.sigma + term.beta) * t)
            if term.gamma != 0.0:
                logmag = logmag - term.gamma / t
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
                at = float(t[live][np.argmax(logtot > _LOG_OVERFLOW)])
                raise KernelError(
                    f"kernel term overflow at t = {at!r}: f(t) w(t) leaves the double range"
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
