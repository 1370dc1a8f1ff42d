"""Normalization and verification engine.

``direct_2d`` assembles the quadrant integrand named by a ``Params`` (from
1/x and 1/y, so huge or tiny quadrature nodes cannot overflow it) and runs
the 2-D oracle.  ``normalize`` maps a general (params, f) onto a catalog
rule via the power-shift identity and the axis-swap mirror.  ``verify`` evaluates
both sides of one rule instance and emits a ``VerificationRecord``;
``run_sweep`` does that for whole rule sets with reproducible per-case
seeds.
"""

from __future__ import annotations

import csv
import io
import json
import math

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .catalog import _COEFF_NAMES, ApplicabilityError, Family, ReductionRule, RULES, get_rule
from .kernels import _EXP_ZERO, KernelError
from .params import DivergentIntegralError, Params, TestIntegrand, convergence_failure
from .quadrature import (
    _EXP_SINH,
    HALF_LINE_SPAN,
    QuadResult,
    QuadratureError,
    Tolerance,
    _run,
    integrate_quadrant,
)

DEFAULT_COMPARE_TOL = Tolerance(rel=1e-6, abs=1e-9)
_SHIFT_SEARCH = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0)
_LOG_SPAN = tuple(math.log(t) for t in HALF_LINE_SPAN)
# a box edge lies within this of the bound's crossing, in log x or log y
_EDGE_TOL = 0.25
# the support box cuts a node whose term is bounded this many e-folds below
# the largest term of its pilot (see quadrant_support)
_TERM_CUT = 100.0
# an exp-sinh weight is at most its node times e^this on the span:
# w(x) = x sqrt((pi/2)^2 + log^2 x), and |log x| <= 368.4
_LOG_WEIGHT_EXCESS = 6.0
# the pilot's nodes and weights: the exp-sinh ladder's level 0
_PILOT_X, _PILOT_W = (np.concatenate(part) for part in zip(
    *(_run(_EXP_SINH, 0, direction) for direction in (1.0, -1.0))))


def shift_power(triple: tuple[int, int, int], delta: float) -> tuple[int, int, int]:
    """Rewrite f = t**delta g: (n, m, nu) -> (n-2d, m-2d, nu+2d).

    The caller must replace f(t) by t**(-delta) f(t) to keep the integral's
    value (``TestIntegrand.shifted``).
    """
    two_delta = 2.0 * delta
    if two_delta != round(two_delta):
        raise ValueError("delta must be a half-integer")
    d2 = int(round(two_delta))
    n, m, nu = triple
    return (n - d2, m - d2, nu + d2)


def _powers(params: Params, f: TestIntegrand) -> tuple[float, float, float, float]:
    """(kx, ky, kt, decay): the log-magnitude that _log_magnitude returns
    and quadrant_support bounds is kx log x + ky log y - kt log(1/x + 1/y)
    - decay t plus its other exponents, decay = sigma + c.  f's coefficient
    is not in it: direct_2d scales the integral by it."""
    n, m, nu = params.n, params.m, params.nu
    # x^(-n/2) y^(-m/2) (x+y)^(-nu/2) t^mu, with log(x+y) = log x + log y - log t
    return -0.5 * (n + nu), -0.5 * (m + nu), f.mu + 0.5 * nu, f.sigma + params.c


def _log_magnitude(params: Params, f: TestIntegrand):
    """log |integrand| as a numpy-broadcasting callable of (x, y), returning
    (log-magnitude, y/(x+y)); y/(x+y) is None unless h or j reads it.

    Built from ix = 1/x and iy = 1/y, with t = 1/(ix + iy) and
    y/(x+y) = t*ix, so no intermediate overflows on the quadrature's
    [1e-160, 1e160] ladder.  Every factor that depends on x alone or on y
    alone is folded, as a logarithm, into one column or one row term; each
    (x, y) point then costs one log, of ix + iy.  It keeps no state between
    calls and sets no numpy error state of its own.
    """
    a, b, g, h, j, p, q = params.a, params.b, params.g, params.h, params.j, params.p, params.q
    kx, ky, kt, decay = _powers(params, f)
    # y/(x+y) is read only by the h and j terms
    mixed = h != 0.0 or j != 0.0

    def log_magnitude(x, y):
        # x arrives as a column and y as a row: only s = ix + iy and what
        # follows from it is full-size
        ix = 1.0 / x
        col = kx * np.log(x) - p * x - a * ix
        iy = 1.0 / y
        row = ky * np.log(y) - q * y - b * iy
        s = ix + iy
        t = 1.0 / s
        logmag = col + row
        logmag -= kt * np.log(s)
        logmag -= decay * t
        frac = None
        if mixed:
            frac = t * ix  # y/(x+y) in (0, 1)
            if h.real != 0.0:
                logmag -= h.real * frac
            if j != 0.0:
                logmag -= j * (frac * iy)  # j/(x+y)
        if g != 0.0:  # at g = 0 the term is 0, and 0 * inf would be NaN
            logmag -= g * (x * s * s)  # (x+y)^2/(x y^2)
        return logmag, frac

    return log_magnitude


def quadrant_integrand(params: Params, f: TestIntegrand):
    """The 2-D integrand with f's coefficient taken as 1, as a
    numpy-broadcasting callable (direct_2d scales the integral by it).

    Each call takes _log_magnitude's log-magnitude and one exp of it, taken
    only where it can be nonzero (not below _EXP_ZERO; NaN passes); a
    complex h adds a unit-modulus phase factor.  It keeps no state between
    calls.

    It sets no numpy error state of its own: it runs under the quadrature
    driver's per-integral np.errstate, where overflow and underflow are
    expected and ignored.
    """
    log_magnitude = _log_magnitude(params, f)
    turn = params.h.imag

    def integrand(x, y):
        logmag, frac = log_magnitude(x, y)
        vals = np.exp(logmag, out=np.zeros(logmag.shape), where=~(logmag < _EXP_ZERO))
        if turn != 0.0:
            vals = vals * np.exp(-1j * turn * frac)
        return vals

    return integrand


def _g(k: float, p: float, a: float, l: float) -> float:
    """k*l - p*e^l - a*e^-l, concave in l."""
    return k * l - p * math.exp(l) - a * math.exp(-l)


def _peak(k: float, p: float, a: float) -> float:
    """Where _g(k, p, a, l), concave in l, peaks on the ladders' log span."""
    root = math.sqrt(k * k + 4.0 * p * a)
    if k > 0.0:
        e = (k + root) / (2.0 * p) if p > 0.0 else math.inf
    elif root > k:  # the same root as 2a/(root - k), without cancellation
        e = 2.0 * a / (root - k)
    else:  # k = 0 and p*a = 0: increasing when a > 0, else non-increasing
        e = math.inf if a > 0.0 else 0.0
    lo, hi = _LOG_SPAN
    return min(max(math.log(e), lo), hi) if e > 0.0 else lo


def _joined_peak(first: float, joint: float, second: float) -> float:
    """The peak of a concave function that is one concave piece, peaking at
    first, up to joint and another, peaking at second, from joint on."""
    return first if first < joint else max(joint, second)


def _bound(lead: float, own, other, kt: float, decay: float, cross: float = 0.0):
    """(bound, peaks) for the box edges of one log variable l.

    own and other are (k, p, a) of the two variables.  bound(l) is the sup
    over the other variable l' on the span of

        lead + _g(own, l) + _g(other, l') + kt min(l, l') - decay min(e^l, e^l')/2,

    the larger of two concave functions of l, one for each side of l' = l,
    each found in closed form: below, a concave function of l' clamped at
    l; above, the other's own peak clamped at l.  peaks is (low, high), the
    least and the greatest of their peaks, so bound is non-decreasing below
    low and non-increasing above high.  cross > 0 moves half of the decay
    on the side below into -cross e^(l/3) (see quadrant_support); that
    side's peak is then only a point at or above it, so the bound serves a
    high edge only.
    """
    k, p, a = own
    ko, q, b = other
    half = 0.5 * decay
    near = 0.5 * half if cross else half
    below_peak, above_peak = _peak(ko + kt, q + near, b), _peak(ko, q, b)
    below_top, above_top = _g(ko + kt, q + near, b, below_peak), _g(ko, q, b, above_peak)

    def bound(l: float) -> float:
        e = math.exp(l)
        ie = 1.0 / e
        if l >= below_peak:
            below = below_top
        else:
            below = (ko + kt) * l - (q + near) * e - b * ie
        if cross:
            below -= cross * math.exp(l / 3.0)
        above = kt * l - half * e + (above_top if l <= above_peak else ko * l - q * e - b * ie)
        return lead + k * l - p * e - a * ie + (below if below > above else above)

    # the peak of each side's concave function of l
    below = _joined_peak(_peak(k + ko + kt, p + q + near, a + b), below_peak, _peak(k, p, a))
    if cross:
        # from l = 0 on, that side's slope is at most slope - (cross/3) e^(l/3)
        slope = k + a + max(ko + kt + b, 0.0)
        below = min(below, 3.0 * math.log(3.0 * slope / cross) if 3.0 * slope > cross else 0.0)
    above = _joined_peak(_peak(k + kt, p + half, a), above_peak,
                         _peak(k + ko + kt, p + q + half, a + b))
    return bound, (min(below, above), max(below, above))


def _edge(bound, at: float, out: float, inner: float) -> float:
    """A point between out and inner beyond which bound < at.

    bound is monotone from inner to out.  A bisection keeps out on the side
    where bound < at, so every point beyond it is cut whatever the
    tolerance; where bound < at nowhere, out stays where it is.
    """
    while abs(inner - out) > _EDGE_TOL:
        mid = 0.5 * (out + inner)
        if bound(mid) < at:
            out = mid
        else:
            inner = mid
    return out


def _pilot_peak(log_magnitude) -> float:
    """The largest log-term, log |value| + log w(x) + log w(y), on the
    pilot's nodes, taken in logs without forming a value."""
    with np.errstate(all="ignore"):
        logmag, _ = log_magnitude(_PILOT_X[:, None], _PILOT_X)
    log_w = np.log(_PILOT_W)
    return float(np.maximum.reduce(logmag + log_w[:, None] + log_w, axis=None))


def quadrant_support(params: Params, f: TestIntegrand):
    """A box outside which quadrant_integrand's node terms are negligible.

    It bounds the integrand of f with coefficient 1, as quadrant_integrand
    forms it, so the box is the same whatever f's coefficient, 0 included.
    Asks the convergence contract first (params.convergence_failure, the
    one the reductions ask too) and raises DivergentIntegralError with its
    reason, so it returns a box for every integral that converges:
    ((x_lo, x_hi), (y_lo, y_hi)), with x_lo <= x_hi and y_lo <= y_hi.
    It need not hold any node: quadrature._clipped keeps each level's
    first nodes whatever the box.  Outside it each node of the exp-sinh
    ladders has a term, value times both node weights, below e^-_TERM_CUT
    (e^-100) of the largest term of a pilot.

    The pilot reads the log-magnitude on the exp-sinh ladder's level-0
    nodes (25 x 25) and adds both log weights, with no exp (Blanchard,
    Higham & Higham, IMA J. Numer. Anal. 41 (2021) 2311), so its largest
    term is finite where every value underflows or one overflows; that
    node lies inside the box, so an overflow still reaches the driver.

    The integrand's log-magnitude is bounded from above.  The j term and
    the part of the h term that is <= 0 are dropped, and the h term is
    charged max(-Re h, 0).  With t = xy/(x+y) in [min(x, y)/2, min(x, y)]
    and kt = mu + nu/2, kt log t is charged kt min(log x, log y), plus
    |kt| log 2 when kt < 0, and -(sigma + c) t is charged
    -(sigma + c) min(x, y)/2.  The tilde term -g(1/x + 2/y + x/y^2), g >= 0,
    keeps its separable parts exactly; its x/y^2 part is dropped, except
    above the x peaks, where on the side y <= x half the decay joins it:
    -g x/y^2 - (sigma + c) y/4 is at most
    -3 2^(-2/3) g^(1/3) ((sigma + c)/4)^(2/3) x^(1/3).  What is left is,
    on each side of y = x, concave in log y, so its sup over y is found in
    closed form (_bound).  A weight w(x) = x sqrt((pi/2)^2 + log^2 x) is at
    most x e^_LOG_WEIGHT_EXCESS on the span, which bounds the term.  Each box
    edge is where that bound crosses _TERM_CUT below the pilot's largest
    term, found by bisection above all the bound's peaks for the high edge
    and below them for the low one, where it is monotone.

    Why e^-100 cuts nothing the oracle can see: its work bound allows at
    most 1e8 terms, so the cut terms sum to at most 1e8 e^-100, about 4e-36,
    of the pilot's largest term, and every estimate carries 4e-16 |value|.
    """
    reason = convergence_failure(params, f)
    if reason is not None:
        raise DivergentIntegralError(reason)
    limit = _pilot_peak(_log_magnitude(params, f)) - _TERM_CUT
    kx, ky, kt, decay = _powers(params, f)
    # a term's bound is its value's plus l + l' + 2 _LOG_WEIGHT_EXCESS: the
    # weights' slack here, their nodes as the 1 added to kx and ky below
    lead = max(-params.h.real, 0.0) - min(kt, 0.0) * math.log(2.0) + 2.0 * _LOG_WEIGHT_EXCESS
    # -g x/y^2 - (decay/4) y <= -cross x^(1/3), at y = (8 g x/decay)^(1/3)
    cross = 3.0 * 2.0 ** (-2.0 / 3.0) * params.g ** (1.0 / 3.0) * (0.25 * decay) ** (2.0 / 3.0)

    def box(own, other, cross):
        # each edge moves inward by bisection where its bound is monotone
        lo, hi = _LOG_SPAN
        fn, (low, high) = _bound(lead, own, other, kt, decay, 0.0)
        if low > lo:
            lo = _edge(fn, limit, lo, low)
        if cross:
            fn, (_, high) = _bound(lead, own, other, kt, decay, cross)
        if high < hi:
            hi = _edge(fn, limit, hi, high)
        # an edge at the span's end cuts nothing
        return (math.exp(lo) if lo > _LOG_SPAN[0] else 0.0,
                math.exp(hi) if hi < _LOG_SPAN[1] else math.inf)

    x_part = (kx + 1.0, params.p, params.a + params.g)
    y_part = (ky + 1.0, params.q, params.b + 2.0 * params.g)
    return box(x_part, y_part, cross), box(y_part, x_part, 0.0)


def direct_2d(
    params: Params,
    f: TestIntegrand,
    tol: Tolerance | None = None,
    *,
    tilde: bool = False,
) -> QuadResult:
    """Brute-force oracle: the quadrant integral evaluated directly.

    quadrant_support raises DivergentIntegralError, before any integrand
    call, for an integral that params.convergence_failure finds divergent:
    the contract reduce_to_1d refuses the same integrals by.  Otherwise the
    oracle evaluates nothing outside its box, where every node's term is
    below e^-100 of the largest term of the support's pilot.  The pilot's
    625 log-magnitudes are the support's cost: no integrand call, and not
    counted in evaluations.  The integral is taken with f's coefficient as
    1 and the result scaled by it once (QuadResult.scaled), so no
    coefficient reaches an exp: at 1e300 or 1e-300 the value is the
    coefficient times the unit integral, with the same evaluations.

    tilde=True sets g = a - b, the mixed-tilde rules' factor; a Params
    that carries g needs no flag, and nothing in the library passes it.
    """
    if tilde:
        params = replace(params, g=params.a - params.b)
    return integrate_quadrant(quadrant_integrand(params, f), tol,
                              support=quadrant_support(params, f)).scaled(f.coeff)


def normalize(params: Params, f: TestIntegrand) -> tuple[ReductionRule, Params, TestIntegrand]:
    """Search for a catalog rule equivalent to (params, f).

    It first asks the convergence contract (params.convergence_failure)
    and raises DivergentIntegralError with its reason for a divergent
    integral, before any search.  Every clause of the contract is
    invariant under a power shift and under the mirror, so it holds for
    every candidate or for none.  Then the search, in a deterministic
    order: every closed-form rule before R1-rint's numerical kernel, so an
    instance that R1 accepts but whose mirror has a closed form gets the
    closed form.  Each of the two passes tries the exact triple first, then
    power shifts delta in (1/2, -1/2, 1, -1, 3/2, -3/2, 2, -2), then the
    same ladder on the axis-mirrored integral (valid only for h = g = 0).
    Returns the first (rule, params', f') whose applicability holds;
    raises ApplicabilityError if there is none.  An instance with g > 0
    can reach only a mixed-tilde rule, and only where g = a - b: a power
    shift moves neither.
    """
    reason = convergence_failure(params, f)
    if reason is not None:
        raise DivergentIntegralError(f"no rule reduces a divergent integral: {reason}")
    candidates = [params]
    if params.h == 0 and params.g == 0:
        candidates.append(params.mirrored())
    for numerical in (False, True):
        for base in candidates:
            for delta in _SHIFT_SEARCH:
                n2, m2, nu2 = shift_power(base.triple, delta)
                cand = replace(base, n=n2, m=m2, nu=nu2)
                f2 = f.shifted(delta)
                for rule in RULES:
                    if rule.erratum or (rule.family is Family.R_INTEGRAL) != numerical:
                        continue
                    if rule.triple is not None and rule.triple != cand.triple:
                        continue
                    if rule.applicability_failure(cand) is None:
                        return rule, cand, f2
    nonzero = [name for name in _COEFF_NAMES if getattr(params, name) != 0] or ["none"]
    mirror = ("tried" if len(candidates) > 1
              else f"not tried ({'h' if params.h != 0 else 'g'} != 0)")
    raise ApplicabilityError(
        f"no catalog rule matches triple {params.triple} with nonzero coefficients "
        f"{', '.join(nonzero)} and f mu={f.mu} under power shifts; the axis mirror "
        f"was {mirror}"
    )


# ----------------------------------------------------------------------------
# Verification records.
# ----------------------------------------------------------------------------


def _num_json(v: complex | float) -> float | dict:
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def _nan_to_null(v: float) -> float | None:
    return None if math.isnan(v) else v


def _quad_json(r: QuadResult | None) -> dict | None:
    if r is None:
        return None
    return {
        "value": _num_json(r.value),
        "abs_error_estimate": r.abs_error_estimate,
        "evaluations": r.evaluations,
        "converged": r.converged,
    }


@dataclass
class VerificationRecord:
    rule_id: str
    params: Params
    f: TestIntegrand
    lhs: QuadResult | None
    rhs: QuadResult | None
    abs_diff: float
    rel_diff: float
    rel_tol: float
    abs_tol: float
    passed: bool
    trusted: bool = True
    seed: int | None = None
    case_index: int | None = None
    failure_reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "params": self.params.to_json(),
            "f": self.f.to_json(),
            "lhs": _quad_json(self.lhs),
            "rhs": _quad_json(self.rhs),
            "abs_diff": _nan_to_null(self.abs_diff),
            "rel_diff": _nan_to_null(self.rel_diff),
            "tol": {"rel": self.rel_tol, "abs": self.abs_tol},
            "pass": self.passed,
            "trusted": self.trusted,
            "seed": self.seed,
            "case_index": self.case_index,
            "failure_reason": self.failure_reason,
        }

    def to_csv_row(self) -> str:
        h = self.params.h
        lv = complex(self.lhs.value) if self.lhs else complex(math.nan)
        rv = complex(self.rhs.value) if self.rhs else complex(math.nan)
        cells = [
            self.rule_id, self.case_index, self.seed,
            self.params.n, self.params.m, self.params.nu,
            self.params.a, self.params.b, self.params.c, h.real, h.imag,
            self.params.j, self.params.p, self.params.q, self.params.g,
            self.f.coeff, self.f.mu, self.f.sigma,
            lv.real, lv.imag, rv.real, rv.imag,
            self.abs_diff, self.rel_diff, self.rel_tol,
            int(self.passed), int(self.trusted),
            self.failure_reason or "",
        ]
        # csv quotes a cell only where it must, as a failure reason with a comma
        row = io.StringIO()
        csv.writer(row, lineterminator="\n").writerow(
            repr(c) if isinstance(c, float) else str(c) for c in cells)
        return row.getvalue()[:-1]


CSV_HEADER = (
    "rule_id,case_index,seed,n,m,nu,a,b,c,h_re,h_im,j,p,q,g,"
    "f_coeff,f_mu,f_sigma,lhs_re,lhs_im,rhs_re,rhs_im,"
    "abs_diff,rel_diff,rel_tol,pass,trusted,failure_reason"
)


def verify(
    rule: ReductionRule | str,
    params: Params,
    f: TestIntegrand,
    compare_tol: Tolerance = DEFAULT_COMPARE_TOL,
    seed: int | None = None,
    case_index: int | None = None,
) -> VerificationRecord:
    """Evaluate both sides of one rule instance and compare.

    Applicability and convergence failures become failed records with the
    reason recorded, never silent values; such a record keeps the oracle's
    result (lhs) when only the reduction raised, and rhs is None.  When
    both sides converged, a record passes if compare_tol.met_by(abs_diff,
    lhs), the rule each side's own convergence test applies: abs_diff within
    max(abs, rel * max(1, |lhs|)), and rel_diff = abs_diff / max(1, |lhs|)
    is reported beside it, both at Tolerance.scale(lhs).  So below 1 the
    test is absolute: with the defaults two values below 5e-7 always agree,
    since their difference already meets rel, and the abs clause decides
    nothing unless it exceeds rel.  ROADMAP item 1 will make both relative
    to the integral's size.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)
    abs_diff = rel_diff = math.nan
    lhs = rhs = None
    try:
        rule.check_applicability(params)
        lhs = direct_2d(params, f)
        rhs = rule.reduce_to_1d(params, f)
    except (ApplicabilityError, KernelError, QuadratureError, DivergentIntegralError) as exc:
        # a failed record keeps the oracle if it ran: its work and converged flag
        ok, reason = False, str(exc)
    else:
        abs_diff = abs(complex(lhs.value) - complex(rhs.value))
        rel_diff = abs_diff / Tolerance.scale(lhs.value)
        converged = lhs.converged and rhs.converged
        ok = converged and compare_tol.met_by(abs_diff, lhs.value)
        reason = None
        if not converged:
            reason = "quadrature did not converge"
        elif not ok:
            reason = "sides disagree beyond tolerance"
    return VerificationRecord(
        rule.id, params, f, lhs, rhs, abs_diff, rel_diff,
        compare_tol.rel, compare_tol.abs, ok, rule.trusted, seed, case_index, reason,
    )


def _case_inputs(rule: ReductionRule, sweep_seed: int, rule_index: int, case_index: int):
    rng = np.random.default_rng((sweep_seed, rule_index, case_index))
    params = rule.sample_params(rng, case_index)
    floor = max(rule.mu_min(params), -0.75)
    f = TestIntegrand(
        coeff=1.0,
        mu=float(rng.uniform(floor + 0.5, floor + 3.0)),
        sigma=float(rng.uniform(0.0, 2.0)),
    )
    return params, f


@dataclass
class SweepReport:
    seed: int
    samples: int
    compare_rel: float
    compare_abs: float
    records: list[VerificationRecord]

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def n_fail_trusted(self) -> int:
        return sum(1 for r in self.records if not r.passed and r.trusted)

    @property
    def n_flagged(self) -> int:
        return sum(1 for r in self.records if not r.trusted)

    @property
    def all_passed(self) -> bool:
        return self.n_pass == len(self.records)

    def any_nonconverged(self) -> bool:
        return any(
            (r.lhs is not None and not r.lhs.converged)
            or (r.rhs is not None and not r.rhs.converged)
            for r in self.records
        )

    def summary_line(self) -> str:
        return (
            f"verify: {self.n_pass}/{len(self.records)} passed, "
            f"{self.n_fail_trusted} trusted failures, "
            f"{self.n_flagged} flagged (untrusted) records, "
            f"seed={self.seed}, samples={self.samples}"
        )

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "samples": self.samples,
            "tol": {"rel": self.compare_rel, "abs": self.compare_abs},
            "summary": {
                "pass": self.n_pass,
                "fail_trusted": self.n_fail_trusted,
                "flagged": self.n_flagged,
                "total": len(self.records),
            },
            "records": [r.to_json_dict() for r in self.records],
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in self.records]) + "\n"


def _sweep_case(args) -> VerificationRecord:
    """One sweep case; module level so process pools can pickle it."""
    rule_id, rule_index, case_index, seed, compare_tol = args
    rule = get_rule(rule_id)
    params, f = _case_inputs(rule, seed, rule_index, case_index)
    return verify(rule, params, f, compare_tol, seed=seed, case_index=case_index)


def run_sweep(
    rule_ids: list[str],
    samples: int = 20,
    seed: int = 42,
    compare_tol: Tolerance = DEFAULT_COMPARE_TOL,
    jobs: int = 1,
) -> SweepReport:
    """Verify `samples` random instances of each rule.

    Per-case seeds derive from (seed, rule position, case index), so reports
    are byte-identical for a fixed seed regardless of the jobs count; cases
    run in separate processes when jobs > 1, in no more processes than there
    are cases, and are reassembled in order.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not rule_ids:
        raise ValueError("no rules to verify")
    cases = []
    for rule_index, rule_id in enumerate(rule_ids):
        get_rule(rule_id)  # fail fast on unknown ids
        for case_index in range(samples):
            cases.append((rule_id, rule_index, case_index, seed, compare_tol))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cases))) as pool:
            records = list(pool.map(_sweep_case, cases, chunksize=4))
    else:
        records = [_sweep_case(c) for c in cases]
    return SweepReport(seed, samples, compare_tol.rel, compare_tol.abs, records)
