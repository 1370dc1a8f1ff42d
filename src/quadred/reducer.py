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
from .params import Params, TestIntegrand
from .quadrature import (
    HALF_LINE_SPAN,
    QuadResult,
    QuadratureError,
    Tolerance,
    integrate_quadrant,
)

DEFAULT_COMPARE_TOL = Tolerance(rel=1e-6, abs=1e-9)
# largest relative residual the K6/K7 derivative cross-check accepts
_DERIVATIVE_CHECK_PASS = 1e-4
_SHIFT_SEARCH = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0)
_LOG_SPAN = tuple(math.log(t) for t in HALF_LINE_SPAN)
# a box edge lies within this of the bound's crossing, in log x or log y
_EDGE_TOL = 0.25


class DivergentIntegralError(ValueError):
    """The quadrant integral fails the exponent-accounting convergence check."""


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


def _check_convergence(params: Params, f: TestIntegrand, tilde: bool) -> None:
    """The oracle's whole convergence contract, by exponent accounting.

    The tilde term counts as decay only when a > b: it is 0 at a = b, and
    with a < b it grows as y -> 0, so the integral diverges.
    """
    n, m, nu = params.n, params.m, params.nu
    if tilde and params.a < params.b:
        raise DivergentIntegralError("divergent at the y->0 axis (the tilde term grows when a<b)")
    cut = tilde and params.a > params.b
    if not (params.a > 0.0 or cut or f.mu - n / 2.0 > -1.0):
        raise DivergentIntegralError("divergent at the x->0 axis (a=0 and mu too small)")
    if not (params.b > 0.0 or cut or f.mu - m / 2.0 > -1.0):
        raise DivergentIntegralError("divergent at the y->0 axis (b=0 and mu too small)")
    if not (params.a or params.b or params.j or cut or f.mu - (n + m + nu) / 2.0 > -2.0):
        raise DivergentIntegralError("divergent at the origin (a=b=j=0 and mu too small)")
    if not (params.p > 0.0 or cut or n + nu > 2):
        raise DivergentIntegralError("divergent as x->inf (p=0 and n+nu<=2)")
    if not (params.q > 0.0 or m + nu > 2):
        raise DivergentIntegralError("divergent as y->inf (q=0 and m+nu<=2)")
    if not (
        params.c > 0.0 or f.sigma > 0.0 or params.p > 0.0 or params.q > 0.0
        or (n + m + nu) / 2.0 - f.mu > 2.0
    ):
        raise DivergentIntegralError("divergent along the diagonal (no large-t decay)")


def _powers(params: Params, f: TestIntegrand) -> tuple[float, float, float, float]:
    """(log |coeff|, kx, ky, kt): the log-magnitude that quadrant_integrand
    takes and quadrant_support bounds is log |coeff| + kx log x + ky log y
    - kt log(1/x + 1/y) plus its exponents."""
    n, m, nu = params.n, params.m, params.nu
    lead = math.log(abs(f.coeff)) if f.coeff != 0 else -math.inf
    # x^(-n/2) y^(-m/2) (x+y)^(-nu/2) t^mu, with log(x+y) = log x + log y - log t
    return lead, -0.5 * (n + nu), -0.5 * (m + nu), f.mu + 0.5 * nu


def quadrant_integrand(params: Params, f: TestIntegrand, tilde: bool = False):
    """The 2-D integrand as a numpy-broadcasting callable.

    Built from ix = 1/x and iy = 1/y, with t = 1/(ix + iy) and
    y/(x+y) = t*ix, so no intermediate overflows on the quadrature's
    [1e-160, 1e160] ladder.  Every factor that depends on x alone or on y
    alone is folded, as a logarithm, into one column or one row term; each
    (x, y) point then costs one log, of ix + iy, and one exp, taken only
    where it can be nonzero (not below _EXP_ZERO; NaN passes).  A complex h
    adds a unit-modulus phase factor.  It keeps no state between calls.

    It sets no numpy error state of its own: it runs under the quadrature
    driver's per-integral np.errstate, where overflow and underflow are
    expected and ignored.
    """
    a, b, c, h, j, p, q = params.a, params.b, params.c, params.h, params.j, params.p, params.q
    ab = a - b
    negative = f.coeff < 0
    lead, kx, ky, kt = _powers(params, f)
    decay = f.sigma + c
    # y/(x+y) is read only by the h and j terms
    mixed = h != 0.0 or j != 0.0

    def integrand(x, y):
        # x arrives as a column and y as a row: only s = ix + iy and what
        # follows from it is full-size
        ix = 1.0 / x
        col = lead + kx * np.log(x) - p * x - a * ix
        iy = 1.0 / y
        row = ky * np.log(y) - q * y - b * iy
        s = ix + iy
        t = 1.0 / s
        logmag = col + row
        logmag -= kt * np.log(s)
        logmag -= decay * t
        if mixed:
            frac = t * ix  # y/(x+y) in (0, 1)
            if h.real != 0.0:
                logmag -= h.real * frac
            if j != 0.0:
                logmag -= j * (frac * iy)  # j/(x+y)
        if tilde and ab != 0.0:  # at a = b the term is 0, and 0 * inf would be NaN
            logmag -= ab * (x * s * s)  # (x+y)^2/(x y^2)
        vals = np.exp(logmag, out=np.zeros(logmag.shape), where=~(logmag < _EXP_ZERO))
        if negative:
            vals = -vals
        if h.imag != 0.0:
            vals = vals * np.exp(-1j * h.imag * frac)
        return vals

    return integrand


def _peak(k: float, p: float, a: float) -> float:
    """Where k*l - p*e^l - a*e^-l, concave in l, peaks on the ladders' log span."""
    root = math.sqrt(k * k + 4.0 * p * a)
    if k > 0.0:
        e = (k + root) / (2.0 * p) if p > 0.0 else math.inf
    elif root > k:  # the same root as 2a/(root - k), without cancellation
        e = 2.0 * a / (root - k)
    else:  # k = 0 and p*a = 0: increasing when a > 0, else non-increasing
        e = math.inf if a > 0.0 else 0.0
    lo, hi = _LOG_SPAN
    return min(max(math.log(e), lo), hi) if e > 0.0 else lo


def _edge(bound, out: float, inner: float) -> float:
    """A point between out and inner beyond which bound < _EXP_ZERO.

    bound is monotone from out to inner.  A bisection keeps out on the side
    where exp of the bound is exactly 0, so the point is safe whatever the
    tolerance.
    """
    if bound(inner) < _EXP_ZERO:
        return inner
    if bound(out) >= _EXP_ZERO:
        return out
    while abs(inner - out) > _EDGE_TOL:
        mid = 0.5 * (out + inner)
        if bound(mid) < _EXP_ZERO:
            out = mid
        else:
            inner = mid
    return out


def quadrant_support(params: Params, f: TestIntegrand, tilde: bool = False):
    """A box outside which quadrant_integrand is exactly 0 on the node ladders.

    Runs the oracle's convergence check first, so it returns a box for every
    integral it does not reject: ((x_lo, x_hi), (y_lo, y_hi)), holding 1.
    The integrand's log-magnitude is bounded from above: every term that
    is <= 0 for valid Params is dropped (c, sigma, j and the tilde term,
    admitted only with a >= b), the h term is charged max(-Re h, 0), and with
    kt = mu + nu/2 the term -kt log(1/x + 1/y) is charged
    kt min(log x, log y) when kt >= 0 and |kt| (log 2 + max(-log x, -log y))
    when kt < 0, the same kt min(log x, log y) plus |kt| log 2.  What is
    left is lead + g_x(log x) + g_y(log y) + kt min(log x, log y), where
    g(l) = k l - p e^l - a e^-l is concave.  Its sup over the other
    variable on the ladders' log span is min (kt >= 0) or max (kt < 0) of
    two concave pieces, found in closed form (_peak).  The box edge on each
    side of the peaks is where that bound crosses _EXP_ZERO, found by
    bisection; past it the integrand's exp is exactly 0, so every node the
    box cuts has the value 0.0.
    """
    _check_convergence(params, f, tilde)
    lead, kx, ky, kt = _powers(params, f)
    lead += max(-params.h.real, 0.0) - min(kt, 0.0) * math.log(2.0)
    pick = min if kt >= 0.0 else max

    def g(k, p, a, l):
        return k * l - p * math.exp(l) - a * math.exp(-l)

    def box(own, other):
        k, p, a = other
        o0, o1 = _peak(k, p, a), _peak(k + kt, p, a)
        # the other variable's sup, without and with the kt term on it
        sup0, sup1 = g(k, p, a, o0), g(k, p, a, o1) + kt * o1
        k, p, a = own

        def bound(l):
            return lead + g(k, p, a, l) + pick(kt * l + sup0, sup1)

        l0, l1 = _peak(k, p, a), _peak(k + kt, p, a)
        # bound rises up to the lower peak and falls from the upper one
        lo = _edge(bound, _LOG_SPAN[0], min(l0, l1))
        hi = _edge(bound, _LOG_SPAN[1], max(l0, l1))
        # an edge at the span's end cuts nothing
        return (math.exp(min(lo, 0.0)) if lo > _LOG_SPAN[0] else 0.0,
                math.exp(max(hi, 0.0)) if hi < _LOG_SPAN[1] else math.inf)

    x_part, y_part = (kx, params.p, params.a), (ky, params.q, params.b)
    return box(x_part, y_part), box(y_part, x_part)


def direct_2d(
    params: Params,
    f: TestIntegrand,
    tol: Tolerance | None = None,
    *,
    tilde: bool = False,
) -> QuadResult:
    """Brute-force oracle: the quadrant integral evaluated directly.

    quadrant_support owns the convergence check and raises
    DivergentIntegralError for an integral that diverges; otherwise the
    oracle evaluates nothing outside its box, where every value is exactly 0.
    """
    return integrate_quadrant(quadrant_integrand(params, f, tilde), tol,
                              support=quadrant_support(params, f, tilde))


def normalize(params: Params, f: TestIntegrand) -> tuple[ReductionRule, Params, TestIntegrand]:
    """Search for a catalog rule equivalent to (params, f).

    Deterministic order: the exact triple first, then power shifts
    delta in (1/2, -1/2, 1, -1, 3/2, -3/2, 2, -2), then the same ladder on
    the axis-mirrored integral (valid only for h = 0).  Returns the first
    (rule, params', f') whose applicability and convergence floor hold;
    raises ApplicabilityError if there is none.  Mixed-tilde rules are
    skipped: their 2-D side carries the factor exp(-(a-b)(x+y)^2/(x y^2)),
    which Params does not name.
    """
    candidates = [params]
    if params.h == 0:
        candidates.append(params.mirrored())
    for base in candidates:
        for delta in _SHIFT_SEARCH:
            n2, m2, nu2 = shift_power(base.triple, delta)
            cand = replace(base, n=n2, m=m2, nu=nu2)
            f2 = f.shifted(delta)
            for rule in RULES:
                if rule.erratum or rule.family is Family.MIXED_TILDE:
                    continue
                if rule.triple is not None and rule.triple != cand.triple:
                    continue
                if rule.applicability_failure(cand) is not None:
                    continue
                if not f2.mu > rule.mu_min(cand):
                    continue
                return rule, cand, f2
    nonzero = [name for name in _COEFF_NAMES if getattr(params, name) != 0] or ["none"]
    mirror = "tried" if len(candidates) > 1 else "not tried (h != 0)"
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
            self.params.j, self.params.p, self.params.q,
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
    "rule_id,case_index,seed,n,m,nu,a,b,c,h_re,h_im,j,p,q,"
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
    reason recorded, never silent values.  When both sides converged, a
    record passes if compare_tol.met_by(abs_diff, lhs), the rule each
    side's own convergence test applies: abs_diff within
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
    try:
        rule.check_applicability(params)
        lhs = direct_2d(params, f, tilde=rule.family is Family.MIXED_TILDE)
        rhs = rule.reduce_to_1d(params, f)
    except (ApplicabilityError, KernelError, QuadratureError, DivergentIntegralError) as exc:
        lhs = rhs = None  # a failed record keeps neither side
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


# ----------------------------------------------------------------------------
# The derivative cross-check between the two- and three-term Macdonald rules.
# ----------------------------------------------------------------------------


@dataclass
class DerivativeCheckReport:
    params: Params
    f: TestIntegrand
    step: float
    fd_value: float
    companion_value: float
    matched_sign: int
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= _DERIVATIVE_CHECK_PASS


def derivative_check_k7(
    params: Params,
    f: TestIntegrand,
    step: float | None = None,
    tol: Tolerance | None = None,
) -> DerivativeCheckReport:
    """Compare the p-derivative of the K6 reduction against +-K7.

    A central difference of the K6 value in p is matched against the K7
    value of the same parameters; the report records which sign agrees and
    the residual at Tolerance.scale(K7).  (Differentiating exp(-p x) under
    the integral pulls down -x, so the minus sign is the expected winner;
    the check records the empirical answer rather than assuming it.)
    """
    k6 = get_rule("K6-m111")
    k7 = get_rule("K7-m311")
    if step is None:
        step = 1e-4 * params.p
    if not (params.p - step > 0.0):
        raise ApplicabilityError("step too large: p - step must stay positive")
    tol = tol or Tolerance(rel=1e-12, abs=1e-15)
    k6_params = replace(params, n=-1, m=1, nu=1)
    k7_params = replace(params, n=-3, m=1, nu=1)
    up = k6.reduce_to_1d(replace(k6_params, p=params.p + step), f, tol).require_converged()
    dn = k6.reduce_to_1d(replace(k6_params, p=params.p - step), f, tol).require_converged()
    fd = (complex(up.value).real - complex(dn.value).real) / (2.0 * step)
    companion = complex(k7.reduce_to_1d(k7_params, f, tol).require_converged().value).real
    scale = Tolerance.scale(companion)
    res_plus, res_minus = abs(fd - companion) / scale, abs(fd + companion) / scale
    if res_minus <= res_plus:
        return DerivativeCheckReport(params, f, step, fd, companion, -1, res_minus)
    return DerivativeCheckReport(params, f, step, fd, companion, +1, res_plus)
