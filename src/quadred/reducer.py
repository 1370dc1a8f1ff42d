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

import json
import math

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .catalog import ApplicabilityError, Family, ReductionRule, RULES, get_rule
from .kernels import KernelError
from .params import Params, TestIntegrand
from .quadrature import (
    QUADRANT_TOLERANCE,
    QuadResult,
    QuadratureError,
    Tolerance,
    integrate_quadrant,
)

DEFAULT_COMPARE_TOL = Tolerance(rel=1e-6, abs=1e-9)
# largest relative residual the K6/K7 derivative cross-check accepts
_DERIVATIVE_CHECK_PASS = 1e-4
_SHIFT_SEARCH = (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0)


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
    n, m, nu = params.n, params.m, params.nu
    if not (params.a > 0.0 or tilde or f.mu - n / 2.0 > -1.0):
        raise DivergentIntegralError("divergent at the x->0 axis (a=0 and mu too small)")
    if not (params.b > 0.0 or tilde or f.mu - m / 2.0 > -1.0):
        raise DivergentIntegralError("divergent at the y->0 axis (b=0 and mu too small)")
    if not (params.p > 0.0 or tilde or n + nu > 2):
        raise DivergentIntegralError("divergent as x->inf (p=0 and n+nu<=2)")
    if not (params.q > 0.0 or m + nu > 2):
        raise DivergentIntegralError("divergent as y->inf (q=0 and m+nu<=2)")
    if not (
        params.c > 0.0 or f.sigma > 0.0 or params.p > 0.0 or params.q > 0.0
        or (n + m + nu) / 2.0 - f.mu > 2.0
    ):
        raise DivergentIntegralError("divergent along the diagonal (no large-t decay)")


def quadrant_integrand(params: Params, f: TestIntegrand, tilde: bool = False):
    """The 2-D integrand as a numpy-broadcasting callable.

    Built from ix = 1/x and iy = 1/y, with t = 1/(ix + iy) and
    y/(x+y) = t*ix, so no intermediate overflows on the quadrature's
    [1e-160, 1e160] ladder.  Every factor that depends on x alone or on y
    alone is folded, as a logarithm, into one column or one row term; each
    (x, y) point then costs one log, of ix + iy, and one exp.  A complex h
    adds a unit-modulus phase factor.

    The column terms are kept in one slot while x is the same read-only
    array as on the previous call: the quadrant driver hands over one
    column object for every inner call of an outer call.  A writable or
    non-array x, and every y, has its terms computed afresh.
    It sets no numpy error state of its own: it runs under the quadrature
    driver's per-integral np.errstate, where overflow and underflow are
    expected and ignored.
    """
    n, m, nu = params.n, params.m, params.nu
    a, b, c, j, p, q = params.a, params.b, params.c, params.j, params.p, params.q
    h = complex(params.h)
    ab = params.a - params.b
    negative = f.coeff < 0
    lead = math.log(abs(f.coeff)) if f.coeff != 0 else -math.inf
    # x^(-n/2) y^(-m/2) (x+y)^(-nu/2) t^mu, with log(x+y) = log x + log y - log t
    kx, ky, kt = -0.5 * (n + nu), -0.5 * (m + nu), f.mu + 0.5 * nu
    decay = f.sigma + c
    # y/(x+y) is read only by the h and j terms
    mixed = h != 0.0 or j != 0.0
    kept_x = kept = None  # the last read-only column and its terms

    def integrand(x, y):
        # x arrives as a column and y as a row: only s = ix + iy and what
        # follows from it is full-size
        nonlocal kept_x, kept
        if x is kept_x:
            col, ix = kept
        else:
            ix = 1.0 / x
            col = lead + kx * np.log(x) - p * x - a * ix
            if isinstance(x, np.ndarray) and not x.flags.writeable:
                kept_x, kept = x, (col, ix)
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
        if tilde:
            logmag -= ab * (x * s * s)  # (x+y)^2/(x y^2)
        vals = np.exp(logmag)
        if negative:
            vals = -vals
        if h.imag != 0.0:
            vals = vals * np.exp(-1j * h.imag * frac)
        return vals

    return integrand


def direct_2d(
    params: Params,
    f: TestIntegrand,
    tol: Tolerance | None = None,
    *,
    tilde: bool = False,
) -> QuadResult:
    """Brute-force oracle: the quadrant integral evaluated directly."""
    _check_convergence(params, f, tilde)
    return integrate_quadrant(quadrant_integrand(params, f, tilde), tol or QUADRANT_TOLERANCE)


def normalize(
    params: Params, f: TestIntegrand
) -> tuple[ReductionRule, Params, TestIntegrand] | None:
    """Search for a catalog rule equivalent to (params, f).

    Deterministic order: the exact triple first, then power shifts
    delta in (1/2, -1/2, 1, -1, 3/2, -3/2, 2, -2), then the same ladder on
    the axis-mirrored integral (valid only for h = 0).  Returns the first
    (rule, params', f') whose applicability and convergence floor hold, or
    None.
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
                if rule.erratum:
                    continue
                if rule.triple is not None and rule.triple != cand.triple:
                    continue
                if rule.applicability_failure(cand) is not None:
                    continue
                if not f2.mu > rule.mu_min(cand):
                    continue
                return rule, cand, f2
    return None


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
        h = complex(self.params.h)
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
        return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cells)


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
    record passes if abs_diff <= compare_tol.abs or
    rel_diff = abs_diff / max(1, |lhs|) <= compare_tol.rel.  So below 1
    the test is absolute (with the defaults, two values below 5e-10 always
    agree), as is each side's own convergence test; ROADMAP item 1 will
    make both relative to the integral's size.
    """
    if isinstance(rule, str):
        rule = get_rule(rule)

    def failed(reason: str, lhs=None, rhs=None) -> VerificationRecord:
        return VerificationRecord(
            rule.id, params, f, lhs, rhs, math.nan, math.nan,
            compare_tol.rel, compare_tol.abs, False, rule.trusted,
            seed, case_index, reason,
        )

    try:
        rule.check_applicability(params)
        lhs = direct_2d(params, f, tilde=rule.family is Family.MIXED_TILDE)
        rhs = rule.reduce_to_1d(params, f)
    except (ApplicabilityError, KernelError, QuadratureError, DivergentIntegralError) as exc:
        return failed(str(exc))
    abs_diff = abs(complex(lhs.value) - complex(rhs.value))
    rel_diff = abs_diff / max(1.0, abs(complex(lhs.value)))
    ok = (abs_diff <= compare_tol.abs or rel_diff <= compare_tol.rel)
    ok = ok and lhs.converged and rhs.converged
    reason = None
    if not (lhs.converged and rhs.converged):
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
    run in separate processes when jobs > 1 and are reassembled in order.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not rule_ids:
        raise ValueError("no rules to verify")
    cases = []
    for rule_index, rule_id in enumerate(rule_ids):
        get_rule(rule_id)  # fail fast on unknown ids
        for case_index in range(samples):
            cases.append((rule_id, rule_index, case_index, seed, compare_tol))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json(),
            "f": self.f.to_json(),
            "step": self.step,
            "fd_value": self.fd_value,
            "companion_value": self.companion_value,
            "matched_sign": self.matched_sign,
            "residual": self.residual,
            "pass": self.passed,
        }


def derivative_check_k7(
    params: Params,
    f: TestIntegrand,
    step: float | None = None,
    tol: Tolerance | None = None,
) -> DerivativeCheckReport:
    """Compare the p-derivative of the K6 reduction against +-K7.

    A central difference of the K6 value in p is matched against the K7
    value of the same parameters; the report records which sign agrees and
    the relative residual.  (Differentiating exp(-p x) under the integral
    pulls down -x, so the minus sign is the expected winner; the check
    records the empirical answer rather than assuming it.)
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
    res_plus = abs(fd - companion) / max(1.0, abs(companion))
    res_minus = abs(fd + companion) / max(1.0, abs(companion))
    if res_minus <= res_plus:
        return DerivativeCheckReport(params, f, step, fd, companion, -1, res_minus)
    return DerivativeCheckReport(params, f, step, fd, companion, +1, res_plus)
