"""Acceptance suite: the eight exit criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s, or in
the captured output on failure) and asserts the criterion at its stated
tolerance.  Run just this file with

    pytest tests/test_acceptance.py -s
"""

import math

import mpmath as mp
import numpy as np
import pytest

from quadred.applications import (
    FourierSpec,
    YukawaPairSpec,
    fourier_pair_erfi_result,
    fourier_pair_tau_result,
    hydrogenic_pair,
    yukawa_pair,
    yukawa_pair_oracle,
)
from quadred.catalog import get_rule
from quadred.params import Params, TestIntegrand
from quadred.quadrature import (
    Tolerance,
    integrate_half_line,
    integrate_interval,
    integrate_quadrant,
)
from quadred.reducer import verify
from derivative_checks import derivative_check_k7
from kummer_reference import (
    SpecialFunctionError,
    kummer_via_bessel_2a,
    kummer_via_bessel_2a_minus,
    kummer_via_bessel_2a_plus,
    kummer_via_laguerre,
)

SQPI = math.sqrt(math.pi)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_pbm_erratum():
    params = Params(0, 0, 1, p=1.0, q=4.0)
    f = TestIntegrand(1.0, 0.0, 1.0)
    good = verify("E1-pbm-corrected", params, f)
    bad = verify("E1-uncorrected-pbm", params, f)
    ratio = complex(bad.rhs.value).real / complex(bad.lhs.value).real
    expected_ratio = 1.0 / (3.0 * math.sqrt(5.0))
    ok = (
        good.passed
        and good.rel_diff <= 1e-6
        and not bad.passed
        and abs(ratio - expected_ratio) <= 1e-4
    )
    report(
        1, "corrected product-form rule passes; uncorrected coefficient fails by 1/(3 sqrt 5)",
        ok, f"rel={good.rel_diff:.2e}, ratio={ratio:.6f} vs {expected_ratio:.6f}",
    )


def test_criterion_2_full_catalog_sweep(tmp_path):
    # the stated check is the CLI command itself
    import json

    from quadred.cli import main

    out = tmp_path / "sweep.json"
    code = main([
        "verify", "--rules", "all", "--samples", "20", "--seed", "42",
        "--format", "json", "--output", str(out),
    ])
    doc = json.loads(out.read_text())
    flagged = sorted({r["rule_id"] for r in doc["records"] if not r["trusted"]})
    trusted_fail = sorted(
        {r["rule_id"] for r in doc["records"] if r["trusted"] and not r["pass"]}
    )
    ok = code == 0 and doc["summary"]["pass"] == doc["summary"]["total"]
    detail = f"exit={code}, {doc['summary']['pass']}/{doc['summary']['total']} records"
    if flagged:
        detail += f"; flagged (untrusted, reported not gated): {flagged}"
    if trusted_fail:
        detail += f"; trusted failures: {trusted_fail}"
    report(2, "verify --rules all --samples 20 --seed 42 at 1e-6 relative", ok, detail)


def test_criterion_3_kummer_simplifications():
    def reference_1f1(a, b, z):
        with mp.workdps(30):
            return complex(mp.hyp1f1(a, b, mp.mpc(z)))

    zs = (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0)
    worst = 0.0
    checked = 0
    for a in (1.0, 1.5, 2.5):
        for z in zs:
            ref = reference_1f1(a, 2 * a, complex(z))
            worst = max(worst, abs(kummer_via_bessel_2a(a, complex(z)) - ref) / abs(ref))
            checked += 1
        for m in (0, 1, 2, 3):
            for z in zs:
                for fn, b in (
                    (kummer_via_bessel_2a_minus, 2 * a - m),
                    (kummer_via_bessel_2a_plus, 2 * a + m),
                    (kummer_via_laguerre, a - m),
                ):
                    try:
                        val = fn(a, m, complex(z))
                    except SpecialFunctionError:
                        continue  # outside the identity's parameter domain
                    ref = reference_1f1(a, b, complex(z))
                    worst = max(worst, abs(val - ref) / abs(ref))
                    checked += 1
    ok = worst <= 1e-10 and checked >= 150
    report(
        3, "Bessel-I and Laguerre simplifications of 1F1 agree with mpmath's 1F1",
        ok, f"{checked} comparisons, worst rel {worst:.2e}",
    )


def test_criterion_4_yukawa_closed_forms():
    formula = 4.0 * math.pi * (math.exp(-1.0) - math.exp(-2.0)) / 3.0
    spec = YukawaPairSpec(1.0, 2.0, 1.0)
    closed = yukawa_pair(spec)
    oracle = complex(yukawa_pair_oracle(spec).value).real
    equal0 = yukawa_pair(YukawaPairSpec(1.0, 1.0, 0.0))

    eta, x2 = 1.0, 1.0
    limit_form = SQPI * (1.0 + x2 * eta) / math.sqrt(eta) * math.exp(-eta * x2)
    numeric_limit = hydrogenic_pair(YukawaPairSpec(eta, eta + 1e-5, x2))

    ok = (
        abs(closed - formula) <= 1e-10 * abs(formula)
        and abs(oracle - closed) <= 1e-6 * abs(closed)
        and abs(equal0 - 2.0 * math.pi) <= 1e-12 * 2.0 * math.pi
        and abs(numeric_limit - limit_form) <= 1e-4 * abs(limit_form)
        and hydrogenic_pair(YukawaPairSpec(eta, eta, x2)) == pytest.approx(limit_form, rel=1e-12, abs=0)
    )
    report(
        4, "pair-overlap closed forms and the equal-range limits",
        ok,
        f"closed={closed:.10f}, oracle rel {abs(oracle-closed)/closed:.1e}, "
        f"hydrogenic-limit rel {abs(numeric_limit-limit_form)/limit_form:.1e}",
    )


def test_criterion_5_fourier_cross_check():
    worst = 0.0
    count = 0
    converged = True
    for k in (0.5, 1.0, 2.0):
        for ratio in (0.5, 1.0, 2.0):
            for x2 in (0.5, 1.0, 2.0):
                for cosine in (0.0, 0.3):
                    spec = FourierSpec(k, cosine * k * x2, 1.0, ratio, x2)
                    erfi, tau = fourier_pair_erfi_result(spec), fourier_pair_tau_result(spec)
                    converged = converged and erfi.converged and tau.converged
                    a, b = complex(erfi.value), complex(tau.value)
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
                    count += 1
    ok = converged and worst <= 1e-6
    report(
        5, "erfi-kernel and parametric momentum-space routes agree on the grid",
        ok, f"{count} points (27 aligned + 27 oblique), worst rel {worst:.2e}, "
        f"all converged {converged}",
    )


def test_criterion_6_a_eq_b_continuity():
    f = TestIntegrand(1.0, 0.5, 0.0)
    eps = 1e-4
    n6 = complex(
        get_rule("N6-aeqb").reduce_to_1d(Params(2, 2, 2, a=1.0, b=1.0, c=1.0), f).value
    ).real
    below = complex(
        get_rule("N5-222").reduce_to_1d(Params(2, 2, 2, a=1.0, b=1.0 - eps, c=1.0), f).value
    ).real
    # b = 1 + eps exceeds a; the (2,2,2) integral is a <-> b symmetric
    above = complex(
        get_rule("N5-222").reduce_to_1d(Params(2, 2, 2, a=1.0 + eps, b=1.0, c=1.0), f).value
    ).real
    lo, hi = min(below, above), max(below, above)
    ok = (
        lo <= n6 <= hi
        and abs(below - n6) <= 1e-3 * abs(n6)
        and abs(above - n6) <= 1e-3 * abs(n6)
    )
    report(
        6, "split-exponential values at b = a(1 +- 1e-4) bracket the a=b gamma-ratio value",
        ok, f"n6={n6:.10f} in [{lo:.10f}, {hi:.10f}]",
    )


def test_criterion_7_derivative_relation():
    rng = np.random.default_rng(77)
    f = TestIntegrand(1.0, 0.5, 0.0)
    signs = set()
    worst = 0.0
    for _ in range(5):
        p = float(rng.uniform(0.5, 3.0))
        q = float(rng.uniform(0.5, 3.0))
        rep = derivative_check_k7(Params(-1, 1, 1, p=p, q=q), f)
        signs.add(rep.matched_sign)
        worst = max(worst, rep.residual)
    coarse = derivative_check_k7(Params(-1, 1, 1, p=1.0, q=1.0), f, step=2e-3)
    fine = derivative_check_k7(Params(-1, 1, 1, p=1.0, q=1.0), f, step=1e-3)
    halving = coarse.residual / fine.residual
    ok = worst <= 1e-4 and len(signs) == 1 and abs(halving - 4.0) <= 0.6
    report(
        7, "p-derivative of the two-term Macdonald rule matches one sign of the three-term rule",
        ok, f"sign={signs}, worst residual {worst:.2e}, step-halving ratio {halving:.3f}",
    )


def test_criterion_8_quadrature_honesty():
    cases = []
    res = integrate_half_line(lambda t: np.exp(-t))
    cases.append((abs(complex(res.value).real - 1.0), res.abs_error_estimate, "exp"))
    res = integrate_half_line(lambda t: t**-0.5 * np.exp(-t))
    cases.append((abs(complex(res.value).real - SQPI), res.abs_error_estimate, "gamma-half"))
    res = integrate_half_line(lambda t: t**-0.5 * np.exp(-t - 1.0 / t))
    cases.append(
        (abs(complex(res.value).real - SQPI * math.exp(-2.0)), res.abs_error_estimate, "bilateral")
    )
    # integrands over (0, 1) take the pairs (r, 1 - r)
    res = integrate_interval(lambda x: 2.0 / SQPI * np.exp(-(x[:, 0] ** 2)))
    cases.append((abs(complex(res.value).real - math.erf(1.0)), res.abs_error_estimate, "erf"))
    res = integrate_interval(lambda x: x[:, 0] ** -0.5 * x[:, 1] ** -0.5, Tolerance(rel=1e-7))
    cases.append((abs(complex(res.value).real - math.pi), res.abs_error_estimate, "beta"))
    res = integrate_quadrant(lambda x, y: np.exp(-x - y))
    cases.append((abs(complex(res.value).real - 1.0), res.abs_error_estimate, "separable-2d"))

    bad = [label for true_err, est, label in cases if true_err > 10.0 * est + 1e-15]
    worst = max((true_err / max(est, 1e-300)) for true_err, est, label in cases)
    ok = not bad
    report(
        8, "true error at most ten times the reported estimate on closed-form integrals",
        ok, f"worst true/estimate ratio {worst:.2f}" + (f"; offenders {bad}" if bad else ""),
    )
