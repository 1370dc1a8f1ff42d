"""Normalization, the 2-D oracle, verification records and sweeps."""

import collections
import csv
import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadred import kernels, quadrature, reducer
from quadred.applications import FourierSpec
from quadred.catalog import RULES, ApplicabilityError, Family, get_rule, list_rules
from quadred.kernels import KernelError
from quadred.params import Params, TestIntegrand, convergence_failure
from quadred.quadrature import QuadratureError
from quadred.reducer import (
    _SHIFT_SEARCH,
    CSV_HEADER,
    DivergentIntegralError,
    _case_inputs,
    direct_2d,
    normalize,
    quadrant_integrand,
    quadrant_support,
    run_sweep,
    shift_power,
    verify,
)

import ci_checks

from derivative_checks import CheshireReport, derivative_check_k7
from test_catalog import MPMATH, kernel_floor, t_display, zeroed_variants

SQPI = math.sqrt(math.pi)
# levels 0 to 3, whose heads a drive's first call fetches
FIRST_HEAD = (0, 1, 2, 3)


class TestShiftPower:
    def test_examples(self):
        assert shift_power((0, 0, 1), -0.5) == (1, 1, 0)
        assert shift_power((4, 0, 0), 2.0) == (0, -4, 4)
        assert shift_power((3, 1, 0), 0.0) == (3, 1, 0)

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            shift_power((0, 0, 1), 0.3)

    @given(
        st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
        st.integers(-4, 4),
    )
    def test_round_trip(self, n, m, nu, twice_delta):
        delta = twice_delta / 2.0
        assert shift_power(shift_power((n, m, nu), delta), -delta) == (n, m, nu)

    def test_round_trip_preserves_value(self):
        # shifting the triple while replacing f by t**-delta f keeps the
        # reduced integral's value
        params = Params(0, 0, 1, p=1.0, q=2.0)
        f = TestIntegrand(1.0, 1.0, 0.5)
        base = get_rule("E1-pbm-corrected").reduce_to_1d(params, f)
        n2, m2, nu2 = shift_power(params.triple, -0.5)
        shifted = get_rule("E2-110").reduce_to_1d(
            Params(n2, m2, nu2, p=1.0, q=2.0), f.shifted(-0.5)
        )
        assert complex(base.value).real == pytest.approx(
            complex(shifted.value).real, rel=1e-10, abs=0
        )


class TestNormalize:
    def test_exact_triple_wins(self):
        res = normalize(Params(1, 1, 0, p=1.0, q=2.0), TestIntegrand(1.0, 1.0, 0.5))
        assert res is not None
        rule, params2, f2 = res
        assert rule.id == "E2-110"
        assert params2.triple == (1, 1, 0)
        assert f2.mu == 1.0

    def test_soundness_of_match(self):
        params = Params(1, 1, 0, p=1.0, q=2.0)
        f = TestIntegrand(1.0, 1.0, 0.5)
        rule, params2, f2 = normalize(params, f)
        lhs = direct_2d(params, f)
        rhs = rule.reduce_to_1d(params2, f2)
        assert complex(lhs.value).real == pytest.approx(
            complex(rhs.value).real, rel=1e-6, abs=0
        )

    def test_mirror_route(self):
        # (0,4,0) has no direct entry; the mirrored ladder lands on a
        # Macdonald rule with p and q exchanged
        params = Params(0, 4, 0, p=1.0, q=2.0)
        f = TestIntegrand(1.0, 2.5, 0.5)
        res = normalize(params, f)
        assert res is not None
        rule, params2, f2 = res
        assert params2.p == 2.0 and params2.q == 1.0
        lhs = direct_2d(params, f)
        rhs = rule.reduce_to_1d(params2, f2)
        assert complex(lhs.value).real == pytest.approx(
            complex(rhs.value).real, rel=1e-6, abs=0
        )

    def test_no_match(self):
        # (9, 9, 9) converges with p, q > 0 and mu above its floors, 7/2 at
        # the axes and 23/2 at the origin, and no shift reaches a rule
        with pytest.raises(ApplicabilityError, match=r"triple \(9, 9, 9\).*mirror was tried"):
            normalize(Params(9, 9, 9, p=1.0, q=1.0), TestIntegrand(1.0, 12.0, 0.0))
        # without them it diverges, which the contract says before any search
        with pytest.raises(DivergentIntegralError, match=(
                r"^no rule reduces a divergent integral: divergent at the x->0 axis "
                r"\(a=0; mu=0\.0 is not above its floor 3\.5\)$")):
            normalize(Params(9, 9, 9), TestIntegrand())

    def test_floor_at_an_axis(self):
        # b = 0: mu must be above m/2 - 1 = 1, the floor at the y->0 axis, on
        # every candidate alike; just above it the search lands on G1
        params = Params(4, 4, 0, a=1.0, b=0.0, c=1.0)
        with pytest.raises(DivergentIntegralError, match=(
                r"^no rule reduces a divergent integral: divergent at the y->0 axis "
                r"\(b=0; mu=1\.0 is not above its floor 1\.0\)$")):
            normalize(params, TestIntegrand(1.0, 1.0, 0.0))
        rule, params2, f2 = normalize(params, TestIntegrand(1.0, 1.01, 0.0))
        assert (rule.id, params2, f2) == ("G1-general", params, TestIntegrand(1.0, 1.01, 0.0))

    def test_floor_at_the_origin(self):
        # a = b = j = 0: both axes and the origin put the floor at -1/2; the
        # contract names the first of them, the x->0 axis
        params = Params(1, 1, 1, p=1.0, q=1.0)
        with pytest.raises(DivergentIntegralError, match=(
                r"^no rule reduces a divergent integral: divergent at the x->0 axis "
                r"\(a=0; mu=-0\.5 is not above its floor -0\.5\)$")):
            normalize(params, TestIntegrand(1.0, -0.5, 0.0))
        rule, params2, f2 = normalize(params, TestIntegrand(1.0, -0.49, 0.0))
        assert (rule.id, params2, f2) == ("K1-111", params, TestIntegrand(1.0, -0.49, 0.0))

    def test_divergence_is_told_before_any_search(self, monkeypatch):
        # mu below the floor -1/2: normalize names the floor and tries no
        # candidate, neither a power shift nor the mirror
        def no_search(*_args):
            raise AssertionError("normalize searched a divergent instance")

        monkeypatch.setattr(reducer, "shift_power", no_search)
        with pytest.raises(DivergentIntegralError, match=r"floor -0\.5\)$") as err:
            normalize(Params(1, 1, 1, p=1.0, q=1.0), TestIntegrand(1.0, -0.6, 0.0))
        assert "mirror" not in str(err.value) and "rule matches" not in str(err.value)
        # so is a divergence at large t, which no floor on mu shows
        with pytest.raises(DivergentIntegralError, match="no decay at large t along the diagonal"):
            normalize(Params(4, 4, 0, a=1.0, b=0.5), TestIntegrand(1.0, 2.0, 0.0))

    def test_mixed_pattern_names_its_coefficients(self):
        # a/x and p x together fit no catalog pattern
        params = Params(1, 1, 1, a=1.0, b=0.5, p=1.0, q=1.0)
        with pytest.raises(ApplicabilityError, match="nonzero coefficients a, b, p, q"):
            normalize(params, TestIntegrand())
        # h couples to y/(x+y) alone, so the mirror is not an identity
        with pytest.raises(ApplicabilityError, match=r"mirror was not tried \(h != 0\)"):
            normalize(Params(9, 9, 9, h=0.5, p=1.0, q=1.0), TestIntegrand(1.0, 12.0, 0.0))

    @pytest.mark.parametrize(
        "params,f",
        [
            # power-shifted entries from each family
            (Params(3, 3, -1, p=1.1, q=0.7), TestIntegrand(1.0, 1.3, 0.2)),  # exp family
            (Params(0, 1, 3, a=1.0, b=0.4, c=0.9), TestIntegrand(1.0, 1.0, 0.3)),  # erf family
            (Params(4, 4, 0, a=1.0, b=0.3, c=0.8, h=0.6), TestIntegrand(1.0, 1.5, 0.1)),  # 1F1
            (Params(4, 4, 0, a=1.0, b=0.3, c=0.8, h=0.6, j=0.5), TestIntegrand(1.0, 1.5, 0.1)),
            # the mixed-tilde rules of this triple integrate another 2-D side
            (Params(3, 4, 0, a=2.0, b=1.0, c=1.0), TestIntegrand(1.0, 1.0, 0.5)),
        ],
    )
    def test_soundness_across_families(self, params, f):
        res = normalize(params, f)
        assert res is not None
        rule, params2, f2 = res
        assert rule.family is not Family.MIXED_TILDE
        lhs = direct_2d(params, f)
        rhs = rule.reduce_to_1d(params2, f2)
        assert complex(lhs.value).real == pytest.approx(
            complex(rhs.value).real, rel=1e-6, abs=0
        ), rule.id

    def test_closed_forms_before_r1(self):
        # ROADMAP item 26's draw: 224 of 400 h = j = 0 instances route, and
        # each gets a closed form, on the instance or on its mirror, before
        # R1-rint's numerical kernel
        rng = np.random.default_rng(7)
        routed = collections.Counter()
        for _ in range(400):
            n, m, nu = (int(v) for v in rng.integers(-1, 6, size=3))
            a, b, c = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
            params = Params(n, m, nu, a=float(a), b=float(b), c=float(c))
            f = TestIntegrand(1.0, float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.0, 2.0)))
            try:
                routed[normalize(params, f)[0].family] += 1
            except (ApplicabilityError, DivergentIntegralError):
                continue
        assert sum(routed.values()) == 224 and Family.R_INTEGRAL not in routed
        # and an instance with g = 0 never reaches a mixed-tilde rule
        assert routed == {Family.GENERAL_H: 217, Family.INVERSE_EXP: 7}

    def test_tilde_grid_routes_by_power_shifts(self):
        # the 24 tilde instances of the grid on a T rule's line of fixed
        # (n+nu, m+nu) route to it by a power shift, and agree with the oracle
        lines = {(3, 4), (1, 4), (1, 6), (1, 8), (-1, 6)}
        f = ci_checks.TILDE_F
        routes = list(ci_checks.tilde_routes())
        assert [params.triple for params, _ in routes] == [
            params.triple for params in ci_checks.tilde_grid()
            if (params.n + params.nu, params.m + params.nu) in lines]
        assert len(routes) == 24
        for params, (rule, shifted, f2) in routes:
            assert rule.family is Family.MIXED_TILDE and shifted.g == params.g
            lhs, rhs = direct_2d(params, f), rule.reduce_to_1d(shifted, f2)
            assert lhs.converged and rhs.converged
            assert abs(lhs.value - rhs.value) <= 1e-12 * abs(lhs.value), (params.triple, rule.id)

    def test_tilde_instance_off_the_lines_is_not_mirrored(self):
        params = Params(2, 4, 0, a=1.3, b=0.4, c=0.7, g=1.3 - 0.4)
        with pytest.raises(ApplicabilityError, match=r"nonzero coefficients a, b, c, g .*"
                                                     r"mirror was not tried \(g != 0\)"):
            normalize(params, TestIntegrand(1.0, 2.5, 0.3))

    def test_j_still_reaches_r1(self):
        # no closed form carries j
        params = Params(2, 3, 1, a=0.5, b=1.5, c=1.0, j=0.3)
        f = TestIntegrand(1.0, 1.5, 0.5)
        assert normalize(params, f) == (get_rule("R1-rint"), params, f)

    def test_deterministic(self):
        params = Params(0, 4, 0, p=1.0, q=2.0)
        f = TestIntegrand(1.0, 2.5, 0.5)
        a = normalize(params, f)
        b = normalize(params, f)
        assert a[0].id == b[0].id and a[1] == b[1] and a[2] == b[2]


class TestDirect2D:
    def test_seed_value(self):
        res = direct_2d(Params(0, 0, 1, p=1.0, q=1.0), TestIntegrand(1.0, 0.0, 1.0))
        assert res.converged
        assert complex(res.value).real == pytest.approx(2.0 * SQPI / 5.0, rel=1e-8, abs=0)

    def test_zero_integrand(self):
        res = direct_2d(Params(0, 0, 1, p=1.0, q=1.0), TestIntegrand(0.0, 0.0, 1.0))
        assert complex(res.value).real == 0.0

    def test_divergent_rejected(self):
        # f identically 1 with only the (x+y)^-1/2 weight cannot converge
        with pytest.raises(DivergentIntegralError):
            direct_2d(Params(0, 0, 1), TestIntegrand(1.0, 0.0, 0.0))

    def test_axis_divergence_rejected(self):
        with pytest.raises(DivergentIntegralError, match="x->0"):
            direct_2d(Params(4, 0, 0, p=1.0, q=1.0), TestIntegrand(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("oracle", [direct_2d, quadrant_support])
    def test_tilde_term_at_a_equals_b_is_no_decay(self, oracle):
        # the tilde term g = a - b is 0 at a = b, so with p = 0 and n + nu = 2
        # nothing cuts off x -> inf; this input once ran 4.4M evaluations,
        # unconverged
        params = Params(1, 2, 1, a=0.9, b=0.9, c=0.3, g=0.9 - 0.9, q=0.4)
        with pytest.raises(DivergentIntegralError, match="x->inf"):
            oracle(params, TestIntegrand(2.5, 1.25, 0.0))

    def test_origin_divergence_rejected(self):
        # with a = b = 0 the origin needs mu > (n+m+nu)/2 - 2 = 1; both axes
        # alone would admit mu > 0
        params = Params(2, 2, 2, p=1.0, q=1.0)
        with pytest.raises(DivergentIntegralError, match="origin"):
            direct_2d(params, TestIntegrand(1.0, 0.9, 0.0))
        res = direct_2d(params, TestIntegrand(1.0, 1.2, 0.0))
        assert res.converged
        assert res.value == pytest.approx(3.115707707878462, rel=1e-12, abs=0)

    def test_gamma_ratio_instance_matches_oracle(self):
        # equal inverse-exponential coefficients at (4,4,0), f = t^(3/2)
        params = Params(4, 4, 0, a=1.0, b=1.0, c=1.0)
        f = TestIntegrand(1.0, 1.5, 0.0)
        lhs = direct_2d(params, f)
        rhs = get_rule("N6-aeqb").reduce_to_1d(params, f)
        assert complex(lhs.value).real > 0.0
        assert complex(lhs.value).real == pytest.approx(
            complex(rhs.value).real, rel=1e-6, abs=0
        )


# mu around each variant's kernel floor, exactly at it included
_MU_OFFSETS = (-3.0, -2.0, -1.5, -1.0, -0.5, -0.25, -1e-6, 0.0,
               1e-6, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
# the power of t each mixed-tilde psi cancels at large t: psi_1 ~ 2z/sqrt(pi)
# and psi_4 ~ sqrt(pi) z^2 as z = 2 sqrt((a-b)/t) -> 0
_PSI_LARGE_T_DECAY = {"T1": 0.5, "T4": 1.0}


def _contract_grid(seed: int = 42, cases=range(3)):
    """(rule, params, f) over every rule, erratum included: each draw with
    each subset of its nonzero coefficients zeroed where the rule admits it,
    sigma as drawn and 0, and mu at _MU_OFFSETS from the variant's kernel
    floor (from -1 where the floor is -inf)."""
    for index, rule in enumerate(RULES):
        for case_index in cases:
            params, f = _case_inputs(rule, seed, index, case_index)
            for variant in zeroed_variants(rule, params):
                floor = kernel_floor(rule, variant)
                base = floor if floor > -math.inf else -1.0
                for sigma in (f.sigma, 0.0):
                    for offset in _MU_OFFSETS:
                        yield rule, variant, TestIntegrand(1.0, base + offset, sigma)


def _kernel_decays_at_large_t(rule, params: Params, f: TestIntegrand) -> bool:
    """t**mu times the kernel is integrable at t -> inf: read off the
    kernel's terms, each t**alpha e^(-beta t) times its factor."""
    terms = rule.build_kernel(params)
    if f.sigma > 0.0 or any(term.beta > 0.0 for term in terms):
        return True
    top = max(term.alpha - (_PSI_LARGE_T_DECAY.get(term.special.form, 0.0)
                            if isinstance(term.special, kernels.ErfcxSqrtInvFactor) else 0.0)
              for term in terms)
    return f.mu + top < -1.0


def _seven_condition_check(params: Params, f: TestIntegrand) -> bool:
    """The oracle's convergence check before the contract: seven
    conditions, with no check along the ray x ~ y^2."""
    n, m, nu, a, b = params.n, params.m, params.nu, params.a, params.b
    cut = params.g > 0.0
    return ((a > 0.0 or cut or f.mu - n / 2.0 > -1.0)
            and (b > 0.0 or cut or f.mu - m / 2.0 > -1.0)
            and bool(a or b or params.j or cut or f.mu - (n + m + nu) / 2.0 > -2.0)
            and (params.p > 0.0 or cut or n + nu > 2)
            and (params.q > 0.0 or m + nu > 2)
            and (params.c > 0.0 or f.sigma > 0.0 or params.p > 0.0 or params.q > 0.0
                 or (n + m + nu) / 2.0 - f.mu > 2.0))


# the seed-42 T draws of cases 0-2, at c = sigma = 0, that the seven
# conditions admit but that diverge along x ~ y^2: (rule, case index)
_SEVEN_CONDITION_DIVERGENT = (("T2-nu0", 1), ("T3-nu0", 0), ("T3-nu1", 0),
                              ("T3-nu2", 1), ("T4-nu0", 2))


class TestConvergenceContract:
    """params.convergence_failure decides convergence for the oracle and for
    every reduction alike."""

    def test_admits_exactly_above_the_kernel_floor_with_large_t_decay(self):
        # the kernel's floor and its large-t power, each read off its terms,
        # agree with the contract everywhere on the grid;
        # the seven conditions it replaced differ only on the mixed-tilde
        # family at c = sigma = 0, where they had no check along x ~ y^2
        checks, differ = 0, collections.Counter()
        for rule, params, f in _contract_grid():
            tilde = rule.family is Family.MIXED_TILDE
            admitted = convergence_failure(params, f) is None
            kernel = f.mu > kernel_floor(rule, params) and _kernel_decays_at_large_t(rule, params, f)
            assert admitted == kernel, (rule.id, params, f)
            if admitted != _seven_condition_check(params, f):
                assert tilde and params.c == f.sigma == 0.0 and not admitted, (rule.id, params, f)
                differ[rule.id] += 1
            checks += 1
        assert checks == 11_040
        assert sum(differ.values()) == 174
        assert sorted(differ) == ["T2-nu0", "T2-nu1", "T2-nu2", "T3-nu0", "T3-nu1", "T3-nu2",
                                  "T4-nu0", "T4-nu2", "T5-nu0", "T5-nu1", "T5-nu2"]

    def test_verdict_is_invariant_under_power_shifts_and_the_mirror(self):
        # both rewrite the same integral, so the verdict cannot move
        for rule, params, f in _contract_grid():
            if rule.family is Family.MIXED_TILDE or params.h != 0:
                continue
            verdict = convergence_failure(params, f) is None
            for delta in _SHIFT_SEARCH:
                shifted = dataclasses.replace(params, **dict(zip(
                    ("n", "m", "nu"), shift_power(params.triple, delta))))
                assert (convergence_failure(shifted, f.shifted(delta)) is None) == verdict
            assert (convergence_failure(params.mirrored(), f) is None) == verdict

    @pytest.mark.parametrize("rule_id, case_index", _SEVEN_CONDITION_DIVERGENT)
    def test_divergent_draws_raise_before_any_integrand_call(self, rule_id, case_index,
                                                              monkeypatch):
        # the seven conditions let these through, and the oracle then ran
        # 52-59 M evaluations and stopped unconverged
        params, f = _sweep_case(rule_id, 42, case_index)
        params, f = dataclasses.replace(params, c=0.0), dataclasses.replace(f, sigma=0.0)
        assert _seven_condition_check(params, f)

        def uncallable(*args):
            def call(x, y):
                raise AssertionError("the oracle called its integrand")
            return call

        monkeypatch.setattr(reducer, "quadrant_integrand", uncallable)
        with pytest.raises(DivergentIntegralError, match="no decay at large t along x ~ y"):
            direct_2d(params, f)
        with pytest.raises(DivergentIntegralError, match="no decay at large t along x ~ y"):
            get_rule(rule_id).reduce_to_1d(params, f)


# the ends and the middle of the quadrature's [1e-160, 1e160] node ladder
_LADDER_POINTS = [1e-160, 1e-8, 0.3, 1.0, 7.0, 1e8, 1e160]


def _integrand_reference(params: Params, f: TestIntegrand, x: float, y: float):
    """The defining formula of the quadrant integrand over f's coefficient,
    which direct_2d applies to the integral, in mpmath at 40 digits."""
    with mp.workdps(40):
        x, y = mp.mpf(x), mp.mpf(y)
        s = x + y
        t = x * y / s
        h = mp.mpc(complex(params.h))
        expo = (
            -(f.sigma + params.c) * t - params.p * x - params.q * y
            - params.a / x - params.b / y - params.g * s**2 / (x * y**2)
            - params.j / s - h * y / s
        )
        return complex(
            x ** (-params.n / 2) * y ** (-params.m / 2) * s ** (-params.nu / 2)
            * t**f.mu * mp.exp(expo)
        )


def _unmasked_log_magnitude(params: Params, f: TestIntegrand):
    """quadrant_integrand's log-magnitude as it was built before it skipped
    exp below reducer._EXP_ZERO, f's coefficient taken as 1:
    (log |value|, y/(x+y) or None)."""
    n, m, nu = params.n, params.m, params.nu
    a, b, c, g, j, p, q = params.a, params.b, params.c, params.g, params.j, params.p, params.q
    h = complex(params.h)
    kx, ky, kt = -0.5 * (n + nu), -0.5 * (m + nu), f.mu + 0.5 * nu
    decay = f.sigma + c
    mixed = h != 0.0 or j != 0.0

    def log_magnitude(x, y):
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
            frac = t * ix
            if h.real != 0.0:
                logmag -= h.real * frac
            if j != 0.0:
                logmag -= j * (frac * iy)
        if g != 0.0:
            logmag -= g * (x * s * s)
        return logmag, frac

    return log_magnitude


def _unmasked_integrand(params: Params, f: TestIntegrand):
    """quadrant_integrand as it was built before it skipped exp below
    reducer._EXP_ZERO: the same terms, with exp taken at every point."""
    log_magnitude = _unmasked_log_magnitude(params, f)

    def integrand(x, y):
        logmag, frac = log_magnitude(x, y)
        vals = np.exp(logmag)
        if params.h.imag != 0.0:
            vals = vals * np.exp(-1j * params.h.imag * frac)
        return vals

    return integrand


class TestIntegrandValidation:
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_mu_is_rejected(self, mu):
        # a NaN mu used to reach the oracle's divergence check and be
        # reported as a divergent x -> 0 axis
        with pytest.raises(ValueError, match="mu must be finite"):
            TestIntegrand(1.0, mu, 1.0)


class TestQuadrantIntegrand:
    """The oracle's integrand, pointwise against its defining formula."""

    CASES = {
        "plain": (Params(0, 2, 1, a=0.7, c=0.4, p=1.1, q=0.6),
                  TestIntegrand(1.5, 0.5, 0.2)),
        "real-h": (Params(2, 1, 1, a=1.0, b=0.3, c=0.8, h=0.6),
                   TestIntegrand(1.0, 1.25, 0.1)),
        # y^-2 at y = 1e160 leaves (0.3, 1e160) a subnormal 3.7e-322
        "subnormal": (Params(4, 4, 0, a=1.0, b=0.3, c=0.8, h=0.6),
                      TestIntegrand(1.0, 1.25, 0.1)),
        "j": (Params(2, 1, 1, b=0.4, c=0.5, j=1.3, q=0.9),
              TestIntegrand(1.0, 0.75, 0.3)),
        "tilde": (Params(1, 2, 1, a=1.5, b=0.5, c=0.3, g=1.0, q=0.4),
                  TestIntegrand(2.5, 1.25, 0.0)),
        "complex-h": (Params(0, 0, 1, c=1.0, h=0.8 + 2.5j, p=0.7, q=1.0),
                      TestIntegrand(1.0, 0.5, 0.4)),
        "negative-coeff": (Params(3, 1, 2, a=0.6, c=0.8),
                           TestIntegrand(-3.7, 2.0, 1.0)),
        "zero-coeff": (Params(0, 0, 1, p=1.0, q=1.0), TestIntegrand(0.0, 0.0, 1.0)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_defining_formula(self, case):
        params, f = self.CASES[case]
        xs = np.array(_LADDER_POINTS)
        # the quadrature driver calls it with a column of x and a row of y,
        # under its per-integral errstate
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            vals = quadrant_integrand(params, f)(xs[:, None], xs[None, :])
        assert vals.shape == (xs.size, xs.size)
        assert not np.isnan(vals).any()
        for i, x in enumerate(xs):
            for k, y in enumerate(xs):
                ref = _integrand_reference(params, f, x, y)
                got = complex(vals[i, k])
                if abs(ref) < 1e-320:
                    # subnormal or zero: within a few units of the least subnormal
                    assert abs(got - ref) <= 4 * math.ulp(0.0), (x, y, got, ref)
                    continue
                scale = max(abs(ref), 1e-250)
                bound = 1e-13 * max(1.0, abs(math.log(scale))) * scale
                assert abs(got - ref) <= bound, (x, y, got, ref)

    @pytest.mark.parametrize("case", ["plain", "tilde", "j", "real-h", "complex-h"])
    def test_calls_do_not_depend_on_earlier_calls(self, case):
        # one closure serves every call: interleaved, re-used and
        # equal-content inputs must give exactly what a newly built
        # closure gives
        params, f = self.CASES[case]

        def frozen(a):
            a = np.array(a, dtype=float)
            a.flags.writeable = False
            return a

        col_a = frozen([[1e-8], [0.3], [7.0]])
        col_b = frozen([[2.5], [1e8], [1e-160]])
        row_1 = frozen([[0.04, 1.0, 3.0, 1e5]])
        row_2 = frozen([[1e160, 0.6]])
        writable = np.array(col_b)
        calls = [
            (col_a, row_1), (col_b, row_1), (col_a, row_2),
            (frozen(col_a), frozen(row_1)), (col_a, row_1),
            (writable, row_2),
        ]
        shared = quadrant_integrand(params, f)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            for x, y in calls:
                got = shared(x, y)
                want = quadrant_integrand(params, f)(x, y)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # a writable input changed between calls gives its new terms
            writable[:] = col_a
            got = shared(writable, row_1)
            want = quadrant_integrand(params, f)(col_a, row_1)
            assert got.tobytes() == want.tobytes()


    def test_exp_is_skipped_only_where_it_gives_exactly_0(self):
        # every value, on each seed-42 draw's own first clipped outer head
        # times its first clipped inner head, keeps the bits of an integrand
        # that takes exp everywhere; the draws reach both slow bands of exp
        zeros = subnormals = 0
        for rule in list_rules(include_erratum=False):
            for case_index in range(3):
                params, f = _sweep_case(rule.id, 42, case_index)
                (x_box, y_box) = quadrant_support(params, f)
                x = quadrature._head(quadrature._clipped(*x_box), FIRST_HEAD)[0]
                y = quadrature._head(quadrature._clipped(*y_box), FIRST_HEAD)[0]
                with np.errstate(all="ignore"):
                    got = quadrant_integrand(params, f)(x[:, None], y)
                    want = _unmasked_integrand(params, f)(x[:, None], y)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), rule.id
                zeros += np.count_nonzero(got == 0.0)
                subnormals += np.count_nonzero((got != 0.0) & (abs(got) < np.finfo(float).tiny))
        assert zeros > 0 and subnormals > 0

    def test_nan_and_inf_still_reach_the_values(self):
        # a NaN column gives NaN and an overflowing one inf, never the 0
        # written below the cut, so the driver still names them
        params, f = Params(4, 0, 2, b=0.5, c=1.0, q=1.0), TestIntegrand(1.0, 0.0, 0.0)
        x = np.array([[math.nan], [1e-300], [0.0], [math.inf], [1.0]])
        y = np.array([0.5, 1.0, 2.0])
        with np.errstate(all="ignore"):
            got = quadrant_integrand(params, f)(x, y)
            want = _unmasked_integrand(params, f)(x, y)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[[0, 2, 3]]).all() and np.isposinf(got[1]).all()
        assert np.isfinite(got[4]).all() and (got[4] > 0.0).all()
        integrand = quadrant_integrand(params, f)
        with pytest.raises(QuadratureError, match="integrand returned NaN"):
            quadrature.integrate_quadrant(lambda x, y: integrand(np.where(x > 2.0, math.nan, x), y))
        with pytest.raises(QuadratureError, match="overflowed"):
            quadrature.integrate_quadrant(lambda x, y: integrand(np.where(x > 2.0, 1e-300, x), y))

    def test_exp_cut_lies_where_exp_is_exactly_0(self):
        cut = reducer._EXP_ZERO
        for x in (cut, np.nextafter(cut, -math.inf)):
            assert np.exp(x).tobytes() == np.float64(0.0).tobytes()
        # the cut sits below the last argument whose exp is not 0
        assert cut <= -745.1332191019412 and np.exp(-745.1332191019411) > 0.0


def _by_draw(rows):
    """Parameters whose ids name the draw alone, rule and case, so a re-pin
    keeps the test's name."""
    return [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in rows]


class TestOracleWork:
    """The oracle's evaluation counts on three seed-42 sweep draws.

    A change to the integrand that moves the level a drive stops at shows
    up here as a changed count, not only as moved digits.  The integrand
    calls are pinned too: one per fused head, each a whole level.  The
    support's pilot reads the log-magnitude and calls no integrand.
    """

    @pytest.mark.parametrize("rule_id, case_index, evaluations, calls", _by_draw([
        ("K1-111", 0, 32_252, 4),
        ("T5-nu2", 13, 20_301, 6),
        ("K5-1m75", 9, 16_401, 2),
    ]))
    def test_evaluations_pinned(self, rule_id, case_index, evaluations, calls, monkeypatch):
        seen = []

        def counted(*args):
            integrand = quadrant_integrand(*args)
            return lambda x, y: seen.append(x.shape) or integrand(x, y)

        monkeypatch.setattr(reducer, "quadrant_integrand", counted)
        params, f = _sweep_case(rule_id, 42, case_index)
        quadrant_support(params, f)
        assert not seen
        assert direct_2d(params, f).evaluations == evaluations
        assert len(seen) == calls

    @pytest.mark.parametrize("rule_id, case_index, value_hex", _by_draw([
        ("K1-111", 0, "0x1.ce9a826641704p+0"),
        ("T5-nu2", 13, "0x1.5c09cbbef6e95p+1"),
        ("K5-1m75", 9, "0x1.290c5dcbe2f8ap+1"),
        ("G1-general", 0, "0x1.04cfad0f771c8p+1"),  # real h
        ("R1-rint", 0, "0x1.0c5cbbc4be682p-3"),  # j and real h
    ]))
    def test_value_bits_pinned(self, rule_id, case_index, value_hex):
        # a change that moves a rounding anywhere in the oracle moves a bit here
        params, f = _sweep_case(rule_id, 42, case_index)
        value = direct_2d(params, f).value
        assert isinstance(value, float)
        assert value.hex() == value_hex


class TestOracleAccuracy:
    """The oracle at its default targets keeps the digits of a tighter run.

    Inner rows retire once their own estimate is a tenth of their batch's
    bound; retiring them at the bound itself moves the origin case below
    by 2.4e-12, so this is what keeps a cheaper rule from giving up digits.
    """

    DRAWS = [("K1-111", 0), ("T5-nu2", 13), ("K5-1m75", 9), ("G1-general", 0), ("R1-rint", 0)]

    @staticmethod
    def _agree(params: Params, f: TestIntegrand):
        default = direct_2d(params, f)
        tight = direct_2d(params, f, quadrature.Tolerance(rel=1e-12, abs=1e-300))
        assert default.converged and tight.converged
        assert abs(default.value - tight.value) <= 1e-12 * abs(tight.value)

    @pytest.mark.parametrize("rule_id, case_index", DRAWS)
    def test_sweep_draws(self, rule_id, case_index):
        params, f = _sweep_case(rule_id, 42, case_index)
        self._agree(params, f)

    def test_origin_case(self):
        # TestDirect2D.test_origin_divergence_rejected's convergent instance
        self._agree(Params(2, 2, 2, p=1.0, q=1.0), TestIntegrand(1.0, 1.2, 0.0))


_SUPPORT_GRID = np.geomspace(1e-160, 1e160, 401)


def _log_weight(x: np.ndarray) -> np.ndarray:
    """log w(x) of the exp-sinh weight at x: x sqrt((pi/2)^2 + log^2 x)."""
    return np.log(x * np.hypot(math.pi / 2.0, np.log(x)))


def _grid_log_terms(params: Params, f: TestIntegrand, box):
    """log |value| + log w(x) + log w(y) on a log grid over [1e-160, 1e160]^2,
    taken in logs so no term underflows or overflows, with a mask of the
    points outside box.

    The grid also holds the points a relative 1e-12 past each box edge.
    """
    near = [e * (1.0 + s) for span in box for e in span for s in (-1e-12, 1e-12)]
    pts = np.union1d(_SUPPORT_GRID, [v for v in near if 1e-160 <= v <= 1e160])
    with np.errstate(all="ignore"):
        logmag, _ = _unmasked_log_magnitude(params, f)(pts[:, None], pts[None, :])
    log_w = _log_weight(pts)
    (x_lo, x_hi), (y_lo, y_hi) = box
    outside = ((pts < x_lo) | (pts > x_hi))[:, None] | ((pts < y_lo) | (pts > y_hi))[None, :]
    return logmag + log_w[:, None] + log_w, outside


def _pilot_nodes():
    """The exp-sinh ladder's level-0 nodes and the logs of their weights."""
    runs = [quadrature._run(quadrature._EXP_SINH, 0, direction) for direction in (1.0, -1.0)]
    return (np.concatenate([rx for rx, _ in runs]),
            np.log(np.concatenate([rw for _, rw in runs])))


def _pilot_log_term(params: Params, f: TestIntegrand) -> float:
    """The largest log |value| w(x) w(y) on the level-0 nodes, in logs."""
    x, log_w = _pilot_nodes()
    with np.errstate(all="ignore"):
        logmag, _ = _unmasked_log_magnitude(params, f)(x[:, None], x)
    return float(np.max(logmag + log_w[:, None] + log_w))


def _log_magnitude_reference(params: Params, f: TestIntegrand, x: float, y: float):
    """log |integrand| by the defining formula of params.py, f's coefficient
    taken as 1, in mpmath at 30 digits."""
    with mp.workdps(30):
        x, y = mp.mpf(x), mp.mpf(y)
        s = x + y
        t = x * y / s
        expo = (
            -(f.sigma + params.c) * t - params.p * x - params.q * y
            - params.a / x - params.b / y - params.g * s**2 / (x * y**2)
            - params.j / s - params.h.real * y / s
        )
        return (-mp.mpf(params.n) / 2 * mp.log(x)
                - mp.mpf(params.m) / 2 * mp.log(y) - mp.mpf(params.nu) / 2 * mp.log(s)
                + f.mu * mp.log(t) + expo)


class TestQuadrantSupport:
    """quadrant_support's box: outside it every node's term, value times
    both exp-sinh weights, is below e^-100 of the largest term of the
    pilot, which reads the log-magnitude on the ladder's level-0 nodes.
    Terms are compared in logs, so the contract is tested where the values
    underflow to 0 or overflow as well."""

    CORNERS = {
        "kt-negative": (Params(3, 3, 0, a=0.7, b=1.1, c=0.5),
                        TestIntegrand(1.0, -0.6, 0.2)),
        "G1-b-zero": (Params(1, 4, 2, a=1.3, b=0.0, c=0.8, h=0.6),
                      TestIntegrand(1.0, get_rule("G1-general").mu_min(
                          Params(1, 4, 2, a=1.3, b=0.0, c=0.8, h=0.6)) + 0.05, 0.0)),
        "q-zero": (Params(1, 3, 1, a=0.9, b=0.4, c=0.6, p=0.5),
                   TestIntegrand(1.0, 0.3, 0.0)),
        "complex-h-negative-real": (Params(0, 0, 1, c=1.0, h=-0.8 + 2.5j, p=0.7, q=1.0),
                                    TestIntegrand(1.0, 0.5, 0.4)),
        "tilde-a-equals-b": (Params(1, 2, 1, a=0.9, b=0.9, c=0.3, g=0.9 - 0.9, p=0.5, q=0.4),
                             TestIntegrand(2.5, 1.25, 0.0)),
        "negative-coeff": (Params(3, 1, 2, a=0.6, c=0.8), TestIntegrand(-3.7, 2.0, 1.0)),
        # a peak at x = 1.5, between the level-0 nodes 1 and 2.27, where each
        # pilot value underflows to 0 and the integral is 4.56e-302
        "pilot-all-zero": (Params(0, 0, 1, a=517.5, b=1.0, p=230.0, q=1.0),
                           TestIntegrand(1.0, 0.5, 0.0)),
        # x^-1 y^-1 t^0.5 reaches 7e14 near the level-0 corner x = y = 2.5e-138,
        # where f's coefficient would overflow it: the pilot and the box take
        # f's coefficient as 1
        "pilot-overflows": (Params(2, 2, 0, p=1.0, q=1.0), TestIntegrand(1e308, 0.5, 0.0)),
        "complex-h-large-imaginary": (Params(0, 0, 1, c=1.0, h=0.8 + 12.0j, p=0.7, q=1.0),
                                      TestIntegrand(1.0, 0.5, 0.4)),
        "tilde-wide-gap": (Params(1, 2, 1, a=6.0, b=0.5, c=0.3, g=5.5, q=0.4),
                           TestIntegrand(2.5, 1.25, 0.0)),
    }

    @staticmethod
    def _check(params, f):
        box = quadrant_support(params, f)
        for (lo, hi) in box:
            assert 0.0 <= lo <= hi
        log_terms, outside = _grid_log_terms(params, f, box)
        assert np.all(log_terms[outside] < _pilot_log_term(params, f) - 100.0), (
            params, f, box)
        return box

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("rule_id", [r.id for r in list_rules(include_erratum=False)
                                         if r.trusted])
    def test_sweep_draws(self, rule_id, seed):
        for case_index in range(20):
            self._check(*_sweep_case(rule_id, seed, case_index))

    @pytest.mark.parametrize("case", list(CORNERS))
    def test_corner_cases(self, case):
        self._check(*self.CORNERS[case])

    def test_weight_bound_holds_on_the_span(self):
        # log w(x) - log x grows with |log x|, so the span's ends bound it
        span = np.array(quadrature.HALF_LINE_SPAN)
        assert np.all(_log_weight(span) - np.log(span) <= reducer._LOG_WEIGHT_EXCESS)

    @pytest.mark.parametrize("case", list(CORNERS))
    def test_pilot_reads_its_largest_term(self, case):
        # against the defining formula at 30 digits, where the pilot's values
        # underflow to 0 too: its largest term is always finite
        params, f = self.CORNERS[case]
        x, log_w = _pilot_nodes()
        want = max(_log_magnitude_reference(params, f, xi, yk) + log_w[i] + log_w[k]
                   for i, xi in enumerate(x) for k, yk in enumerate(x))
        got = reducer._pilot_peak(reducer._log_magnitude(params, f))
        assert math.isfinite(got)
        assert got == pytest.approx(float(want), abs=1e-12 * max(1.0, abs(float(want))))

    def test_pilot_all_zero_integral_is_found(self):
        # every pilot value underflows, yet its largest term, taken in logs,
        # places a box that keeps the peak the pilot misses
        params, f = self.CORNERS["pilot-all-zero"]
        res = direct_2d(params, f)
        assert res.converged and res.value > 0.0
        assert res.value == pytest.approx(
            quadrature.integrate_quadrant(quadrant_integrand(params, f)).value, rel=1e-12, abs=0)

    def test_pilot_overflow_still_raises(self):
        # K1-111 at mu = -0.45, 0.05 above its floor, whose value overflows
        # at the corner node x = y = 4.129e-159 (ROADMAP item 9): that node
        # lies inside the box, so the driver names the overflow
        params, f = Params(1, 1, 1, p=1.0, q=1.0), TestIntegrand(1.0, -0.45, 0.0)
        with pytest.raises(QuadratureError, match="overflowed at abscissa 4.129"):
            direct_2d(params, f)

    def test_term_cut_narrows_the_box(self):
        # on K1-111 case 0 at seed 42 the term cut moves all four edges
        # inside the span, where an edge left at the span's end reads 0 or inf
        params, f = _sweep_case("K1-111", 42, 0)
        (x_lo, x_hi), (y_lo, y_hi) = quadrant_support(params, f)
        assert 0.0 < x_lo and x_hi < math.inf and 0.0 < y_lo and y_hi < math.inf

    def test_cuts_the_ladder(self):
        # K1-111 case 0 at seed 42 has p, q > 0: both boxes end below 1e160
        params, f = _sweep_case("K1-111", 42, 0)
        (_, x_hi), (_, y_hi) = self._check(params, f)
        assert x_hi < 1e5 and y_hi < 1e5

    def test_box_need_not_hold_one(self):
        # a = 1000 and p = 1 put the x peak near 32, so the box's x edges both
        # lie above 1; the clipped ladder keeps each level's first nodes
        # anyway, so the oracle runs as it did in a box widened to hold 1
        params, f = Params(0, 0, 1, a=1000.0, b=1.0, p=1.0, q=1.0), TestIntegrand(1.0, 0.5, 0.0)
        (x_lo, _), _ = self._check(params, f)
        assert x_lo == pytest.approx(5.36, rel=1e-3, abs=0)
        res = direct_2d(params, f)
        assert res.converged and (res.value, res.evaluations) == (2.023950445606331e-28, 2301)

    @pytest.mark.parametrize("family", list(Family))
    def test_oracle_agrees_with_the_unclipped_drive(self, family):
        # the first seed-42 draw of the family's first rule, and the tilde
        # corner with a - b = 5.5: the clipped oracle's value is the full
        # ladder's within 1e-15 relative
        rule = next(r for r in list_rules(include_erratum=False) if r.family is family)
        draws = [_sweep_case(rule.id, 42, 0)]
        if family is Family.MIXED_TILDE:
            draws.append(self.CORNERS["tilde-wide-gap"])
        for params, f in draws:
            clipped = direct_2d(params, f)
            full = quadrature.integrate_quadrant(quadrant_integrand(params, f),
                                                 support=None).scaled(f.coeff)
            assert clipped.converged and full.converged
            assert clipped.evaluations < full.evaluations
            assert abs(clipped.value - full.value) <= 1e-15 * abs(full.value), (rule.id, params)

    def test_tilde_with_a_below_b_is_refused(self):
        # g = a - b < 0 would grow as y -> 0, where the oracle once had no
        # box: Params refuses it, so no oracle sees it
        with pytest.raises(ValueError, match="coefficient g must be finite and >= 0"):
            Params(1, 2, 1, a=0.5, b=1.5, c=0.3, g=0.5 - 1.5, q=0.4)

    def test_oracle_calls_leave_the_fixed_ladders_alone(self):
        # once every head of the fixed ladders is built, 50 oracle calls
        # with different boxes add no entry to them and replace none
        ladders = (quadrature._EXP_SINH, quadrature._UNIT_PAIR)
        for ladder in ladders:
            _build_every_head(ladder)
        before = [dict(ladder.heads) for ladder in ladders]
        ids = [r.id for r in list_rules(include_erratum=False)]
        boxes = set()
        for i in range(50):
            rule_id = ids[i % len(ids)]
            params, f = _sweep_case(rule_id, 42, i // len(ids))
            boxes.add(quadrant_support(params, f))
            assert direct_2d(params, f).converged
        assert len(boxes) == 50
        for ladder, kept in zip(ladders, before):
            assert ladder.heads.keys() == kept.keys()
            assert all(ladder.heads[key] is value for key, value in kept.items())


    def test_oracle_calls_on_cold_ladders_build_only_unclipped_heads(self, monkeypatch):
        # with the fixed exp-sinh ladder's heads emptied first, 350 oracle
        # calls leave in it only the heads an unclipped drive builds for
        # the levels the clipped drives reach, which their heads are cut from
        ladder = quadrature._EXP_SINH
        monkeypatch.setattr(ladder, "heads", {})
        ids = [r.id for r in list_rules(include_erratum=False)]
        for i in range(350):
            rule_id = ids[i % len(ids)]
            params, f = _sweep_case(rule_id, 42, i // len(ids))
            assert direct_2d(params, f).converged
        assert sorted(ladder.heads) == [FIRST_HEAD, (4,), (5,)]
        assert sum(x.nbytes + w.nbytes for x, w, _ in ladder.heads.values()) == 12_592


class TestSupportBound:
    """reducer._bound, the sup over the other log variable that places each
    box edge, against a brute-force sup over a fine grid of that variable,
    and monotone where its peaks say."""

    GRID = np.linspace(*reducer._LOG_SPAN, 14_001)
    # (lead, own (k, p, a), other (k, q, b), kt, decay, cross)
    CASES = [
        (0.3, (-0.5, 1.2, 0.7), (-1.0, 0.3, 0.2), 0.6, 0.4, 0.0),
        (-2.0, (-1.0, 0.0, 0.9), (-1.5, 0.4, 1.4), 1.1, 0.3, 0.0),  # p = 0
        (1.0, (0.5, 0.2, 0.0), (0.5, 9.0, 0.0), -0.4, 0.0, 0.0),  # kt < 0, no decay
        (0.0, (-1.5, 0.0, 3.0), (-1.0, 0.4, 5.5), 1.25, 0.3, 1.2),  # a tilde draw, with cross
        (0.0, (-0.5, 0.0, 7.0), (0.0, 0.4, 11.5), 1.75, 0.8, 2.3),
    ]

    def _sup(self, lead, own, other, kt, decay, cross, l):
        (k, p, a), (ko, q, b) = own, other
        lp = np.append(self.GRID, l)
        g = ko * lp - q * np.exp(lp) - b * np.exp(-lp)
        near = decay / 4.0 if cross else decay / 2.0
        below = g + kt * lp - near * np.exp(lp) - cross * math.exp(l / 3.0)
        above = g + kt * l - decay / 2.0 * math.exp(l)
        side = max(below[lp <= l].max(), above[lp >= l].max())
        return lead + k * l - p * math.exp(l) - a * math.exp(-l) + side

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_closed_form_sup(self, case):
        args = self.CASES[case]
        bound, _ = reducer._bound(*args)
        for l in np.linspace(-60.0, 60.0, 49):
            want = self._sup(*args, l)
            slack = 1e-9 * abs(want)
            assert want - slack <= bound(l) <= want + 1e-3 + slack, (l, bound(l), want)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_monotone_beyond_the_peaks(self, case):
        args = self.CASES[case]
        bound, (low, high) = reducer._bound(*args)
        above = [bound(l) for l in np.linspace(high, reducer._LOG_SPAN[1], 400)]
        assert np.all(np.diff(above) <= 1e-9 * np.maximum(1.0, np.abs(above[1:])))
        if not args[-1]:  # with cross the bound serves a high edge only
            below = [bound(l) for l in np.linspace(reducer._LOG_SPAN[0], low, 400)]
            assert np.all(np.diff(below) >= -1e-9 * np.maximum(1.0, np.abs(below[1:])))


def _cut_runs(ladder, levels):
    """The fixed ladder's runs on levels, each cut to the clipped ladder's
    span: exp-sinh nodes run outward, so each is a leading run."""
    fixed = quadrature._EXP_SINH
    runs = [quadrature._run(fixed, level, d) for level in levels for d in (1.0, -1.0)]
    cut = [np.count_nonzero((rx >= ladder.lo) & (rx <= ladder.hi)) for rx, _ in runs]
    return [(rx[:n], rw[:n]) for (rx, rw), n in zip(runs, cut)]


def _cut_runs_head(ladder, levels):
    """A clipped ladder's head built as its cut runs, each whole, fused."""
    runs = _cut_runs(ladder, levels)
    x = np.concatenate([rx for rx, _ in runs])
    w = np.concatenate([rw for _, rw in runs])
    return x, w, len(x) - sum(len(rx) for rx, _ in runs[-2:])


def _level_cut(level: int, plus: int, minus: int):
    """A box whose edges are the fixed ladder's level nodes at those indices
    of its outward (+1) and inward (-1) runs."""
    fixed = quadrature._EXP_SINH
    return (quadrature._run(fixed, level, -1.0)[0][minus],
            quadrature._run(fixed, level, 1.0)[0][plus])


class TestClippedHeads:
    """A clipped ladder's heads, cut from the fixed heads, are its cut runs fused."""

    @staticmethod
    def _sweep_spans():
        ids = [r.id for r in list_rules(include_erratum=False)]
        spans = []
        for i in range(50):
            rule_id = ids[i % len(ids)]
            params, f = _sweep_case(rule_id, 42, i // len(ids))
            spans.extend(quadrant_support(params, f))
        return spans

    @staticmethod
    def _check(span):
        ladder = quadrature._clipped(*span)
        for levels in [FIRST_HEAD] + [(level,) for level in range(4, len(quadrature._LEVELS))]:
            head = quadrature._head(ladder, levels)
            x, w, split = head
            want_x, want_w, want_split = _cut_runs_head(ladder, levels)
            assert x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes(), (span, levels)
            assert w.dtype == want_w.dtype and w.tobytes() == want_w.tobytes(), (span, levels)
            assert split == want_split and type(split) is int
            assert not x.flags.writeable and not w.flags.writeable
            assert quadrature._head(ladder, levels) is head
        return ladder

    def test_first_50_sweep_boxes(self):
        spans = self._sweep_spans()
        assert len(spans) == 100
        for span in spans:
            self._check(span)

    def test_box_of_one_point(self):
        self._check((1.0, 1.0))

    def test_box_that_cuts_inside_level_4_runs(self):
        # edges on nodes 40 and 60 of level 4's runs of 98 nodes
        ladder = self._check(_level_cut(4, plus=40, minus=60))
        assert [len(rx) for rx, _ in _cut_runs(ladder, (4,))] == [41, 61]

    def test_box_whose_level_5_runs_are_held_whole_but_cut(self):
        # the clipped level-5 runs, cut inside the fixed runs of 197 nodes,
        # are held whole
        ladder = self._check(_level_cut(5, plus=99, minus=79))
        assert [len(rx) for rx, _ in _cut_runs(ladder, (5,))] == [100, 80]
        assert len(quadrature._head(ladder, (5,))[0]) == 180


def _build_every_head(ladder) -> None:
    """Build every head a drive on ladder can ask for."""
    levels = range(len(quadrature._LEVELS))
    first = quadrature._FIRST_TEST_LEVEL + 1
    quadrature._head(ladder, tuple(levels[:first]))
    for level in levels[first:]:
        quadrature._head(ladder, (level,))


class TestSmallCoefficientOracle:
    """The oracle converges on the mixed-tilde draws with every coefficient
    scaled by 1e-2, and agrees with the reduction.

    Small coefficients spread the integrand over many decades, so its
    drives go deep into their ladders, where each level's runs are long;
    a drive that cut a run short of its whole length left these oracles
    unconverged and up to 11 % off after millions of evaluations.
    """

    @pytest.mark.parametrize("rule_id", [f"T{k}-nu{nu}" for k in range(1, 6) for nu in range(3)])
    def test_seed_42_draws_at_a_hundredth(self, rule_id):
        rule = get_rule(rule_id)
        assert rule.family is Family.MIXED_TILDE
        for case_index in range(3):
            params, f = _sweep_case(rule_id, 42, case_index)
            params = ci_checks.with_gap(params, **{k: 1e-2 * getattr(params, k) for k in "abchjpq"})
            f = dataclasses.replace(f, sigma=1e-2 * f.sigma)
            lhs = direct_2d(params, f)
            rhs = rule.reduce_to_1d(params, f)
            assert lhs.converged, (rule_id, case_index, lhs)
            assert abs(lhs.value - rhs.value) <= 1e-10 * abs(rhs.value), (rule_id, case_index)


class TestCoefficientScalesOnce:
    """f's coefficient scales each side's result once: the oracle and the
    reduction integrate f with coefficient 1, and no coefficient reaches
    an exp, so none costs digits or leaves the double range on the way."""

    PARAMS = Params(1, 1, 1, p=1.0, q=1.0)

    @staticmethod
    def _fields(res):
        # repr tells every bit of a float apart, the sign of 0 included
        return repr(res.value), repr(res.abs_error_estimate), res.evaluations, res.converged

    @pytest.mark.parametrize("coeff", [1e300, -1e-300, -3.7])
    def test_each_side_is_the_unit_result_scaled(self, coeff):
        # K1-111 at mu = 0.5: at 1e300 the oracle once overflowed, and the
        # reduction read 2.3e-14 off, on an integral of about 1e300
        rule, unit = get_rule("K1-111"), TestIntegrand(1.0, 0.5, 0.0)
        f = dataclasses.replace(unit, coeff=coeff)
        for side in (lambda g: direct_2d(self.PARAMS, g),
                     lambda g: rule.reduce_to_1d(self.PARAMS, g)):
            assert self._fields(side(f)) == self._fields(side(unit).scaled(coeff))

    def test_support_box_does_not_see_the_coefficient(self):
        boxes = {quadrant_support(self.PARAMS, TestIntegrand(coeff, 0.5, 0.0))
                 for coeff in (1.0, 1e300, -3.7, 0.0)}
        assert len(boxes) == 1


class TestOracleInnerRows:
    """Seed-42 draws with one inner row that barely counts.

    The row at the deepest outer node, x ~ 1e-156, has a large inner value
    but adds ~1e-96 to the result; judged by its share of the outer sum,
    it must not hold its batch to the last level.
    """

    @pytest.mark.parametrize(
        "rule_id, case_index",
        [("K1-111", i) for i in (0, 2, 11, 19)]
        + [("K2-220", i) for i in (1, 7, 11, 13, 16, 17, 19)],
    )
    def test_converges_within_budget(self, rule_id, case_index):
        # converged is cleared by any inner drive that did not converge
        params, f = _sweep_case(rule_id, 42, case_index)
        res = direct_2d(params, f)
        assert res.converged
        assert res.evaluations < 200_000


class TestVerify:
    def test_corrected_rule_passes(self):
        rec = verify(
            "E1-pbm-corrected", Params(0, 0, 1, p=1.0, q=4.0), TestIntegrand(1.0, 0.0, 1.0)
        )
        assert rec.passed
        assert rec.rel_diff <= 1e-6

    def test_uncorrected_rule_fails_with_known_ratio(self):
        p, q = 1.0, 4.0
        rec = verify(
            "E1-uncorrected-pbm", Params(0, 0, 1, p=p, q=q), TestIntegrand(1.0, 0.0, 1.0)
        )
        assert not rec.passed
        ratio = complex(rec.rhs.value).real / complex(rec.lhs.value).real
        expected = 1.0 / ((math.sqrt(p) + math.sqrt(q)) * math.sqrt(p + q))
        assert ratio == pytest.approx(expected, abs=1e-4)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: below 1 the verdict is absolute, so two values "
        "below 5e-7 always agree",
    )
    def test_small_erratum_fails(self):
        # the same erratum scaled by 1e-6: sides 2.66e-7 and 3.96e-8, off by
        # the factor 6.7 that fails the record at coeff 1 and 1e-3
        rec = verify(
            "E1-uncorrected-pbm", Params(0, 0, 1, p=1.0, q=4.0), TestIntegrand(1e-6, 0.0, 1.0)
        )
        assert not rec.passed

    def test_macdonald_rule_passes(self):
        rec = verify("K1-111", Params(1, 1, 1, p=2.0, q=2.0), TestIntegrand(1.0, 0.5, 0.0))
        assert rec.passed

    def test_applicability_becomes_failed_record(self):
        rec = verify(
            "E1-pbm-corrected", Params(0, 0, 1, p=0.0, q=1.0), TestIntegrand(1.0, 0.0, 1.0)
        )
        assert not rec.passed
        assert "requires p>0" in rec.failure_reason
        # the NaN diffs serialize as strict-JSON nulls and fit the schema
        import jsonschema

        from quadred.schemas import RECORD_SCHEMA

        doc = rec.to_json_dict()
        assert doc["abs_diff"] is None
        jsonschema.validate(json.loads(json.dumps(doc, allow_nan=False)), RECORD_SCHEMA)

    def test_bitwise_determinism(self):
        args = ("K1-111", Params(1, 1, 1, p=1.0, q=3.0), TestIntegrand(1.0, 0.5, 0.5))
        a = verify(*args)
        b = verify(*args)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_swap_covariance(self):
        # exchanging the axes (n <-> m with p <-> q) leaves pass/fail and
        # the value unchanged
        f = TestIntegrand(1.0, 1.2, 0.4)
        rec = verify("E4-1m12", Params(1, -1, 2, p=1.3, q=0.7), f)
        mirrored = verify("E4-1m12", Params(1, -1, 2, p=1.3, q=0.7).mirrored().mirrored(), f)
        assert rec.passed and mirrored.passed
        direct = direct_2d(Params(-1, 1, 2, p=0.7, q=1.3), f)
        assert complex(direct.value).real == pytest.approx(
            complex(rec.lhs.value).real, rel=1e-6, abs=0
        )

    def test_record_serialization(self):
        rec = verify("K1-111", Params(1, 1, 1, p=1.0, q=1.0), TestIntegrand(1.0, 0.5, 0.0))
        doc = rec.to_json_dict()
        assert doc["rule_id"] == "K1-111"
        assert doc["pass"] is True
        assert set(doc["params"]) == {"n", "m", "nu", "a", "b", "c", "g", "h", "j", "p", "q"}
        # numbers survive a JSON round trip exactly (shortest-repr floats)
        again = json.loads(json.dumps(doc))
        assert again["lhs"]["value"] == complex(rec.lhs.value).real
        row = rec.to_csv_row()
        assert row.count(",") == CSV_HEADER.count(",")

    @pytest.mark.parametrize("error", [
        QuadratureError("quadrature did not converge (estimate 1.000e-03 after 197 evaluations)"),
        KernelError("kernel term overflow at t = 1e-140: f(t) w(t) leaves the double range"),
    ], ids=["quadrature", "kernel"])
    def test_reduction_error_keeps_the_oracle(self, monkeypatch, error):
        # the oracle runs first; a reduction that raises after it leaves its work in the record
        args = ("K1-111", Params(1, 1, 1, p=1.0, q=3.0), TestIntegrand(1.0, 0.5, 0.5))
        oracle = direct_2d(args[1], args[2])

        def raises(*_args, **_kwargs):
            raise error

        monkeypatch.setattr(reducer.ReductionRule, "reduce_to_1d", raises)
        rec = verify(*args)
        assert rec.lhs == oracle and rec.rhs is None
        assert not rec.passed and rec.failure_reason == str(error)
        assert math.isnan(rec.abs_diff) and math.isnan(rec.rel_diff)
        import jsonschema

        from quadred.schemas import RECORD_SCHEMA

        doc = json.loads(json.dumps(rec.to_json_dict(), allow_nan=False))
        jsonschema.validate(doc, RECORD_SCHEMA)
        assert doc["lhs"]["evaluations"] == oracle.evaluations and doc["rhs"] is None
        [fields] = csv.reader([rec.to_csv_row()])
        row = dict(zip(CSV_HEADER.split(","), fields))
        assert row["lhs_re"] == repr(complex(oracle.value).real) and row["rhs_re"] == "nan"
        report = reducer.SweepReport(42, 1, 1e-6, 1e-9, [rec])
        assert not report.any_nonconverged()
        rec.lhs.converged = False
        assert report.any_nonconverged()

    def test_overflow_is_not_called_divergent(self):
        # f = t^150 on K1-111 at p = q = 0.05 converges by the contract,
        # but its values leave the double range at t = 297.99: each side
        # says so, and names no divergence and no floor
        params, f = Params(1, 1, 1, p=0.05, q=0.05), TestIntegrand(1.0, 150.0, 0.0)
        assert convergence_failure(params, f) is None
        with pytest.raises(QuadratureError) as oracle:
            direct_2d(params, f)
        with pytest.raises(KernelError) as reduction:
            get_rule("K1-111").reduce_to_1d(params, f)
        rec = verify("K1-111", params, f)
        for text in (str(oracle.value), str(reduction.value), rec.failure_reason):
            assert "double range" in text, text
            assert "divergent" not in text and "floor" not in text, text

    def test_csv_row_quotes_a_reason_with_a_comma(self):
        # the reason names a triple, whose commas a bare join would split
        rec = verify("N1-133", Params(1, 3, 4, a=1.0, b=0.5, c=1.0), TestIntegrand(1.0, 1.0, 0.0))
        reason = "rule N1-133: requires exponent triple (1, 3, 3), got (1, 3, 4)"
        assert rec.failure_reason == reason
        [fields] = csv.reader([rec.to_csv_row()])
        assert len(fields) == len(CSV_HEADER.split(",")) == 28
        assert fields[-1] == reason


class TestParamsExponents:
    """n, m and nu are stored as Python ints; anything else is rejected."""

    def test_numpy_integer_verifies_and_serializes(self):
        params = Params(np.int64(4), 4, 0, a=2.0, b=1.0, c=1.0)
        assert type(params.n) is int
        rec = verify("G1-general", params, TestIntegrand(1.0, 1.0))
        assert rec.passed
        import jsonschema

        from quadred.schemas import RECORD_SCHEMA

        jsonschema.validate(json.loads(json.dumps(rec.to_json_dict())), RECORD_SCHEMA)

    @pytest.mark.parametrize("n", [3.5, 4.0, "4", None])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match="exponent n must be an integer"):
            Params(n, 3, 0, a=1.0, b=0.5, c=1.0)


class TestTildeCoefficient:
    """Params.g names the tilde factor e^(-g(x+y)^2/(x y^2)), which the T
    rules require at g = a - b and no other family admits."""

    @pytest.mark.parametrize("g", [-0.9, math.nan, math.inf, -math.inf],
                             ids=["negative", "nan", "inf", "-inf"])
    def test_negative_or_non_finite_rejected(self, g):
        with pytest.raises(ValueError, match="coefficient g must be finite and >= 0"):
            Params(3, 4, 0, a=1.3, b=0.4, c=0.7, g=g)

    def test_mirror_refuses_g(self):
        params = Params(3, 4, 0, a=1.3, b=0.4, c=0.7, g=1.3 - 0.4)
        with pytest.raises(ValueError, match="mirror swap is only valid for g = 0"):
            params.mirrored()
        assert dataclasses.replace(params, g=0.0).mirrored().triple == (4, 3, 0)

    def test_serialized(self):
        params = Params(3, 4, 0, a=1.3, b=0.4, c=0.7, g=1.3 - 0.4)
        rec = verify("T1-nu0", params, TestIntegrand(1.0, 1.0, 0.3))
        assert rec.passed and rec.to_json_dict()["params"]["g"] == 1.3 - 0.4
        assert dict(zip(CSV_HEADER.split(","), next(csv.reader([rec.to_csv_row()]))))["g"] == repr(
            1.3 - 0.4)

    @pytest.mark.parametrize("rule_id", [rule.id for rule in list_rules(Family.MIXED_TILDE)])
    def test_t_rules_require_g_equal_to_a_minus_b(self, rule_id):
        rule = get_rule(rule_id)
        params = Params(*rule.triple, a=1.3, b=0.4, c=0.7, g=1.3 - 0.4)
        assert rule.applicability_failure(params) is None
        # compared exactly, g = 0 included
        for g in (0.0, math.nextafter(params.g, math.inf), 2.0 * params.g):
            assert rule.applicability_failure(dataclasses.replace(params, g=g)) == (
                f"requires g=a-b={1.3 - 0.4!r}, got g={g!r}")
        # no g >= 0 is a - b > 0 when a <= b
        assert rule.applicability_failure(dataclasses.replace(params, b=1.3, g=0.0)) == "requires a>b"

    @pytest.mark.parametrize("rule_id", [rule.id for rule in RULES
                                         if rule.family is not Family.MIXED_TILDE])
    def test_other_families_refuse_g(self, rule_id):
        rule = get_rule(rule_id)
        params = rule.sample_params(np.random.default_rng(0), 0)
        assert rule.applicability_failure(params) is None
        assert rule.applicability_failure(dataclasses.replace(params, g=0.5)) == (
            f"requires g=0 for family {rule.family.value}")

    def test_tilde_grid_converges_where_it_did(self):
        # at c > 0 the tilde cut leaves one clause of the contract, y -> inf
        # at q = 0: m + nu > 2; the same 513 triples converged when the
        # factor was a flag, set with a = 1.3 > b = 0.4
        grid = ci_checks.tilde_grid()
        admitted = [params.triple for params in grid
                    if convergence_failure(params, ci_checks.TILDE_F) is None]
        assert admitted == [params.triple for params in grid if params.m + params.nu > 2]
        assert len(admitted) == 513


def _sweep_case(rule_id: str, seed: int, case_index: int):
    """A draw exactly as `verify --rules all` makes it."""
    ids = [rule.id for rule in list_rules(include_erratum=False)]
    return _case_inputs(get_rule(rule_id), seed, ids.index(rule_id), case_index)


class TestRInnerIntegral:
    """Triple (4,2,1) puts (1 - r t)**-1/2 at the moving endpoint r = 1/t."""

    @pytest.mark.parametrize(
        "seed, case_index, bound",
        [(42, 3, 1e-13), (42, 8, 1e-13)]
        + [(seed, case_index, 1e-12) for seed in range(10) for case_index in (3, 8)],
    )
    def test_endpoint_cases_agree_with_oracle(self, seed, case_index, bound):
        params, f = _sweep_case("R1-rint", seed, case_index)
        assert params.triple == (4, 2, 1)
        rec = verify("R1-rint", params, f)
        assert rec.passed and rec.rhs.converged
        assert rec.rel_diff <= bound

    @pytest.mark.parametrize("a", [0.01, 0.05])
    def test_a_below_b_keeps_the_live_rows(self, a):
        # the inner exponent is bounded by -min(a, b)/t, not -b/t: rows with
        # b/t past the underflow still carry e^(-a/t)
        params = Params(4, 4, 0, a=a, b=10.0, c=1.0, h=0.5, j=0.5)
        f = TestIntegrand(1.0, 1.5, 0.3)
        rhs = get_rule("R1-rint").reduce_to_1d(params, f)
        lhs = direct_2d(params, f)
        assert rhs.converged and lhs.converged
        assert abs(rhs.value - lhs.value) <= 1e-12 * abs(lhs.value)

    @pytest.mark.parametrize(
        "params, mu",
        [
            (Params(4, 4, 0, a=1.0, b=0.5, h=0.3, j=0.2), 1.5),
            (Params(4, 2, 1, a=1.2, b=0.5, h=0.3, j=0.7), 1.2),
            (Params(3, 3, 1, a=0.7, b=0.2, j=0.4), 1.4),
        ],
    )
    def test_converges_without_linear_decay(self, params, mu):
        # at c = sigma = 0 the weight decays as t**(1 - (n+m+nu)/2), its alpha
        f = TestIntegrand(1.0, mu, 0.0)
        rhs = get_rule("R1-rint").reduce_to_1d(params, f)
        lhs = direct_2d(params, f)
        assert rhs.converged and lhs.converged
        assert abs(rhs.value - lhs.value) <= 1e-12 * abs(lhs.value)

    def test_inner_evaluations_of_the_seed_42_draws(self, monkeypatch):
        # each row's share of the weight, and the rows that retire once done,
        # keep the sigma-batches below the 429 803 evaluations of the batch
        # that kept every row to the end
        evaluations = 0

        def spy(integrand, tol, *, rows):
            nonlocal evaluations
            res = quadrature.integrate_interval(integrand, tol, rows=rows)
            evaluations += res.evaluations
            return res

        monkeypatch.setattr(kernels, "integrate_interval", spy)
        for case_index in range(20):
            params, f = _sweep_case("R1-rint", 42, case_index)
            get_rule("R1-rint").reduce_to_1d(params, f)
        assert 0 < evaluations <= 391_191

    def test_inner_batch_starts_at_the_fused_head_of_levels_0_to_3(self, monkeypatch):
        params, f = _sweep_case("R1-rint", 42, 3)
        first_calls = []

        def spy(integrand, tol, *, rows):
            calls = []
            res = quadrature.integrate_interval(
                lambda col, x: calls.append(x) or integrand(col, x), tol, rows=rows)
            first_calls.append(calls[0])
            return res

        monkeypatch.setattr(kernels, "integrate_interval", spy)
        get_rule("R1-rint").reduce_to_1d(params, f)
        head, *_ = quadrature._head(quadrature._UNIT_PAIR, (0, 1, 2, 3))
        assert first_calls and all(x is head for x in first_calls)

    def test_unconverged_inner_batch_is_not_silent(self, monkeypatch):
        params, f = _sweep_case("R1-rint", 42, 3)
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
        with pytest.raises(QuadratureError, match=r"R1 inner integral .* over \d+ t rows"):
            get_rule("R1-rint").reduce_to_1d(params, f)
        rec = verify("R1-rint", params, f)
        assert not rec.passed
        assert rec.rhs is None
        assert rec.failure_reason.startswith("R1 inner integral did not converge")


def _reduced_reference(rule_id: str, params: Params, f: TestIntegrand) -> float:
    """integral f(t) w(t) dt over the rule's tabulated T display (see
    test_catalog.t_display), mpmath at 30 digits: a wrong kernel formula
    shows here, not only a wrong evaluation of it."""
    with mp.workdps(30):

        def integrand(t):
            return f.coeff * t**f.mu * mp.exp(-f.sigma * t) * t_display(rule_id, params, t, MPMATH)

        value, error = mp.quad(integrand, [0, 1e-6, 1e-3, 1, 10, 100, mp.inf], error=True)
        assert error <= 1e-25 * abs(value)
        return float(value)


class TestSmallValuePins:
    """ROADMAP item 1's two named seed-42 cases, both sides against mpmath.

    Both values are near 1e-10, where the floor of 1 in each side's
    convergence test and in the verdict makes every test absolute.  Since
    the first convergence test follows level 3, both sides meet 1e-6
    relative at the sweep's own draw even so; the floor stays.
    """

    CASES = [("T5-nu2", 16), ("T1-nu0", 11)]

    @pytest.mark.parametrize("rule_id, case_index", CASES)
    def test_both_sides_exact_when_scaled_up(self, rule_id, case_index):
        # the same integral times 1e10: the formulas are right
        params, f = _sweep_case(rule_id, 42, case_index)
        f = dataclasses.replace(f, coeff=1e10)
        ref = _reduced_reference(rule_id, params, f)
        rec = verify(rule_id, params, f)
        assert rec.passed
        for side in (rec.lhs, rec.rhs):
            assert side.converged
            assert abs(side.value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("rule_id, case_index", CASES)
    def test_both_sides_exact_at_the_sweep_draw(self, rule_id, case_index):
        # with the first convergence test after level 1, T5-nu2 case 16's
        # reduction stopped 1.7e-3 off and T1-nu0 case 11's oracle 1.8e-4
        params, f = _sweep_case(rule_id, 42, case_index)
        ref = _reduced_reference(rule_id, params, f)
        rec = verify(rule_id, params, f)
        assert rec.passed
        for side in (rec.lhs, rec.rhs):
            assert abs(side.value - ref) <= 1e-6 * abs(ref)


class TestG1ZeroB:
    """With b = 0 nothing cuts the G1 kernel off at t -> 0: live nodes reach
    t = 1e-160, where the Kummer argument (a-b)/t + h is past 1e130."""

    @pytest.mark.parametrize("triple", [(1, 4, 2), (3, 3, 0)])
    @pytest.mark.parametrize("margin", [0.05, 0.5])
    def test_agrees_with_oracle(self, triple, margin):
        params = Params(*triple, a=1.3, b=0.0, c=0.8, h=0.6)
        rule = get_rule("G1-general")
        f = TestIntegrand(1.0, rule.mu_min(params) + margin, 0.0)
        rhs = rule.reduce_to_1d(params, f)
        lhs = direct_2d(params, f)
        assert rhs.converged and lhs.converged
        assert abs(rhs.value - complex(lhs.value).real) <= 1e-9 * abs(rhs.value)


class TestDerivativeCheck:
    def test_residual_and_sign(self):
        f = TestIntegrand(1.0, 0.5, 0.0)
        rep = derivative_check_k7(Params(-1, 1, 1, p=1.0, q=1.0), f, step=1e-4)
        assert rep.matched_sign == -1
        assert rep.residual <= 1e-4
        assert rep.passed

    def test_sign_consistent_across_draws(self):
        rng = np.random.default_rng(3)
        signs = set()
        for _ in range(5):
            p = float(rng.uniform(0.5, 3.0))
            q = float(rng.uniform(0.5, 3.0))
            rep = derivative_check_k7(
                Params(-1, 1, 1, p=p, q=q), TestIntegrand(1.0, 0.5, 0.0)
            )
            assert rep.residual <= 1e-4
            signs.add(rep.matched_sign)
        assert signs == {-1}

    def test_second_order_step_halving(self):
        f = TestIntegrand(1.0, 0.5, 0.0)
        coarse = derivative_check_k7(Params(-1, 1, 1, p=1.0, q=1.0), f, step=2e-3)
        fine = derivative_check_k7(Params(-1, 1, 1, p=1.0, q=1.0), f, step=1e-3)
        assert coarse.residual / fine.residual == pytest.approx(4.0, rel=0.15, abs=0)


class TestSweep:
    def test_small_sweep_passes(self):
        rep = run_sweep(["E1-pbm-corrected", "N4-122"], samples=2, seed=9)
        assert rep.all_passed
        assert len(rep.records) == 4
        assert all(r.seed == 9 for r in rep.records)

    def test_reports_are_reproducible(self):
        a = run_sweep(["K1-111"], samples=2, seed=7)
        b = run_sweep(["K1-111"], samples=2, seed=7)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_jobs_do_not_change_bytes(self):
        a = run_sweep(["E1-pbm-corrected", "K1-111"], samples=2, seed=3)
        b = run_sweep(["E1-pbm-corrected", "K1-111"], samples=2, seed=3, jobs=2)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = run_sweep(["K1-111"], samples=1, seed=1)
        b = run_sweep(["K1-111"], samples=1, seed=2)
        assert a.records[0].params != b.records[0].params

    def test_north_star_sweep_work_is_pinned(self):
        # the seed-42 sweep of every non-erratum rule: a change that only
        # regroups sums moves value bits here, never an evaluation count
        rep = run_sweep([rule.id for rule in list_rules(include_erratum=False)],
                        samples=20, seed=42)
        assert rep.n_pass == len(rep.records) == 700
        assert sum(r.lhs.evaluations for r in rep.records) == 10_904_629
        assert sum(r.rhs.evaluations for r in rep.records) == 185_336

    @pytest.mark.parametrize("jobs, samples, workers", [(64, 1, 1), (2, 3, 2), (3, 1, 1)])
    def test_pool_has_no_more_workers_than_cases(self, jobs, samples, workers, monkeypatch):
        # a pool forks every worker at its first submit, so a worker past
        # the case count is a process that does nothing; the fake executor
        # runs the cases in this process and starts none
        asked = []

        class FakeExecutor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(reducer, "ProcessPoolExecutor", FakeExecutor)
        rep = run_sweep(["E1-pbm-corrected"], samples=samples, seed=3, jobs=jobs)
        assert asked == [workers]
        assert rep.to_json() == run_sweep(["E1-pbm-corrected"], samples=samples, seed=3).to_json()

    def test_erratum_sweep_counts_failures(self):
        rep = run_sweep(["E1-uncorrected-pbm"], samples=2, seed=7)
        assert not rep.all_passed
        assert rep.n_flagged == 2
        assert rep.n_fail_trusted == 0

    @pytest.mark.parametrize("seed", [*range(10), 42])
    def test_first_draw_satisfies_the_predicate(self, seed):
        # _case_inputs draws once: every sampler must land in its rule's
        # validity set on the first try
        for rule_index, rule in enumerate(list_rules(include_erratum=False)):
            for case_index in range(20):
                rng = np.random.default_rng((seed, rule_index, case_index))
                params = rule.sample_params(rng, case_index)
                assert rule.applicability_failure(params) is None, (rule.id, case_index)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(["K1-111"], samples=1, seed=4, jobs=jobs)

    def test_empty_rule_list_rejected(self):
        with pytest.raises(ValueError, match="no rules"):
            run_sweep([], samples=1, seed=4)

    def test_csv_shape(self):
        rep = run_sweep(["E1-pbm-corrected"], samples=1, seed=4)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2


def _sweep_draws(seed: int = 42):
    """(rule, params, f, case index) of every draw of `verify --rules all`."""
    for rule_index, rule in enumerate(list_rules(include_erratum=False)):
        for case_index in range(20):
            yield (rule, *_case_inputs(rule, seed, rule_index, case_index), case_index)


class TestTwins:
    """Identities of the quadrant integral that need no referee: two
    reductions of the same integral must agree."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: below 1 the 1-D drive's target is absolute, so a "
        "reduction worth 5e-9 stops 9e-9 relative from its dilated twin",
    )
    def test_dilation_twins_agree(self):
        # x, y -> x/lam, y/lam: I(P, f) = lam^(2 - (n+m+nu)/2 + mu) I(P_lam, f_lam),
        # each scaling exact for lam a power of two
        off = []
        for lam in (2.0**-4, 2.0**4):
            for rule, params, f, case_index in _sweep_draws():
                twin = dataclasses.replace(params, a=params.a / lam, b=params.b / lam,
                                           c=params.c * lam, j=params.j / lam,
                                           p=params.p * lam, q=params.q * lam)
                power = 2.0 - (params.n + params.m + params.nu) / 2.0 + f.mu
                value = complex(rule.reduce_to_1d(params, f).value)
                dilated = lam**power * complex(rule.reduce_to_1d(
                    twin, TestIntegrand(f.coeff, f.mu, f.sigma * lam)).value)
                rel = abs(dilated - value) / abs(value)
                if rel > 1e-10:
                    off.append((lam, rule.id, case_index, rel))
        assert not off

    def test_mirror_twins_agree(self):
        # at h = 0 the axis swap is an identity: normalize routes the mirror
        # of 88 of the non-tilde draws to another rule or other parameters.
        # Where it routes the mirror back to the draw, R1-rint takes the
        # mirror, so R1's numerical kernel still meets G1's Kummer term and
        # the N rules: 116 more twins
        r1 = get_rule("R1-rint")
        twins = collections.Counter()
        for rule, params, f, case_index in _sweep_draws():
            if rule.family is Family.MIXED_TILDE or params.h != 0:
                continue
            mirror = params.mirrored()
            mirror_rule, mirrored, mirrored_f = normalize(mirror, f)
            if (mirror_rule, mirrored, mirrored_f) != (rule, params, f):
                twins["routed"] += 1
            elif r1.applicability_failure(mirror) is None:
                twins["r1"] += 1
                mirror_rule, mirrored = r1, mirror
            else:
                continue
            value = complex(rule.reduce_to_1d(params, f).value)
            twin = complex(mirror_rule.reduce_to_1d(mirrored, mirrored_f).value)
            assert abs(twin - value) <= 1e-11 * abs(value), (rule.id, case_index, mirror_rule.id)
        assert twins == {"routed": 88, "r1": 116}


class TestScaleOwner:
    """Every relative difference a report gives divides by Tolerance.scale,
    so the floor of its scale is set in one place."""

    def test_relative_differences_follow_the_scale(self, monkeypatch):
        scale = 2.0**10  # a power of two: each quotient below is exact
        monkeypatch.setattr(quadrature.Tolerance, "scale",
                            staticmethod(lambda value, floor=0.0: scale))
        # p and q make |lhs| small, 3.0e-4
        rec = verify("E1-pbm-corrected", Params(0, 0, 1, p=100.0, q=400.0),
                     TestIntegrand(1.0, 0.0, 1.0))
        assert rec.abs_diff > 0.0 and rec.rel_diff == rec.abs_diff / scale
        report = CheshireReport(FourierSpec(0.5, 0.0, 1.0, 0.5, 1.0), 1e-5, 3.0 + 1.0j, 2.0)
        assert report.rel_diff == abs(1.0 + 1.0j) / scale
        rep = derivative_check_k7(Params(-1, 1, 1, p=1.0, q=1.0), TestIntegrand(1.0, 0.5, 0.0))
        fd, companion = rep.fd_value, rep.companion_value
        assert rep.residual == min(abs(fd - companion), abs(fd + companion)) / scale
