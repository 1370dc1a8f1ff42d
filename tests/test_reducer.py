"""Normalization, the 2-D oracle, verification records and sweeps."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadred import quadrature
from quadred.catalog import Family, get_rule, list_rules
from quadred.params import Params, TestIntegrand
from quadred.quadrature import QuadratureError
from quadred.reducer import (
    CSV_HEADER,
    DivergentIntegralError,
    _case_inputs,
    derivative_check_k7,
    direct_2d,
    normalize,
    quadrant_integrand,
    run_sweep,
    shift_power,
    verify,
)

SQPI = math.sqrt(math.pi)


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
            complex(shifted.value).real, rel=1e-10
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
            complex(rhs.value).real, rel=1e-6
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
            complex(rhs.value).real, rel=1e-6
        )

    def test_no_match(self):
        assert normalize(Params(9, 9, 9), TestIntegrand()) is None

    @pytest.mark.parametrize(
        "params,f",
        [
            # power-shifted entries from each family
            (Params(3, 3, -1, p=1.1, q=0.7), TestIntegrand(1.0, 1.3, 0.2)),  # exp family
            (Params(0, 1, 3, a=1.0, b=0.4, c=0.9), TestIntegrand(1.0, 1.0, 0.3)),  # erf family
            (Params(4, 4, 0, a=1.0, b=0.3, c=0.8, h=0.6), TestIntegrand(1.0, 1.5, 0.1)),  # 1F1
            (Params(4, 4, 0, a=1.0, b=0.3, c=0.8, h=0.6, j=0.5), TestIntegrand(1.0, 1.5, 0.1)),
        ],
    )
    def test_soundness_across_families(self, params, f):
        res = normalize(params, f)
        assert res is not None
        rule, params2, f2 = res
        lhs = direct_2d(params, f)
        rhs = rule.reduce_to_1d(params2, f2)
        assert complex(lhs.value).real == pytest.approx(
            complex(rhs.value).real, rel=1e-6
        ), rule.id

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
        assert complex(res.value).real == pytest.approx(2.0 * SQPI / 5.0, rel=1e-8)

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

    def test_gamma_ratio_instance_matches_oracle(self):
        # equal inverse-exponential coefficients at (4,4,0), f = t^(3/2)
        params = Params(4, 4, 0, a=1.0, b=1.0, c=1.0)
        f = TestIntegrand(1.0, 1.5, 0.0)
        lhs = direct_2d(params, f)
        rhs = get_rule("N6-aeqb").reduce_to_1d(params, f)
        assert complex(lhs.value).real > 0.0
        assert complex(lhs.value).real == pytest.approx(
            complex(rhs.value).real, rel=1e-6
        )


# the ends and the middle of the quadrature's [1e-160, 1e160] node ladder
_LADDER_POINTS = [1e-160, 1e-8, 0.3, 1.0, 7.0, 1e8, 1e160]


def _integrand_reference(params: Params, f: TestIntegrand, tilde: bool, x: float, y: float):
    """The defining formula of the quadrant integrand, in mpmath at 40 digits."""
    with mp.workdps(40):
        x, y = mp.mpf(x), mp.mpf(y)
        s = x + y
        t = x * y / s
        h = mp.mpc(complex(params.h))
        expo = (
            -(f.sigma + params.c) * t - params.p * x - params.q * y
            - params.a / x - params.b / y - params.j / s - h * y / s
        )
        if tilde:
            expo -= (params.a - params.b) * s**2 / (x * y**2)
        return complex(
            f.coeff * x ** (-params.n / 2) * y ** (-params.m / 2) * s ** (-params.nu / 2)
            * t**f.mu * mp.exp(expo)
        )


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
                  TestIntegrand(1.5, 0.5, 0.2), False),
        "real-h": (Params(2, 1, 1, a=1.0, b=0.3, c=0.8, h=0.6),
                   TestIntegrand(1.0, 1.25, 0.1), False),
        # y^-2 at y = 1e160 leaves (0.3, 1e160) a subnormal 3.7e-322
        "subnormal": (Params(4, 4, 0, a=1.0, b=0.3, c=0.8, h=0.6),
                      TestIntegrand(1.0, 1.25, 0.1), False),
        "j": (Params(2, 1, 1, b=0.4, c=0.5, j=1.3, q=0.9),
              TestIntegrand(1.0, 0.75, 0.3), False),
        "tilde": (Params(1, 2, 1, a=1.5, b=0.5, c=0.3, q=0.4),
                  TestIntegrand(2.5, 1.25, 0.0), True),
        "complex-h": (Params(0, 0, 1, c=1.0, h=0.8 + 2.5j, p=0.7, q=1.0),
                      TestIntegrand(1.0, 0.5, 0.4), False),
        "negative-coeff": (Params(3, 1, 2, a=0.6, c=0.8),
                           TestIntegrand(-3.7, 2.0, 1.0), False),
        "zero-coeff": (Params(0, 0, 1, p=1.0, q=1.0), TestIntegrand(0.0, 0.0, 1.0), False),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_defining_formula(self, case):
        params, f, tilde = self.CASES[case]
        xs = np.array(_LADDER_POINTS)
        # the quadrature driver calls it with a column of x and a row of y,
        # under its per-integral errstate
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            vals = quadrant_integrand(params, f, tilde)(xs[:, None], xs[None, :])
        assert vals.shape == (xs.size, xs.size)
        assert not np.isnan(vals).any()
        for i, x in enumerate(xs):
            for k, y in enumerate(xs):
                ref = _integrand_reference(params, f, tilde, x, y)
                got = complex(vals[i, k])
                if abs(ref) < 1e-320:
                    # subnormal or zero: within a few units of the least subnormal
                    assert abs(got - ref) <= 4 * math.ulp(0.0), (x, y, got, ref)
                    continue
                scale = max(abs(ref), 1e-250)
                bound = 1e-13 * max(1.0, abs(math.log(scale))) * scale
                assert abs(got - ref) <= bound, (x, y, got, ref)

    @pytest.mark.parametrize("case", ["plain", "tilde", "j", "real-h", "complex-h"])
    def test_kept_terms_match_a_fresh_closure(self, case):
        # one closure keeps the terms of the last read-only column;
        # interleaved, re-used and equal-content inputs must give exactly
        # what a newly built closure gives
        params, f, tilde = self.CASES[case]

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
        kept = quadrant_integrand(params, f, tilde)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            for x, y in calls:
                got = kept(x, y)
                want = quadrant_integrand(params, f, tilde)(x, y)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # a writable input may change between calls and is never kept
            writable[:] = col_a
            got = kept(writable, row_1)
            want = quadrant_integrand(params, f, tilde)(col_a, row_1)
            assert got.tobytes() == want.tobytes()


class TestOracleWork:
    """The oracle's evaluation counts on three seed-42 sweep draws.

    A change to the integrand that moves where a truncation scan stops
    shows up here as a changed count, not only as moved digits.
    """

    @pytest.mark.parametrize(
        "rule_id, case_index, evaluations",
        [("K1-111", 0, 150_629), ("T5-nu2", 13, 202_949), ("K5-1m75", 9, 77_027)],
    )
    def test_evaluations_pinned(self, rule_id, case_index, evaluations):
        params, f = _sweep_case(rule_id, 42, case_index)
        tilde = get_rule(rule_id).family is Family.MIXED_TILDE
        assert direct_2d(params, f, tilde=tilde).evaluations == evaluations

    @pytest.mark.parametrize(
        "rule_id, case_index, value_hex",
        [
            ("K1-111", 0, "0x1.ce9a8266416f6p+0"),
            ("T5-nu2", 13, "0x1.5c09cbbef6eacp+1"),
            ("K5-1m75", 9, "0x1.290c5dcbe2f8ap+1"),
            ("G1-general", 0, "0x1.04cfad0f771c8p+1"),  # real h
            ("R1-rint", 0, "0x1.0c5cbbc4be682p-3"),  # j and real h
        ],
    )
    def test_value_bits_pinned(self, rule_id, case_index, value_hex):
        # a change that moves a rounding anywhere in the oracle moves a bit here
        params, f = _sweep_case(rule_id, 42, case_index)
        tilde = get_rule(rule_id).family is Family.MIXED_TILDE
        value = direct_2d(params, f, tilde=tilde).value
        assert isinstance(value, float)
        assert value.hex() == value_hex


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
            complex(rec.lhs.value).real, rel=1e-6
        )

    def test_record_serialization(self):
        rec = verify("K1-111", Params(1, 1, 1, p=1.0, q=1.0), TestIntegrand(1.0, 0.5, 0.0))
        doc = rec.to_json_dict()
        assert doc["rule_id"] == "K1-111"
        assert doc["pass"] is True
        assert set(doc["params"]) == {"n", "m", "nu", "a", "b", "c", "h", "j", "p", "q"}
        # numbers survive a JSON round trip exactly (shortest-repr floats)
        again = json.loads(json.dumps(doc))
        assert again["lhs"]["value"] == complex(rec.lhs.value).real
        row = rec.to_csv_row()
        assert row.count(",") == CSV_HEADER.count(",")


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

    def test_unconverged_inner_batch_is_not_silent(self, monkeypatch):
        params, f = _sweep_case("R1-rint", 42, 3)
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
        with pytest.raises(QuadratureError, match=r"R1 inner integral .* over \d+ t rows"):
            get_rule("R1-rint").reduce_to_1d(params, f)
        rec = verify("R1-rint", params, f)
        assert not rec.passed
        assert rec.rhs is None
        assert rec.failure_reason.startswith("R1 inner integral did not converge")


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
        assert coarse.residual / fine.residual == pytest.approx(4.0, rel=0.15)


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

    def test_empty_rule_list_rejected(self):
        with pytest.raises(ValueError, match="no rules"):
            run_sweep([], samples=1, seed=4)

    def test_csv_shape(self):
        rep = run_sweep(["E1-pbm-corrected"], samples=1, seed=4)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
