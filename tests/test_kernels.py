"""Kernel-term evaluation: frozen values, stability branches, special factors."""

import cmath
import dataclasses
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from quadred import applications, kernels, quadrature
from quadred.applications import FourierSpec, YukawaPairSpec, fourier_params
from quadred.catalog import G1_GRID, R1_GRID, _order_rows, get_rule, list_rules
from quadred.kernels import (
    BesselKFactor,
    ErfcxSqrtInvFactor,
    FourierErfiFactor,
    KernelError,
    KernelTerm,
    KummerFactor,
    RInnerFactor,
    eval_kernel,
    eval_kernel_with_f,
)
from quadred.params import Params, TestIntegrand
from quadred.quadrature import integrate_interval
from quadred.reducer import _case_inputs
from test_catalog import PQ_RULES, pq_display

SQPI = math.sqrt(math.pi)
# the orders BesselKFactor's contract tests take: the catalog's 0, 1 and 2,
# and 3 to 5, which only the recurrence reaches
_BESSEL_ORDERS = [0, 1, 2, 3, 4, 5]


def _bessel_factor(order: int, scale: float) -> BesselKFactor:
    """t**order K_order(scale t) as a BesselKFactor, its weights from the
    catalog's recurrence rows: K_order(x) is the sum of c x**shift K_0(x)
    and c x**shift x K_1(x), and x**shift x K_1(x) = scale**(shift + 1)
    t**shift (x K_1(x)/scale)."""
    weights = {"k0": [], "k1": []}
    for basis, shift, c in _order_rows(order):
        row, j = weights[basis], order + shift
        row.extend([0.0] * (j + 1 - len(row)))
        row[j] += c * scale ** (shift + (basis == "k1"))
    return BesselKFactor(scale, tuple(weights["k0"]), tuple(weights["k1"]))


class TestTermEvaluation:
    def test_plain_exponential_term(self):
        # 2 sqrt(pi) e^{-4t} at t = 0.25  ->  2 sqrt(pi)/e
        term = KernelTerm(2.0 * SQPI, 0.0, beta=4.0)
        val = eval_kernel([term], 0.25)
        assert val == pytest.approx(2.0 * SQPI * math.exp(-1.0), rel=1e-14, abs=0)
        assert val == pytest.approx(1.3040986643465844, rel=1e-10, abs=0)

    def test_macdonald_term(self):
        # 2 t^-1/2 e^-2t K0(2t) at t = 1
        term = KernelTerm(2.0, -0.5, beta=2.0, special=BesselKFactor(2.0))
        expected = 2.0 * math.exp(-2.0) * sp.kv(0, 2.0)
        assert eval_kernel([term], 1.0) == pytest.approx(expected, rel=1e-13, abs=0)
        assert expected == pytest.approx(0.03082771905494566, rel=1e-10, abs=0)

    def test_vectorized_matches_scalar(self):
        terms = [KernelTerm(1.5, -0.5, beta=2.0, gamma=0.3, special=ErfcxSqrtInvFactor(0.7))]
        ts = np.array([0.01, 0.1, 1.0, 10.0])
        vec = eval_kernel(terms, ts)
        for t, v in zip(ts, vec):
            assert eval_kernel(terms, float(t)) == pytest.approx(v, rel=1e-14, abs=0)

    def test_domain_error(self):
        with pytest.raises(KernelError):
            eval_kernel([KernelTerm(1.0, 0.0)], 0.0)
        with pytest.raises(KernelError):
            eval_kernel([KernelTerm(1.0, 0.0)], -1.0)

    def test_deep_nodes_stay_finite(self):
        # t^(3/2) K_k(s t) underflow x overflow region must come out finite;
        # the factor is t^k K_k(s t), so the term's own power is 3/2 - k, and
        # f's t^(k - 3/2) keeps the product's power at the origin 0
        ts = np.geomspace(1e-160, 1e150, 200)
        for order in _BESSEL_ORDERS[2:]:
            terms = [KernelTerm(2.0, 1.5 - order, beta=1.0, special=_bessel_factor(order, 2.0))]
            vals = eval_kernel_with_f(terms, TestIntegrand(1.0, order - 1.5, 0.0), ts)
            assert np.all(np.isfinite(vals)), order

    def test_floor_overflow_raises(self):
        # mu far below the floor must be caught loudly, not return inf; the
        # evaluator sees only that a term leaves the double range
        for order in _BESSEL_ORDERS[2:]:
            terms = [KernelTerm(1.0, -1.0 - order, beta=1.0, special=_bessel_factor(order, 2.0))]
            with pytest.raises(KernelError,
                               match=r"t = 1e-140: f\(t\) w\(t\) leaves the double range"):
                eval_kernel_with_f(terms, TestIntegrand(1.0, -1.0, 0.0), np.array([1e-140]))


def _reference_eval_kernel_with_f(terms, f, t, seen: set):
    """The evaluator as it was before its fast paths: every term gathers its
    live rows and scatters its values by mask, f's coefficient taken as 1.
    A real factor goes into the log as it is, a complex one, bounded,
    multiplies exp's values.  seen collects which cases ran: whole, part or
    dead terms, complex values and real ones."""
    out = np.zeros(t.shape)
    logt = np.log(t)
    with np.errstate(divide="ignore", under="ignore"):
        for term in terms:
            logmag = (
                math.log(term.coeff)
                + (f.mu + term.alpha) * logt
                - (f.sigma + term.beta) * t
                - term.gamma / t
            )
            live = logmag > kernels._EXP_ZERO
            if not live.any():
                seen.add("dead")
                continue
            seen.add("whole" if live.all() else "part")
            logtot, phase = logmag[live], 1.0
            if term.special is not None:
                bounded = term.special.bounded_part(t[live])
                if np.iscomplexobj(bounded):
                    phase = bounded
                else:
                    logtot = logtot + np.log(bounded)
            if np.any(logtot > kernels._LOG_OVERFLOW):
                raise KernelError("kernel term overflow: f(t) w(t) leaves the double range")
            vals = np.exp(logtot) * phase
            seen.add(vals.dtype.kind)
            out = out.astype(np.result_type(out, vals), copy=False)
            out[live] += vals
    return out


def _evaluator_cases():
    """(id, terms, f): every non-erratum rule's first seed-42 sweep draw,
    and the momentum-space erfi kernel, its colinear spec pushing the
    factor through the denormal range."""
    cases = []
    for index, rule in enumerate(list_rules(include_erratum=False)):
        params, f = _case_inputs(rule, 42, index, 0)
        cases.append((rule.id, rule.build_kernel(params), f))
    for args in [(1.0, 0.3, 1.0, 0.5, 1.0), (0.5, 4.0, 1.0, 0.6, 8.0)]:
        terms = applications._erfi_kernel(FourierSpec(*args))
        cases.append((f"erfi-{args[1]}", terms, TestIntegrand(1.0, 1.5, 0.0)))
    # the arithmetic the evaluator skips: a term with gamma = 0 and
    # sigma + beta = 0, and a negative coefficient of f, which the
    # evaluator does not read
    terms = [KernelTerm(1.0, 0.0), KernelTerm(2.0, -1.0, beta=0.5, gamma=0.3),
             KernelTerm(0.5, -0.5, gamma=1.0, special=ErfcxSqrtInvFactor(0.7))]
    for coeff in (1.0, -1.5):
        cases.append((f"skips-{coeff}", terms, TestIntegrand(coeff, 0.5, 0.0)))
        # a real factor's 0, subnormal and NaN values among positive ones
        cases.append((f"real-mixed-{coeff}", [KernelTerm(1.0, 0.0, special=_RealMixed())],
                      TestIntegrand(coeff, 0.5, 0.0)))
    return cases


class _RealMixed(kernels._Factor):
    """A real factor, positive on most decades of t and on the others 0,
    subnormal or NaN: across _T_WINDOWS some calls hold only positive
    normal values, and others hold the rest among them."""

    def bounded_part(self, t):
        decade = np.floor(np.log10(t)) % 12
        positive = 0.5 + 1.0 / (1.0 + t)
        return np.select([decade == 0, decade == 1, decade == 2],
                         [0.0, 5e-310, np.nan], positive)


# a log grid over the half line's span, and a dense one on [1, 100], where
# the colinear erfi factor falls through the denormal range to 0
_T_GRID = np.union1d(np.geomspace(1e-160, 1e160, 801), np.linspace(1.0, 100.0, 793))
# the whole grid, where a term is partly dead, and windows of 8 nodes, where
# terms are also wholly live or wholly dead
_T_WINDOWS = [_T_GRID] + [_T_GRID[k:k + 8] for k in range(0, len(_T_GRID), 8)]


class TestEvaluatorKeepsItsBits:
    """eval_kernel_with_f gives the bits of its per-term masked reference."""

    @staticmethod
    def _bits(evaluate, terms, f, t):
        out = evaluate(terms, f, t)
        return out.dtype.str, out.tobytes()

    def test_bitwise_equal(self):
        seen = set()
        for case_id, terms, f in _evaluator_cases():
            for t in _T_WINDOWS:
                want = self._bits(
                    lambda *args: _reference_eval_kernel_with_f(*args, seen), terms, f, t)
                assert self._bits(eval_kernel_with_f, terms, f, t) == want, (case_id, t[0])
        # every path of the evaluator ran, complex ("c") and real ("f") values
        assert seen == {"whole", "part", "dead", "c", "f"}

    def test_coefficient_is_not_read(self):
        # f's coefficient scales the reduced integral, in reduce_to_1d: the
        # evaluator gives coefficient 1's bits for any other
        for case_id, terms, f in _evaluator_cases():
            want = self._bits(eval_kernel_with_f, terms, dataclasses.replace(f, coeff=1.0), _T_GRID)
            for coeff in (1e300, -1e-300, -3.7, 0.0):
                got = self._bits(eval_kernel_with_f, terms, dataclasses.replace(f, coeff=coeff),
                                 _T_GRID)
                assert got == want, (case_id, coeff)

    def test_shape_of_t_is_kept(self):
        # eval_kernel flattens t for eval_kernel_with_f, which takes the 1-D
        # t its drives give it, and reshapes the values: a 2-D t gives its
        # shape and a scalar t a scalar, with the bits of the 1-D call
        unit = TestIntegrand(1.0, 0.0, 0.0)
        t = np.geomspace(1e-3, 1e3, 8)
        for case_id, terms, _ in _evaluator_cases():
            flat = eval_kernel_with_f(terms, unit, t)
            got = eval_kernel(terms, t.reshape(2, 4))
            assert got.shape == (2, 4) and got.tobytes() == flat.tobytes(), case_id
            one = eval_kernel_with_f(terms, unit, np.array([2.0]))
            for scalar in (2.0, np.float64(2.0), np.array(2.0)):
                got = eval_kernel(terms, scalar)
                assert type(got) is (complex if one.dtype.kind == "c" else float), case_id
                assert np.array(got).tobytes() == one.tobytes(), case_id

    def test_real_factor_calls_take_both_paths(self):
        # the windows of the real-mixed cases: some calls' values are all
        # positive and normal, the others hold 0, a subnormal value or a
        # NaN, which go into the log as they are, and test_bitwise_equal
        # runs both kinds
        values = [_RealMixed().bounded_part(t) for t in _T_WINDOWS]
        assert {bool(np.all(v >= 1e-280)) for v in values} == {True, False}
        special = np.concatenate(values)
        assert (special == 0.0).any() and np.isnan(special).any()
        assert ((special > 0.0) & (special < np.finfo(float).tiny)).any()


class _Recorded(kernels._Factor):
    """A factor that keeps each value array it returns."""

    def __init__(self, factor):
        self.factor, self.values = factor, []

    def bounded_part(self, t):
        self.values.append(self.factor.bounded_part(t))
        return self.values[-1]


def _recorded_terms(terms):
    return [dataclasses.replace(term, special=_Recorded(term.special))
            if term.special is not None else term for term in terms]


def _real_values(terms):
    return [v for term in terms if term.special is not None
            for v in term.special.values if v.dtype.kind == "f"]


class TestTermsArePositive:
    """The evaluator's contract: every term adds.  A term's coefficient is
    finite and > 0, and a real factor's values are >= 0, so they go into
    the log as they are."""

    @pytest.mark.parametrize("coeff", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_kernel_term_rejects_its_coefficient(self, coeff):
        with pytest.raises(KernelError, match="is not finite and > 0"):
            KernelTerm(coeff, 0.0)

    @pytest.mark.parametrize("weights", [((), ()), ((-1.0,), ()), ((1.0,), (0.5, -1.0)),
                                         ((math.nan,), ())],
                             ids=["empty", "negative-k0", "negative-k1", "nan"])
    def test_bessel_factor_rejects_its_weights(self, weights):
        # no weight was an IndexError on the first call, and a negative one
        # gave negative values
        with pytest.raises(ValueError, match="no weight, or one not >= 0"):
            BesselKFactor(1.0, *weights)

    def test_catalog_real_factors_are_not_negative(self):
        # every real factor of every trusted rule's seed-42 draws, cases
        # 0-2, on the rows of _T_GRID the evaluator gives it: those where
        # its term has not underflowed
        calls = 0
        for index, rule in enumerate(list_rules(include_erratum=False)):
            for case_index in range(3):
                params, f = _case_inputs(rule, 42, index, case_index)
                terms = _recorded_terms(rule.build_kernel(params))
                eval_kernel_with_f(terms, f, _T_GRID)
                for values in _real_values(terms):
                    calls += 1
                    assert np.all(values >= 0.0), (rule.id, case_index)  # NaN fails too
        assert calls == 87  # one for each draw of the 29 rules with a real factor

    @pytest.mark.parametrize("rule_id, case_index, value", [
        ("K2-220", 6, "0x1.8f4698e775356p-11"), ("K3-0m44", 3, "0x1.2f1e8c6a3d4dap-7")])
    def test_lifted_draws_keep_their_bits(self, monkeypatch, rule_id, case_index, value):
        # the only sweep draws, at seeds 42 and 0, whose real factor returns
        # a value below 1e-280 (2.6e-294, and the subnormal 8.4e-312), which
        # the evaluator used to lift into the normal range before the log;
        # their reduction keeps the bits it had then
        rule = get_rule(rule_id)
        index = [r.id for r in list_rules(include_erratum=False)].index(rule_id)
        params, f = _case_inputs(rule, 0, index, case_index)
        values, bounded_part = [], BesselKFactor.bounded_part
        monkeypatch.setattr(BesselKFactor, "bounded_part",
                            lambda factor, t: values.append(bounded_part(factor, t)) or values[-1])
        assert rule.reduce_to_1d(params, f).value.hex() == value
        assert 0.0 < np.concatenate(values).min() < 1e-280


class TestSharedFactor:
    """Terms that carry equal factors each call their own, on their own
    live rows, and the values keep their bits.  A kernel whose Macdonald
    terms would share a factor, as K7's two K_1 terms did, is one term."""

    @staticmethod
    def _spy(monkeypatch, cls):
        calls = []
        bounded_part = cls.bounded_part

        def spy(factor, t):
            calls.append((factor, len(t)))
            return bounded_part(factor, t)

        monkeypatch.setattr(cls, "bounded_part", spy)
        return calls

    def test_k7_is_one_term_with_one_factor_call(self, monkeypatch):
        # K7's K_0 and its two K_1 terms are one factor's weights: t**2 K_0
        # and t**0, t**1 times x K_1(x)/s, the last weight 1
        rule = get_rule("K7-m311")
        index = [r.id for r in list_rules(include_erratum=False)].index(rule.id)
        params, f = _case_inputs(rule, 42, index, 0)
        terms = rule.build_kernel(params)
        assert len(terms) == 1 and terms[0].alpha == -0.5
        factor = terms[0].special
        assert len(factor.k0_weights) == 3 and factor.k0_weights[:2] == (0.0, 0.0)
        assert len(factor.k1_weights) == 2 and factor.k1_weights[1] == 1.0
        t = np.geomspace(1e-3, 1e3, 50)
        want = _reference_eval_kernel_with_f(terms, f, t, set())
        calls = self._spy(monkeypatch, BesselKFactor)
        got = eval_kernel_with_f(terms, f, t)
        assert [factor for factor, _ in calls] == [terms[0].special]
        assert got.tobytes() == want.tobytes()

    def test_other_rows_take_the_factor_again(self, monkeypatch):
        # the second term's gamma kills the smallest t, so its rows differ
        factor = ErfcxSqrtInvFactor(0.7)
        terms = [KernelTerm(1.0, 0.0, beta=1.0, special=factor),
                 KernelTerm(0.5, 0.5, beta=1.0, gamma=1.0, special=factor)]
        f = TestIntegrand(1.0, 0.5, 0.0)
        t = np.geomspace(1e-5, 1e2, 40)
        want = _reference_eval_kernel_with_f(terms, f, t, set())
        calls = self._spy(monkeypatch, ErfcxSqrtInvFactor)
        got = eval_kernel_with_f(terms, f, t)
        assert [rows for _, rows in calls] == [40, np.count_nonzero(
            math.log(0.5 * 1.0) + 1.0 * np.log(t) - t - 1.0 / t > kernels._EXP_ZERO)]
        assert calls[1][1] < 40
        assert got.tobytes() == want.tobytes()


class _NanAtOne(kernels._Factor):
    """A factor that is NaN at t = 1 and 1 elsewhere."""

    def bounded_part(self, t):
        return np.where(t == 1.0, np.nan, 1.0)


class TestEvaluatorOverflow:
    """A live row above the overflow bound raises, whatever a NaN row holds."""

    TERMS = [KernelTerm(1.0, 5.0, special=_NanAtOne())]
    F = TestIntegrand(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [[1.0, 1e100], [1e100, 1.0]], ids=["nan-first", "nan-last"])
    def test_nan_row_does_not_hide_overflow(self, t):
        # log|term| at t = 1e100 is 5 * 230 = 1151, above 705
        with pytest.raises(KernelError, match="overflow"):
            eval_kernel_with_f(self.TERMS, self.F, np.array(t))

    def test_nan_row_alone_is_returned(self):
        got = eval_kernel_with_f(self.TERMS, self.F, np.array([1.0, 2.0]))
        want = _reference_eval_kernel_with_f(self.TERMS, self.F, np.array([1.0, 2.0]), set())
        assert got.tobytes() == want.tobytes() and math.isnan(got[0])


# where BesselKFactor leaves scipy's x k1(x) for its small-argument limit 1
_BESSEL_FLOOR = 1e-300


class TestBesselBranch:
    @pytest.mark.parametrize("order", _BESSEL_ORDERS[1:])
    def test_small_argument_branch_continuous(self, order):
        factor = _bessel_factor(order, 1.0)
        floor = _BESSEL_FLOOR
        # 1e-10 below the floor is denormal, where x k1(x) overflows
        below = factor.bounded_part(np.array([0.5 * floor, 1e-10 * floor]))
        above = factor.bounded_part(np.array([2.0 * floor]))[0]
        exact = 2.0 ** (order - 1) * math.factorial(order - 1)
        assert below == pytest.approx([exact, exact], rel=1e-10, abs=0)
        assert above == pytest.approx(exact, rel=1e-10, abs=0)

    def test_k0_small_argument(self):
        # below the floor scipy's k0 is its limit -log(x/2) - euler_gamma to
        # the bit, down to the smallest denormal, where x/2 is 0 and both are inf
        factor = BesselKFactor(1.0)
        t = np.geomspace(5e-324, 1e-300, 2001)
        with np.errstate(divide="ignore"):
            expected = -np.log(t / 2.0) - np.euler_gamma
        assert factor.bounded_part(t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", _BESSEL_ORDERS)
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_against_mpmath_down_to_the_floor(self, order, scale):
        # s t log-spaced on [1e-300, 700], to 2e-15 relative; a power-of-2 scale
        # makes s t exact, so the reference sees the factor's own argument
        ts = np.geomspace(1e-300, 700.0, 400) / scale
        got = _bessel_factor(order, scale).bounded_part(ts)
        with mp.workdps(40):
            for t, value in zip(ts, got):
                ref = mp.mpf(t) ** order * mp.besselk(order, scale * mp.mpf(t))
                assert abs(value - ref) <= 2e-15 * ref, (t, value, ref)

    def test_catalog_draws_stay_above_the_floor(self, monkeypatch):
        # every K rule's seed-42 draws, on the half line's level-0 to level-4
        # heads, reach the factor with no node below the floor
        x, _, _ = quadrature._head(quadrature._EXP_SINH, (0, 1, 2, 3, 4))
        lowest = {}
        bounded_part = BesselKFactor.bounded_part
        ids = [rule.id for rule in list_rules(include_erratum=False)]
        k_rules = [rule for rule in list_rules(include_erratum=False) if rule.id.startswith("K")]
        assert len(k_rules) == 7
        for rule in k_rules:

            def spy(factor, t, rule_id=rule.id):
                lowest[rule_id] = min(lowest.get(rule_id, math.inf), np.min(factor.scale * t))
                return bounded_part(factor, t)

            monkeypatch.setattr(BesselKFactor, "bounded_part", spy)
            for case_index in range(20):
                params, f = _case_inputs(rule, 42, ids.index(rule.id), case_index)
                eval_kernel_with_f(rule.build_kernel(params), f, x)
        assert sorted(lowest) == [rule.id for rule in k_rules]
        assert all(value >= _BESSEL_FLOOR for value in lowest.values()), lowest

    def test_matches_scipy_in_normal_range(self):
        # the factor contract is t**k K_k(s t), i.e. the k-th-order pole
        # stripped off into the term's power
        for order in _BESSEL_ORDERS:
            factor = _bessel_factor(order, 3.0)
            ts = np.geomspace(1e-4, 5.0, 30)
            mine = factor.bounded_part(ts)
            ref = ts**order * sp.kv(order, 3.0 * ts)
            assert np.allclose(mine, ref, rtol=1e-12)

    @pytest.mark.parametrize("order", _BESSEL_ORDERS)
    @pytest.mark.parametrize("scale", [0.2, 3.0])
    def test_against_mpmath(self, order, scale):
        # s t runs from 1e-14 to 50
        ts = np.geomspace(1e-14, 50.0, 60) / scale
        got = _bessel_factor(order, scale).bounded_part(ts)
        with mp.workdps(30):
            for t, value in zip(ts, got):
                ref = mp.mpf(t) ** order * mp.besselk(order, scale * mp.mpf(t))
                assert abs(value - ref) <= 1e-13 * ref, (t, value, ref)


def _bessel_branches(order):
    scale, floor = 3.0, _BESSEL_FLOOR
    usual = np.geomspace(1.01 * floor, 60.0, 97) / scale
    # down into the denormals, where x k1(x) overflows
    small = np.geomspace(floor * 1e-10, 0.99 * floor, 31) / scale
    return _bessel_factor(order, scale), usual, small


def _kummer_branches(a, b):
    usual = np.geomspace(1.001e-5, 1e160, 97)  # w = 1/t + 1/4 below 1e5
    big = np.geomspace(1e-160, 0.999e-5, 31)
    return KummerFactor(a, b, 1.0, 0.25), usual, big


def _erfcx_branches(form):
    amount = 0.7  # z = 2 sqrt(0.7/t) is 1 at t = 2.8
    usual = np.geomspace(1e-3, 2.79, 97)
    small = np.geomspace(2.81, 1e160, 31)
    return ErfcxSqrtInvFactor(amount, form), usual, small


class TestFactorBranchesKeepTheirBits:
    """A node's value is the same whether or not its call also holds a node
    of the factor's other branch: BesselKFactor's s t below 1e-300,
    KummerFactor's w >= 1e5, and the z < 1
    branch of ErfcxSqrtInvFactor's T1 and T4 forms."""

    @staticmethod
    def _alone_and_together(factor, usual, other):
        both = factor.bounded_part(np.concatenate([usual, other]))
        for alone, together in ((factor.bounded_part(usual), both[:len(usual)]),
                                (factor.bounded_part(other), both[len(usual):])):
            assert alone.dtype == together.dtype and alone.tobytes() == together.tobytes()

    @pytest.mark.parametrize("order", _BESSEL_ORDERS)
    def test_bessel(self, order):
        self._alone_and_together(*_bessel_branches(order))

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 1.5)])
    def test_kummer(self, a, b):
        self._alone_and_together(*_kummer_branches(a, b))

    @pytest.mark.parametrize("form", ["T1", "T4"])
    def test_erfcx_forms(self, form):
        self._alone_and_together(*_erfcx_branches(form))

    @pytest.mark.parametrize("branches", [
        lambda: _bessel_branches(0), lambda: _bessel_branches(1), lambda: _bessel_branches(2),
        lambda: _bessel_branches(5),
        # at (1.5, 2) the series takes over from scipy's hyp1f1 at w = 1e5
        lambda: _kummer_branches(1.5, 2.0), lambda: _erfcx_branches("T1"),
        lambda: _erfcx_branches("T4"),
    ], ids=["bessel-0", "bessel-1", "bessel-2", "bessel-5", "kummer", "erfcx-T1", "erfcx-T4"])
    def test_a_nan_beside_the_other_branch(self, branches):
        # a NaN row in the call: each factor decides its branch by a
        # NaN-skipping reduction (fmin or fmax), so the other branch's rows
        # still take it, as their own mask says; a NaN-propagating minimum
        # or maximum would skip the branch and leave those rows scipy's raw
        # values
        factor, usual, other = branches()
        nan = np.array([math.nan])
        self._alone_and_together(factor, np.concatenate([nan, usual]), other)
        self._alone_and_together(factor, nan, other)


class TestMacdonaldTerms:
    """Each pq rule's weight, a sum of Macdonald functions whose poles sit
    in alpha, against its displayed form (test_catalog.pq_display), where
    half-integer orders are exponentials."""

    @pytest.mark.parametrize("rule_id", sorted(PQ_RULES))
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 0.5), (0.15, 7.0)])
    def test_against_mpmath(self, rule_id, p, q):
        rule = get_rule(rule_id)
        params = Params(*rule.triple, p=p, q=q)
        ts = np.geomspace(1e-12, 60.0, 80)
        got = rule.kernel_weight(params, ts)
        with mp.workdps(30):
            for t, value in zip(ts, got):
                ref = pq_display(rule_id, p, q, t)
                if ref < 1e-280:
                    assert value < 1e-280, (t, value, ref)
                else:
                    assert abs(value - ref) <= 1e-13 * ref, (t, value, ref)


class TestErrorState:
    """The evaluator enters one np.errstate of its own and leaves the caller's as it was."""

    @pytest.mark.parametrize("weight", [
        lambda ts: eval_kernel(applications._erfi_kernel(FourierSpec(1.0, 0.3, 1.0, 0.5, 1.0)), ts),
        lambda ts: get_rule("K5-1m75").kernel_weight(Params(1, -7, 5, p=2.0, q=0.5), ts),
        lambda ts: get_rule("G1-general").kernel_weight(
            Params(4, 4, 0, a=1.3, b=0.0, c=0.8, h=0.6), ts),
        lambda ts: get_rule("T4-nu1").kernel_weight(
            Params(0, 7, 1, a=2.0, b=0.5, c=1.0, g=1.5), ts),
    ], ids=["fourier-erfi", "K5-1m75", "G1-general", "T4-nu1"])
    def test_caller_raising_on_underflow_and_divide(self, weight):
        ts = np.geomspace(1e-3, 1e3, 400)
        expected = weight(ts)
        with np.errstate(under="raise", divide="raise"):
            caller = np.geterr()
            got = weight(ts)
            assert np.geterr() == caller
        np.testing.assert_array_equal(got, expected)


class TestErfcxFactor:
    def test_equals_scaled_combination(self):
        amount = 0.7
        factor = ErfcxSqrtInvFactor(amount)
        for t in (0.05, 0.5, 5.0):
            x = 2.0 * math.sqrt(amount / t)
            assert factor.bounded_part(np.array([t]))[0] == pytest.approx(
                math.exp(x * x) * sp.erfc(x), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("amount", [1e-3, 0.7, 40.0])
    def test_against_mpmath(self, amount):
        # x = 2 sqrt(amount/t) runs up to 1.3e8, far past where erfc underflows
        ts = np.geomspace(1e-14, 1e6, 81)
        got = ErfcxSqrtInvFactor(amount).bounded_part(ts)
        with mp.workdps(30):
            for t, value in zip(ts, got):
                x = 2 * mp.sqrt(mp.mpf(amount) / mp.mpf(t))
                ref = mp.exp(x * x) * mp.erfc(x)
                assert abs(value - ref) <= 1e-13 * ref, (t, value, ref)

    def test_default_form_is_plain_erfcx(self):
        # T3's factor and every default-form factor keep the bits of erfcx
        ts = np.geomspace(1e-14, 1e6, 81)
        got = ErfcxSqrtInvFactor(0.7).bounded_part(ts)
        assert got.tobytes() == sp.erfcx(2.0 * np.sqrt(0.7 / ts)).tobytes()

    @staticmethod
    def _psi(form, z):
        """psi(z) as the factor's docstring defines it, in mpmath."""
        erfcx, sqpi = mp.exp(z * z) * mp.erfc(z), mp.sqrt(mp.pi)
        return {
            "erfcx": erfcx,
            "T1": 1 - erfcx,
            "T2": 1 + erfcx,
            "T4": sqpi * ((2 * z * z - 1) * erfcx + 1) - 2 * z,
            "T5": 1 + 2 * z / sqpi + (1 - z * z) * erfcx,
        }[form]

    @pytest.mark.parametrize("form", ["erfcx", "T1", "T2", "T4", "T5"])
    @pytest.mark.parametrize("zs, bound", [
        (np.geomspace(1e-8, 0.999, 121), 4e-15),  # T1's and T4's cancellation-free branch
        (np.geomspace(1.0, 60.0, 121), 5e-14),  # T4 subtracts 2z from sqrt(pi) (2z^2 - 1) erfcx z
    ], ids=["below-one", "from-one"])
    def test_forms_against_mpmath(self, form, zs, bound):
        # every psi is positive, and its closed form at 60 digits absorbs the
        # cancellation the float branches avoid
        amount = 0.37
        ts = 4.0 * amount / zs**2
        got = ErfcxSqrtInvFactor(amount, form).bounded_part(ts)
        with mp.workdps(60):
            for t, value in zip(ts, got):
                ref = self._psi(form, 2 * mp.sqrt(mp.mpf(amount) / mp.mpf(t)))
                assert ref > 0 and abs(value - ref) <= bound * ref, (t, value, ref)

    def test_t4_series_below_one(self):
        # psi_4 = sqrt(pi) sum_(k>=2) (k-1) (-z)^k / Gamma(k/2 + 1), so
        # psi_4 ~ sqrt(pi) z^2 with no cancellation as z -> 0
        ts = 4.0 / np.geomspace(1e-150, 0.999, 61) ** 2
        got = ErfcxSqrtInvFactor(1.0, "T4").bounded_part(ts)
        with mp.workdps(40):
            for t, value in zip(ts, got):
                z = 2 / mp.sqrt(mp.mpf(t))
                ref = mp.sqrt(mp.pi) * mp.fsum((k - 1) * (-z) ** k / mp.gamma(k / mp.mpf(2) + 1)
                                               for k in range(2, 120))
                assert abs(value - ref) <= 4e-15 * ref, (z, value, ref)


def _g1_kummer_pairs() -> list[tuple[float, float]]:
    """(A, B) of every G1_GRID triple, as the G1 rule builds them, plus the
    Yukawa pair's (1, 2)."""
    rule = get_rule("G1-general")
    pairs = {(1.0, 2.0)}
    for n, m, nu, h in G1_GRID:
        factor = rule.build_kernel(Params(n, m, nu, a=1.0, b=0.5, c=1.0, h=h))[0].special
        pairs.add((factor.a, factor.b))
    return sorted(pairs)


class TestKummerFactor:
    """1F1(A; B; -w), w = shift/t + h, from w = 0 to past 1e160."""

    _TS = np.concatenate([np.geomspace(1e-160, 1e160, 81), [0.999e-5, 1.001e-5]])

    @pytest.mark.parametrize("a, b", _g1_kummer_pairs())
    def test_against_mpmath(self, a, b):
        with mp.workdps(30):
            for shift, h in itertools.product((0.0, 0.05, 1.0, 10.0), (0.0, 0.25, 3.0)):
                got = KummerFactor(a, b, shift, h).bounded_part(self._TS)
                for t, value in zip(self._TS, got):
                    ref = mp.hyp1f1(a, b, -(mp.mpf(shift) / mp.mpf(t) + mp.mpf(h)))
                    assert abs(value - ref) <= 1e-13 * ref, (shift, h, t, value, ref)

    # the Yukawa pair's (1, 2), the pairs where scipy 1.17's hyp1f1(A, B, -w)
    # is NaN on part of w in [5.5e10, 1e16), and larger A and B
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (1.0, 10.5), (1.0, 20.0), (1.5, 15.5),
                                      (1.5, 20.0), (2.5, 6.0), (6.0, 10.5), (12.0, 80.0)])
    def test_series_from_1e5(self, a, b):
        # rows below w = 1e5 keep scipy's bits; from there on, six terms of
        # DLMF 13.7.2's series are within 1e-15 of mpmath wherever the value
        # is a normal double (w**-A alone may underflow there); w runs from
        # 1e3 to 1e100, 21 rows of it within 2 % of 1e5
        ts = np.union1d(np.geomspace(1e-3, 1e-100, 197), np.geomspace(0.98e-5, 1.02e-5, 21))
        w = 1.0 / ts  # the factor's own w, at shift 1 and h 0
        got = KummerFactor(a, b, 1.0, 0.0).bounded_part(ts)
        low = w < 1e5
        assert got[low].tobytes() == sp.hyp1f1(a, b, -w[low]).tobytes()
        checked = 0
        with mp.workdps(30):
            for wi, value in zip(w[~low], got[~low]):
                ref = mp.hyp1f1(a, b, -mp.mpf(wi))
                if ref >= np.finfo(float).tiny:
                    assert abs(value - ref) <= 1e-15 * ref, (wi, value, ref)
                    checked += 1
        assert low.sum() > 10 and checked > 40

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.floats(0.5, 12.0).flatmap(
               lambda a: st.tuples(st.just(a), st.floats(a, 80.0, exclude_min=True))),
           st.floats(0.0, 300.0))
    def test_in_the_unit_interval(self, ab, log10_w):
        # both regimes, for A in [0.5, 12], B in (A, 80] and w log-uniform on
        # [1, 1e300]: h = w and shift 0 hand the factor w exactly
        a, b = ab
        value = KummerFactor(a, b, 0.0, 10.0**log10_w).bounded_part(np.array([1.0]))[0]
        assert 0.0 <= value <= 1.0, (a, b, log10_w, value)

    def test_live_rows_stay_below_the_series(self, monkeypatch):
        # the reductions of every seed-42 and seed-0 sweep draw of N1-N6 and
        # G1-general, and G1 on Yukawa pairs spanning the physics workload's
        # ranges, hand the factor no live row at w >= 5e4: scipy's hyp1f1
        # computes every row of the sweep reports and the benchmark
        ids = [rule.id for rule in list_rules(include_erratum=False)]
        highest = {}
        bounded_part = KummerFactor.bounded_part

        def spy(factor, t):
            w = factor.shift / t + factor.h
            highest[where] = max(highest.get(where, 0.0), float(np.max(w)))
            return bounded_part(factor, t)

        monkeypatch.setattr(KummerFactor, "bounded_part", spy)
        rules = [rule for rule in list_rules(include_erratum=False)
                 if rule.id[0] == "N" or rule.id == "G1-general"]
        for seed, rule, case_index in itertools.product((42, 0), rules, range(20)):
            where = rule.id
            params, f = _case_inputs(rule, seed, ids.index(rule.id), case_index)
            rule.reduce_to_1d(params, f)
        etas = (0.4, 1.0, 2.0, 3.0)
        for eta1, eta2, x2 in itertools.product(etas, etas, (0.2, 1.0, 3.0)):
            if eta1 != eta2:
                where = "yukawa"
                applications.yukawa_pair_reduced(YukawaPairSpec(eta1, eta2, x2))
        assert set(highest) == {"yukawa", "G1-general", "N1-133", "N2-333", "N3-033",
                                "N4-122", "N5-222"}, highest
        assert max(highest.values()) < 5e4, highest


class TestFourierErfiFactor:
    def test_matches_raw_erfi_formula(self):
        # at moderate t the naive erfi expression is representable; the
        # Faddeeva-based factor, times the exponentials its term carries,
        # must reproduce it
        k, chi, e1, e2, x2 = 1.3, 0.4, 1.0, 0.7, 0.9
        factor = FourierErfiFactor(k, chi, e1, e2, x2)
        beta, gamma = x2 * x2, e2 * e2 / 4.0  # the whole Gaussian decay, the common cut-off
        assert (factor.beta, factor.gamma) == pytest.approx((beta, gamma), rel=1e-15, abs=0)
        g = (e1 * e1 - e2 * e2) / 4.0
        d = k * k / 4.0
        for t in (0.3, 1.0, 2.0):
            zp = (1j * chi * t + g + d) / (k * math.sqrt(t))
            zm = (1j * chi * t + g - d) / (k * math.sqrt(t))
            with mp.workdps(30):
                erfi_diff = complex(mp.erfi(zp) - mp.erfi(zm))
            naive = (
                math.exp(-e2 * e2 / (4 * t) - x2 * x2 * t)
                * np.exp(-zp * zp)
                * erfi_diff
            )
            mine = math.exp(-beta * t - gamma / t) * factor.bounded_part(np.array([t]))[0]
            assert mine == pytest.approx(naive, rel=1e-11, abs=0)

    def test_finite_everywhere(self):
        factor = FourierErfiFactor(2.0, -1.5, 1.0, 2.0, 1.0)
        ts = np.geomspace(1e-150, 1e150, 120)
        vals = factor.bounded_part(ts)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("args", [
        (2.0, -1.5, 1.0, 2.0, 1.0),
        (1.3, 0.4, 1.0, 0.7, 0.9),
        (0.5, 4.0, 1.0, 0.6, 8.0),  # |chi| = k x2, colinear
        (0.5, -4.0, 0.7, 1.8, 8.0),
        (1e-3, 0.0, 0.5, 0.5, 3.0),
    ])
    def test_bounded_everywhere(self, args):
        # every exponent has a real part <= 0 once the term's exponentials
        # are out, so each Faddeeva term is at most 1 in magnitude
        vals = FourierErfiFactor(*args).bounded_part(np.geomspace(1e-150, 1e150, 120))
        assert np.all(np.abs(vals) <= 2.0)

    def test_dead_rows_are_real_zeros(self):
        # no live term at t = 1e-6: the factor is not called, and the
        # kernel's values turn complex only where a complex term adds in
        factor = FourierErfiFactor(1.3, 0.4, 1.0, 0.7, 0.9)
        terms = [KernelTerm(1.0, -2.5, beta=factor.beta, gamma=factor.gamma, special=factor)]
        dead = eval_kernel_with_f(terms, TestIntegrand(1.0, 1.5, 0.0), np.array([1e-6]))
        assert dead.dtype == np.float64 and dead[0] == 0.0
        both = eval_kernel_with_f(terms, TestIntegrand(1.0, 1.5, 0.0), np.array([1e-6, 1.0]))
        assert both.dtype == np.complex128 and both[0] == 0.0 and both[1] != 0.0


def _reference_erfi_bounded_part(factor: FourierErfiFactor, t: np.ndarray) -> np.ndarray:
    """FourierErfiFactor.bounded_part as it was before it branched once per
    call: each of z- and z+ by itself, the reflection w(z) = 2 exp(-z^2) - w(-z)
    chosen row by row by a mask on Im z.  A reflected row is -exp(expo) w(-z):
    its 2 exp(expo - z^2) is the same in both rows and cancels from their
    difference.  The term carries the factor's beta, the whole decay
    x2^2, so a row's exponent is its real cut-off alone, and z-'s phase
    e^(-i chi) multiplies its row."""
    k, chi, gamma = factor.k, factor.chi, factor.gamma
    assert factor.beta == factor.x2 * factor.x2
    g = (factor.eta1**2 - factor.eta2**2) / 4.0
    d = k * k / 4.0
    rt = np.sqrt(t)
    zp = (1j * chi * t + (g + d)) / (k * rt)
    zm = (1j * chi * t + (g - d)) / (k * rt)
    cut1, cut2 = factor.eta1**2 / 4.0 - gamma, factor.eta2**2 / 4.0 - gamma

    def stable_term(z, cut):
        out = np.zeros(z.shape, dtype=complex)
        up = z.imag >= 0.0
        out[up] = np.exp(-cut / t[up]) * sp.wofz(z[up])
        dn = ~up
        if dn.any():
            out[dn] = -(np.exp(-cut / t[dn]) * sp.wofz(-z[dn]))
        return out

    return 1j * (stable_term(zm, cut1) * cmath.exp(-1j * chi) - stable_term(zp, cut2))


class TestFourierErfiKeepsItsBits:
    """One (2, n) pass branched on the sign of chi gives the masked reference's bits."""

    @pytest.mark.parametrize("args", [
        (1.3, 0.4, 1.0, 0.7, 0.9),    # chi > 0
        (1.3, -0.4, 1.0, 0.7, 0.9),   # chi < 0
        (1.3, 0.0, 1.0, 0.7, 0.9),    # chi = 0
        (1.3, -0.0, 0.7, 1.0, 0.9),   # chi = -0, eta1 < eta2
        (1.0, 0.5, 1.0, 1.0, 1.0),    # eta1 = eta2: both cuts are 0
        (1.0, -0.5, 1.0, 1.0, 1.0),
        (0.5, 4.0, 1.0, 0.6, 8.0),    # |chi| = k x2, colinear
        (0.5, -4.0, 0.7, 1.8, 8.0),
        (2.0, -1.5, 1.0, 2.0, 1.0),
    ])
    def test_bitwise_equal(self, args):
        factor = FourierErfiFactor(*args)
        with np.errstate(all="ignore"):  # as under the evaluator
            got = factor.bounded_part(_T_GRID)
            want = _reference_erfi_bounded_part(factor, _T_GRID)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRInnerFactor:
    def test_matches_closed_form_without_quadratic(self):
        # with n = m = 4, nu = 0 and j = h = 0, J = t (1 - e^-(a-b)/t)/(a - b)
        a, b = 1.2, 0.5
        factor = RInnerFactor(4, 4, 0, a, b, 0.0, 0.0)
        for t in (0.2, 1.0, 4.0):
            expected = t * -math.expm1(-(a - b) / t) / (a - b)
            assert factor.bounded_part(np.array([t]))[0] == pytest.approx(expected, rel=1e-10, abs=0)

    def test_early_exit_deep_t(self, monkeypatch):
        # e^(-b/t) underflows at t = 1e-10: the evaluator's dead-row test
        # drops the row before the factor sees it
        rows = []
        bounded_part = RInnerFactor.bounded_part

        def spy(self, t):
            rows.append(t.copy())
            return bounded_part(self, t)

        monkeypatch.setattr(RInnerFactor, "bounded_part", spy)
        params = Params(4, 4, 0, a=1.0, b=0.5, j=1.0)
        w = get_rule("R1-rint").kernel_weight(params, np.array([1e-10, 1.0]))
        assert w[0] == 0.0 and w[1] > 0.0
        assert [list(t) for t in rows] == [[1.0]]

    def test_bounded_by_the_beta_function(self):
        # every part of J's exponent is <= 0, so |J| <= B(pr + 1, ps + 1)
        ts = np.geomspace(1e-3, 1e6, 120)
        for (n, m, nu), (a, b, h, j) in itertools.product(R1_GRID, _R1_CORNERS):
            bound = sp.beta((n + nu) / 2.0 - 1.0, (m + nu) / 2.0 - 1.0)
            got = RInnerFactor(n, m, nu, a, b, h, j).bounded_part(ts)
            assert np.all(np.abs(got) <= bound * (1.0 + 1e-12)), ((n, m, nu), (a, b, h, j))

    def test_kernel_weight_runs_one_integrate_interval_batch(self, monkeypatch):
        results = []

        def spy(integrand, tol=None, *, rows=None):
            assert rows is not None  # a row batch: each t row judged by its share
            results.append(integrate_interval(integrand, tol, rows=rows))
            return results[-1]

        monkeypatch.setattr(kernels, "integrate_interval", spy)
        params = Params(4, 2, 1, a=1.2, b=0.5, h=0.3, j=0.7)
        ts = np.array([0.1, 1.0, 10.0])
        w = get_rule("R1-rint").kernel_weight(params, ts)
        assert len(results) == 1
        assert results[0].converged
        assert results[0].value.shape == ts.shape
        # one evaluation per (t row, s node)
        assert results[0].evaluations % len(ts) == 0
        assert np.all(np.isfinite(w)) and np.all(w > 0.0)


# The R1 sampler's ranges: a log-uniform on [0.1, 10], b = a*U(0.05, 0.85),
# h and j log-uniform on [0.1, 3].
_R1_EDGE_TS = (1e-3, 1e-1, 1.0, 10.0, 1e3)
_R1_CORNERS = [
    (a, a * ratio, h, j)
    for a, ratio, h, j in itertools.product((0.1, 10.0), (0.05, 0.85), (0.1, 3.0), (0.1, 3.0))
]


def _r1_weight_reference(params: Params, t: float) -> complex:
    """R1's weight at c = 0: t**(-m/2) times the inner integral over r in
    [0, 1/t], by mpmath at 30 digits."""
    with mp.workdps(30):
        pr = mp.mpf(params.n + params.nu) / 2 - 2
        ps = mp.mpf(params.m + params.nu) / 2 - 2
        a, b, j, h, t = (mp.mpf(params.a), mp.mpf(params.b), mp.mpf(params.j),
                         mp.mpc(params.h), mp.mpf(t))

        def integrand(r):
            return (r**pr * (1 - r * t) ** ps
                    * mp.exp(-b / t + j * r * r * t - r * (a - b + j) - r * h * t))

        hi = 1 / t
        # split points keep the mass near r = 0 resolved when 1/t is long;
        # past degree 4 the nodes at r = 1/t only add 30-digit rounding noise
        value, error = mp.quad(integrand, [0, hi / 10_000, hi / 100, hi / 2, hi],
                               error=True, maxdegree=4)
        assert error <= 1e-16 * max(1, abs(value))
        return complex(t ** (-mp.mpf(params.m) / 2) * value)


def _assert_weight_matches_mpmath(params: Params) -> None:
    """The catalog's R1 weight, the factor with its term's power and cut-off."""
    assert params.c == 0.0
    got = get_rule("R1-rint").kernel_weight(params, np.array(_R1_EDGE_TS))
    for t, value in zip(_R1_EDGE_TS, got):
        ref = _r1_weight_reference(params, t)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (params, t, value, ref)


def _r_inner_batch(monkeypatch, factor: RInnerFactor, ts: np.ndarray, columns=None):
    """factor.bounded_part(ts), and the integrand, tol and rows of its one
    integrate_interval call; columns, if given, collects each call's t column."""
    batch = {}

    def spy(integrand, tol=None, *, rows):
        batch.update(integrand=integrand, tol=tol, rows=rows)

        def seen(col, x):
            columns.append(col)
            return integrand(col, x)

        return integrate_interval(integrand if columns is None else seen, tol, rows=rows)

    monkeypatch.setattr(kernels, "integrate_interval", spy)
    return factor.bounded_part(ts), batch


class TestRInnerRowRetirement:
    """R1's sigma-batch is a row batch: its rows retire as the oracle's inner
    rows do (see quadrature._drive)."""

    TS = np.geomspace(1e-3, 1e6, 120)

    def test_later_calls_get_a_narrower_read_only_column(self, monkeypatch):
        columns = []
        _r_inner_batch(monkeypatch, RInnerFactor(4, 2, 1, 10.0, 0.5, 0.1, 0.1), self.TS, columns)
        # the fused head of levels 0-3 takes every t row, a later level the live ones
        assert np.array_equal(columns[0][:, 0], self.TS)
        assert len(columns) > 1
        for before, col in zip(columns, columns[1:]):
            assert not col.flags.writeable
            assert 0 < len(col) < len(self.TS) and len(col) <= len(before)
            assert np.isin(col[:, 0], before[:, 0]).all()

    def test_within_the_batch_bound_of_the_unretired_batch(self, monkeypatch):
        for (n, m, nu), (a, b, h, j) in itertools.product(R1_GRID, _R1_CORNERS):
            got, batch = _r_inner_batch(monkeypatch, RInnerFactor(n, m, nu, a, b, h, j), self.TS)
            col, log2_share = batch["rows"]
            # the batch that keeps every row: a plain (rows, n) batch with each
            # row's share, 2**floor(log2_share) in the normal range, multiplied in
            share = np.ldexp(1.0, np.clip(np.floor(log2_share), -1022, 1023).astype(int))
            full = integrate_interval(lambda x: batch["integrand"](col, x) * share[:, None],
                                      batch["tol"])
            assert full.converged
            # within the batch's tolerance at its largest scaled row
            bound = kernels._R_INNER_TOL.rel * np.abs(full.value).max()
            assert np.all(np.abs(got - full.value / share) * share <= bound), (n, m, nu, a, b, h, j)


class TestRInnerFactorPointwise:
    """J(t) itself against a 40-digit mp.quad of its sigma-integral."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 13: a row of J is accurate relative to its batch's "
        "largest scaled row, not to itself (3.9e-8 off here)",
    )
    def test_small_row_within_1e_12_relative(self):
        n, m, nu, a, b, h, j, t = 4, 2, 1, 10.0, 0.5, 0.1, 0.1, 1e-3
        got = RInnerFactor(n, m, nu, a, b, h, j).bounded_part(np.array([t]))[0]
        with mp.workdps(40):
            pr, ps = mp.mpf(n + nu) / 2 - 2, mp.mpf(m + nu) / 2 - 2
            slope, j, h, t = mp.mpf(a - b), mp.mpf(j), mp.mpf(h), mp.mpf(t)

            def integrand(s):
                # a >= b, so s' = s; the mass sits within ~t/(a - b) of s = 0
                return s**pr * (1 - s) ** ps * mp.exp(-(slope * s + j * s * (1 - s)) / t - h * s)

            ref = mp.quad(integrand, [0] + [mp.mpf(10) ** -k for k in range(8, 0, -1)] + [1])
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


class TestRInnerFactorEdges:
    """One batched weight call over t in 1e-3..1e3 against mpmath."""

    @pytest.mark.parametrize("triple", R1_GRID)
    def test_sampler_edges(self, triple):
        # every corner for (4,2,1), whose (1 - r t)**-1/2 sits at the moving
        # endpoint r = 1/t; the two extreme corners for the other triples
        corners = _R1_CORNERS if triple == (4, 2, 1) else [_R1_CORNERS[0], _R1_CORNERS[-1]]
        for a, b, h, j in corners:
            _assert_weight_matches_mpmath(Params(*triple, a=a, b=b, h=h, j=j))

    def test_imaginary_h_fourier_route(self):
        params = dataclasses.replace(fourier_params(FourierSpec(1.0, 0.4, 1.0, 0.7, 0.9)), c=0.0)
        factor = RInnerFactor(params.n, params.m, params.nu,
                              params.a, params.b, params.h, params.j)
        assert complex(factor.h).real == 0.0
        assert np.iscomplexobj(factor.bounded_part(np.array([1.0])))
        _assert_weight_matches_mpmath(params)

