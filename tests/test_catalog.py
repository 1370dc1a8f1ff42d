"""Registry contracts, applicability predicates, kernel weights, floors."""

import collections
import dataclasses
import functools
import itertools
import json
import math
import types

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from quadred.catalog import (
    ApplicabilityError,
    Family,
    RULES,
    _pq_kernel,
    get_rule,
    list_rules,
)
from quadred.kernels import (
    BesselKFactor,
    ErfcxSqrtInvFactor,
    KernelError,
    KernelTerm,
    KummerFactor,
    eval_kernel,
    eval_kernel_with_f,
)
from quadred.params import DivergentIntegralError, Params, TestIntegrand, mu_floor
from quadred.quadrature import integrate_half_line
from quadred.reducer import _SHIFT_SEARCH, _case_inputs, direct_2d, normalize, shift_power, verify

SQPI = math.sqrt(math.pi)


class TestRegistry:
    def test_size_and_uniqueness(self):
        ids = [r.id for r in RULES]
        assert len(ids) >= 20
        assert len(set(ids)) == len(ids)

    def test_stable_ordering(self):
        assert [r.id for r in list_rules()] == [r.id for r in list_rules()]
        assert list_rules()[0].id == "E1-pbm-corrected"

    def test_registry_order_pinned(self):
        # the sweep report lists records in this order
        assert [r.id for r in RULES] == [
            "E1-pbm-corrected", "E1-uncorrected-pbm", "E2-110", "E3-m110", "E4-1m12",
            "E5-1m54", "K1-111", "K2-220", "K3-0m44", "K4-1m33", "K5-1m75", "K6-m111",
            "K7-m311", "N1-133", "N2-333", "N3-033", "N4-122", "N5-222", "N6-aeqb",
            "T1-nu0", "T1-nu1", "T1-nu2", "T2-nu0", "T2-nu1", "T2-nu2",
            "T3-nu0", "T3-nu1", "T3-nu2", "T4-nu0", "T4-nu1", "T4-nu2",
            "T5-nu0", "T5-nu1", "T5-nu2", "G1-general", "R1-rint",
        ]

    def test_contains_expected_entries(self):
        ids = {r.id for r in RULES}
        assert "E1-pbm-corrected" in ids
        assert "E1-uncorrected-pbm" in ids
        assert "K1-111" in ids
        assert get_rule("E1-pbm-corrected").triple == (0, 0, 1)
        assert get_rule("K1-111").triple == (1, 1, 1)

    def test_erratum_flagged(self):
        erratum = get_rule("E1-uncorrected-pbm")
        assert erratum.erratum
        assert not erratum.trusted
        assert all(not r.erratum for r in list_rules(include_erratum=False))

    def test_family_fixes_the_pattern(self):
        expected = {
            Family.POSITIVE_EXP: "pq", Family.INVERSE_EXP: "abc", Family.MIXED_TILDE: "abc",
            Family.GENERAL_H: "abch", Family.R_INTEGRAL: "abchj",
        }
        for rule in RULES:
            assert rule.pattern == frozenset(expected[rule.family]), rule.id

    def test_trusted_is_not_erratum(self):
        assert len(RULES) == 36
        for rule in RULES:
            assert rule.trusted == (not rule.erratum), rule.id

    def test_only_n6_overrides_its_family(self):
        overriding = [r.id for r in RULES if r.extra_predicate or r.sample]
        assert overriding == ["N6-aeqb"]

    def test_family_filter(self):
        inverse = list_rules("inverse-exp")
        assert {r.id for r in inverse} == {
            "N1-133", "N2-333", "N3-033", "N4-122", "N5-222", "N6-aeqb",
        }

    def test_no_free_p_in_constrained_family(self):
        # the constrained-exponential family exists only with the pinned
        # 2-D factor; no rule carries an independent p there
        for rule in list_rules(Family.MIXED_TILDE):
            assert "p" not in rule.pattern
            assert "q" not in rule.pattern

    def test_descriptors_serialize(self):
        doc = json.dumps([r.descriptor() for r in RULES])
        rows = json.loads(doc)
        assert len(rows) == len(RULES)
        assert {"id", "family", "triple", "coefficient_pattern", "description"} <= set(rows[0])

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_rule("Z9-nope")


class TestExactTriples:
    @pytest.mark.parametrize("family", list(Family), ids=lambda fam: fam.value)
    def test_one_rule_per_exact_triple(self, family):
        # within a family an exact triple names at most one non-erratum rule
        triples = [r.triple for r in list_rules(family, include_erratum=False)
                   if r.triple is not None]
        assert len(triples) == len(set(triples))

    def test_same_triple_across_families(self):
        # the same triple under the constrained family is a different rule
        def named(triple, family):
            return [r.id for r in list_rules(family, include_erratum=False)
                    if r.triple == triple]

        assert named((1, 2, 2), Family.INVERSE_EXP) == ["N4-122"]
        assert named((1, 2, 2), Family.MIXED_TILDE) == ["T1-nu2"]


class TestApplicability:
    def test_requires_positive_p(self):
        rule = get_rule("E1-pbm-corrected")
        assert rule.applicability_failure(Params(0, 0, 1, p=0.0, q=1.0)) == "requires p>0"
        with pytest.raises(ApplicabilityError, match="requires p>0"):
            rule.kernel_weight(Params(0, 0, 1, p=0.0, q=1.0), 1.0)

    def test_pattern_enforced(self):
        rule = get_rule("E1-pbm-corrected")
        reason = rule.applicability_failure(Params(0, 0, 1, p=1.0, q=1.0, a=0.5))
        assert reason is not None and "a=0" in reason

    def test_triple_enforced(self):
        rule = get_rule("K1-111")
        reason = rule.applicability_failure(Params(2, 2, 0, p=1.0, q=1.0))
        assert "triple" in reason

    def test_inverse_family_needs_a_gt_b(self):
        rule = get_rule("N5-222")
        assert rule.applicability_failure(Params(2, 2, 2, a=1.0, b=1.0, c=1.0)) == "requires a>b"

    def test_general_h_predicates(self):
        g1 = get_rule("G1-general")
        assert g1.applicability_failure(Params(1, 1, 3, a=1.0, b=0.5, c=1.0)) is None
        # a = b at h = 0 included: the Kummer factor is exactly 1 there
        assert g1.applicability_failure(Params(1, 1, 3, a=1.0, b=1.0, c=1.0)) is None
        assert g1.applicability_failure(Params(1, 1, 3, a=1.0, b=1.0, c=1.0, h=0.5)) is None
        assert g1.applicability_failure(Params(1, 1, 0, a=1.0, b=0.5, c=1.0)) == "requires m+nu>2"
        assert g1.applicability_failure(Params(1, 1, 3, a=0.5, b=1.0, c=1.0)) is not None

    @pytest.mark.parametrize("rule_id, coeffs", [
        *((rule_id, {"a": 1.0, "b": 0.5, "c": 1.0})
          for rule_id in ("N1-133", "N2-333", "N3-033", "N4-122", "N5-222")),
        ("N6-aeqb", {"a": 1.0, "b": 1.0, "c": 1.0}),
        ("G1-general", {"a": 1.0, "b": 0.5, "c": 1.0, "h": 0.5}),
    ])
    def test_gamma_ratio_is_finite_wherever_applicable(self, rule_id, coeffs):
        # the gamma ratio calls scipy's gamma bare, which returns inf or NaN
        # at a pole without raising: applicability alone keeps its arguments
        # positive, for every triple a rule accepts
        rule, accepted = get_rule(rule_id), 0
        for n in range(-4, 9):
            for m in range(-4, 9):
                for nu in range(-4, 9):
                    params = Params(n, m, nu, **coeffs)
                    if rule.applicability_failure(params) is not None:
                        continue
                    accepted += 1
                    assert min(m + nu - 2, n + nu - 2, m + n + 2 * nu - 4) > 0, params
                    coeff = rule.build_kernel(params)[0].coeff
                    assert math.isfinite(coeff) and coeff > 0.0, (params, coeff)
        assert accepted > 0


class TestKernelWeights:
    def test_corrected_product_form(self):
        params = Params(0, 0, 1, p=1.0, q=1.0)
        val = get_rule("E1-pbm-corrected").kernel_weight(params, 0.25)
        assert val == pytest.approx(2.0 * SQPI * math.exp(-1.0), rel=1e-12, abs=0)

    def test_macdonald_weight(self):
        import scipy.special as sp

        params = Params(1, 1, 1, p=1.0, q=1.0)
        val = get_rule("K1-111").kernel_weight(params, 1.0)
        assert val == pytest.approx(2.0 * math.exp(-2.0) * sp.kv(0, 2.0), rel=1e-12, abs=0)

    def test_nan_t_rejected(self):
        params = Params(1, 1, 1, p=1.0, q=2.0)
        with pytest.raises(KernelError):
            get_rule("K1-111").kernel_weight(params, math.nan)
        with pytest.raises(KernelError):
            get_rule("K1-111").kernel_weight(params, np.array([1.0, math.nan]))

    def test_infinite_t_rejected(self):
        # 0 * inf inside the kernel would warn and return 0
        params = Params(0, 0, 1, p=1.0, q=1.0)
        with pytest.raises(KernelError, match="finite t > 0"):
            get_rule("E1-pbm-corrected").kernel_weight(params, math.inf)
        with pytest.raises(KernelError, match="finite t > 0"):
            get_rule("E1-pbm-corrected").kernel_weight(params, np.array([1.0, math.inf]))

    def test_split_exponential_weight(self):
        params = Params(2, 2, 2, a=2.0, b=1.0, c=0.0)
        val = get_rule("N5-222").kernel_weight(params, 1.0)
        assert val == pytest.approx(math.exp(-1.0) - math.exp(-2.0), rel=1e-12, abs=0)

    def test_n5_weight_and_description_carry_t_to_the_minus_one(self):
        # the paper's display carries t^-3/2, which is 0.71, 1.41 and 2.83
        # times the weight at these t
        a, b, c = 2.0, 1.0, 0.3
        rule = get_rule("N5-222")
        ts = np.array([0.5, 2.0, 8.0])
        got = rule.kernel_weight(Params(2, 2, 2, a=a, b=b, c=c), ts)
        want = (np.exp(-b / ts) - np.exp(-a / ts)) * np.exp(-c * ts) / ((a - b) * ts)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        assert "(a-b)^-1 t^-1 (e^-b/t - e^-a/t)" in rule.description

    def test_uncorrected_ratio(self):
        p, q = 1.0, 4.0
        corrected = get_rule("E1-pbm-corrected").kernel_weight(Params(0, 0, 1, p=p, q=q), 0.7)
        wrong = get_rule("E1-uncorrected-pbm").kernel_weight(Params(0, 0, 1, p=p, q=q), 0.7)
        ratio = 1.0 / ((math.sqrt(p) + math.sqrt(q)) * math.sqrt(p + q))
        assert wrong / corrected == pytest.approx(ratio, rel=1e-12, abs=0)


# below this a weight is compared only by the other weight's size
LIVE = 1e-290
N_RULES = ["N1-133", "N2-333", "N3-033", "N4-122", "N5-222"]
SPLIT_RULES = [rule_id for rule_id in N_RULES if rule_id != "N4-122"]
N_T = np.logspace(-3.0, 3.0, 25)
FLOAT = types.SimpleNamespace(num=float, exp=np.exp, sqrt=np.sqrt, erf=sp.erf, erfcx=sp.erfcx,
                              pi=math.pi)
MPMATH = types.SimpleNamespace(num=mp.mpf, exp=mp.exp, sqrt=mp.sqrt, erf=mp.erf,
                               erfcx=lambda x: mp.exp(x * x) * mp.erfc(x), pi=mp.pi)


def n_display(rule_id: str, params: Params, t, lib):
    """The tabulated N1-N5 weight, as displayed, in lib's arithmetic;
    N5's at t^-1, not its display's t^-3/2 (see the catalog's registry)."""
    a, b, c = (lib.num(v) for v in (params.a, params.b, params.c))
    d = a - b
    ea, eb = lib.exp(-c * t - a / t), lib.exp(-c * t - b / t)
    if rule_id == "N1-133":
        return d**-2 * t**-1.5 * (t * ea - (b - a + t) * eb)
    if rule_id == "N2-333":
        return d**-3 * t**-1.5 * ((d - 2 * t) * eb + (d + 2 * t) * ea)
    erf = lib.erf(lib.sqrt(d / t))
    if rule_id == "N3-033":
        return d**-1.5 * t**-1.5 * (lib.sqrt(lib.pi) * (d - t / 2) * eb * erf
                                    + lib.sqrt(t * d) * ea)
    if rule_id == "N4-122":
        return lib.sqrt(lib.pi / d) / t * eb * erf
    assert rule_id == "N5-222"
    return (eb - ea) / (d * t)


def t_display(rule_id: str, params: Params, t, lib):
    """The tabulated T1-T5 weight, the sum of its displayed terms, in lib's
    arithmetic: e^(-ct - (b + 2(a-b))/t) times coeff t^power, times
    erfcx(2 sqrt((a-b)/t)) where flagged, for each row.  T2's and T5's rows
    carry the halved coefficients and T4's the re-derived powers that the
    2-D oracle confirms (see the catalog's registry)."""
    a, b, c = (lib.num(v) for v in (params.a, params.b, params.c))
    nu = params.nu
    d = a - b
    sqpi = lib.sqrt(lib.pi)
    half, whole, cube = sqpi / (2 * lib.sqrt(d)), sqpi / lib.sqrt(d), sqpi / (4 * d**1.5)
    rows = {  # (coeff, power, erfcx flag) of each displayed term
        "T1": [(half, (nu - 4) / 2, False), (-half, (nu - 4) / 2, True)],
        "T2": [(half, (nu - 2) / 2, False), (half, (nu - 2) / 2, True)],
        "T3": [(whole, (nu - 4) / 2, True)],
        "T4": [(2 * whole, (nu - 6) / 2, True), (-cube, (nu - 4) / 2, True),
               (cube, (nu - 4) / 2, False), (-1 / d, (nu - 5) / 2, False)],
        "T5": [(cube, nu / 2, False), (cube, nu / 2, True),
               (1 / d, (nu - 1) / 2, False), (-whole, (nu - 2) / 2, True)],
    }[rule_id[:2]]
    erfcx = lib.erfcx(2 * lib.sqrt(d / t))
    return lib.exp(-c * t - (b + 2 * d) / t) * sum(
        coeff * t**power * (erfcx if flagged else 1) for coeff, power, flagged in rows)


@functools.lru_cache(maxsize=None)
def n_weights(rule_id: str):
    """z = (a - b)/t, the catalog's weight and its float display, and the
    draws, at the sweep draws of seeds 42 and 0.

    Each of cases 0-19 of each seed is taken at each t of N_T.
    """
    rule = get_rule(rule_id)
    index = [r.id for r in list_rules(include_erratum=False)].index(rule_id)
    rows, draws = [], []
    for seed in (42, 0):
        for case_index in range(20):
            params, _ = _case_inputs(rule, seed, index, case_index)
            with np.errstate(under="ignore"):
                display = n_display(rule_id, params, N_T, FLOAT)
            rows.append(((params.a - params.b) / N_T, rule.kernel_weight(params, N_T), display))
            draws.append(params)
    return (*(np.concatenate(column) for column in zip(*rows)), draws)


def worst_rel_to_float_display(rule_id: str, region) -> float:
    """The largest |w - w_display|/|w| where region(z) holds and w is live.

    Where w is below LIVE the display must be below 1e-280.
    """
    z, w, display, _ = n_weights(rule_id)
    live = np.abs(w) >= LIVE
    assert np.all(np.abs(display[~live]) < 1e-280)
    chosen = live & region(z)
    assert chosen.sum() >= 50
    return float(np.max(np.abs(display[chosen] - w[chosen]) / np.abs(w[chosen])))


class TestG1ReducesToElementary:
    """N1-N5 weigh by G1-general's 1F1 term, which equals the paper's
    elementary N1-N5 displays.

    This is the paper's simplification, checked on the kernels the catalog
    evaluates against the displays, rather than on scalar Kummer identities.
    The displays subtract nearly equal terms once t >> a - b, so in floats
    they are the reference only where z = (a - b)/t >= 1; at 40 digits they
    are the reference everywhere.
    """

    @pytest.mark.parametrize("rule_id", N_RULES)
    def test_n_rules_build_g1s_term(self, rule_id):
        params = Params(*get_rule(rule_id).triple, a=1.0, b=0.4, c=0.7)
        assert get_rule(rule_id).build_kernel(params) == get_rule("G1-general").build_kernel(params)

    def test_erf_kernel_on_the_whole_grid(self):
        assert worst_rel_to_float_display("N4-122", np.isfinite) <= 1e-12

    @pytest.mark.parametrize("rule_id", SPLIT_RULES)
    def test_split_kernels_from_z_one(self, rule_id):
        assert worst_rel_to_float_display(rule_id, lambda z: z >= 1.0) <= 1e-12

    @pytest.mark.parametrize("rule_id", N_RULES)
    def test_displays_at_40_digits_on_the_whole_grid(self, rule_id):
        _, w, _, draws = n_weights(rule_id)
        with mp.workdps(40):
            ref = np.array([float(n_display(rule_id, params, mp.mpf(float(t)), MPMATH))
                            for params in draws for t in N_T])
        live = np.abs(ref) >= LIVE
        assert np.all(np.abs(w[~live]) < 1e-280)
        assert live.sum() >= 500
        assert np.max(np.abs(w[live] - ref[live]) / np.abs(ref[live])) <= 1e-12


TILDE_RULES = [rule.id for rule in list_rules(Family.MIXED_TILDE)]
T_T = np.logspace(-3.0, 6.0, 37)
# b = a(1 - g): the draw itself at g = 0, then on towards a = b
T_GAPS = (0.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


def _tilde_draws(rule_id: str, seeds=(42, 0), cases=range(20)):
    """(params, f) of the rule's sweep draws at each seed and case."""
    rule = get_rule(rule_id)
    index = [r.id for r in list_rules(include_erratum=False)].index(rule_id)
    return [_case_inputs(rule, seed, index, case_index) for seed in seeds for case_index in cases]


class TestTildeKernelsAreTheirDisplays:
    """T1-T5 weigh by one term, coeff t^alpha e^(-ct - (b + 2(a-b))/t) psi(z),
    which equals the sum of the tabulated terms.

    The tabulated T1 and T4 terms cancel once t >> a - b and as b -> a, so
    at 40 digits they are the reference everywhere; in floats, only where
    z = 2 sqrt((a-b)/t) >= 1.
    """

    @pytest.mark.parametrize("rule_id", TILDE_RULES)
    def test_one_term_with_the_tilde_cut_off(self, rule_id):
        params = Params(*get_rule(rule_id).triple, a=1.0, b=0.4, c=0.7)
        (term,) = get_rule(rule_id).build_kernel(params)
        assert (term.beta, term.gamma) == (0.7, 0.4 + 2.0 * 0.6)
        assert isinstance(term.special, ErfcxSqrtInvFactor)
        assert term.special.amount == 0.6
        assert term.special.form == ("erfcx" if rule_id.startswith("T3") else rule_id[:2])

    @pytest.mark.parametrize("rule_id", TILDE_RULES)
    def test_float_displays_from_z_one(self, rule_id):
        worst, chosen = 0.0, 0
        for params, _ in _tilde_draws(rule_id):
            w = get_rule(rule_id).kernel_weight(params, T_T)
            with np.errstate(under="ignore"):
                display = t_display(rule_id, params, T_T, FLOAT)
            pick = (np.abs(w) >= LIVE) & (2.0 * np.sqrt((params.a - params.b) / T_T) >= 1.0)
            chosen += pick.sum()
            worst = max(worst, np.max(np.abs(display[pick] - w[pick]) / w[pick], initial=0.0))
        assert chosen >= 50
        assert worst <= 1e-12

    @pytest.mark.parametrize("rule_id", TILDE_RULES)
    def test_displays_at_40_digits_towards_a_eq_b(self, rule_id):
        # seeds 42 and 0, cases 0, 4, 8, 12 and 16, each at every gap of
        # T_GAPS; the tabulated T4 is 5.4e-10 off at the draws
        rule, worst, live_count = get_rule(rule_id), 0.0, 0
        with mp.workdps(40):
            for draw, _ in _tilde_draws(rule_id, cases=range(0, 20, 4)):
                for g in T_GAPS:
                    params = dataclasses.replace(draw, b=draw.a * (1.0 - g)) if g else draw
                    w = rule.kernel_weight(params, T_T)
                    ref = np.array([float(t_display(rule_id, params, mp.mpf(float(t)), MPMATH))
                                    for t in T_T])
                    live = np.abs(ref) >= LIVE
                    assert np.all(np.abs(w[~live]) < 1e-280)
                    live_count += live.sum()
                    worst = max(worst, np.max(np.abs(w[live] - ref[live]) / ref[live], initial=0.0))
        assert live_count >= 1000
        assert worst <= 1e-12


PQ_RULES = [rule.id for rule in list_rules(Family.POSITIVE_EXP)]


def pq_rows(rule_id: str, p, q):
    """The tabulated pq weight of a rule as rows (coeff, power, order), in
    p's and q's arithmetic: coeff t^power e^(-(sqrt p + sqrt q)^2 t) where
    order is None, else coeff t^power e^(-(p+q)t) K_order(2 sqrt(pq) t).

    E3's display lacks the t^-1/2 that the m = 1 exponent implies, and its
    bracket coefficients are otherwise exact; the rows carry it.
    E1-uncorrected-pbm's row is the published coefficient, wrong by the
    factor 1/((sqrt p + sqrt q) sqrt(p+q)).
    """
    sqpi, sp, sq = mp.sqrt(mp.pi), mp.sqrt(p), mp.sqrt(q)
    return {
        "E1-pbm-corrected": [(sqpi * (sp + sq) / (sp * sq), 0.0, None)],
        "E1-uncorrected-pbm": [(sqpi / mp.sqrt(p * q * (p + q)), 0.0, None)],
        "E2-110": [(sqpi * (sp + sq) / (sp * sq), -0.5, None)],
        "E3-m110": [(sqpi * (sp + sq) ** 2 / (p * sq), 0.5, None),
                    (sqpi / (2 * p**1.5), -0.5, None)],
        "E4-1m12": [(sqpi / sq, -0.5, None)],
        "E5-1m54": [(sqpi / (2 * q**1.5), -0.5, None), (sqpi * sp / q, 0.5, None)],
        "K1-111": [(2, -0.5, 0)],
        "K2-220": [(2, -1.0, 0)],
        "K3-0m44": [(2 * sp / sq, 1.0, 1)],
        "K4-1m33": [(2 * sp / sq, 0.5, 1)],
        "K5-1m75": [(2 * p / q, 1.5, 2)],
        "K6-m111": [(2, 0.5, 0), (2 * sq / sp, 0.5, 1)],
        "K7-m311": [(2 * (p + q) / p, 1.5, 0), (4 * sq / sp, 1.5, 1), (2 * sq / p**1.5, 0.5, 1)],
    }[rule_id]


def pq_display(rule_id: str, p: float, q: float, t: float):
    """The tabulated pq weight at t, in mpmath at its working precision."""
    p, q, t = mp.mpf(p), mp.mpf(q), mp.mpf(t)
    return sum(c * t**power * (mp.exp(-(mp.sqrt(p) + mp.sqrt(q)) ** 2 * t) if order is None
                               else mp.exp(-(p + q) * t) * mp.besselk(order, 2 * mp.sqrt(p * q) * t))
               for c, power, order in pq_rows(rule_id, p, q))


def gr_sum(triple, p: float, q: float, t: float):
    """Gradshteyn and Ryzhik 3.471.9's sum for the pq weight, in mpmath:
    t^(1-(n+m+nu)/2) e^(-(p+q)t) sum_i C(k, i) 2 (p/q)^(v_i/2) K_(v_i)(2 sqrt(pq) t)
    over i = 0..k, k = 2 - (n+m+2nu)/2 and v_i = (n+nu)/2 - 1 + i."""
    n, m, nu = triple
    p, q, t = mp.mpf(p), mp.mpf(q), mp.mpf(t)
    k = 2 - (n + m + 2 * nu) // 2
    orders = [mp.mpf(n + nu - 2 + 2 * i) / 2 for i in range(k + 1)]
    return t ** (1 - mp.mpf(n + m + nu) / 2) * mp.exp(-(p + q) * t) * sum(
        mp.binomial(k, i) * 2 * (p / q) ** (v / 2) * mp.besselk(v, 2 * mp.sqrt(p * q) * t)
        for i, v in enumerate(orders))


# pq triples that no rule takes: normalize refuses each.  (4, -10, 0) has
# k = 5 and integer orders 1 to 6, (-3, -7, 0) k = 7 and half-integer
# orders up to 9/2, beyond every catalog rule's
REFUSED_PQ_TRIPLES = [(0, 0, 0), (-1, -1, 0), (2, -2, 1), (4, -10, 0), (-3, -7, 0)]


class TestPqKernel:
    """Every positive-exp rule weighs by _pq_kernel, G&R 3.471.9's sum for
    its triple, the erratum by that weight times its published error
    factor; test_kernels.TestMacdonaldTerms checks each against its
    display (pq_display)."""

    def test_terms_by_order(self):
        # half-integer orders: one exp term a power of t; integer orders:
        # one term, whose factor carries the K_0 and K_1 weights
        p, q = 1.3, 0.7
        kernels = {rule_id: get_rule(rule_id).build_kernel(Params(*get_rule(rule_id).triple,
                                                                   p=p, q=q))
                   for rule_id in PQ_RULES}
        assert {rule_id: len(terms) for rule_id, terms in kernels.items()} == {
            rule_id: 2 if rule_id in ("E3-m110", "E5-1m54") else 1 for rule_id in PQ_RULES}
        beta = (math.sqrt(p) + math.sqrt(q)) ** 2
        for rule_id, terms in kernels.items():
            if rule_id.startswith("E"):
                assert all(term.beta == beta and term.special is None for term in terms)
            else:
                assert terms[0].beta == p + q and isinstance(terms[0].special, BesselKFactor)

    @pytest.mark.parametrize("rule_id, coeff, alpha, weights", [
        ("K1-111", lambda p, q: 2.0, -0.5, ((1.0,), ())),
        ("K2-220", lambda p, q: 2.0, -1.0, ((1.0,), ())),
        ("K3-0m44", lambda p, q: 2.0 * math.sqrt(p / q), 0.0, ((), (1.0,))),
        ("K4-1m33", lambda p, q: 2.0 * math.sqrt(p / q), -0.5, ((), (1.0,))),
    ])
    def test_one_macdonald_function_keeps_its_arithmetic(self, rule_id, coeff, alpha, weights):
        # a weight of 1 at t^0 alone is k0(x) or x k1(x)/s, with the
        # display's coefficient in the term and K_1's pole t^-1 in alpha
        rule = get_rule(rule_id)
        for p, q in ((1.3, 0.7), (0.1, 10.0), (7.25, 0.375)):
            (term,) = rule.build_kernel(Params(*rule.triple, p=p, q=q))
            assert term == KernelTerm(coeff(p, q), alpha, beta=p + q,
                                      special=BesselKFactor(2.0 * math.sqrt(p * q), *weights))

    @pytest.mark.parametrize("rule_id", [rule_id for rule_id in PQ_RULES
                                         if rule_id != "E1-uncorrected-pbm"])
    def test_against_the_sum_at_40_digits(self, rule_id):
        # 6 log-uniform (p, q) on [0.1, 10]; beyond t = 3.7 the rounding of
        # exp's argument (p+q)t, up to about 1500, dominates
        rng = np.random.default_rng(27)
        triple = get_rule(rule_id).triple
        ts = np.concatenate([np.geomspace(1e-6, 3.7, 14), np.geomspace(3.7, 150.0, 8)[1:]])
        worst = {True: 0.0, False: 0.0}
        with mp.workdps(40):
            for _ in range(6):
                p, q = (float(np.exp(rng.uniform(math.log(0.1), math.log(10.0)))) for _ in "pq")
                got = eval_kernel(_pq_kernel(Params(*triple, p=p, q=q)), ts)
                ref = np.array([float(gr_sum(triple, p, q, t)) for t in ts])
                live = ref >= LIVE
                assert np.all(got[~live] < 1e-280)
                rel = np.abs(got[live] - ref[live]) / ref[live]
                for near in (True, False):
                    chosen = rel[(ts[live] <= 3.7) == near]
                    worst[near] = max(worst[near], np.max(chosen, initial=0.0))
        assert worst[True] <= 2e-14 and worst[False] <= 5e-13, worst

    @pytest.mark.parametrize("triple", REFUSED_PQ_TRIPLES)
    def test_refused_triples_reduce_to_the_oracle(self, triple):
        # no catalog rule reaches the recurrence above order 2 or the
        # half-integer polynomials above N = 1; these triples do
        params, f = Params(*triple, p=0.8, q=1.7), TestIntegrand(1.0, 2.5, 0.3)
        with pytest.raises(ApplicabilityError):
            normalize(params, f)
        terms = _pq_kernel(params)
        reduced = integrate_half_line(lambda t: eval_kernel_with_f(terms, f, t))
        oracle = direct_2d(params, f)
        assert reduced.converged and oracle.converged
        assert abs(reduced.value - oracle.value) <= 1e-13 * abs(oracle.value)

    @pytest.mark.parametrize("triple", [(1, 1, 2), (0, 1, 1), (5, 5, 0)])
    def test_no_sum_without_a_whole_k(self, triple):
        # k = 2 - (n+m+2nu)/2 must be a whole number >= 0
        with pytest.raises(ApplicabilityError, match="no whole k >= 0"):
            _pq_kernel(Params(*triple, p=1.0, q=1.0))


class TestReduceTo1D:
    def test_seed_value(self):
        res = get_rule("E1-pbm-corrected").reduce_to_1d(
            Params(0, 0, 1, p=1.0, q=1.0), TestIntegrand(1.0, 0.0, 1.0)
        )
        assert res.converged
        assert complex(res.value).real == pytest.approx(2.0 * SQPI / 5.0, rel=1e-11, abs=0)
        assert complex(res.value).real == pytest.approx(0.7089815403622064, rel=1e-10, abs=0)

    def test_gamma_ratio_form(self):
        # a = b entry at (4,4,0) with f = t^(3/2): finite and positive
        res = get_rule("N6-aeqb").reduce_to_1d(
            Params(4, 4, 0, a=0.25, b=0.25, c=1.0), TestIntegrand(1.0, 1.5, 0.0)
        )
        assert res.converged
        assert complex(res.value).real > 0.0

    def test_floor_violation_raises(self):
        with pytest.raises(DivergentIntegralError, match="floor"):
            get_rule("K2-220").reduce_to_1d(
                Params(2, 2, 0, p=1.0, q=1.0), TestIntegrand(1.0, -0.25, 1.0)
            )

    def test_no_large_t_decay_raises(self):
        with pytest.raises(DivergentIntegralError, match="decay"):
            get_rule("N5-222").reduce_to_1d(
                Params(2, 2, 2, a=1.0, b=0.5, c=0.0), TestIntegrand(1.0, 1.0, 0.0)
            )

    @staticmethod
    def _large_t_guard_accepted():
        """(rule_id, case_index, params, f, result) for each seed-42 case 0-2
        of each T rule, at c = sigma = 0, that the convergence contract
        admits at large t."""
        accepted = []
        for rule_id in TILDE_RULES:
            draws = _tilde_draws(rule_id, seeds=(42,), cases=range(3))
            for case_index, (params, f) in enumerate(draws):
                params, f = dataclasses.replace(params, c=0.0), dataclasses.replace(f, sigma=0.0)
                try:
                    res = get_rule(rule_id).reduce_to_1d(params, f)
                except DivergentIntegralError as err:
                    assert "no decay at large t" in str(err)
                    continue
                accepted.append((rule_id, case_index, params, f, res))
        return accepted

    def test_large_t_guard_refusals_pinned(self):
        # the contract checks the rays (1, 1) and x ~ y^2, which the
        # kernel's large-t power matches (psi_1 ~ 2z/sqrt(pi) and
        # psi_4 ~ sqrt(pi) z^2 as z = 2 sqrt((a-b)/t) -> 0), so it refuses 33
        # of these 45 instances
        accepted = [(rule_id, case) for rule_id, case, *_ in self._large_t_guard_accepted()]
        assert accepted == [("T1-nu0", 0), ("T1-nu0", 1), ("T1-nu1", 2), ("T3-nu0", 2),
                            ("T4-nu0", 0), ("T4-nu0", 1), ("T4-nu1", 0), ("T4-nu1", 1),
                            ("T4-nu1", 2), ("T4-nu2", 0), ("T4-nu2", 1), ("T4-nu2", 2)]

    def test_large_t_guard_accepts_only_convergent_instances(self):
        # each accepted instance converges on both sides, and the five that
        # the large-t decay admits agree with the 2-D oracle within 1e-12
        admitted = {("T4-nu1", 1), ("T4-nu1", 2), ("T4-nu2", 0), ("T4-nu2", 1), ("T4-nu2", 2)}
        for rule_id, case_index, params, f, res in self._large_t_guard_accepted():
            oracle = direct_2d(params, f, tilde=True)
            assert res.converged and oracle.converged, (rule_id, case_index)
            if (rule_id, case_index) in admitted:
                assert abs(res.value - oracle.value) <= 1e-12 * abs(oracle.value), rule_id
                admitted.discard((rule_id, case_index))
        assert not admitted

    def test_cancelling_instance_without_decay_converges(self):
        # N3's tabulated split kernel gives -3.07e19 here through cancellation;
        # G1's term has t^-2 at large t, so with mu = 0.2 the integral converges
        params, f = Params(0, 3, 3, a=1.0, b=0.4, c=0.0), TestIntegrand(1.0, 0.2, 0.0)
        res = get_rule("N3-033").reduce_to_1d(params, f)
        oracle = direct_2d(params, f)
        assert res.converged and oracle.converged
        assert res.value == pytest.approx(oracle.value, rel=1e-12, abs=0)

    def test_convergent_instance_without_c_or_sigma(self):
        # the 2-D oracle gives this value to 6e-14
        res = get_rule("N4-122").reduce_to_1d(
            Params(1, 2, 2, a=1.0, b=0.4, c=0.0), TestIntegrand(1.0, 0.25, 0.0)
        )
        assert res.converged
        assert res.value == pytest.approx(8.347688506817965, rel=1e-12, abs=0)

    def test_positivity(self):
        rng = np.random.default_rng(5)
        for rid in ("E1-pbm-corrected", "K1-111", "N3-033", "T1-nu0", "G1-general"):
            rule = get_rule(rid)
            params = rule.sample_params(rng, 0)
            floor = max(rule.mu_min(params), -0.75)
            f = TestIntegrand(1.0, floor + 1.0, 0.5)
            res = rule.reduce_to_1d(params, f)
            assert complex(res.value).real >= 0.0, rid


class TestThroughAEqualsB:
    @pytest.mark.parametrize("rule_id", N_RULES)
    def test_n_rules_approach_the_a_eq_b_form(self, rule_id):
        # b = a(1 - g): each N reduction converges and lies within 5 g of
        # N6-aeqb's value at b = a, on seed-42 cases 0-1
        rule, n6 = get_rule(rule_id), get_rule("N6-aeqb")
        index = [r.id for r in list_rules(include_erratum=False)].index(rule_id)
        for case_index in range(2):
            params, f = _case_inputs(rule, 42, index, case_index)
            limit = n6.reduce_to_1d(dataclasses.replace(params, b=params.a), f)
            assert limit.converged
            for g in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
                res = rule.reduce_to_1d(dataclasses.replace(params, b=params.a * (1.0 - g)), f)
                assert res.converged, (case_index, g)
                assert abs(res.value - limit.value) <= 5.0 * g * abs(limit.value), (case_index, g)

    @pytest.mark.parametrize("rule_id", TILDE_RULES)
    def test_t_rules_pass_towards_a_eq_b(self, rule_id):
        # b = a(1 - g) on seed-42 cases 0-2: every record passes with both
        # sides converged; the four-term T4 left six reductions unconverged
        # at g = 1e-8
        draws = _tilde_draws(rule_id, seeds=(42,), cases=range(3))
        for case_index, (draw, f) in enumerate(draws):
            for g in (1e-2, 1e-4, 1e-6, 1e-8):
                rec = verify(rule_id, dataclasses.replace(draw, b=draw.a * (1.0 - g)), f)
                assert rec.passed and rec.lhs.converged and rec.rhs.converged, (case_index, g)

    def test_g1_at_a_eq_b_is_n6_to_the_bit(self):
        # N6-aeqb builds G1's kernel, which at a = b, h = 0 takes no Kummer
        # factor: it would be 1F1(A; B; -0.0) = 1 exactly at every node.  So
        # on N6's seed-42 draws the factor, put back, keeps every bit
        g1, n6 = get_rule("G1-general"), get_rule("N6-aeqb")
        index = [r.id for r in list_rules(include_erratum=False)].index(n6.id)
        for case_index in range(20):
            params, f = _case_inputs(n6, 42, index, case_index)
            assert g1.applicability_failure(params) is None
            assert g1.mu_min(params) == n6.mu_min(params)
            [term] = g1.build_kernel(params)
            assert term.special is None
            n, m, nu = params.triple
            one = KummerFactor((n + nu - 2) / 2.0, (m + n + 2 * nu - 4) / 2.0, 0.0, 0.0)
            with_one = [dataclasses.replace(term, special=one)]
            want = integrate_half_line(lambda t: eval_kernel_with_f(with_one, f, t))
            got = g1.reduce_to_1d(params, f)
            assert want.converged and got == want == n6.reduce_to_1d(params, f), case_index

    def test_g1_builds_no_factor_at_a_eq_b(self):
        # the a = b, h = 0 limit has one owner, G1's kernel builder
        g1 = get_rule("G1-general")
        assert g1.build_kernel(Params(4, 4, 0, a=1.0, b=1.0, c=1.0))[0].special is None
        assert get_rule("N6-aeqb").build_kernel is g1.build_kernel
        for params in (Params(4, 4, 0, a=1.0, b=0.5, c=1.0), Params(4, 4, 0, a=1.0, b=1.0, h=0.5)):
            assert isinstance(g1.build_kernel(params)[0].special, KummerFactor), params


def kernel_floor(rule, params: Params) -> float:
    """The rule's small-t floor read off its kernel's terms: the reference
    that the contract's floor, rule.mu_min, is compared with.  t**mu times
    a term t**alpha e^(-gamma/t) special(t) is integrable at t -> 0 for every
    mu where gamma > 0, else iff mu > -1 - alpha, less the A of a Kummer
    factor 1F1(A; B; -shift/t - h), which decays like t**A when shift > 0;
    every other factor is bounded near 0 or grows only logarithmically."""
    floors = []
    for term in rule.build_kernel(params):
        if term.gamma > 0.0:
            floors.append(-math.inf)
            continue
        special = term.special
        decay = special.a if isinstance(special, KummerFactor) and special.shift > 0.0 else 0.0
        floors.append(-1.0 - (term.alpha + decay))
    return max(floors)


def zeroed_variants(rule, params: Params):
    """params with each subset of its nonzero coefficients zeroed, where the
    rule admits the result, the empty subset first."""
    names = [name for name in sorted(rule.pattern) if getattr(params, name) != 0]
    for k in range(len(names) + 1):
        for zeroed in itertools.combinations(names, k):
            variant = dataclasses.replace(params, **{name: 0.0 for name in zeroed})
            if rule.applicability_failure(variant) is None:
                yield variant


class TestMuFloors:
    @pytest.mark.parametrize(
        "rid,params,expected",
        [
            ("E1-pbm-corrected", Params(0, 0, 1, p=1.0, q=1.0), -1.0),
            ("E2-110", Params(1, 1, 0, p=1.0, q=1.0), -0.5),
            ("E3-m110", Params(-1, 1, 0, p=1.0, q=1.0), -0.5),
            ("K2-220", Params(2, 2, 0, p=1.0, q=1.0), 0.0),
            ("K3-0m44", Params(0, -4, 4, p=1.0, q=1.0), -1.0),
            ("K5-1m75", Params(1, -7, 5, p=2.0, q=0.5), -0.5),
        ],
    )
    def test_expected_floor(self, rid, params, expected):
        assert get_rule(rid).mu_min(params) == pytest.approx(expected)

    def test_exponential_cutoff_floor(self):
        rule = get_rule("N5-222")
        assert rule.mu_min(Params(2, 2, 2, a=1.0, b=0.5, c=1.0)) == -math.inf

    def test_b_zero_raises_floor(self):
        rule = get_rule("N1-133")
        assert rule.mu_min(Params(1, 3, 3, a=1.0, b=0.0, c=1.0)) == pytest.approx(0.5)

    @pytest.mark.parametrize("rule_id", [r.id for r in list_rules(include_erratum=False)
                                         if r.family is not Family.MIXED_TILDE])
    def test_kernel_floor_covers_the_axes(self, rule_id):
        # t -> 0 exactly when x -> 0 or y -> 0, so the kernel's floor, read off
        # its terms, must hold the 2-D side's floors at the axes and the origin:
        # at every seed-0 and seed-42 sweep draw, and at each draw's a = 0,
        # b = 0 or a = b = 0 variant the rule admits
        rule = get_rule(rule_id)
        index = [r.id for r in list_rules(include_erratum=False)].index(rule_id)
        checked = 0
        for seed in (0, 42):
            for case_index in range(20):
                params, _ = _case_inputs(rule, seed, index, case_index)
                for variant in (params, dataclasses.replace(params, a=0.0),
                                dataclasses.replace(params, b=0.0),
                                dataclasses.replace(params, a=0.0, b=0.0)):
                    if rule.applicability_failure(variant) is not None:
                        continue
                    n, m, nu = variant.triple
                    floor = kernel_floor(rule, variant)
                    if variant.a == 0.0:
                        assert floor >= n / 2.0 - 1.0, variant
                        checked += 1
                    if variant.b == 0.0:
                        assert floor >= m / 2.0 - 1.0, variant
                        checked += 1
                    if variant.a == variant.b == 0.0:
                        assert floor >= (n + m + nu) / 2.0 - 2.0, variant
        if rule.family is not Family.R_INTEGRAL:  # R1 admits no zero a or b
            assert checked > 0

    def test_floor_builds_no_kernel(self):
        def build(params):
            raise AssertionError("mu_min built a kernel")

        rule = dataclasses.replace(get_rule("G1-general"), build_kernel=build)
        params = Params(4, 4, 0, a=1.0, b=0.0, c=1.0)
        assert rule.mu_min(params) == mu_floor(params) == 1.0

    @pytest.mark.parametrize("seed", [0, 42])
    def test_contract_floor_is_the_kernel_floor(self, seed):
        # rule.mu_min reads params.mu_floor and builds no kernel; it equals the
        # kernel's own floor bit for bit, -inf included, at every rule's sweep
        # draws (erratum included), each with each admitted subset of its
        # coefficients zeroed, and at every power-shifted triple the rule
        # admits: the triples normalize reaches with G1, N6 and R1
        checks, shifted_checks = 0, collections.Counter()
        for index, rule in enumerate(RULES):
            for case_index in range(20):
                params, _ = _case_inputs(rule, seed, index, case_index)
                for variant in zeroed_variants(rule, params):
                    for delta in _SHIFT_SEARCH:
                        n, m, nu = shift_power(variant.triple, delta)
                        shifted = dataclasses.replace(variant, n=n, m=m, nu=nu)
                        if rule.applicability_failure(shifted) is not None:
                            continue
                        assert rule.mu_min(shifted) == kernel_floor(rule, shifted), (rule.id, shifted)
                        checks += 1
                        shifted_checks[rule.id] += delta != 0.0
        assert checks == 5964
        assert {rule_id: count for rule_id, count in shifted_checks.items() if count} == {
            "G1-general": 1728, "N6-aeqb": 640, "R1-rint": 1280}

    def test_reduction_builds_kernel_once(self):
        rule = get_rule("N1-133")
        built = []

        def build(params):
            built.append(params)
            return rule.build_kernel(params)

        counted = dataclasses.replace(rule, build_kernel=build)
        params = Params(1, 3, 3, a=1.0, b=0.0, c=1.0)
        res = counted.reduce_to_1d(params, TestIntegrand(mu=1.0, sigma=1.0))
        assert len(built) == 1
        assert res.value == rule.reduce_to_1d(params, TestIntegrand(mu=1.0, sigma=1.0)).value
        with pytest.raises(DivergentIntegralError, match="floor 0.5"):
            counted.reduce_to_1d(params, TestIntegrand(mu=0.5))
