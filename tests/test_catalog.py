"""Registry contracts, applicability predicates, kernel weights, floors."""

import dataclasses
import json
import math

import numpy as np
import pytest

from quadred.catalog import (
    ApplicabilityError,
    Family,
    RULES,
    get_rule,
    kernel_weight,
    list_rules,
    lookup_rule,
    reduce_to_1d,
)
from quadred.kernels import KernelError
from quadred.params import Params, TestIntegrand

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


class TestLookup:
    def test_exact_matches(self):
        assert lookup_rule((0, 0, 1), Family.POSITIVE_EXP).id == "E1-pbm-corrected"
        assert lookup_rule((2, 2, 0), "positive-exp").id == "K2-220"
        assert lookup_rule((1, 2, 2), Family.INVERSE_EXP).id == "N4-122"
        # the same triple under the constrained family is a different rule
        assert lookup_rule((1, 2, 2), Family.MIXED_TILDE).id == "T1-nu2"

    def test_absent_triple(self):
        assert lookup_rule((9, 9, 9), Family.POSITIVE_EXP) is None


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
        assert g1.applicability_failure(Params(1, 1, 3, a=1.0, b=1.0, c=1.0)) == "requires a>b or h>0"
        assert g1.applicability_failure(Params(1, 1, 3, a=1.0, b=1.0, c=1.0, h=0.5)) is None
        assert g1.applicability_failure(Params(1, 1, 0, a=1.0, b=0.5, c=1.0)) == "requires m+nu>2"
        assert g1.applicability_failure(Params(1, 1, 3, a=0.5, b=1.0, c=1.0)) is not None


class TestKernelWeights:
    def test_corrected_product_form(self):
        params = Params(0, 0, 1, p=1.0, q=1.0)
        val = kernel_weight("E1-pbm-corrected", params, 0.25)
        assert val == pytest.approx(2.0 * SQPI * math.exp(-1.0), rel=1e-12)

    def test_macdonald_weight(self):
        import scipy.special as sp

        params = Params(1, 1, 1, p=1.0, q=1.0)
        val = kernel_weight("K1-111", params, 1.0)
        assert val == pytest.approx(2.0 * math.exp(-2.0) * sp.kv(0, 2.0), rel=1e-12)

    def test_nan_t_rejected(self):
        params = Params(1, 1, 1, p=1.0, q=2.0)
        with pytest.raises(KernelError):
            kernel_weight("K1-111", params, math.nan)
        with pytest.raises(KernelError):
            kernel_weight("K1-111", params, np.array([1.0, math.nan]))

    def test_infinite_t_rejected(self):
        # 0 * inf inside the kernel would warn and return 0
        params = Params(0, 0, 1, p=1.0, q=1.0)
        with pytest.raises(KernelError, match="finite t > 0"):
            kernel_weight("E1-pbm-corrected", params, math.inf)
        with pytest.raises(KernelError, match="finite t > 0"):
            kernel_weight("E1-pbm-corrected", params, np.array([1.0, math.inf]))

    def test_split_exponential_weight(self):
        params = Params(2, 2, 2, a=2.0, b=1.0, c=0.0)
        val = kernel_weight("N5-222", params, 1.0)
        assert val == pytest.approx(math.exp(-1.0) - math.exp(-2.0), rel=1e-12)

    def test_uncorrected_ratio(self):
        p, q = 1.0, 4.0
        corrected = kernel_weight("E1-pbm-corrected", Params(0, 0, 1, p=p, q=q), 0.7)
        wrong = kernel_weight("E1-uncorrected-pbm", Params(0, 0, 1, p=p, q=q), 0.7)
        ratio = 1.0 / ((math.sqrt(p) + math.sqrt(q)) * math.sqrt(p + q))
        assert wrong / corrected == pytest.approx(ratio, rel=1e-12)


class TestReduceTo1D:
    def test_seed_value(self):
        res = reduce_to_1d(
            "E1-pbm-corrected", Params(0, 0, 1, p=1.0, q=1.0), TestIntegrand(1.0, 0.0, 1.0)
        )
        assert res.converged
        assert complex(res.value).real == pytest.approx(2.0 * SQPI / 5.0, rel=1e-11)
        assert complex(res.value).real == pytest.approx(0.7089815403622064, rel=1e-10)

    def test_gamma_ratio_form(self):
        # a = b entry at (4,4,0) with f = t^(3/2): finite and positive
        res = reduce_to_1d(
            "N6-aeqb", Params(4, 4, 0, a=0.25, b=0.25, c=1.0), TestIntegrand(1.0, 1.5, 0.0)
        )
        assert res.converged
        assert complex(res.value).real > 0.0

    def test_floor_violation_raises(self):
        with pytest.raises(KernelError, match="floor"):
            reduce_to_1d(
                "K2-220", Params(2, 2, 0, p=1.0, q=1.0), TestIntegrand(1.0, -0.25, 1.0)
            )

    def test_no_large_t_decay_raises(self):
        with pytest.raises(KernelError, match="decay"):
            reduce_to_1d(
                "N5-222", Params(2, 2, 2, a=1.0, b=0.5, c=0.0), TestIntegrand(1.0, 1.0, 0.0)
            )

    def test_positivity(self):
        rng = np.random.default_rng(5)
        for rid in ("E1-pbm-corrected", "K1-111", "N3-033", "T1-nu0", "G1-general"):
            rule = get_rule(rid)
            params = rule.sample_params(rng, 0)
            floor = max(rule.mu_min(params), -0.75)
            f = TestIntegrand(1.0, floor + 1.0, 0.5)
            res = rule.reduce_to_1d(params, f)
            assert complex(res.value).real >= 0.0, rid


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
        with pytest.raises(KernelError, match="floor 0.5"):
            counted.reduce_to_1d(params, TestIntegrand(mu=0.5))
