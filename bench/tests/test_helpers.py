"""Unit tests for the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

import math
import sys

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from metrics import AGREE_CAP, MIN_BEYOND, agree_digits, rank, tail  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from tracing import Tracer, probes, self_times  # noqa: E402
from workloads import (  # noqa: E402
    REDUCE_DRAWS_PER_RULE,
    closed_form_rules,
    physics_cases,
    reduce_cases,
)


class TestTail:
    def test_leaves_at_least_ten_beyond(self):
        for n in (20, 99, 100, 300, 700, 999, 1000, 2720, 10_000, 123_457):
            level, _, beyond = tail(list(range(n)))
            assert beyond >= MIN_BEYOND
            assert beyond == n - rank(round(level * 100), n)

    def test_picks_the_highest_qualifying_level(self):
        # 700 samples: p98 leaves 14 beyond, p99 only 7
        level, value, beyond = tail([float(v) for v in range(1, 701)])
        assert (level, value, beyond) == (98.0, 686.0, 14)
        # 1000 samples: p99 leaves exactly 10 beyond
        level, value, beyond = tail([float(v) for v in range(1, 1001)])
        assert (level, value, beyond) == (99.0, 990.0, 10)

    def test_order_of_samples_does_not_matter(self):
        values = [((i * 7919) % 1000) / 10.0 for i in range(1000)]
        assert tail(values) == tail(sorted(values))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail([1.0] * 19)
        assert tail([1.0] * 20)[0] == 50.0


class TestAgreeDigits:
    def test_log_scale(self):
        assert agree_digits(1e-9) == pytest.approx(9.0)
        assert agree_digits(4e-10) == pytest.approx(-math.log10(4e-10))

    def test_cap(self):
        assert agree_digits(0.0) == AGREE_CAP
        assert agree_digits(1e-300) == AGREE_CAP
        assert agree_digits(10.0 ** -AGREE_CAP) == AGREE_CAP


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [
            ["case", 0.0, 10.0, -1, "r/1/0"],
            ["oracle", 1.0, 6.0, 0, "r/1/0"],
            ["integrand", 2.0, 3.0, 1, "r/1/0"],
            ["integrand", 4.0, 4.5, 1, "r/1/0"],
            ["reduce", 7.0, 9.0, 0, "r/1/0"],
        ]
        own = self_times(spans)
        assert own["case"] == pytest.approx(10.0 - 5.0 - 2.0)
        assert own["oracle"] == pytest.approx(5.0 - 1.5)
        assert own["integrand"] == pytest.approx(1.5)
        assert own["reduce"] == pytest.approx(2.0)
        assert sum(own.values()) == pytest.approx(10.0)

    def test_tracer_nests_spans_within_a_case(self):
        tr = Tracer()
        with tr.case("G1-general/42/3"):
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
        with tr.span("loose"):
            pass
        names = [s[0] for s in tr.spans]
        assert names == ["case", "outer", "inner", "loose"]
        parents = [s[3] for s in tr.spans]
        assert parents == [-1, 0, 1, -1]
        assert [s[4] for s in tr.spans] == ["G1-general/42/3"] * 3 + [None]
        assert all(s[2] >= s[1] for s in tr.spans)


class TestSpeed:
    def test_scales_by_the_bracketing_probes(self):
        sp = Speed()
        sp.samples = [1e-3, 2e-3, 4e-3]
        assert sp.normalise(0.3, 0) == pytest.approx(0.3 * REFERENCE_S / 1.5e-3)
        assert sp.normalise(0.3, 1) == pytest.approx(0.3 * REFERENCE_S / 3e-3)
        # no probe after the latest one yet: it brackets on both sides
        assert sp.normalise(0.3, 2) == pytest.approx(0.3 * REFERENCE_S / 4e-3)

    def test_mark_probes_at_most_every_interval(self):
        sp = Speed()
        for _ in range(100):
            sp.mark()
        assert sp.last <= 2
        assert all(s > 0.0 for s in sp.samples)


class TestProbes:
    def test_spans_one_reduction_and_restores_the_program(self):
        from quadred import catalog

        rule, _, params, f = reduce_cases(42, draws=1)[0]
        before = (catalog.integrate_half_line, catalog.ReductionRule.reduce_to_1d)
        tr = Tracer()
        with probes(tr):
            with tr.case(f"{rule.id}/42/0"):
                res = rule.reduce_to_1d(params, f)
        assert (catalog.integrate_half_line, catalog.ReductionRule.reduce_to_1d) == before
        names = {s[0] for s in tr.spans}
        assert {"case", "catalog.reduce_to_1d.positive-exp",
                "quadrature.integrate_half_line", "kernels.eval_kernel_with_f"} <= names
        assert tr.totals["quadrature.integrate_half_line.evals"] == res.evaluations
        assert tr.totals["kernels.eval_kernel_with_f.points"] == res.evaluations


def _reduce_key(cases):
    return [(rule.id, ci, params, f) for rule, ci, params, f in cases]


class TestSeededInputs:
    def test_reduce_same_seed_same_inputs(self):
        assert _reduce_key(reduce_cases(7)) == _reduce_key(reduce_cases(7))

    def test_reduce_seed_changes_inputs(self):
        assert _reduce_key(reduce_cases(7)) != _reduce_key(reduce_cases(8))

    def test_reduce_check_set_is_a_prefix(self):
        # the fixed oracle subset is the first draw of every rule
        one = _reduce_key(reduce_cases(42, draws=1))
        assert one == _reduce_key(reduce_cases(42))[: len(one)]

    def test_reduce_covers_every_closed_form_rule_equally(self):
        ids = [rule.id for rule, _, _, _ in reduce_cases(1)]
        rules = closed_form_rules()
        assert "R1-rint" not in ids
        assert sorted(set(ids)) == sorted(rule.id for rule in rules)
        assert all(ids.count(rule.id) == REDUCE_DRAWS_PER_RULE for rule in rules)

    def test_physics_same_seed_same_inputs(self):
        assert physics_cases(7) == physics_cases(7)
        assert physics_cases(7) != physics_cases(8)
        assert physics_cases(7, 3, 5) == physics_cases(7, 3, 5)
        assert len(physics_cases(7, 3, 5)) == 8

    def test_physics_keeps_k_above_the_delegation_threshold(self):
        for seed in range(5):
            for kind, spec in physics_cases(seed):
                if kind == "fourier":
                    assert spec.k >= 1e-3 * max(spec.eta1, spec.eta2)
                else:
                    assert spec.eta1 != spec.eta2
