"""Quadrature engine checks: closed forms, invariants, honesty, failure modes."""

import math

import numpy as np
import pytest

from quadred import quadrature
from quadred.quadrature import (
    QuadResult,
    QuadratureError,
    Tolerance,
    integrate_half_line,
    integrate_interval,
    integrate_quadrant,
)

SQPI = math.sqrt(math.pi)


def closed_form_half_line_cases():
    return [
        (lambda t: np.exp(-t), 1.0, "exp"),
        (lambda t: t**-0.5 * np.exp(-t), SQPI, "gamma-half"),
        (lambda t: t**-0.5 * np.exp(-t - 1.0 / t), SQPI * math.exp(-2.0), "bilateral"),
        (lambda t: 1.0 / (1.0 + t) ** 2, 1.0, "algebraic-decay"),
    ]


def closed_form_interval_cases():
    return [
        (lambda r: np.ones_like(r), 0.0, 1.0, 1.0, "unit"),
        (
            lambda u: 2.0 / SQPI * np.exp(-(u * u)),
            0.0, 1.0, math.erf(1.0), "erf-definition",
        ),
        (lambda r: r**-0.5 * (1.0 - r) ** -0.5, 0.0, 1.0, math.pi, "beta-half-half"),
    ]


def _seed_cross_check_f2(x, y):
    t = 1.0 / (1.0 / x + 1.0 / y)
    return (x + y) ** -0.5 * np.exp(-t - x - y)


class TestHalfLine:
    @pytest.mark.parametrize("f,expected,label", closed_form_half_line_cases())
    def test_closed_forms(self, f, expected, label):
        res = integrate_half_line(f)
        assert res.converged
        assert complex(res.value).real == pytest.approx(expected, rel=1e-10)

    def test_bilateral_cross_check_double_resolution(self):
        # same integral at an 100x tighter tolerance must agree
        f = lambda t: t**-0.5 * np.exp(-t - 1.0 / t)
        coarse = integrate_half_line(f, Tolerance(rel=1e-8))
        fine = integrate_half_line(f, Tolerance(rel=1e-12, max_evaluations=10_000_000))
        assert complex(coarse.value).real == pytest.approx(
            complex(fine.value).real, rel=1e-8
        )

    def test_never_evaluates_at_zero(self):
        seen = []

        def f(t):
            seen.append(float(np.min(t)))
            assert np.all(t > 0.0)
            return np.exp(-t)

        integrate_half_line(f)
        assert min(seen) > 0.0

    def test_nan_propagates_as_error(self):
        def f(t):
            return np.where(t > 1.0, np.nan, np.exp(-t))

        with pytest.raises(QuadratureError, match="NaN"):
            integrate_half_line(f)

    def test_budget_exhaustion_flags_nonconvergence(self):
        res = integrate_half_line(
            lambda t: np.exp(-t), Tolerance(rel=1e-13, abs=1e-16, max_evaluations=40)
        )
        assert not res.converged

    def test_deterministic(self):
        f = lambda t: t**0.3 * np.exp(-1.7 * t)
        a = integrate_half_line(f)
        b = integrate_half_line(f)
        assert a.value == b.value
        assert a.evaluations == b.evaluations


class TestInterval:
    @pytest.mark.parametrize("f,lo,hi,expected,label", closed_form_interval_cases())
    def test_closed_forms(self, f, lo, hi, expected, label):
        tol = Tolerance(rel=1e-7) if label == "beta-half-half" else Tolerance()
        res = integrate_interval(f, lo, hi, tol)
        assert res.converged
        assert complex(res.value).real == pytest.approx(expected, rel=1e-7)

    def test_complex_integrand_shared_mesh(self):
        res = integrate_interval(lambda u: np.exp(-2j * u), 0.0, 1.0)
        expected = (1.0 - np.exp(-2j)) / 2j
        assert res.converged
        assert complex(res.value) == pytest.approx(expected, rel=1e-12)

    def test_bad_interval(self):
        with pytest.raises(QuadratureError):
            integrate_interval(lambda x: x, 1.0, 1.0)
        with pytest.raises(QuadratureError):
            integrate_interval(lambda x: x, 0.0, math.inf)

    def test_endpoints_untouched(self):
        def f(x):
            assert np.all((x > 0.0) & (x < 1.0))
            return x**-0.25

        res = integrate_interval(f, 0.0, 1.0)
        assert complex(res.value).real == pytest.approx(4.0 / 3.0, rel=1e-10)


class TestTransformConsistency:
    def test_half_line_vs_compactified(self):
        # t = u/(1-u) maps (0,1) onto (0,inf)
        g = lambda t: t**0.5 * np.exp(-2.0 * t)

        def compactified(u):
            t = u / (1.0 - u)
            return g(t) / (1.0 - u) ** 2

        direct = integrate_half_line(g)
        mapped = integrate_interval(compactified, 0.0, 1.0)
        assert complex(direct.value).real == pytest.approx(
            complex(mapped.value).real, rel=1e-9
        )

    def test_linearity(self):
        f = lambda t: np.exp(-t)
        g = lambda t: t * np.exp(-3.0 * t)
        a, b = 2.5, -1.25
        combined = integrate_half_line(lambda t: a * f(t) + b * g(t))
        separate = a * integrate_half_line(f).value + b * integrate_half_line(g).value
        assert complex(combined.value).real == pytest.approx(
            complex(separate).real, rel=1e-11
        )


class TestQuadrant:
    def test_separable(self):
        res = integrate_quadrant(lambda x, y: np.exp(-x - y))
        assert res.converged
        assert complex(res.value).real == pytest.approx(1.0, rel=1e-9)

    def test_separable_matches_product_of_half_lines(self):
        fx = lambda x: x**0.25 * np.exp(-1.5 * x)
        fy = lambda y: y**-0.5 * np.exp(-0.5 * y)
        prod = (
            complex(integrate_half_line(fx).value).real
            * complex(integrate_half_line(fy).value).real
        )
        res = integrate_quadrant(lambda x, y: fx(x) * fy(y))
        assert complex(res.value).real == pytest.approx(prod, rel=1e-9)

    def test_seed_cross_check(self):
        # (x+y)^-1/2 exp(-xy/(x+y)) exp(-x-y) over the quadrant equals
        # 2 sqrt(pi)/5, the product-form reduction at p = q = 1, f = exp(-t)
        res = integrate_quadrant(_seed_cross_check_f2)
        assert res.converged
        assert complex(res.value).real == pytest.approx(2.0 * SQPI / 5.0, rel=1e-9)

    def test_divergent_flagged_never_silent(self):
        # (x+y)^-1/2 exp(-xy/(x+y)) alone is not integrable
        def f2(x, y):
            t = 1.0 / (1.0 / x + 1.0 / y)
            return (x + y) ** -0.5 * np.exp(-t)

        tol = Tolerance(rel=1e-9, abs=1e-14, max_evaluations=150_000)
        try:
            res = integrate_quadrant(f2, tol)
            assert not res.converged
        except QuadratureError:
            pass  # overflow detection is an equally loud failure


class TestBudgetExhaustion:
    """Exhaustion stops the integral at its last completed level, unconverged."""

    @pytest.mark.parametrize("limit", [150, 190])
    def test_half_line_returns_last_completed_level(self, limit):
        f = lambda t: t**-0.5 * np.exp(-t - 1.0 / t)
        res = integrate_half_line(f, Tolerance(rel=1e-13, abs=1e-16, max_evaluations=limit))
        assert not res.converged
        assert res.value == 0.23987554396089059
        assert res.abs_error_estimate == pytest.approx(3.378081187234621e-06, rel=1e-9)
        assert res.evaluations > limit

    def test_interval_returns_last_completed_level(self):
        f = lambda r: r**-0.5 * (1.0 - r) ** -0.5
        res = integrate_interval(
            f, 0.0, 1.0, Tolerance(rel=1e-13, abs=1e-16, max_evaluations=150)
        )
        assert not res.converged
        assert res.value == 3.141592634020482
        assert res.abs_error_estimate == pytest.approx(1.599437681926092e-07, rel=1e-9)

    def test_quadrant_exhausted_in_first_level(self):
        tol = Tolerance(rel=1e-9, abs=1e-14, max_evaluations=5000)
        res = integrate_quadrant(_seed_cross_check_f2, tol)
        assert not res.converged
        assert res.value == 0.0
        assert res.abs_error_estimate == math.inf

    def test_quadrant_exhausted_inside_inner_rows(self):
        # only inner evaluations are charged, so the budget always runs out
        # inside an inner batch; that stops the outer integral as well
        tol = Tolerance(rel=1e-9, abs=1e-14, max_evaluations=15000)
        res = integrate_quadrant(_seed_cross_check_f2, tol)
        assert not res.converged
        assert res.value == 0.7089798289090279
        assert res.abs_error_estimate == pytest.approx(4.335590722193139e-05, rel=1e-9)

    def test_evaluations_count_integrand_points_only(self):
        points = []

        def f(t):
            points.append(t.size)
            return np.exp(-t)

        def f2(x, y):
            points.append(np.broadcast(x, y).size)
            return np.exp(-x - y)

        res = integrate_half_line(f)
        assert res.evaluations == sum(points)
        points.clear()
        res = integrate_quadrant(f2)
        assert res.evaluations == sum(points)


class TestFailurePaths:
    """A non-finite term raises; NaN is named before overflow."""

    SCALES = [1e300, 1e300 * (1.0 + 1.0j)]

    @pytest.mark.parametrize("scale", SCALES, ids=["real", "complex"])
    def test_half_line_overflow(self, scale):
        with pytest.raises(QuadratureError, match=r"integrand\*weight overflowed"):
            integrate_half_line(lambda t: np.full(t.shape, scale))

    @pytest.mark.parametrize("scale", SCALES, ids=["real", "complex"])
    def test_quadrant_overflow(self, scale):
        with pytest.raises(QuadratureError, match=r"integrand\*weight overflowed"):
            integrate_quadrant(lambda x, y: np.full(np.broadcast(x, y).shape, scale))

    def test_nan_outranks_overflow(self):
        # the first block holds both NaN values and overflowing terms
        with pytest.raises(QuadratureError, match="integrand returned NaN"):
            integrate_half_line(lambda t: np.where(t > 1e100, np.nan, 1e300))

    @pytest.mark.parametrize(
        "value, message",
        [
            (complex(math.inf, math.nan), "integrand returned NaN"),
            (complex(1.0, math.nan), "integrand returned NaN"),
            (complex(math.inf, math.inf), r"integrand\*weight overflowed"),
        ],
        ids=["inf+nanj", "1+nanj", "inf+infj"],
    )
    def test_complex_non_finite(self, value, message):
        # |inf + nan j| is inf, not NaN: the NaN is still named
        with pytest.raises(QuadratureError, match=message):
            integrate_half_line(lambda t: np.full(t.shape, value))

    def test_one_overflowing_row_in_quadrant(self):
        # x = exp((pi/2) sinh 0.5) ~ 2.27 is the only first-level node in
        # (2, 2.5): one row of the first inner batch overflows, none is NaN
        def f2(x, y):
            return np.where((x > 2.0) & (x < 2.5), 1e300, np.exp(-x - y))

        with pytest.raises(QuadratureError, match=r"integrand\*weight overflowed"):
            integrate_quadrant(f2)

    def test_nan_in_quadrant_inner_batch(self):
        def f2(x, y):
            return np.where(y > 2.0, np.nan, np.exp(-x - y))

        with pytest.raises(QuadratureError, match="integrand returned NaN"):
            integrate_quadrant(f2)


def _fresh_block(nodes, valid, direction, spacing, offset, k0):
    u = direction * (offset + spacing * np.arange(k0, k0 + quadrature._BLOCK))
    x, w, fuzzy = nodes(u)
    keep = valid(x) & np.isfinite(w) & (w > 0.0)
    assert fuzzy is None
    return x[keep], w[keep]


FIXED_GENERATORS = [
    (quadrature._exp_sinh_nodes, quadrature._exp_sinh_valid),
    (quadrature._unit_pair_nodes, quadrature._unit_pair_valid),
]


class TestNodeLadder:
    """Blocks of the fixed generators are built once, read-only and bounded."""

    @pytest.mark.parametrize("nodes,valid", FIXED_GENERATORS, ids=["exp-sinh", "unit-pair"])
    @pytest.mark.parametrize("level", [0, 3, 11])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_cached_blocks_equal_fresh_nodes(self, nodes, valid, level, direction):
        h = quadrature._BASE_STEP * 0.5**level
        # level 0 is the full pass; later levels add the odd nodes
        spacing, offset = (h, 0.0) if level == 0 else (2.0 * h, h)
        k0 = 1 if (direction < 0 and offset == 0.0) else 0
        block = quadrature._ladder_block(nodes, valid, direction, spacing, offset, k0)
        x, w, fuzzy = block
        fresh_x, fresh_w = _fresh_block(nodes, valid, direction, spacing, offset, k0)
        assert fuzzy is None
        assert x.shape == fresh_x.shape and x.tobytes() == fresh_x.tobytes()
        assert w.shape == fresh_w.shape and w.tobytes() == fresh_w.tobytes()
        assert quadrature._LADDER[(nodes, direction, spacing, offset, k0)] is block
        again = quadrature._ladder_block(nodes, valid, direction, spacing, offset, k0)
        assert again is block

    def test_dead_block_is_kept_as_none(self):
        # exp-sinh nodes at u >= 16 all lie beyond the 1e160 rail
        nodes, valid = FIXED_GENERATORS[0]
        assert quadrature._ladder_block(nodes, valid, 1.0, 0.5, 0.0, 32) is None
        assert quadrature._LADDER[(nodes, 1.0, 0.5, 0.0, 32)] is None

    @pytest.mark.parametrize("nodes,valid", FIXED_GENERATORS, ids=["exp-sinh", "unit-pair"])
    def test_cached_arrays_are_read_only(self, nodes, valid):
        x, w, _ = quadrature._ladder_block(nodes, valid, 1.0, 0.5, 0.0, 0)
        with pytest.raises(ValueError):
            x[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0

    def test_interval_nodes_are_not_stored(self):
        before = len(quadrature._LADDER)
        res = integrate_interval(lambda r: r**-0.5, 0.0, 1.0)
        assert res.converged
        assert len(quadrature._LADDER) == before

    def test_repeated_quadrant_adds_no_entry(self):
        first = integrate_quadrant(_seed_cross_check_f2)
        size = len(quadrature._LADDER)
        second = integrate_quadrant(_seed_cross_check_f2)
        assert len(quadrature._LADDER) == size
        assert second == first

    def test_results_do_not_depend_on_ladder_state(self, monkeypatch):
        warm = integrate_quadrant(_seed_cross_check_f2)
        monkeypatch.setattr(quadrature, "_LADDER", {})
        cold = integrate_quadrant(_seed_cross_check_f2)
        assert cold == warm
        assert 0 < len(quadrature._LADDER) < 1000


class TestTolerance:
    def test_met_by_scales_by_largest_row_above_floor(self):
        tol = Tolerance(rel=1e-10, abs=1e-14)
        assert tol.met_by(1.5e-10, 2.0)
        assert not tol.met_by(1.5e-10, 1.0)
        batch = np.array([1e-3, -2.0 + 0.0j])
        assert tol.met_by(1.5e-10, batch)
        assert not tol.met_by(2.5e-10, batch)
        small = np.array([1e-3, 2e-3])
        assert tol.met_by(1e-10, small)
        assert not tol.met_by(1e-10, small, floor=0.0)
        assert tol.met_by(1e-13, small, floor=0.0)
        assert tol.met_by(1e-14, np.zeros(2), floor=0.0)


class TestQuadResultScaled:
    def test_real_factor_keeps_the_value_type(self):
        res = QuadResult(2.5, 1e-12, 40, True).scaled(3.0)
        assert res == QuadResult(7.5, 3.0 * 1e-12, 40, True)
        assert type(res.value) is float
        assert type(QuadResult(1.0 + 2.0j, 1e-12, 40, False).scaled(2.0).value) is complex

    def test_complex_factor_scales_the_estimate_by_its_modulus(self):
        res = QuadResult(2.5, 1e-12, 40, True).scaled(complex(3.0))
        assert type(res.value) is complex and res.value == 7.5 + 0.0j
        assert type(res.abs_error_estimate) is float and res.abs_error_estimate == 3.0 * 1e-12


class TestErrorEstimateHonesty:
    def test_half_line_examples(self):
        for f, expected, label in closed_form_half_line_cases():
            res = integrate_half_line(f)
            true_err = abs(complex(res.value).real - expected)
            assert true_err <= 10.0 * res.abs_error_estimate + 1e-15, label

    def test_interval_examples(self):
        for f, lo, hi, expected, label in closed_form_interval_cases():
            tol = Tolerance(rel=1e-7) if label == "beta-half-half" else Tolerance()
            res = integrate_interval(f, lo, hi, tol)
            true_err = abs(complex(res.value).real - expected)
            assert true_err <= 10.0 * res.abs_error_estimate + 1e-15, label

    def test_quadrant_example(self):
        res = integrate_quadrant(lambda x, y: np.exp(-x - y))
        true_err = abs(complex(res.value).real - 1.0)
        assert true_err <= 10.0 * res.abs_error_estimate + 1e-15

    def test_converged_respects_tolerance_invariant(self):
        tol = Tolerance(rel=1e-10, abs=1e-14)
        for f, expected, label in closed_form_half_line_cases():
            res = integrate_half_line(f, tol)
            if res.converged:
                bound = max(tol.abs, tol.rel * max(1.0, abs(complex(res.value))))
                assert res.abs_error_estimate <= bound, label
