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
FIXED_LADDERS = [quadrature._EXP_SINH, quadrature._UNIT_PAIR]


def closed_form_half_line_cases():
    return [
        (lambda t: np.exp(-t), 1.0, "exp"),
        (lambda t: t**-0.5 * np.exp(-t), SQPI, "gamma-half"),
        (lambda t: t**-0.5 * np.exp(-t - 1.0 / t), SQPI * math.exp(-2.0), "bilateral"),
        (lambda t: 1.0 / (1.0 + t) ** 2, 1.0, "algebraic-decay"),
    ]


def _beta_half_half(x):
    # 1/sqrt(r (1 - r)), taking 1 - r from the pair
    return x[:, 0] ** -0.5 * x[:, 1] ** -0.5


def closed_form_interval_cases():
    # integrands over (0, 1) take the (n, 2) pairs (r, 1 - r)
    return [
        (lambda x: np.ones(len(x)), 1.0, "unit"),
        (lambda x: 2.0 / SQPI * np.exp(-(x[:, 0] ** 2)), math.erf(1.0), "erf-definition"),
        (_beta_half_half, math.pi, "beta-half-half"),
    ]


def _seed_cross_check_f2(x, y):
    t = 1.0 / (1.0 / x + 1.0 / y)
    return (x + y) ** -0.5 * np.exp(-t - x - y)


def _divergent_f2(x, y):
    # (x+y)^-1/2 exp(-xy/(x+y)) alone is not integrable over the quadrant
    t = 1.0 / (1.0 / x + 1.0 / y)
    return (x + y) ** -0.5 * np.exp(-t)


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
        fine = integrate_half_line(f, Tolerance(rel=1e-12))
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

    def test_deterministic(self):
        f = lambda t: t**0.3 * np.exp(-1.7 * t)
        a = integrate_half_line(f)
        b = integrate_half_line(f)
        assert a.value == b.value
        assert a.evaluations == b.evaluations


class TestInterval:
    @pytest.mark.parametrize(
        "f,expected,label", closed_form_interval_cases(),
        ids=[label for _, _, label in closed_form_interval_cases()],
    )
    def test_closed_forms(self, f, expected, label):
        tol = Tolerance(rel=1e-7) if label == "beta-half-half" else Tolerance()
        res = integrate_interval(f, tol)
        assert res.converged
        assert complex(res.value).real == pytest.approx(expected, rel=1e-7)

    def test_beta_converges_at_the_default_tolerance(self):
        # both endpoint singularities see exact offsets from their endpoint
        res = integrate_interval(_beta_half_half)
        assert res.converged
        assert abs(res.value - math.pi) <= 1e-15

    def test_complex_integrand_shared_mesh(self):
        res = integrate_interval(lambda x: np.exp(-2j * x[:, 0]))
        expected = (1.0 - np.exp(-2j)) / 2j
        assert res.converged
        assert complex(res.value) == pytest.approx(expected, rel=1e-12)

    def test_endpoints_untouched(self):
        def f(x):
            # r and 1 - r are both positive: neither endpoint is reached
            assert x.ndim == 2 and x.shape[1] == 2 and np.all(x > 0.0)
            return x[:, 0] ** -0.25

        res = integrate_interval(f)
        assert complex(res.value).real == pytest.approx(4.0 / 3.0, rel=1e-10)


class TestTransformConsistency:
    def test_half_line_vs_compactified(self):
        # t = u/(1-u) maps (0,1) onto (0,inf)
        g = lambda t: t**0.5 * np.exp(-2.0 * t)

        def compactified(x):
            # 1 - u is exact down to ~1e-300, where rest**2 would underflow
            u, rest = x.T
            return g(u / rest) / rest / rest

        direct = integrate_half_line(g)
        mapped = integrate_interval(compactified)
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

    def test_unconverged_inner_rows_clear_converged(self):
        # a jump at y = 1 keeps every inner integral from converging, while
        # each row is the same multiple of exp(-x), so the outer drive
        # converges on its own; the inner failures must still show
        res = integrate_quadrant(lambda x, y: np.exp(-x - y) * (y > 1.0))
        assert res.evaluations < quadrature._QUADRANT_MAX_EVALUATIONS
        assert complex(res.value).real == pytest.approx(math.exp(-1.0), rel=1e-3)
        assert not res.converged

    def test_divergent_flagged_never_silent(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 150_000)
        try:
            res = integrate_quadrant(_divergent_f2)
            assert not res.converged
        except QuadratureError:
            pass  # overflow detection is an equally loud failure


class TestLevelCap:
    """A 1-D drive that never converges stops at its ladder's last level.

    Each integrand jumps at its ladder's centre, u = 0, so no level agrees
    with the one before, and decays so slowly that every scan runs to the
    ladder's ends.  The work is the ladder's, whatever the targets: a
    Tolerance sets no work bound.
    """

    TOLS = [None, Tolerance(rel=1e-14, abs=1e-300)]

    @pytest.mark.parametrize("tol", TOLS, ids=["default", "tight"])
    def test_half_line(self, tol):
        f = lambda t: np.where(t > 1.0, 1.0, 0.5) / (t * (1.0 + np.log(t) ** 2))
        res = integrate_half_line(f, tol)
        assert res.converged is False
        assert res.evaluations == 50_387

    @pytest.mark.parametrize("tol", TOLS, ids=["default", "tight"])
    def test_interval(self, tol):
        f = lambda x: np.where(x[:, 0] > 0.5, 1.0, 0.5) / (x[:, 0] * x[:, 1]) ** 0.999
        res = integrate_interval(f, tol)
        assert res.converged is False
        # every node of the (s, 1 - s) ladder
        assert res.evaluations == 50_081


class TestBudgetExhaustion:
    """The oracle's work bound stops it at its last completed level, unconverged."""

    def test_quadrant_exhausted_in_first_level(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 5000)
        res = integrate_quadrant(_seed_cross_check_f2)
        assert not res.converged
        assert res.value == 0.0
        assert res.abs_error_estimate == math.inf

    def test_quadrant_exhausted_inside_inner_rows(self, monkeypatch):
        # only inner evaluations are counted, so the bound always runs out
        # inside an inner batch; that stops the outer integral as well
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 15000)
        res = integrate_quadrant(_seed_cross_check_f2)
        assert not res.converged
        assert res.value == 0.7089798289090279
        assert res.abs_error_estimate == pytest.approx(4.335590722193139e-05, rel=1e-9)

    def test_bound_does_not_depend_on_tol(self, monkeypatch):
        # the targets of QUADRANT_TOLERANCE, passed or left to the default
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 300_000)
        default = integrate_quadrant(_divergent_f2)
        passed = integrate_quadrant(_divergent_f2, Tolerance(rel=1e-9, abs=1e-14))
        assert default == passed
        assert not default.converged
        assert default.evaluations == 301_497

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
        # one evaluation per (s, 1 - s) pair, not two
        res = integrate_interval(lambda x: points.append(len(x)) or np.exp(-x[:, 0]))
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


def _fresh_block(ladder, direction, spacing, offset, k0):
    u = direction * (offset + spacing * np.arange(k0, k0 + quadrature._BLOCK))
    x, w = ladder.nodes(u)
    keep = ladder.valid(x) & np.isfinite(w) & (w > 0.0)
    return x[keep], w[keep]


LADDER_IDS = ["exp-sinh", "unit-pair"]


class TestNodeLadder:
    """Blocks and heads of a ladder are built once, read-only and bounded."""

    @pytest.mark.parametrize("ladder", FIXED_LADDERS, ids=LADDER_IDS)
    @pytest.mark.parametrize("level", [0, 3, 11])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_cached_blocks_equal_fresh_nodes(self, ladder, level, direction):
        h = quadrature._BASE_STEP * 0.5**level
        # level 0 is the full pass; later levels add the odd nodes
        spacing, offset = (h, 0.0) if level == 0 else (2.0 * h, h)
        k0 = 1 if (direction < 0 and offset == 0.0) else 0
        block = quadrature._block(ladder, direction, spacing, offset, k0)
        x, w = block
        fresh_x, fresh_w = _fresh_block(ladder, direction, spacing, offset, k0)
        assert x.shape == fresh_x.shape and x.tobytes() == fresh_x.tobytes()
        assert w.shape == fresh_w.shape and w.tobytes() == fresh_w.tobytes()
        assert ladder.kept[(direction, spacing, offset, k0)] is block
        again = quadrature._block(ladder, direction, spacing, offset, k0)
        assert again is block

    @pytest.mark.parametrize("ladder", FIXED_LADDERS, ids=LADDER_IDS)
    @pytest.mark.parametrize(
        "levels", [((0.5, 0.0), (0.5, 0.25)), ((0.125, 0.0625),)], ids=["levels-0-1", "level-3"]
    )
    def test_cached_head_fuses_the_fresh_blocks(self, ladder, levels):
        x = quadrature._head(ladder, levels)
        assert not x.flags.writeable
        assert quadrature._head(ladder, levels) is x
        assert ladder.kept[levels] is x
        fresh, at = [], 0
        for spacing, offset in levels:
            for direction in (1.0, -1.0):
                # two live blocks, or fewer where the ladder ends
                k0 = 1 if (direction < 0 and offset == 0.0) else 0
                for i in range(2):
                    k = k0 + i * quadrature._BLOCK
                    fx, fw = _fresh_block(ladder, direction, spacing, offset, k)
                    block = quadrature._block(ladder, direction, spacing, offset, k)
                    if fx.size == 0:
                        assert block is None
                        break
                    _, w = block
                    assert x[at:at + len(fx)].tobytes() == fx.tobytes()
                    assert w.tobytes() == fw.tobytes()
                    at += len(fx)
                    fresh.append(fx)
        assert x.shape == np.concatenate(fresh).shape
        assert x.tobytes() == np.concatenate(fresh).tobytes()

    def test_dead_block_is_kept_as_none(self):
        # exp-sinh nodes at u >= 16 all lie beyond the 1e160 rail
        ladder = quadrature._EXP_SINH
        assert quadrature._block(ladder, 1.0, 0.5, 0.0, 32) is None
        assert ladder.kept[(1.0, 0.5, 0.0, 32)] is None

    @pytest.mark.parametrize("ladder", FIXED_LADDERS, ids=LADDER_IDS)
    def test_cached_arrays_are_read_only(self, ladder):
        x, w = quadrature._block(ladder, 1.0, 0.5, 0.0, 0)
        with pytest.raises(ValueError):
            x[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0

    def test_repeated_interval_reads_the_kept_pair_ladder(self):
        # the interval runs on the process-wide (s, 1 - s) ladder: a repeat
        # builds nothing and hands the integrand the ladder's own blocks
        seen = []

        def f(x):
            seen.append(x)
            return x[:, 0] ** -0.5

        first = integrate_interval(f)
        size = len(quadrature._UNIT_PAIR.kept)
        seen.clear()
        second = integrate_interval(f)
        assert len(quadrature._UNIT_PAIR.kept) == size
        assert first.converged and second == first
        # a block is kept as (x, w), a head as its abscissae alone
        kept = [v[0] if isinstance(v, tuple) else v for v in quadrature._UNIT_PAIR.kept.values()]
        assert seen and all(not x.flags.writeable for x in seen)
        assert all(x.ndim == 2 and any(x is k for k in kept) for x in seen)

    def test_repeated_quadrant_adds_no_entry(self):
        first = integrate_quadrant(_seed_cross_check_f2)
        size = len(quadrature._EXP_SINH.kept)
        second = integrate_quadrant(_seed_cross_check_f2)
        assert len(quadrature._EXP_SINH.kept) == size
        assert second == first

    def test_results_do_not_depend_on_ladder_state(self, monkeypatch):
        warm = integrate_quadrant(_seed_cross_check_f2)
        monkeypatch.setattr(quadrature._EXP_SINH, "kept", {})
        cold = integrate_quadrant(_seed_cross_check_f2)
        assert cold == warm
        assert 0 < len(quadrature._EXP_SINH.kept) < 1000

    def test_quadrant_hands_over_stable_read_only_blocks(self):
        # within one integral, equal contents arrive as one object: the
        # column of an outer block, and the row of a revisited inner block
        cols: dict[bytes, list] = {}
        rows: dict[bytes, list] = {}

        def f2(x, y):
            assert not x.flags.writeable and not y.flags.writeable
            cols.setdefault(x.tobytes(), []).append(x)
            rows.setdefault(y.tobytes(), []).append(y)
            return _seed_cross_check_f2(x, y)

        assert integrate_quadrant(f2).converged
        for seen in (cols, rows):
            assert all(all(o is objs[0] for o in objs) for objs in seen.values())
        assert max(len(objs) for objs in cols.values()) > 1
        assert max(len(objs) for objs in rows.values()) > 1
        assert 2 * len(rows) < sum(len(objs) for objs in rows.values())
        # a row is the exp-sinh ladder's own 1-D block or head
        kept = [v[0] if isinstance(v, tuple) else v for v in quadrature._EXP_SINH.kept.values()]
        assert all(objs[0].ndim == 1 for objs in rows.values())
        assert all(any(objs[0] is k for k in kept) for objs in rows.values())


def _raise_on_nan(t):
    return np.where(t > 2.0, np.nan, 1.0)


def _raise_on_overflow(t):
    return np.full(t.shape, 1e300) * 1e300


class TestFetchRule:
    """The blocks every scan must reach are fetched in one call per level head."""

    # float.hex of the value, and the evaluations, with one call per block
    PINNED = {
        "half-line-exp": (
            lambda: integrate_half_line(lambda t: np.exp(-t)),
            "0x1.0000000000000p+0", 391,
        ),
        "half-line-bilateral": (
            lambda: integrate_half_line(lambda t: t**-0.5 * np.exp(-t - 1.0 / t)),
            "0x1.eb43de8286e12p-3", 197,
        ),
        "interval-beta": (
            lambda: integrate_interval(_beta_half_half),
            "0x1.921fb54442d19p+1", 97,
        ),
        "quadrant": (
            lambda: integrate_quadrant(_seed_cross_check_f2),
            "0x1.6affa0e2a5922p-1", 38809,
        ),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pointwise_results_keep_their_bits(self, case):
        run, value, evaluations = self.PINNED[case]
        res = run()
        assert float(res.value).hex() == value
        assert res.evaluations == evaluations

    def test_half_line_call_count(self):
        # levels 0-1 in one call, one head call for each of levels 2-4, and
        # three blocks past level 4's head (17 calls at one per block)
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.exp(-t)

        res = integrate_half_line(f)
        assert len(sizes) == 7
        assert sum(sizes) == res.evaluations == 391

    def test_quadrant_outer_fetches_fused_heads(self):
        # inner rows are judged by their share of the outer sum, so the
        # outer drive fuses its heads like every other drive
        rows, nodes = [], []

        def f2(x, y):
            rows.append(x.shape[0])
            nodes.append(y.shape[-1])
            return _seed_cross_check_f2(x, y)

        assert integrate_quadrant(f2).converged
        assert max(rows) > quadrature._BLOCK
        assert max(nodes) > quadrature._BLOCK


class TestErrorStateRestored:
    """Each integral runs under its own np.errstate and leaves the caller's intact."""

    RUNS = {
        "half-line": lambda g: integrate_half_line(lambda t: g(t) + np.exp(-t)),
        "interval": lambda g: integrate_interval(lambda x: g(4.0 * x[:, 0]) + x[:, 0] ** -0.5),
        "quadrant": lambda g: integrate_quadrant(lambda x, y: g(x) + np.exp(-x - y)),
    }

    @pytest.mark.parametrize("run", list(RUNS))
    @pytest.mark.parametrize(
        "g, message",
        [
            (np.zeros_like, None),
            (_raise_on_nan, "integrand returned NaN"),
            (_raise_on_overflow, r"integrand\*weight overflowed"),
        ],
        ids=["converges", "nan", "overflow"],
    )
    def test_caller_state_survives(self, run, g, message):
        # a caller state unlike the driver's: its raise settings would also
        # trip on any floating-point event left outside the driver's context
        with np.errstate(over="raise", under="warn", divide="raise", invalid="print"):
            before = np.geterr()
            if message is None:
                assert self.RUNS[run](g).converged
            else:
                with pytest.raises(QuadratureError, match=message):
                    self.RUNS[run](g)
            assert np.geterr() == before


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

    @pytest.mark.parametrize("field", ["rel", "abs"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_target_is_rejected(self, field, value):
        # an infinite target would pass every estimate
        with pytest.raises(ValueError, match=f"{field} tolerance must be finite"):
            Tolerance(**{field: value})


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
        for f, expected, label in closed_form_interval_cases():
            tol = Tolerance(rel=1e-7) if label == "beta-half-half" else Tolerance()
            res = integrate_interval(f, tol)
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
