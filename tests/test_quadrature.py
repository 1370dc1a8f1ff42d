"""Quadrature engine checks: closed forms, invariants, honesty, failure modes."""

import math
import re

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
# levels 0 to 3, whose heads a drive's first call fetches
FIRST_HEAD = (0, 1, 2, 3)


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


def _damped_cosine(t):
    return t**-0.5 * np.exp(-t) * (1.0 + np.cos(3.0 * t))


def _fast_cosine(x):
    return x[:, 0] ** -0.5 * (1.0 + np.cos(200.0 * x[:, 0]))


def _damped_cosines_f2(x, y):
    # the seed cross-check's integrand times (1 + cos 3x)(1 + cos 3y): its
    # drives go past level 4
    return _seed_cross_check_f2(x, y) * (1.0 + np.cos(3.0 * x)) * (1.0 + np.cos(3.0 * y))


def _divergent_f2(x, y):
    # (x+y)^-1/2 exp(-xy/(x+y)) alone is not integrable over the quadrant
    t = 1.0 / (1.0 / x + 1.0 / y)
    return (x + y) ** -0.5 * np.exp(-t)


class TestHalfLine:
    @pytest.mark.parametrize("f,expected,label", closed_form_half_line_cases())
    def test_closed_forms(self, f, expected, label):
        res = integrate_half_line(f)
        assert res.converged
        assert complex(res.value).real == pytest.approx(expected, rel=1e-10, abs=0)

    def test_bilateral_cross_check_double_resolution(self):
        # same integral at an 100x tighter tolerance must agree
        f = lambda t: t**-0.5 * np.exp(-t - 1.0 / t)
        coarse = integrate_half_line(f, Tolerance(rel=1e-8))
        fine = integrate_half_line(f, Tolerance(rel=1e-12))
        assert complex(coarse.value).real == pytest.approx(
            complex(fine.value).real, rel=1e-8, abs=0
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
        assert complex(res.value).real == pytest.approx(expected, rel=1e-7, abs=0)

    def test_beta_converges_at_the_default_tolerance(self):
        # both endpoint singularities see exact offsets from their endpoint
        res = integrate_interval(_beta_half_half)
        assert res.converged
        assert abs(res.value - math.pi) <= 1e-15

    def test_complex_integrand_shared_mesh(self):
        res = integrate_interval(lambda x: np.exp(-2j * x[:, 0]))
        expected = (1.0 - np.exp(-2j)) / 2j
        assert res.converged
        assert complex(res.value) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_endpoints_untouched(self):
        def f(x):
            # r and 1 - r are both positive: neither endpoint is reached
            assert x.ndim == 2 and x.shape[1] == 2 and np.all(x > 0.0)
            return x[:, 0] ** -0.25

        res = integrate_interval(f)
        assert complex(res.value).real == pytest.approx(4.0 / 3.0, rel=1e-10, abs=0)


class TestBatches:
    """A (rows, n) batch through a public route: one value per row."""

    ROUTES = {
        "interval": (integrate_interval, _beta_half_half, 195),
        "half-line": (integrate_half_line, lambda t: t**-0.5 * np.exp(-t), 197),
        # a complex pairwise sum once moved this row's last bit
        "interval-power-exp": (
            integrate_interval, lambda x: x[:, 0] ** 0.3 * np.exp(x[:, 1]), 195,
        ),
        # converges past level 3, so its later levels are summed too
        "interval-past-level-3": (integrate_interval, lambda x: np.cos(30.0 * x[:, 0]), 391),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_identical_rows_keep_the_scalar_bits(self, route):
        integrate, f, evaluations = self.ROUTES[route]
        single = integrate(f)
        assert single.evaluations == evaluations
        batch = integrate(lambda x: np.stack([f(x), f(x)]))
        assert batch.value.dtype == np.float64
        assert batch.value.tolist() == [single.value, single.value]
        assert batch.abs_error_estimate == single.abs_error_estimate
        assert batch.evaluations == 2 * single.evaluations
        assert batch.converged

    def test_batch_below_one_is_judged_at_its_own_scale(self):
        # a single value's scale has a floor of 1, a batch's has none: its
        # largest row sets it, 6.6e-8 here, so the bound is abs
        tol = Tolerance()
        rows = np.array([[1e-6], [2e-6]])
        res = integrate_interval(lambda x: rows * np.cos(30.0 * x[:, 0]), tol)
        assert res.converged
        assert res.abs_error_estimate <= max(tol.abs, tol.rel * np.max(np.abs(res.value)))

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_complex_row_gives_a_complex_batch(self, route):
        integrate, f, _ = self.ROUTES[route]
        single = integrate(f)
        batch = integrate(lambda x: np.stack([f(x), 1j * f(x)]))
        assert batch.value.dtype == np.complex128
        assert batch.value.tolist() == [single.value, 1j * single.value]


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
            complex(mapped.value).real, rel=1e-9, abs=0
        )

    def test_linearity(self):
        f = lambda t: np.exp(-t)
        g = lambda t: t * np.exp(-3.0 * t)
        a, b = 2.5, -1.25
        combined = integrate_half_line(lambda t: a * f(t) + b * g(t))
        separate = a * integrate_half_line(f).value + b * integrate_half_line(g).value
        assert complex(combined.value).real == pytest.approx(
            complex(separate).real, rel=1e-11, abs=0
        )


class TestQuadrant:
    def test_separable(self):
        res = integrate_quadrant(lambda x, y: np.exp(-x - y))
        assert res.converged
        assert complex(res.value).real == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_separable_matches_product_of_half_lines(self):
        fx = lambda x: x**0.25 * np.exp(-1.5 * x)
        fy = lambda y: y**-0.5 * np.exp(-0.5 * y)
        prod = (
            complex(integrate_half_line(fx).value).real
            * complex(integrate_half_line(fy).value).real
        )
        res = integrate_quadrant(lambda x, y: fx(x) * fy(y))
        assert complex(res.value).real == pytest.approx(prod, rel=1e-9, abs=0)

    def test_seed_cross_check(self):
        # (x+y)^-1/2 exp(-xy/(x+y)) exp(-x-y) over the quadrant equals
        # 2 sqrt(pi)/5, the product-form reduction at p = q = 1, f = exp(-t)
        res = integrate_quadrant(_seed_cross_check_f2)
        assert res.converged
        assert complex(res.value).real == pytest.approx(2.0 * SQPI / 5.0, rel=1e-9, abs=0)

    def test_unconverged_inner_rows_clear_converged(self):
        # a jump at y = 1 keeps every inner integral from converging, while
        # each row is the same multiple of exp(-x), so the outer drive
        # converges on its own; the inner failures must still show
        res = integrate_quadrant(lambda x, y: np.exp(-x - y) * (y > 1.0))
        assert res.evaluations < quadrature._QUADRANT_MAX_EVALUATIONS
        assert complex(res.value).real == pytest.approx(math.exp(-1.0), rel=1e-3, abs=0)
        assert not res.converged

    def test_divergent_flagged_never_silent(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 150_000)
        try:
            res = integrate_quadrant(_divergent_f2)
            assert not res.converged
        except QuadratureError:
            pass  # overflow detection is an equally loud failure


class TestRowRetirement:
    """An inner row retires once its own estimate is a tenth of its batch's bound.

    The outer drive is replaced by one call of its integrand on two nodes,
    so the quadrant's own inner drive runs a two-row batch: at x = 1 the
    algebraic 1/(1 + y)**2, whose estimate is within that tenth at level
    3, and at x = 2 exp(-y) cos 5y, which converges only at level 7.
    """

    XS = np.array([1.0, 2.0])

    @staticmethod
    def integrand2d(x, y):
        return np.where(x == 1.0, 1.0 / (1.0 + y) ** 2, np.exp(-y) * np.cos(5.0 * y))

    def run(self, monkeypatch, retire=True):
        """(the two rows' inner integrals, the quadrant's result, each call's column).

        With retire=False no row retires: a row's estimate is never at
        most a share 0 of the bound.
        """
        drive, inner, columns = quadrature._drive, [], []

        def two_row_outer(f, ladder, tol, rows=None):
            if rows is None:  # the outer drive
                xs = self.XS.copy()
                xs.flags.writeable = False
                inner.append(f(xs))
                return 0.0, 0.0, True, len(xs)
            return drive(f, ladder, tol, rows)

        def spy(x, y):
            assert not x.flags.writeable
            columns.append(x[:, 0].copy())
            return self.integrand2d(x, y)

        with monkeypatch.context() as patched:
            patched.setattr(quadrature, "_drive", two_row_outer)
            if not retire:
                patched.setattr(quadrature, "_RETIRE_SHARE", 0.0)
            res = integrate_quadrant(spy)
        return inner[0], res, columns

    def test_later_calls_see_only_the_live_row(self, monkeypatch):
        _, res, columns = self.run(monkeypatch)
        assert res.converged
        # the fused head of levels 0-3 for both rows, then the slow row alone
        assert np.array_equal(columns[0], self.XS)
        assert len(columns) > 1
        assert all(np.array_equal(col, self.XS[1:]) for col in columns[1:])

    def test_retired_row_keeps_its_level_3_value(self, monkeypatch):
        rows, _, _ = self.run(monkeypatch)
        # the same batch stopped after level 3 with no row retired: the
        # fast row's value there, which a retired row must not rescale
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", quadrature._FIRST_TEST_LEVEL)
        at_3, _, _ = self.run(monkeypatch, retire=False)
        assert rows[0] == at_3[0]
        assert rows[1] != at_3[1]

    def test_agrees_with_the_unretired_batch_for_less_work(self, monkeypatch):
        rows, res, _ = self.run(monkeypatch)
        full_rows, full, _ = self.run(monkeypatch, retire=False)
        assert full.converged
        assert res.evaluations < full.evaluations
        # within the inner batch's bound, taken on the rows times their shares
        share = np.array([1.0, 2.0])  # each node's outer weight, rounded down to a power of two
        outer = quadrature.QUADRANT_TOLERANCE
        inner = Tolerance(rel=outer.rel / 10.0, abs=outer.abs)
        bound = inner.bound(full_rows * share)
        assert np.all(np.abs(rows - full_rows) * share <= bound)

    @pytest.mark.parametrize(
        "tol", [None, Tolerance(rel=1e-11), Tolerance(rel=1e-13, abs=1e-300)],
        ids=["default", "1e-11", "1e-13"],
    )
    def test_no_call_gets_an_empty_column(self, tol):
        # every inner drive of a whole quadrant, at three targets
        sizes = []

        def f2(x, y):
            sizes.append(x.shape[0])
            return _seed_cross_check_f2(x, y)

        assert integrate_quadrant(f2, tol).converged
        assert min(sizes) > 0


class TestSupport:
    """integrate_quadrant(support=box) computes no value outside the box."""

    # exp(-x - y) underflows to 0 past 800, and (x + y)**-0.5 < 1 there
    BOX = ((0.0, 800.0), (0.0, 800.0))

    def test_clipped_equals_unclipped_with_fewer_evaluations(self):
        full = integrate_quadrant(_seed_cross_check_f2)
        clipped = integrate_quadrant(_seed_cross_check_f2, support=self.BOX)
        assert full.converged and clipped.converged
        assert abs(clipped.value - full.value) <= 1e-15 * abs(full.value)
        assert clipped.evaluations < full.evaluations

    def test_nodes_stay_in_the_box(self):
        seen = []

        def f2(x, y):
            seen.append((x.max(), y.max()))
            return _seed_cross_check_f2(x, y)

        integrate_quadrant(f2, support=self.BOX)
        assert max(x for x, _ in seen) <= 800.0 and max(y for _, y in seen) <= 800.0

    def test_clipped_blocks_are_leading_runs_of_the_fixed_blocks(self):
        # each level's clipped head holds, per direction, a leading run of
        # the fixed run: exp-sinh nodes run outward, so the box cuts tails
        child = quadrature._clipped(1e-3, 800.0)
        for level in range(len(quadrature._LEVELS)):
            x, w, split = quadrature._head(child, (level,))
            assert not x.flags.writeable and not w.flags.writeable and split == 0
            assert np.all((x >= 1e-3) & (x <= 800.0))
            at = 0
            for direction in (1.0, -1.0):
                fixed_x, fixed_w = quadrature._run(quadrature._EXP_SINH, level, direction)
                n = np.count_nonzero((fixed_x >= 1e-3) & (fixed_x <= 800.0))
                assert 0 < n and np.array_equal(x[at:at + n], fixed_x[:n])
                assert np.array_equal(w[at:at + n], fixed_w[:n])
                at += n
            assert at == len(x)

    def test_box_of_one_point_keeps_every_head(self):
        # every level's first nodes, 0.44 and 2.27, survive a box that holds
        # 1 alone, and a box beyond them that excludes 1
        for box in ((1.0, 1.0), (5.0, 6.0)):
            res = integrate_quadrant(lambda x, y: np.zeros(np.broadcast(x, y).shape),
                                     support=(box, box))
            assert res.value == 0.0 and res.converged, box
            for level in range(len(quadrature._LEVELS)):
                x, _, _ = quadrature._head(quadrature._clipped(*box), (level,))
                assert x.size > 0 and x.min() <= quadrature._FIRST_NODES[1], (box, level)


class TestLevelCap:
    """A 1-D drive that never converges stops at its ladder's last level.

    Each integrand jumps at its ladder's centre, u = 0, so no level agrees
    with the one before, and decays so slowly that every level runs to the
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
        # inside an inner batch; that stops the outer integral as well.  At
        # this tolerance the outer drive goes past its first call (50 569
        # evaluations as inner rows retire) to level 4, whose inner batch
        # runs its first call (to 89 181) and would take it past 100 000 with
        # its second: level 3's value and estimate are returned
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 100_000)
        res = integrate_quadrant(_seed_cross_check_f2, Tolerance(rel=1e-11))
        assert not res.converged
        assert res.value == 0.7089815403622064
        assert res.abs_error_estimate == pytest.approx(1.1244511363717268e-11, rel=1e-9, abs=0)

    def test_bound_does_not_depend_on_tol(self, monkeypatch):
        # the targets of QUADRANT_TOLERANCE, passed or left to the default
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 300_000)
        default = integrate_quadrant(_divergent_f2)
        passed = integrate_quadrant(_divergent_f2, Tolerance(rel=1e-9, abs=1e-14))
        assert default == passed
        assert not default.converged
        assert default.evaluations == 272_409

    def test_evaluations_count_integrand_points_only(self, monkeypatch):
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
        points.clear()
        # a budget-stopped oracle counts the inner batches it ran, not the
        # one it refused
        monkeypatch.setattr(quadrature, "_QUADRANT_MAX_EVALUATIONS", 300_000)
        res = integrate_quadrant(
            lambda x, y: points.append(x.size * y.size) or _divergent_f2(x, y))
        assert not res.converged
        assert res.evaluations == sum(points)


class TestDriveCountsWhatItFetches:
    """A 1-D drive's evaluations are the summed sizes of the heads _head gave
    it for the levels it fetched, times the rows of a batch."""

    CASES = {
        "half-line": (integrate_half_line, _damped_cosine, 1),
        "half-line-complex": (integrate_half_line,
                              lambda t: t**-0.5 * np.exp(-(1.0 + 3.0j) * t), 1),
        "interval-pairs": (integrate_interval, _fast_cosine, 1),
        "half-line-batch": (integrate_half_line,
                            lambda t: np.stack([_damped_cosine(t), np.exp(-t)]), 2),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_evaluations_are_the_fetched_heads(self, case, monkeypatch):
        integrate, f, rows = self.CASES[case]
        head, sizes = quadrature._head, []

        def spy(ladder, levels):
            x, w, split = head(ladder, levels)
            sizes.append(len(x))
            return x, w, split

        monkeypatch.setattr(quadrature, "_head", spy)
        res = integrate(f)
        assert len(sizes) > 1, "the drive stopped at its first fetch"
        assert res.evaluations == rows * sum(sizes)


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

    def test_head_sum_overflow(self):
        # each term, 1e308 times a tanh-sinh weight of at most pi/4, is
        # finite, but their sum is not; it once returned inf + nan j
        with pytest.raises(QuadratureError, match=r"integrand\*weight sum overflowed"):
            integrate_interval(lambda x: np.full(len(x), 1e308))

    def test_tail_block_sum_overflow(self):
        # past the first fetch, a level of finite terms whose sum is not
        # finite raises as the first fetch does: two terms of 1e308 at
        # nodes 64 and 65 of level 5's outward run, reached by a drive that
        # never converges (TestLevelCap)
        rx, rw = quadrature._run(quadrature._EXP_SINH, 5, 1.0)
        assert len(rx) == 197
        seen = []

        def f(t):
            seen.append(t)
            slow = np.where(t > 1.0, 1.0, 0.5) / (t * (1.0 + np.log(t) ** 2))
            return np.where(t == rx[64], 1e308 / rw[64], np.where(t == rx[65], 1e308 / rw[65], slow))

        with pytest.raises(QuadratureError, match=r"integrand\*weight sum overflowed"):
            integrate_half_line(f)
        assert seen[-1] is quadrature._head(quadrature._EXP_SINH, (5,))[0]

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1.0j], ids=["real", "complex"])
    def test_running_sum_overflow(self, scale):
        # the first group's sum and level 3's own sum are each 1.5e308, one
        # term apiece at t = 1 and at level 3's node t = 1.1032..., and
        # finite; the running sum they add to is not, and once came back as
        # a converged inf (inf + nan j for the complex twin)
        x, w, split = quadrature._head(quadrature._EXP_SINH, FIRST_HEAD)
        first, own = np.flatnonzero(x == 1.0)[0], np.flatnonzero(x == 1.103226092399128)[0]
        assert first < split <= own
        big = {x[i]: 1.5e308 / w[i] * scale for i in (first, own)}

        def f(t):
            return np.array([big.get(value, 0.0 * scale) for value in t])

        with pytest.raises(QuadratureError, match=r"integrand\*weight sum overflowed"):
            integrate_half_line(f)

    def test_nan_outranks_overflow(self):
        # the first group holds both NaN values and overflowing terms
        with pytest.raises(QuadratureError, match="integrand returned NaN"):
            integrate_half_line(lambda t: np.where(t > 1e100, np.nan, 1e300))

    def test_nan_outranks_an_overflow_far_before_it(self):
        # one overflowing term at level 0's node t = 2.267, and NaN at
        # level 2's inward nodes below t = 1e-3, more than 32 terms later
        # in the first group of the first fetch: the NaN is named
        big = quadrature._run(quadrature._EXP_SINH, 0, 1.0)[0][1]
        level_2 = quadrature._run(quadrature._EXP_SINH, 2, -1.0)[0]
        nans = level_2[level_2 < 1e-3]
        x, _, split = quadrature._head(quadrature._EXP_SINH, FIRST_HEAD)
        first_nan = np.flatnonzero(np.isin(x, nans))[0]
        assert np.flatnonzero(x == big)[0] + 32 < first_nan < split
        assert repr(float(big)) == "2.2671750650755844"

        def f(t):
            return np.where(np.isin(t, nans), np.nan, np.where(t == big, 1e308, np.exp(-t)))

        with pytest.raises(QuadratureError, match="integrand returned NaN at abscissa") as err:
            integrate_half_line(f)
        assert _abscissa(err) == x[first_nan] == nans[0]

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

        with pytest.raises(QuadratureError, match="integrand returned NaN") as err:
            integrate_quadrant(f2)
        # the first bad column of the (rows, n) batch names its y node
        assert _abscissa(err) > 2.0

    # Each fault only at level 3's nodes of a drive's first fetch, which
    # its second group sums: a NaN value past t = 10, a value whose term
    # overflows there, and both, the overflow from t = 10 and the NaN past
    # t = 100 in the same group, where the NaN is named
    LEVEL_3 = np.concatenate([quadrature._run(quadrature._EXP_SINH, 3, d)[0] for d in (1.0, -1.0)])
    SECOND_GROUP = {
        "nan": ((np.nan, 10.0), (1e308, math.inf), "integrand returned NaN"),
        "overflow": ((np.nan, math.inf), (1e308, 10.0), r"integrand\*weight overflowed"),
        "both": ((np.nan, 100.0), (1e308, 10.0), "integrand returned NaN"),
    }

    @pytest.mark.parametrize("route", ["half-line", "quadrant"])
    @pytest.mark.parametrize("fault", list(SECOND_GROUP))
    def test_fault_in_the_first_fetch_second_group(self, fault, route):
        (nan, past_nan), (big, past_big), message = self.SECOND_GROUP[fault]

        def values(t):
            at = np.isin(t, self.LEVEL_3)
            healthy = np.where(at & (t > past_big), big, np.exp(-t))
            return np.where(at & (t > past_nan), nan, healthy)

        with pytest.raises(QuadratureError, match=message) as err:
            if route == "half-line":
                integrate_half_line(values)
            else:  # the first inner batch: every row takes the same y faults
                integrate_quadrant(lambda x, y: values(y) * np.exp(-x))
        assert _abscissa(err) in self.LEVEL_3
        assert _abscissa(err) > (past_nan if "NaN" in message else past_big)

    # Each fault as a half-line integrand, past t = 10 on the first level:
    # a NaN value, a value whose term overflows, and a NaN imaginary part
    FAULTS = {
        "nan": (lambda t: np.where(t > 10.0, np.nan, np.exp(-t)), "integrand returned NaN"),
        "overflow": (lambda t: np.where(t > 10.0, 1e300, np.exp(-t)),
                     r"integrand\*weight overflowed"),
        "nan-imag": (lambda t: np.where(t > 10.0, complex(1.0, math.nan), np.exp(-t) + 0j),
                     "integrand returned NaN"),
    }
    # how each kind of sum takes a fault's values: alone, with an imaginary
    # part added, or as the second row of a batch whose first row is healthy
    KINDS = {
        "real": lambda y: y,
        "complex": lambda y: y + 0.5j,
        "batch": lambda y: np.stack([np.zeros(y.shape), y]),
    }

    @pytest.mark.parametrize("fault, kind", [
        ("nan", "real"), ("nan", "complex"), ("nan", "batch"),
        ("overflow", "real"), ("overflow", "complex"), ("overflow", "batch"),
        ("nan-imag", "complex"), ("nan-imag", "batch"),  # a real sum has no imaginary part
    ])
    def test_each_fault_of_each_kind_of_sum(self, fault, kind):
        values, message = self.FAULTS[fault]
        with pytest.raises(QuadratureError, match=message):
            integrate_half_line(lambda t: self.KINDS[kind](values(t)))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_finite_terms_whose_sum_overflows(self, kind):
        # each term, 1e308 times a tanh-sinh weight of at most pi/4, is finite
        with pytest.raises(QuadratureError, match=r"integrand\*weight sum overflowed"):
            integrate_interval(lambda x: self.KINDS[kind](np.full(len(x), 1e308)))

    @pytest.mark.parametrize("total, finite", [
        (np.float64(1.5), True), (np.float64(math.nan), False), (np.float64(-math.inf), False),
        (np.complex128(complex(1.5, math.nan)), False), (np.complex128(complex(math.inf, 1.5)), False),
        (np.complex128(1.5e308 + 1.5e308j), True),  # its modulus is above the double range
        (np.array([1.5, 2.5]), True), (np.array([1.5 + 0j, complex(2.5, math.nan)]), False),
    ])
    def test_finite_reads_each_part_and_each_row(self, total, finite):
        assert quadrature._finite(total) == finite

    def test_complex_sum_above_the_double_range_in_modulus(self):
        # each part of a whole level's sum is 1.5e308, finite, while its
        # modulus is not a double: the finiteness test reads the parts, and
        # the Python complex's abs raises where numpy's would give inf
        x, w, _ = quadrature._head(quadrature._EXP_SINH, (5,))
        y = np.zeros(len(x), dtype=complex)
        y[:64] = 1.5e308 / 64 * (1.0 + 1.0j) / w[:64]
        with np.errstate(all="ignore"):
            total = quadrature._checked_sum(x, y, y * w)
        assert math.isfinite(total.real) and math.isfinite(total.imag)
        with pytest.raises(OverflowError):
            abs(total)

    def test_drive_over_a_sum_past_the_double_range_ends_as_before(self):
        # the first group's raw sum is 1.5e308 (1 + 1j), its modulus past the
        # double range, and every later level adds 0: a drive forms no
        # modulus past the range (see _drive), so it raises no OverflowError
        # and halves its value to the level cap, with the bits it had when
        # its sums were numpy complexes
        x, w, _ = quadrature._head(quadrature._EXP_SINH, FIRST_HEAD)
        big = 1.5e308 * (1.0 + 1.0j) / w[0]
        res = integrate_half_line(lambda t: np.where(t == x[0], big, 0j))
        value = complex(res.value)
        assert (value.real.hex(), value.imag.hex()) == ("0x1.ab36d48e1acf0p+1011",) * 2
        assert res.abs_error_estimate.hex() == "0x1.2e1606ff93d79p+1012"
        assert (res.evaluations, res.converged) == (50_387, False)

    @pytest.mark.parametrize("imag", [math.inf, math.nan], ids=["inf", "nan"])
    def test_complex_sum_keeps_its_real_part(self, imag):
        # a chunk whose imaginary part is not finite keeps a finite real
        # part, alone or as a row of a batch; a single sum is a Python complex
        terms = np.array([1.5 + 0.5j, complex(2.0, imag), -0.25 + 0j])
        single = quadrature._sum(terms)
        batch = quadrature._sum(np.stack([terms, terms.real + 0j]))
        assert type(single) is complex
        assert single.real == 3.25 and math.isnan(single.imag) == math.isnan(imag)
        assert np.array_equal(batch.real, [3.25, 3.25]) and batch.imag[1] == 0.0
        assert not quadrature._finite(single) and not quadrature._finite(batch)

    @pytest.mark.parametrize("size", [197, 1000])
    def test_single_real_sum_is_a_float_with_numpy_bits(self, size):
        # a single real drive's arithmetic runs on Python floats: its sum is
        # numpy's pairwise sum, the same double, as a float
        terms = np.random.default_rng(size).standard_normal(size) * np.geomspace(1e-3, 1e3, size)
        total = quadrature._sum(terms)
        assert type(total) is float
        assert np.float64(total).tobytes() == np.add.reduce(terms, axis=-1).tobytes()

    @pytest.mark.parametrize("size", [197, 1000])
    def test_single_complex_sum_is_a_complex_with_numpy_bits(self, size):
        # a single complex drive's arithmetic runs on Python scalars: its sum
        # is a Python complex whose parts are numpy's pairwise sums of the
        # parts, signed zeros included
        rng = np.random.default_rng(size)
        scale = np.geomspace(1e-3, 1e3, size)
        terms = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
        terms[:3] = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]
        for part in (terms, terms[:3]):
            total = quadrature._sum(part)
            assert type(total) is complex
            assert np.float64(total.real).tobytes() == np.add.reduce(part.real).tobytes()
            assert np.float64(total.imag).tobytes() == np.add.reduce(part.imag).tobytes()

    @pytest.mark.parametrize("imag, real", [(0.0, True), (-0.0, True), (math.nan, False)],
                             ids=["+0", "-0", "nan"])
    def test_result_is_real_unless_an_imaginary_part_is_set(self, imag, real):
        for value in (np.complex128(complex(1.5, imag)), complex(1.5, imag),
                      np.array([1.5 + 0j, complex(2.5, imag)])):
            out = quadrature._result((value, 0.0, True), 1).value
            assert np.isrealobj(out) == real, value
            assert np.all(np.real(out) == np.real(value))


class TestComplexDrivesKeepTheirBits:
    """A single complex drive runs on Python scalars and keeps the value,
    estimate and evaluations it had on numpy complex scalars."""

    PINS = {
        # converges at level 6, past level 4
        "half-line, level 6": (
            lambda: integrate_half_line(lambda t: t**0.7 * np.exp(-(2.3 - 10j) * t)),
            ("-0x1.74e46208930e5p-7", "0x1.ad42e511bf632p-7", "0x1.46e7470c503ecp-40", 1575)),
        "half-line": (
            lambda: integrate_half_line(lambda t: np.exp(-(1.0 + 0.5j) * t) / (1.0 + t)),
            ("0x1.105b3e7a5b65ep-1", "-0x1.6a2934228bd82p-3", "0x1.7594b820f9b82p-46", 393)),
        "interval": (
            lambda: integrate_interval(lambda x: x[:, 0] ** -0.5 * np.exp(-3j * x[:, 1])),
            ("-0x1.511ec7793bb7ep-1", "-0x1.225c5ceb4515ep+0", "0x1.2e6890536a1c8p-51", 195)),
    }

    @pytest.mark.parametrize("case", list(PINS))
    def test_bits(self, case):
        run, pinned = self.PINS[case]
        res = run()
        value = complex(res.value)
        assert res.converged
        assert (value.real.hex(), value.imag.hex(), res.abs_error_estimate.hex(),
                res.evaluations) == pinned


def _abscissa(err) -> float:
    return float(re.search(r" at abscissa (\S+?);?(?: |$)", str(err.value)).group(1))


def _pair(err) -> tuple[float, float]:
    found = re.search(r" at \(s, 1 - s\) = \((\S+), (\S+)\)", str(err.value))
    return float(found.group(1)), float(found.group(2))


class TestFailureLocation:
    """Each error names the abscissa of the first non-finite term."""

    def test_half_line_nan(self):
        with pytest.raises(QuadratureError, match="integrand returned NaN at abscissa") as err:
            integrate_half_line(lambda t: np.where(t > 1e3, np.nan, np.exp(-t)))
        assert 1e3 < _abscissa(err) < 1e5

    def test_half_line_overflow(self):
        with pytest.raises(QuadratureError, match=r"overflowed at abscissa") as err:
            integrate_half_line(lambda t: 1.0 / t**2)
        assert 0.0 < _abscissa(err) < 1e-150

    def test_interval_nan(self):
        with pytest.raises(QuadratureError, match=r"returned NaN at \(s, 1 - s\)") as err:
            integrate_interval(lambda x: np.where(x[:, 1] < 1e-5, np.nan, 1.0))
        s, rest = _pair(err)
        assert 0.0 < rest < 1e-5 and s == 1.0 - rest

    def test_interval_overflow_names_a_cancelled_difference(self):
        # the integrand forms 1 - s itself, which rounds to 0 near s = 1;
        # read from the pair, the same integral is pi (TestInterval)
        with pytest.raises(QuadratureError, match=r"overflowed at \(s, 1 - s\)") as err:
            integrate_interval(lambda x: x[:, 0] ** -0.5 * (1 - x[:, 0]) ** -0.5)
        s, rest = _pair(err)
        assert s == 1.0 and 0.0 < rest < 1e-16


def _fresh_run(ladder, level, direction):
    """A run built apart from _run: its nodes generated one u at a time,
    outward, up to the first one not valid or whose weight is not finite
    and positive."""
    spacing, offset, _ = quadrature._LEVELS[level]
    k = 1 if (direction < 0 and offset == 0.0) else 0
    xs, ws = [], []
    while True:
        x, w = ladder.nodes(np.array([direction * (offset + spacing * k)]))
        if not (ladder.valid(x)[0] and np.isfinite(w[0]) and w[0] > 0.0):
            return np.concatenate(xs), np.concatenate(ws)
        xs.append(x)
        ws.append(w)
        k += 1


LADDER_IDS = ["exp-sinh", "unit-pair"]


def _from_kept(x, ladder) -> bool:
    """Whether x is one of ladder's heads."""
    return any(x is hx for hx, *_ in ladder.heads.values())


class TestNodeLadder:
    """Runs are the fresh nodes; heads of a ladder are built once, read-only and bounded."""

    @pytest.mark.parametrize("ladder", FIXED_LADDERS, ids=LADDER_IDS)
    @pytest.mark.parametrize("level", [0, 3, 11])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_cached_blocks_equal_fresh_nodes(self, ladder, level, direction):
        h = quadrature._BASE_STEP * 0.5**level
        # level 0 is the full pass; later levels add the odd nodes
        spacing, offset = (h, 0.0) if level == 0 else (2.0 * h, h)
        assert quadrature._LEVELS[level][:2] == (spacing, offset)
        x, w = quadrature._run(ladder, level, direction)
        # the run is the nodes generated one at a time, to the first invalid one
        fresh_x, fresh_w = _fresh_run(ladder, level, direction)
        assert x.shape == fresh_x.shape and x.tobytes() == fresh_x.tobytes()
        assert w.shape == fresh_w.shape and w.tobytes() == fresh_w.tobytes()
        # the level's kept head holds the run whole, the outward run first
        hx, hw, _ = quadrature._head(ladder, (level,))
        at = 0 if direction > 0 else len(quadrature._run(ladder, level, 1.0)[0])
        assert hx[at:at + len(x)].tobytes() == x.tobytes()
        assert hw[at:at + len(w)].tobytes() == w.tobytes()

    @pytest.mark.parametrize("ladder", FIXED_LADDERS, ids=LADDER_IDS)
    @pytest.mark.parametrize(
        "levels",
        [(0, 1), (3,), FIRST_HEAD, (5,)],
        ids=["levels-0-1", "level-3", "levels-0-3", "level-5"],
    )
    def test_cached_head_fuses_the_fresh_blocks(self, ladder, levels):
        head = quadrature._head(ladder, levels)
        x, w, split = head
        assert not x.flags.writeable and not w.flags.writeable
        assert quadrature._head(ladder, levels) is head
        assert ladder.heads[levels] is head
        fresh, fresh_w, at = [], [], 0
        for level in levels:
            if level == levels[-1]:  # the last level's nodes start at split
                assert split == at
            for direction in (1.0, -1.0):
                # each run generated apart, outward then inward
                fx, fw = _fresh_run(ladder, level, direction)
                assert x[at:at + len(fx)].tobytes() == fx.tobytes()
                at += len(fx)
                fresh.append(fx)
                fresh_w.append(fw)
        assert x.shape == np.concatenate(fresh).shape
        assert x.tobytes() == np.concatenate(fresh).tobytes()
        assert w.tobytes() == np.concatenate(fresh_w).tobytes()

    @pytest.mark.parametrize("ladder", FIXED_LADDERS, ids=LADDER_IDS)
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_runs_are_the_valid_prefix_within_the_rail(self, ladder, direction):
        # a run is the leading surviving nodes of its direction, and _U_MAX
        # never cuts one: the node just past it does not survive, and it is
        # generated, |u| <= _U_MAX (at level 0 it is u = 6.5 itself)
        for level in range(len(quadrature._LEVELS)):
            spacing, offset, _ = quadrature._LEVELS[level]
            x, w = quadrature._run(ladder, level, direction)
            k0 = 1 if (direction < 0 and offset == 0.0) else 0
            u = direction * (offset + spacing * np.arange(k0, k0 + len(x) + 1))
            assert abs(u[-1]) <= quadrature._U_MAX
            nx, nw = ladder.nodes(u)
            keep = ladder.valid(nx) & np.isfinite(nw) & (nw > 0.0)
            assert len(x) > 0 and keep[:-1].all() and not keep[-1]
            assert nx[:-1].tobytes() == x.tobytes() and nw[:-1].tobytes() == w.tobytes()

    @pytest.mark.parametrize("fixed", FIXED_LADDERS, ids=LADDER_IDS)
    def test_head_key_never_reads_a_run(self, fixed):
        # the head key (0, 1) reads like a run's (level 0, direction 1.0): on
        # a fresh ladder, the head a drive capped at level 1 fetches is the
        # whole runs of levels 0 and 1, fused
        ladder = quadrature._Ladder(fixed.nodes, fixed.valid)
        x, w, _ = quadrature._head(ladder, (0, 1))
        runs = [quadrature._run(ladder, level, d) for level in (0, 1) for d in (1.0, -1.0)]
        assert x.tobytes() == np.concatenate([rx for rx, _ in runs]).tobytes()
        assert w.tobytes() == np.concatenate([rw for _, rw in runs]).tobytes()

    @pytest.mark.parametrize("ladder", FIXED_LADDERS, ids=LADDER_IDS)
    def test_cached_arrays_are_read_only(self, ladder):
        x, w, _ = quadrature._head(ladder, FIRST_HEAD)
        with pytest.raises(ValueError):
            x[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0

    def test_repeated_interval_reads_the_kept_pair_ladder(self):
        # the interval runs on the process-wide (s, 1 - s) ladder: a repeat
        # builds nothing and hands the integrand the ladder's own arrays
        seen = []

        def f(x):
            seen.append(x)
            return x[:, 0] ** -0.5

        ladder = quadrature._UNIT_PAIR
        first = integrate_interval(f)
        size = len(ladder.heads)
        seen.clear()
        second = integrate_interval(f)
        assert len(ladder.heads) == size
        assert first.converged and second == first
        # each call gets a kept head
        assert seen and all(not x.flags.writeable for x in seen)
        assert all(x.ndim == 2 and _from_kept(x, ladder) for x in seen)

    def test_repeated_quadrant_adds_no_entry(self):
        ladder = quadrature._EXP_SINH
        first = integrate_quadrant(_seed_cross_check_f2)
        size = len(ladder.heads)
        second = integrate_quadrant(_seed_cross_check_f2)
        assert len(ladder.heads) == size
        assert second == first

    def test_results_do_not_depend_on_ladder_state(self, monkeypatch):
        ladder = quadrature._EXP_SINH
        warm = integrate_quadrant(_seed_cross_check_f2)
        monkeypatch.setattr(ladder, "heads", {})
        cold = integrate_quadrant(_seed_cross_check_f2)
        assert cold == warm
        # one head per fetch
        assert 0 < len(ladder.heads) <= len(quadrature._LEVELS) - quadrature._FIRST_TEST_LEVEL

    def test_quadrant_hands_over_stable_read_only_blocks(self, monkeypatch):
        # within one integral, the column of an outer head and the row of
        # an inner head come back with the same contents, read-only.  An
        # inner drive calls f once a level, so with no row retiring
        # (_RETIRE_SHARE = 0) its column gets a call at every level it
        # reaches, and the rows, the ladder's heads, are revisited by every
        # inner drive.  Damped oscillation in x and y takes both drives
        # past level 4 at the default targets
        monkeypatch.setattr(quadrature, "_RETIRE_SHARE", 0.0)
        cols: dict[bytes, list] = {}
        rows: dict[bytes, list] = {}

        def f2(x, y):
            assert not x.flags.writeable and not y.flags.writeable
            cols.setdefault(x.tobytes(), []).append(x)
            rows.setdefault(y.tobytes(), []).append(y)
            return _damped_cosines_f2(x, y)

        assert integrate_quadrant(f2).converged
        assert max(len(objs) for objs in cols.values()) > 1
        assert max(len(objs) for objs in rows.values()) > 1
        assert 2 * len(rows) < sum(len(objs) for objs in rows.values())
        assert max(len(y) for objs in rows.values() for y in objs) > 196
        # a row is the exp-sinh ladder's own 1-D head
        ladder = quadrature._EXP_SINH
        assert all(o.ndim == 1 for objs in rows.values() for o in objs)
        assert all(_from_kept(o, ladder) for objs in rows.values() for o in objs)


def _raise_on_nan(t):
    return np.where(t > 2.0, np.nan, 1.0)


def _raise_on_overflow(t):
    return np.full(t.shape, 1e300) * 1e300


class TestFetchRule:
    """Each level is fetched whole, in one call per level head, and summed in one pass."""

    # float.hex of the value, and the evaluations; the beta integral's
    # last bit moved when its first test went from level 1 to level 3, and
    # the bilateral and quadrant values' when the first fetch's levels
    # were summed in two groups rather than per run
    PINNED = {
        "half-line-exp": (
            lambda: integrate_half_line(lambda t: np.exp(-t)),
            "0x1.0000000000000p+0", 393,
        ),
        "half-line-bilateral": (
            lambda: integrate_half_line(lambda t: t**-0.5 * np.exp(-t - 1.0 / t)),
            "0x1.eb43de8286e11p-3", 197,
        ),
        "interval-beta": (
            lambda: integrate_interval(_beta_half_half),
            "0x1.921fb54442d18p+1", 195,
        ),
        "quadrant": (
            lambda: integrate_quadrant(_seed_cross_check_f2),
            "0x1.6affa0e2a5923p-1", 38809,
        ),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pointwise_results_keep_their_bits(self, case):
        run, value, evaluations = self.PINNED[case]
        res = run()
        assert float(res.value).hex() == value
        assert res.evaluations == evaluations

    @pytest.mark.parametrize(
        "ladder, f",
        [(quadrature._EXP_SINH, lambda t: t**-0.5 * np.exp(-t)),
         (quadrature._UNIT_PAIR, _beta_half_half)],
        ids=LADDER_IDS,
    )
    def test_scan_matches_a_block_by_block_sum(self, ladder, f):
        # a level's one-pass sum over its whole head against the sum of its
        # runs, each summed alone: the grouping differs, so the sums agree
        # within rounding of the sum of |terms|
        for level in range(6):
            x, w, _ = quadrature._head(ladder, (level,))
            assert len(np.unique(x, axis=0)) == len(x)
            y = f(x)
            got = quadrature._checked_sum(x, y, y * w)
            ref = size = 0.0
            for direction in (1.0, -1.0):
                rx, rw = quadrature._run(ladder, level, direction)
                terms = f(rx) * rw
                ref += terms.sum()
                size += np.abs(terms).sum()
            assert abs(got - ref) <= 1e-15 * size

    def test_half_line_call_count(self):
        # levels 0-3 in one call, and level 4's runs of 98 nodes per
        # direction whole in one head call
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.exp(-t)

        res = integrate_half_line(f)
        assert sizes == [len(quadrature._head(quadrature._EXP_SINH, FIRST_HEAD)[0]), 196]
        assert sum(sizes) == res.evaluations == 393

    def test_held_run_is_summed_whole(self, monkeypatch):
        # a drive that goes past level 4 fetches each later level whole in
        # one call and sums it in one pass, its terms far below the sum
        # included: no node of a level is left out, and none is fetched apart
        ladder = quadrature._EXP_SINH
        one_pass, sums, sizes = quadrature._sum, [], []
        monkeypatch.setattr(quadrature, "_sum", lambda terms: sums.append(terms) or one_pass(terms))

        def f(t):
            sizes.append(t.size)
            return _damped_cosine(t) + 1e-25 * (1.0 + t) ** -1.5

        res = integrate_half_line(f)
        heads = [quadrature._head(ladder, levels) for levels in (FIRST_HEAD, (4,), (5,), (6,))]
        assert res.converged and sizes == [len(x) for x, *_ in heads] == [197, 196, 394, 788]
        split = heads[0][2]
        assert [t.shape[-1] for t in sums] == [split, 197 - split, 196, 394, 788]
        x, w, _ = heads[2]
        terms = f(x) * w
        assert sums[3].tobytes() == terms.tobytes()
        part = one_pass(terms)
        assert 0.0 < np.abs(terms).min() <= 1e-18 * abs(part)

    # (ladder, run lengths per direction at levels 0 to 5, or 6 where clipped)
    RUNS = {
        "exp-sinh": (
            quadrature._EXP_SINH,
            [(13, 12), (12, 12), (25, 25), (49, 49), (98, 98), (197, 197)],
        ),
        "unit-pair": (
            quadrature._UNIT_PAIR,
            [(13, 12), (12, 12), (24, 24), (49, 49), (98, 98), (196, 196)],
        ),
        "clipped": (
            quadrature._clipped(1e-3, 1e3),
            [(5, 4), (4, 4), (9, 9), (17, 17), (35, 35), (70, 70), (140, 140)],
        ),
    }

    # (route, ladder, the integrand of each row of a two-row batch)
    GROUPED = {
        "half-line": (integrate_half_line, quadrature._EXP_SINH,
                      (lambda t: t**-0.5 * np.exp(-t), lambda t: np.exp(-t))),
        "interval": (integrate_interval, quadrature._UNIT_PAIR,
                     (_beta_half_half, lambda x: x[:, 0] ** 0.3 * np.exp(x[:, 1]))),
    }

    @pytest.mark.parametrize("first", [3, 1])
    @pytest.mark.parametrize("route", list(GROUPED))
    def test_first_fetch_is_two_group_sums(self, route, first, monkeypatch):
        # a drive stopped at its first tested level holds that level's step
        # times the sum of the coarser levels' terms plus the sum of its own,
        # both taken over the fused head: bitwise, alone and for each row
        integrate, ladder, rows = self.GROUPED[route]
        monkeypatch.setattr(quadrature, "_FIRST_TEST_LEVEL", first)
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", first)
        x, w, split = quadrature._head(ladder, tuple(range(first + 1)))
        coarse = [quadrature._run(ladder, level, d)[0] for level in range(first) for d in (1.0, -1.0)]
        assert split == sum(len(rx) for rx in coarse)
        step = quadrature._LEVELS[first][2]
        expected = []
        for f in rows:
            terms = f(x) * w
            expected.append(step * (np.add.reduce(terms[:split]) + np.add.reduce(terms[split:])))
            assert integrate(f).value == expected[-1]
        batch = integrate(lambda x: np.stack([f(x) for f in rows]))
        assert batch.value.tolist() == expected

    @pytest.mark.parametrize("name", list(RUNS))
    def test_head_holds_every_run_whole(self, name):
        # however long the run: from level 5 on every fixed run has at
        # least 196 nodes; a clipped ladder's runs are the fixed runs cut
        ladder, lengths = self.RUNS[name]
        fixed = quadrature._EXP_SINH if ladder.parent else ladder
        for level in range(len(quadrature._LEVELS)):
            x, w, _ = quadrature._head(ladder, (level,))
            runs = [quadrature._run(fixed, level, d) for d in (1.0, -1.0)]
            if ladder.parent:
                runs = [(rx[keep], rw[keep]) for rx, rw in runs
                        for keep in [(rx >= ladder.lo) & (rx <= ladder.hi)]]
            sizes = tuple(len(rx) for rx, _ in runs)
            if level < len(lengths):
                assert sizes == lengths[level]
            else:
                assert min(sizes) >= 196
            assert x.tobytes() == np.concatenate([rx for rx, _ in runs]).tobytes()
            assert w.tobytes() == np.concatenate([rw for _, rw in runs]).tobytes()

    @pytest.mark.parametrize("route", ["half-line", "interval", "quadrant"])
    def test_no_node_is_fetched_twice(self, route):
        # each level is fetched once, whole, so no node of one drive
        # reaches f twice; these integrands take their drives past level 4
        calls = []
        if route == "half-line":
            res = integrate_half_line(lambda t: calls.append(t) or _damped_cosine(t))
            drives = [calls]
        elif route == "interval":
            # the pairs (s, 1 - s), since s rounds to 1 near 1
            res = integrate_interval(lambda x: calls.append(x) or _fast_cosine(x))
            drives = [calls]
        else:
            res = integrate_quadrant(lambda x, y: calls.append((x, y)) or _damped_cosines_f2(x, y))
            # each outer call starts an inner drive at the fused head of levels
            # 0 to 3, with the outer call's whole column
            first, *_ = quadrature._head(quadrature._EXP_SINH, FIRST_HEAD)
            starts = [k for k, (_, y) in enumerate(calls) if y is first]
            drives = [[calls[k][0][:, 0] for k in starts]]
            for a, b in zip(starts, starts[1:] + [len(calls)]):
                drives.append([y for _, y in calls[a:b]])
        assert res.converged
        assert max(len(drive) for drive in drives) > 2
        for drive in drives:
            nodes = np.concatenate(drive)
            assert len(np.unique(nodes, axis=0)) == len(nodes)

    # integrands that meet the default targets at level 2 when tested from level 1
    EARLY = {
        "half-line": (integrate_half_line, quadrature._EXP_SINH, lambda t: 1.0 / (1.0 + t) ** 2),
        "interval": (integrate_interval, quadrature._UNIT_PAIR, _beta_half_half),
    }

    @pytest.mark.parametrize("route", list(EARLY))
    def test_first_call_is_the_fused_head_of_levels_0_to_3(self, route, monkeypatch):
        integrate, ladder, f = self.EARLY[route]
        seen = []
        res = integrate(lambda x: seen.append(x) or f(x))
        head, *_ = quadrature._head(ladder, FIRST_HEAD)
        # the drive does not stop at level 1 or 2, and needs no more calls
        assert seen[0] is head
        assert res.converged and len(seen) == 1 and res.evaluations == len(head)
        # the one constant moves the first test and the first fetch together
        monkeypatch.setattr(quadrature, "_FIRST_TEST_LEVEL", 1)
        seen.clear()
        early = integrate(lambda x: seen.append(x) or f(x))
        assert seen[0] is quadrature._head(ladder, FIRST_HEAD[:2])[0]
        assert early.converged and early.evaluations < len(head)

    def test_quadrant_drives_start_at_the_fused_head_of_levels_0_to_3(self):
        # the outer drive's first column, and each inner drive's first row.
        # An inner drive's column is a view of the outer drive's nodes until
        # a row retires; from then on it is a narrowed copy.  So a drive
        # starts at each call whose column is a view other than the last
        ladder = quadrature._EXP_SINH
        head, *_ = quadrature._head(ladder, FIRST_HEAD)
        calls = []

        def f2(x, y):
            calls.append((x, y))
            return np.exp(-x - y)

        res = integrate_quadrant(f2)
        assert res.converged
        kept = [hx for hx, *_ in ladder.heads.values()]
        views = [(x, y) for x, y in calls if any(x.base is k for k in kept)]
        starts = [call for k, call in enumerate(views) if k == 0 or call[0] is not views[k - 1][0]]
        assert len(views) < len(calls)  # rows retired
        (col, _), *_ = starts
        assert col[:, 0].tobytes() == head.tobytes()
        assert all(y is head for _, y in starts)

    def test_quadrant_outer_fetches_fused_heads(self):
        # inner rows are judged by their share of the outer sum, so the
        # outer drive fuses its heads like every other drive
        rows, nodes = [], []

        def f2(x, y):
            rows.append(x.shape[0])
            nodes.append(y.shape[-1])
            return _seed_cross_check_f2(x, y)

        assert integrate_quadrant(f2).converged
        # the first call's column and row are each the fused head of levels 0 to 3
        head, *_ = quadrature._head(quadrature._EXP_SINH, FIRST_HEAD)
        assert rows[0] == nodes[0] == len(head)


class TestErrorStateRestored:
    """Each integral runs under its own np.errstate and leaves the caller's intact."""

    RUNS = {
        "half-line": lambda g: integrate_half_line(lambda t: g(t) + np.exp(-t)),
        "interval": lambda g: integrate_interval(lambda x: g(4.0 * x[:, 0]) + x[:, 0] ** -0.5),
        "quadrant": lambda g: integrate_quadrant(lambda x, y: g(x) + np.exp(-x - y)),
        # an integral inside an integrand, as R1's inner integrals run: the
        # inner exit must hand back the outer state, not the caller's
        "nested": lambda g: integrate_half_line(
            lambda t: g(t) + np.exp(-t) * integrate_interval(lambda x: x[:, 1]).value),
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
        assert not tol.met_by(1e-10, small)
        assert 1e-10 > tol.bound(small)
        assert 1e-13 <= tol.bound(small)
        assert 1e-14 <= tol.bound(np.zeros(2))

    @pytest.mark.parametrize("field", ["rel", "abs"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_target_is_rejected(self, field, value):
        # an infinite target would pass every estimate
        with pytest.raises(ValueError, match=f"{field} tolerance must be finite"):
            Tolerance(**{field: value})


class TestRowShare:
    def test_oracle_shares_match_the_frexp_rule_on_every_node(self):
        # the oracle's share of an inner row is the largest power of two
        # <= its outer weight, ldexp(0.5, frexp(weight)[1]); _row_share of
        # log2(weight) gives it bit for bit on every node of the ladder
        x = np.concatenate([quadrature._run(quadrature._EXP_SINH, level, direction)[0]
                            for level in range(len(quadrature._LEVELS))
                            for direction in (1.0, -1.0)])
        assert len(x) == 50_387
        weight = x * np.hypot(math.pi / 2.0, np.log(x))
        share = quadrature._row_share(np.log2(weight))
        assert share.tobytes() == np.ldexp(0.5, np.frexp(weight)[1]).tobytes()

    def test_shares_are_clipped_to_normal_powers_of_two(self):
        share = quadrature._row_share(np.array([-2000.0, -1022.5, 0.5, 3.9, 1023.0, 5000.0]))
        assert share.tolist() == [2.0**-1022, 2.0**-1022, 1.0, 8.0, 2.0**1023, 2.0**1023]


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
