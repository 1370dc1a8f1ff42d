"""Kernel-term evaluation: frozen values, stability branches, special factors."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from quadred.applications import FourierSpec, fourier_params
from quadred.catalog import G1_GRID, R1_GRID, get_rule
from quadred.kernels import (
    BesselKFactor,
    ErfSqrtInvFactor,
    ErfcxSqrtInvFactor,
    FourierErfiFactor,
    KernelError,
    KernelTerm,
    KummerFactor,
    RInnerFactor,
    eval_kernel,
    eval_kernel_with_f,
    kernel_mu_min,
)
from quadred.params import Params, TestIntegrand
from quadred.specfun import erfi

SQPI = math.sqrt(math.pi)


class TestTermEvaluation:
    def test_plain_exponential_term(self):
        # 2 sqrt(pi) e^{-4t} at t = 0.25  ->  2 sqrt(pi)/e
        term = KernelTerm(2.0 * SQPI, 0.0, beta=4.0)
        val = eval_kernel([term], 0.25)
        assert val == pytest.approx(2.0 * SQPI * math.exp(-1.0), rel=1e-14)
        assert val == pytest.approx(1.3040986643465844, rel=1e-10)

    def test_macdonald_term(self):
        # 2 t^-1/2 e^-2t K0(2t) at t = 1
        term = KernelTerm(2.0, -0.5, beta=2.0, special=BesselKFactor(0, 2.0))
        expected = 2.0 * math.exp(-2.0) * sp.kv(0, 2.0)
        assert eval_kernel([term], 1.0) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.03082771905494566, rel=1e-10)

    def test_split_exponential_sum(self):
        # (a-b)^-1 t^-1 (e^-b/t - e^-a/t) at a=2, b=1, t=1
        terms = [
            KernelTerm(1.0, -1.0, gamma=1.0),
            KernelTerm(-1.0, -1.0, gamma=2.0),
        ]
        assert eval_kernel(terms, 1.0) == pytest.approx(
            math.exp(-1.0) - math.exp(-2.0), rel=1e-14
        )
        assert eval_kernel(terms, 1.0) == pytest.approx(0.2325441579348296, rel=1e-10)

    def test_vectorized_matches_scalar(self):
        terms = [KernelTerm(1.5, -0.5, beta=2.0, gamma=0.3, special=ErfSqrtInvFactor(0.7))]
        ts = np.array([0.01, 0.1, 1.0, 10.0])
        vec = eval_kernel(terms, ts)
        for t, v in zip(ts, vec):
            assert eval_kernel(terms, float(t)) == pytest.approx(v, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(KernelError):
            eval_kernel([KernelTerm(1.0, 0.0)], 0.0)
        with pytest.raises(KernelError):
            eval_kernel([KernelTerm(1.0, 0.0)], -1.0)

    def test_deep_nodes_stay_finite(self):
        # t^(3/2) K2(s t) underflow x overflow region must come out finite
        terms = [KernelTerm(2.0, 1.5, beta=1.0, special=BesselKFactor(2, 2.0))]
        f = TestIntegrand(1.0, 0.5, 0.0)
        ts = np.geomspace(1e-160, 1e150, 200)
        vals = eval_kernel_with_f(terms, f, ts)
        assert np.all(np.isfinite(vals))

    def test_floor_overflow_raises(self):
        # mu far below the floor must be caught loudly, not return inf
        terms = [KernelTerm(1.0, -1.0, beta=1.0, special=BesselKFactor(2, 2.0))]
        with pytest.raises(KernelError, match="floor"):
            eval_kernel_with_f(terms, TestIntegrand(1.0, -1.0, 0.0), np.array([1e-140]))


class TestBesselBranch:
    @pytest.mark.parametrize("order", [1, 2])
    def test_small_argument_branch_continuous(self, order):
        factor = BesselKFactor(order, 1.0)
        below = factor.bounded_part(np.array([0.5e-8]))[0]
        above = factor.bounded_part(np.array([2.0e-8]))[0]
        exact = 2.0 ** (order - 1) * math.factorial(order - 1)
        assert below == pytest.approx(exact, rel=1e-10)
        assert above == pytest.approx(exact, rel=1e-10)

    def test_k0_small_argument(self):
        factor = BesselKFactor(0, 1.0)
        t = np.array([1e-12])
        expected = -math.log(0.5e-12) - np.euler_gamma
        assert factor.bounded_part(t)[0] == pytest.approx(expected, rel=1e-10)

    def test_matches_scipy_in_normal_range(self):
        # the factor contract is t**k K_k(s t), i.e. the k-th-order pole
        # stripped off into the term's power
        for order in (0, 1, 2):
            factor = BesselKFactor(order, 3.0)
            ts = np.geomspace(1e-4, 5.0, 30)
            mine = factor.bounded_part(ts)
            ref = ts**order * sp.kv(order, 3.0 * ts)
            assert np.allclose(mine, ref, rtol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("scale", [0.2, 3.0])
    def test_against_mpmath(self, order, scale):
        # s t runs from 1e-14 to 50, across the small-argument branch at 1e-8
        ts = np.concatenate([np.geomspace(1e-14, 50.0, 60), [0.5e-8, 0.99e-8, 1.01e-8, 2e-8]])
        ts = ts / scale
        got = BesselKFactor(order, scale).bounded_part(ts)
        with mp.workdps(30):
            for t, value in zip(ts, got):
                ref = mp.mpf(t) ** order * mp.besselk(order, scale * mp.mpf(t))
                assert abs(value - ref) <= 1e-13 * ref, (t, value, ref)


class TestErfFactor:
    @pytest.mark.parametrize("amount", [1e-3, 0.7, 40.0])
    def test_against_mpmath(self, amount):
        ts = np.geomspace(1e-6, 1e6, 61)
        got = ErfSqrtInvFactor(amount).bounded_part(ts)
        with mp.workdps(30):
            for t, value in zip(ts, got):
                ref = mp.erf(mp.sqrt(mp.mpf(amount) / mp.mpf(t)))
                assert abs(value - ref) <= 1e-14 * ref, (t, value, ref)


class TestErfcxFactor:
    def test_equals_scaled_combination(self):
        amount = 0.7
        factor = ErfcxSqrtInvFactor(amount)
        for t in (0.05, 0.5, 5.0):
            x = 2.0 * math.sqrt(amount / t)
            assert factor.bounded_part(np.array([t]))[0] == pytest.approx(
                math.exp(x * x) * sp.erfc(x), rel=1e-12
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

    _TS = np.concatenate([np.geomspace(1e-160, 1e160, 81), [0.999e-16, 1.001e-16]])

    @pytest.mark.parametrize("a, b", _g1_kummer_pairs())
    def test_against_mpmath(self, a, b):
        with mp.workdps(30):
            for shift, h in itertools.product((0.0, 0.05, 1.0, 10.0), (0.0, 0.25, 3.0)):
                got = KummerFactor(a, b, shift, h).bounded_part(self._TS)
                for t, value in zip(self._TS, got):
                    ref = mp.hyp1f1(a, b, -(mp.mpf(shift) / mp.mpf(t) + mp.mpf(h)))
                    assert abs(value - ref) <= 1e-13 * ref, (shift, h, t, value, ref)


class TestFourierErfiFactor:
    def test_matches_raw_erfi_formula(self):
        # at moderate t the naive erfi expression is representable; the
        # Faddeeva-based factor must reproduce it
        k, chi, e1, e2, x2 = 1.3, 0.4, 1.0, 0.7, 0.9
        factor = FourierErfiFactor(k, chi, e1, e2, x2)
        g = (e1 * e1 - e2 * e2) / 4.0
        d = k * k / 4.0
        for t in (0.3, 1.0, 2.0):
            zp = (1j * chi * t + g + d) / (k * math.sqrt(t))
            zm = (1j * chi * t + g - d) / (k * math.sqrt(t))
            naive = (
                math.exp(-e2 * e2 / (4 * t) - x2 * x2 * t)
                * np.exp(-zp * zp)
                * (erfi(zp) - erfi(zm))
            )
            mine = factor.bounded_part(np.array([t]))[0]
            assert mine == pytest.approx(naive, rel=1e-11)

    def test_finite_everywhere(self):
        factor = FourierErfiFactor(2.0, -1.5, 1.0, 2.0, 1.0)
        ts = np.geomspace(1e-150, 1e150, 120)
        vals = factor.bounded_part(ts)
        assert np.all(np.isfinite(vals))


class TestRInnerFactor:
    def test_matches_closed_form_without_quadratic(self):
        # with n = m = 4, nu = 0 and j = h = 0 the inner integral is
        # e^-b/t (1 - e^-(a-b)/t)/(a - b)
        a, b = 1.2, 0.5
        factor = RInnerFactor(4, 4, 0, a, b, 0.0, 0.0)
        for t in (0.2, 1.0, 4.0):
            expected = math.exp(-b / t) * (1.0 - math.exp(-(a - b) / t)) / (a - b)
            assert factor.bounded_part(np.array([t]))[0] == pytest.approx(expected, rel=1e-10)

    def test_early_exit_deep_t(self):
        factor = RInnerFactor(4, 4, 0, 1.0, 0.5, 0.0, 1.0)
        assert factor.bounded_part(np.array([1e-10]))[0] == 0.0


# The R1 sampler's ranges: a log-uniform on [0.1, 10], b = a*U(0.05, 0.85),
# h and j log-uniform on [0.1, 3].
_R1_EDGE_TS = (1e-3, 1e-1, 1.0, 10.0, 1e3)
_R1_CORNERS = [
    (a, a * ratio, h, j)
    for a, ratio, h, j in itertools.product((0.1, 10.0), (0.05, 0.85), (0.1, 3.0), (0.1, 3.0))
]


def _r_inner_reference(factor: RInnerFactor, t: float) -> complex:
    """The inner integral over r in [0, 1/t], by mpmath at 30 digits."""
    with mp.workdps(30):
        pr = mp.mpf(factor.n + factor.nu) / 2 - 2
        ps = mp.mpf(factor.m + factor.nu) / 2 - 2
        a, b, j, h, t = (mp.mpf(factor.a), mp.mpf(factor.b), mp.mpf(factor.j),
                         mp.mpc(factor.h), mp.mpf(t))

        def integrand(r):
            return (r**pr * (1 - r * t) ** ps
                    * mp.exp(-b / t + j * r * r * t - r * (a - b + j) - r * h * t))

        hi = 1 / t
        # split points keep the mass near r = 0 resolved when 1/t is long;
        # past degree 4 the nodes at r = 1/t only add 30-digit rounding noise
        value, error = mp.quad(integrand, [0, hi / 10_000, hi / 100, hi / 2, hi],
                               error=True, maxdegree=4)
        assert error <= 1e-16 * max(1, abs(value))
        return complex(value)


def _assert_matches_mpmath(factor: RInnerFactor) -> None:
    got = factor.bounded_part(np.array(_R1_EDGE_TS))
    for t, value in zip(_R1_EDGE_TS, got):
        ref = _r_inner_reference(factor, t)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (factor, t, value, ref)


class TestRInnerFactorEdges:
    """One batched call over t in 1e-3..1e3 against mpmath."""

    @pytest.mark.parametrize("triple", R1_GRID)
    def test_sampler_edges(self, triple):
        # every corner for (4,2,1), whose (1 - r t)**-1/2 sits at the moving
        # endpoint r = 1/t; the two extreme corners for the other triples
        corners = _R1_CORNERS if triple == (4, 2, 1) else [_R1_CORNERS[0], _R1_CORNERS[-1]]
        for a, b, h, j in corners:
            _assert_matches_mpmath(RInnerFactor(*triple, a, b, h, j))

    def test_imaginary_h_fourier_route(self):
        params = fourier_params(FourierSpec(1.0, 0.4, 1.0, 0.7, 0.9))
        factor = RInnerFactor(params.n, params.m, params.nu,
                              params.a, params.b, params.h, params.j)
        assert complex(factor.h).real == 0.0
        assert np.iscomplexobj(factor.bounded_part(np.array([1.0])))
        _assert_matches_mpmath(factor)


class TestMuFloor:
    def test_exponential_cutoff_floor(self):
        terms = [KernelTerm(1.0, -1.5, beta=1.0, gamma=0.5)]
        assert kernel_mu_min(terms) == -math.inf

    def test_power_floor(self):
        terms = [KernelTerm(1.0, -0.5, beta=1.0)]
        assert kernel_mu_min(terms) == pytest.approx(-0.5)

    def test_macdonald_pole_raises_floor(self):
        terms = [KernelTerm(1.0, 1.0, beta=1.0, special=BesselKFactor(1, 2.0))]
        assert kernel_mu_min(terms) == pytest.approx(-1.0)

    def test_sum_takes_worst_term(self):
        terms = [
            KernelTerm(1.0, 0.5, beta=1.0, special=BesselKFactor(0, 2.0)),
            KernelTerm(1.0, 0.5, beta=1.0, special=BesselKFactor(1, 2.0)),
        ]
        assert kernel_mu_min(terms) == pytest.approx(-0.5)
