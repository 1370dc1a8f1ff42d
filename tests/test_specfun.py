"""Special-function checks against independent oracles.

Oracles here are deliberately different routes from the implementation:
explicit Maclaurin/asymptotic series, integral representations pushed
through scipy's adaptive quadrature, three-term recurrences, and mpmath at
30 significant digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from quadred.specfun import (
    SpecialFunctionError,
    bessel_i_half,
    erfi,
    faddeeva,
    gamma_fn,
    kummer_1f1,
    kummer_via_bessel_2a,
    kummer_via_bessel_2a_minus,
    kummer_via_bessel_2a_plus,
    kummer_via_laguerre,
    laguerre_gen,
    pochhammer,
)

mp.mp.dps = 30


class TestGamma:
    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_recurrence_value(self):
        # Gamma(2.5) = 1.5 * 0.5 * Gamma(0.5)
        expected = 1.5 * 0.5 * math.sqrt(math.pi)
        assert gamma_fn(2.5) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(1.3293403881791370, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_pole(self, x):
        with pytest.raises(SpecialFunctionError):
            gamma_fn(x)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = float(rng.uniform(0.1, 50.0))
            assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-10)


class TestErfFamily:
    """scipy's erf, erfc and erfcx, which the kernel factors call directly."""

    def test_zero(self):
        assert sp.erf(0.0) == 0.0

    def test_maclaurin_oracle(self):
        # erf(x) = 2/sqrt(pi) sum (-1)^k x^(2k+1) / (k! (2k+1)), 30 terms
        x = 1.0
        total = sum(
            (-1.0) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
            for k in range(30)
        )
        oracle = 2.0 / math.sqrt(math.pi) * total
        assert oracle == pytest.approx(0.8427007929497149, rel=1e-14)
        assert sp.erf(1.0) == pytest.approx(oracle, rel=1e-14)

    def test_erfc_large_argument(self):
        # leading asymptotic term exp(-x^2)/(x sqrt(pi)) at x = 10
        x = 10.0
        asym = math.exp(-x * x) / (x * math.sqrt(math.pi)) * (1.0 - 1.0 / (2 * x * x))
        val = sp.erfc(10.0)
        assert val > 0.0
        assert val == pytest.approx(asym, rel=1e-3)
        assert val == pytest.approx(2.088e-45, rel=1e-3)

    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    def test_odd(self, x):
        assert sp.erf(-x) == pytest.approx(-sp.erf(x), abs=1e-15)

    def test_erf_plus_erfc(self):
        for x in np.linspace(0.0, 6.0, 61):
            assert abs(sp.erf(x) + sp.erfc(x) - 1.0) < 1e-15

    def test_erfcx_is_scaled_erfc(self):
        for x in (0.1, 1.0, 3.0, 8.0):
            assert sp.erfcx(x) == pytest.approx(math.exp(x * x) * sp.erfc(x), rel=1e-13)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = float(rng.uniform(-6.0, 6.0))
            assert sp.erf(x) == pytest.approx(float(mp.erf(x)), abs=1e-15, rel=1e-12)


class TestFaddeeva:
    def test_at_zero(self):
        assert faddeeva(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_real_part_on_real_axis(self):
        for x in (0.3, 1.0, 2.5, 5.0):
            assert faddeeva(x).real == pytest.approx(math.exp(-x * x), rel=1e-12)

    @settings(max_examples=60)
    @given(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    def test_reflection(self, re, im):
        z = complex(re, im)
        lhs = faddeeva(-z.conjugate())
        rhs = faddeeva(z).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z = complex(rng.uniform(-4, 4), rng.uniform(-2, 4))
            ref = complex(mp.exp(-mp.mpc(z) ** 2) * mp.erfc(-1j * mp.mpc(z)))
            assert faddeeva(z) == pytest.approx(ref, rel=1e-10)


class TestErfi:
    def test_zero(self):
        assert erfi(0.0) == 0.0

    def test_series_oracle(self):
        # erfi(x) = 2/sqrt(pi) sum x^(2k+1)/(k! (2k+1))
        x = 1.0
        total = sum(x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1)) for k in range(30))
        oracle = 2.0 / math.sqrt(math.pi) * total
        assert oracle == pytest.approx(1.6504257587975429, rel=1e-14)
        assert erfi(1.0).real == pytest.approx(oracle, rel=1e-12)
        assert erfi(1.0).imag == 0.0

    def test_odd(self):
        for x in (0.2, 1.0, 2.0):
            assert erfi(-x) == pytest.approx(-erfi(x), rel=1e-12)


class TestBesselK:
    """scipy's kv at orders 0, 1, 2, which BesselKFactor calls directly."""

    def test_k0_integral_representation(self):
        # K0(x) = integral_0^inf exp(-x cosh u) du; the tail is dead by u = 10
        oracle, _ = integrate.quad(
            lambda u: math.exp(-math.cosh(u)), 0.0, 10.0, epsabs=1e-14, epsrel=1e-13
        )
        assert oracle == pytest.approx(0.4210244382407084, rel=1e-12)
        assert sp.kv(0, 1.0) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_recurrence_examples(self, x):
        lhs = sp.kv(2, x)
        rhs = sp.kv(0, x) + 2.0 * sp.kv(1, x) / x
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_recurrence_range(self):
        for x in np.geomspace(0.01, 50.0, 40):
            assert sp.kv(2, x) == pytest.approx(
                sp.kv(0, x) + 2.0 * sp.kv(1, x) / x, rel=1e-12
            )

    def test_small_x_limit_k1(self):
        x = 1e-6
        assert x * sp.kv(1, x) == pytest.approx(1.0, abs=1e-4)

    def test_positive_decreasing(self):
        xs = np.linspace(0.1, 10.0, 50)
        for order in (0, 1, 2):
            vals = sp.kv(order, xs)
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals) < 0.0)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = float(rng.uniform(0.01, 50.0))
            order = int(rng.integers(0, 3))
            assert sp.kv(order, x) == pytest.approx(float(mp.besselk(order, x)), rel=1e-10)


class TestBesselIHalf:
    def test_plus_half(self):
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert expected == pytest.approx(0.9376748882454959, rel=1e-12)
        assert bessel_i_half(1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_minus_half(self):
        expected = math.sqrt(2.0 / math.pi) * math.cosh(1.0)
        assert expected == pytest.approx(1.2312002145929675, rel=1e-14)
        assert bessel_i_half(-1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_three_halves_recurrence(self):
        # I_{3/2}(x) = I_{-1/2}(x) - (1/x) I_{1/2}(x) at x = 2, with the
        # half-order values from their elementary closed forms
        x = 2.0
        oracle = (
            math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
            - math.sqrt(2.0 / (math.pi * x)) * math.sinh(x) / x
        )
        assert oracle == pytest.approx(1.0994731886331106, rel=1e-13)
        assert bessel_i_half(3, x) == pytest.approx(oracle, rel=1e-12)

    def test_errors(self):
        with pytest.raises(SpecialFunctionError):
            bessel_i_half(2, 1.0)
        with pytest.raises(SpecialFunctionError):
            bessel_i_half(1, 0.0)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            x = float(rng.uniform(0.05, 30.0))
            two_nu = int(rng.integers(-3, 6)) * 2 + 1
            ref = float(mp.besseli(two_nu / 2.0, x))
            assert bessel_i_half(two_nu, x) == pytest.approx(ref, rel=1e-10)


class TestKummer:
    def test_at_zero(self):
        assert kummer_1f1(2.3, 1.7, 0.0) == 1.0

    def test_exponential(self):
        assert kummer_1f1(1.0, 1.0, 0.7) == pytest.approx(math.exp(0.7), rel=1e-13)

    def test_b_pole(self):
        with pytest.raises(SpecialFunctionError):
            kummer_1f1(1.0, 0.0, 1.0)
        with pytest.raises(SpecialFunctionError):
            kummer_1f1(1.0, -3.0, 1.0)

    def test_against_mpmath_100_random_points(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            a = float(rng.uniform(-3.0, 5.0))
            b = float(rng.uniform(0.3, 8.0))
            z = complex(rng.uniform(-40.0, 40.0), rng.uniform(-10.0, 10.0))
            ref = complex(mp.hyp1f1(a, b, mp.mpc(z)))
            assert kummer_1f1(a, b, z) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("z", [-500.0, -1e4, -1e8, -1e20, -1e30])
    def test_deep_negative_argument(self, z):
        ref = complex(mp.hyp1f1(1.5, 3.2, mp.mpf(z)))
        assert kummer_1f1(1.5, 3.2, z) == pytest.approx(ref, rel=1e-12)

    def test_bessel_form_2a(self):
        # 1F1(A;2A;z) = 2^(2A-1) e^(z/2) (-z)^(1/2-A) Gamma(A+1/2) I_(A-1/2)(-z/2)
        val = kummer_via_bessel_2a(1.5, -2.0)
        ref = kummer_1f1(1.5, 3.0, -2.0)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_simplification_grid(self):
        # all four simplified forms against the direct series
        zs = (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0)
        checked = 0
        for a in (1.0, 1.5, 2.5):
            for z in zs:
                ref = kummer_1f1(a, 2 * a, complex(z))
                assert kummer_via_bessel_2a(a, complex(z)) == pytest.approx(ref, rel=1e-10)
                checked += 1
            for m in (0, 1, 2, 3):
                for z in zs:
                    for fn, b in (
                        (kummer_via_bessel_2a_minus, 2 * a - m),
                        (kummer_via_bessel_2a_plus, 2 * a + m),
                        (kummer_via_laguerre, a - m),
                    ):
                        try:
                            val = fn(a, m, complex(z))
                        except SpecialFunctionError:
                            continue  # parameter pattern outside the identity's domain
                        ref = kummer_1f1(a, b, complex(z))
                        assert val == pytest.approx(ref, rel=1e-10), (fn.__name__, a, m, z)
                        checked += 1
        assert checked > 150


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre_gen(0, 0.7, 3.0) == 1.0

    def test_degree_one(self):
        alpha, z = 0.7, 3.0
        assert laguerre_gen(1, alpha, z) == pytest.approx(alpha + 1.0 - z, rel=1e-14)

    def test_degree_two_recurrence_oracle(self):
        # (k+1) L_{k+1} = (2k+1+alpha-z) L_k - (k+alpha) L_{k-1}
        alpha, z = 0.5, 1.0
        l0, l1 = 1.0, alpha + 1.0 - z
        l2 = ((3.0 + alpha - z) * l1 - (1.0 + alpha) * l0) / 2.0
        assert laguerre_gen(2, alpha, z) == pytest.approx(l2, rel=1e-14)

    def test_against_kummer_identity(self):
        # L_M^alpha(z) = (alpha+1)_M/M! 1F1(-M; alpha+1; z)
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(0, 6))
            alpha = float(rng.uniform(-0.9, 3.0))
            z = float(rng.uniform(-5.0, 5.0))
            ref = pochhammer(alpha + 1.0, m) / math.factorial(m) * kummer_1f1(
                -m, alpha + 1.0, complex(z)
            )
            assert laguerre_gen(m, alpha, z) == pytest.approx(ref.real, rel=1e-10, abs=1e-12)


class TestPochhammer:
    def test_zero_length(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_simple(self):
        assert pochhammer(3.0, 2) == 12.0

    def test_vanishing(self):
        assert pochhammer(-2.0, 3) == 0.0
