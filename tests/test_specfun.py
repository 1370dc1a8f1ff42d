"""Special-function checks against independent oracles.

Two subjects: the scipy.special calls the kernel factors make directly
(erf family, Faddeeva, K0/K1/K2, Bessel I, 1F1), and the paper's
``kummer_via_*`` simplification identities of 1F1 with their gamma,
Pochhammer and Laguerre helpers, kept as test reference code in
``kummer_reference.py``.  Oracles are deliberately different
routes from the implementation: explicit Maclaurin/asymptotic series,
integral representations pushed through scipy's adaptive quadrature,
three-term recurrences, and mpmath at 30 significant digits, which is the
reference 1F1 for every identity, at real and at complex arguments.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from quadred.kernels import KummerFactor
from kummer_reference import (
    SpecialFunctionError,
    gamma_fn,
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
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0)

    def test_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_recurrence_value(self):
        # Gamma(2.5) = 1.5 * 0.5 * Gamma(0.5)
        expected = 1.5 * 0.5 * math.sqrt(math.pi)
        assert gamma_fn(2.5) == pytest.approx(expected, rel=1e-13, abs=0)
        assert expected == pytest.approx(1.3293403881791370, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_pole(self, x):
        with pytest.raises(SpecialFunctionError):
            gamma_fn(x)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = float(rng.uniform(0.1, 50.0))
            assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-10, abs=0)


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
        assert oracle == pytest.approx(0.8427007929497149, rel=1e-14, abs=0)
        assert sp.erf(1.0) == pytest.approx(oracle, rel=1e-14, abs=0)

    def test_erfc_large_argument(self):
        # leading asymptotic term exp(-x^2)/(x sqrt(pi)) at x = 10
        x = 10.0
        asym = math.exp(-x * x) / (x * math.sqrt(math.pi)) * (1.0 - 1.0 / (2 * x * x))
        val = sp.erfc(10.0)
        assert val > 0.0
        assert val == pytest.approx(asym, rel=1e-3, abs=0)
        assert val == pytest.approx(2.088e-45, rel=1e-3, abs=0)

    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    def test_odd(self, x):
        assert sp.erf(-x) == pytest.approx(-sp.erf(x), abs=1e-15)

    def test_erf_plus_erfc(self):
        for x in np.linspace(0.0, 6.0, 61):
            assert abs(sp.erf(x) + sp.erfc(x) - 1.0) < 1e-15

    def test_erfcx_is_scaled_erfc(self):
        for x in (0.1, 1.0, 3.0, 8.0):
            assert sp.erfcx(x) == pytest.approx(math.exp(x * x) * sp.erfc(x), rel=1e-13, abs=0)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = float(rng.uniform(-6.0, 6.0))
            assert sp.erf(x) == pytest.approx(float(mp.erf(x)), abs=1e-15, rel=1e-12)


class TestFaddeeva:
    """scipy's wofz, which FourierErfiFactor calls directly."""

    def test_at_zero(self):
        assert sp.wofz(0.0) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_real_part_on_real_axis(self):
        for x in (0.3, 1.0, 2.5, 5.0):
            assert sp.wofz(x).real == pytest.approx(math.exp(-x * x), rel=1e-12, abs=0)

    @settings(max_examples=60)
    @given(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    def test_reflection(self, re, im):
        z = complex(re, im)
        lhs = sp.wofz(-z.conjugate())
        rhs = sp.wofz(z).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z = complex(rng.uniform(-4, 4), rng.uniform(-2, 4))
            ref = complex(mp.exp(-mp.mpc(z) ** 2) * mp.erfc(-1j * mp.mpc(z)))
            assert sp.wofz(z) == pytest.approx(ref, rel=1e-10, abs=0)


class TestBesselK:
    """scipy's kv at orders 0, 1, 2, and the recurrence
    K_(v+1)(x) = K_(v-1)(x) + (2v/x) K_v(x) at v = 1, through which the
    catalog brings every integer order down to the K_0 and K_1 weights of
    a BesselKFactor, evaluated by the integer-order k0 and k1;
    test_kernels.py checks the factor against mpmath at orders 0 to 5."""

    def test_k0_integral_representation(self):
        # K0(x) = integral_0^inf exp(-x cosh u) du; the tail is dead by u = 10
        oracle, _ = integrate.quad(
            lambda u: math.exp(-math.cosh(u)), 0.0, 10.0, epsabs=1e-14, epsrel=1e-13
        )
        assert oracle == pytest.approx(0.4210244382407084, rel=1e-12, abs=0)
        assert sp.kv(0, 1.0) == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_recurrence_examples(self, x):
        lhs = sp.kv(2, x)
        rhs = sp.kv(0, x) + 2.0 * sp.kv(1, x) / x
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_recurrence_range(self):
        for x in np.geomspace(0.01, 50.0, 40):
            assert sp.kv(2, x) == pytest.approx(
                sp.kv(0, x) + 2.0 * sp.kv(1, x) / x, rel=1e-12, abs=0
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
            assert sp.kv(order, x) == pytest.approx(float(mp.besselk(order, x)), rel=1e-10, abs=0)


class TestBesselIHalf:
    """scipy's iv at half-integer orders, which the kummer_via_bessel_* forms call."""

    def test_plus_half(self):
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert expected == pytest.approx(0.9376748882454959, rel=1e-12, abs=0)
        assert sp.iv(0.5, 1.0) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_minus_half(self):
        expected = math.sqrt(2.0 / math.pi) * math.cosh(1.0)
        assert expected == pytest.approx(1.2312002145929675, rel=1e-14, abs=0)
        assert sp.iv(-0.5, 1.0) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_three_halves_recurrence(self):
        # I_{3/2}(x) = I_{-1/2}(x) - (1/x) I_{1/2}(x) at x = 2, with the
        # half-order values from their elementary closed forms
        x = 2.0
        oracle = (
            math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
            - math.sqrt(2.0 / (math.pi * x)) * math.sinh(x) / x
        )
        assert oracle == pytest.approx(1.0994731886331106, rel=1e-13, abs=0)
        assert sp.iv(1.5, x) == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_against_mpmath_100_points(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            x = float(rng.uniform(0.05, 30.0))
            two_nu = int(rng.integers(-3, 6)) * 2 + 1
            ref = float(mp.besseli(two_nu / 2.0, x))
            assert sp.iv(two_nu / 2.0, x) == pytest.approx(ref, rel=1e-10, abs=0)


def _hyp1f1(a: float, b: float, z: complex) -> complex:
    """Reference 1F1(a; b; z) from mpmath at the module's 30 digits."""
    return complex(mp.hyp1f1(a, b, mp.mpc(z)))


_IDENTITIES = (
    (kummer_via_bessel_2a_minus, lambda a, m: 2 * a - m),
    (kummer_via_bessel_2a_plus, lambda a, m: 2 * a + m),
    (kummer_via_laguerre, lambda a, m: a - m),
)


_RNG = np.random.default_rng(16)
# (a, m, z) of TestKummer's 100 random points
_RANDOM_POINTS = [(float(_RNG.uniform(0.3, 5.0)), int(_RNG.integers(0, 4)),
                   complex(_RNG.uniform(-20.0, 20.0), _RNG.uniform(-10.0, 10.0)))
                  for _ in range(100)]
# the draws, all at m = 3 and Re z < -8, whose 2a-minus form is more than
# 1e-10 off relative (ROADMAP item 4)
_CANCELLING_DRAWS = (5, 16, 44, 91)


class TestKummer:
    """The simplification identities kummer_via_* against mpmath's 1F1."""

    def test_at_zero(self):
        assert kummer_via_bessel_2a(2.3, 0.0) == 1.0
        assert kummer_via_bessel_2a_minus(2.3, 1, 0.0) == 1.0
        assert kummer_via_bessel_2a_plus(2.3, 1, 0.0) == 1.0
        assert kummer_via_laguerre(2.3, 1, 0.0) == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_exponential(self):
        # 1F1(a; a; z) = e^z is the Laguerre form at m = 0
        for a in (1.0, 1.7, 3.5):
            assert kummer_via_laguerre(a, 0, 0.7) == pytest.approx(math.exp(0.7), rel=1e-13, abs=0)

    def test_b_pole(self):
        with pytest.raises(SpecialFunctionError):
            kummer_via_bessel_2a(0.0, 1.0)
        with pytest.raises(SpecialFunctionError):
            kummer_via_bessel_2a_minus(1.0, 2, 1.0)
        with pytest.raises(SpecialFunctionError):
            kummer_via_laguerre(1.0, 3, 1.0)

    def test_against_mpmath_100_random_points(self):
        checked = 0
        for draw, (a, m, z) in enumerate(_RANDOM_POINTS):
            assert kummer_via_bessel_2a(a, z) == pytest.approx(_hyp1f1(a, 2 * a, z), rel=1e-10, abs=0)
            for fn, b in _IDENTITIES:
                if fn is kummer_via_bessel_2a_minus and draw in _CANCELLING_DRAWS:
                    continue  # test_2a_minus_cancelling_random_points
                try:
                    val = fn(a, m, z)
                except SpecialFunctionError:
                    continue
                ref = _hyp1f1(a, b(a, m), z)
                assert val == pytest.approx(ref, rel=1e-10, abs=0), (fn.__name__, a, m, z)
                checked += 1
        assert checked >= 250

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: at m = 3 the 2a-minus Bessel sum cancels to "
        "O(|z|^-m) of its terms' size, 1.1e-10 to 6.0e-10 off relative at these draws",
    )
    def test_2a_minus_cancelling_random_points(self):
        for draw in _CANCELLING_DRAWS:
            a, m, z = _RANDOM_POINTS[draw]
            ref = _hyp1f1(a, 2 * a - m, z)
            assert kummer_via_bessel_2a_minus(a, m, z) == pytest.approx(ref, rel=1e-10, abs=0), draw

    @pytest.mark.parametrize("z", [-500.0, -1e4, -1e8, -1e20, -1e30])
    def test_deep_negative_argument(self, z):
        # the package's only 1F1 at deep negative argument: G1's KummerFactor
        # at w = shift/t = -z (scipy's hyp1f1, then DLMF 13.7.2's leading term)
        value = KummerFactor(1.5, 3.2, -z, 0.0).bounded_part(np.array([1.0]))[0]
        assert value == pytest.approx(_hyp1f1(1.5, 3.2, z).real, rel=1e-12, abs=0)

    @pytest.mark.parametrize("z", [-1e4, complex(-1e4, 3.0)], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "form, a, b, rel",
        [
            (lambda a, z: kummer_via_bessel_2a(a, z), 1.5, lambda a: 2 * a, 1e-12),
            (lambda a, z: kummer_via_bessel_2a_minus(a, 0, z), 1.7, lambda a: 2 * a, 1e-12),
            (lambda a, z: kummer_via_bessel_2a_plus(a, 2, z), 1.7, lambda a: 2 * a + 2, 1e-12),
            # the m = 1 Bessel sum would cancel here; the asymptotic series does not
            (lambda a, z: kummer_via_bessel_2a_minus(a, 1, z), 1.7, lambda a: 2 * a - 1, 1e-12),
        ],
        ids=["2a", "2a-minus-m0", "2a-plus-m2", "2a-minus-m1"],
    )
    def test_bessel_forms_far_left(self, form, a, b, rel, z):
        # past -Re z ~ 1420, I_v(|z|/2) overflows and exp(z/2) underflows;
        # 1F1 itself is small and representable there
        assert form(a, z) == pytest.approx(_hyp1f1(a, b(a), z), rel=rel, abs=0)

    @pytest.mark.parametrize("z", [-1e4, complex(-1e4, 3.0)], ids=["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("a", [0.8, 1.7, 2.3, 3.1, 4.6])
    def test_2a_minus_far_left_keeps_its_digits(self, a, m, z):
        # the Bessel-I terms cancel there to O(|z|^-m) of their size
        ref = _hyp1f1(a, 2 * a - m, z)
        assert abs(kummer_via_bessel_2a_minus(a, m, z) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("a, m", [(2.3, 3), (1.7, 2)], ids=["a2.3-m3", "a1.7-m2"])
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: just short of its far-left switch at Re z = -100 "
        "the 2a-minus Bessel sum still runs and cancels to O(|z|^-m), "
        "off by 1.6e-8 (m = 3) and 1.0e-10 (m = 2) here",
    )
    def test_2a_minus_short_of_the_far_left_switch(self, a, m):
        z = complex(-99.0, 40.0)
        ref = _hyp1f1(a, 2 * a - m, z)
        assert abs(kummer_via_bessel_2a_minus(a, m, z) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize(
        "z", [100.0, 120.0, 150.0, 300.0, 700.0, 700 + 40j, 300 - 60j, 100 + 99j]
    )
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("a", [0.8, 1.7, 2.3, 3.1, 4.6])
    def test_2a_plus_far_right_keeps_its_digits(self, a, m, z):
        # the Bessel-I terms cancel there to O(|z|^-m) of their size
        ref = _hyp1f1(a, 2 * a + m, z)
        assert abs(kummer_via_bessel_2a_plus(a, m, z) - ref) <= 1e-13 * abs(ref)

    def test_bessel_form_2a(self):
        # 1F1(A;2A;z) = 2^(2A-1) e^(z/2) (-z)^(1/2-A) Gamma(A+1/2) I_(A-1/2)(-z/2)
        val = kummer_via_bessel_2a(1.5, -2.0)
        ref = _hyp1f1(1.5, 3.0, -2.0)
        assert val == pytest.approx(ref, rel=1e-10, abs=0)

    def test_simplification_grid(self):
        # all four simplified forms against mpmath, on the real axis and at
        # complex z = x + iy off it; 1 + 1e-300j must not leave the real-axis
        # branch (there 1F1(1.5; -0.5; z) = -19.03)
        xs = (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0)
        zs = [complex(x) for x in xs]
        zs += [complex(x, y) for x in xs for y in (-3.0, -0.5, 0.5, 3.0)]
        zs.append(complex(1.0, 1e-300))
        checked = 0
        for a in (1.0, 1.5, 2.5):
            for z in zs:
                ref = _hyp1f1(a, 2 * a, z)
                assert kummer_via_bessel_2a(a, z) == pytest.approx(ref, rel=1e-10, abs=0)
                checked += 1
            for m in (0, 1, 2, 3):
                for z in zs:
                    for fn, b in _IDENTITIES:
                        try:
                            val = fn(a, m, z)
                        except SpecialFunctionError:
                            continue  # parameter pattern outside the identity's domain
                        ref = _hyp1f1(a, b(a, m), z)
                        assert val == pytest.approx(ref, rel=1e-10, abs=0), (fn.__name__, a, m, z)
                        checked += 1
        assert checked == 899  # 174 on the real axis, 725 off it


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre_gen(0, 0.7, 3.0) == 1.0

    def test_degree_one(self):
        alpha, z = 0.7, 3.0
        assert laguerre_gen(1, alpha, z) == pytest.approx(alpha + 1.0 - z, rel=1e-14, abs=0)

    def test_degree_two_recurrence_oracle(self):
        # (k+1) L_{k+1} = (2k+1+alpha-z) L_k - (k+alpha) L_{k-1}
        alpha, z = 0.5, 1.0
        l0, l1 = 1.0, alpha + 1.0 - z
        l2 = ((3.0 + alpha - z) * l1 - (1.0 + alpha) * l0) / 2.0
        assert laguerre_gen(2, alpha, z) == pytest.approx(l2, rel=1e-14, abs=0)

    def test_against_kummer_identity(self):
        # L_M^alpha(z) = (alpha+1)_M/M! 1F1(-M; alpha+1; z)
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(0, 6))
            alpha = float(rng.uniform(-0.9, 3.0))
            z = float(rng.uniform(-5.0, 5.0))
            ref = pochhammer(alpha + 1.0, m) / math.factorial(m) * _hyp1f1(
                -m, alpha + 1.0, z
            )
            assert laguerre_gen(m, alpha, z) == pytest.approx(ref.real, rel=1e-10, abs=1e-12)


class TestPochhammer:
    def test_zero_length(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_simple(self):
        assert pochhammer(3.0, 2) == 12.0

    def test_vanishing(self):
        assert pochhammer(-2.0, 3) == 0.0
