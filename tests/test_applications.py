"""Two-center overlaps and their momentum-space forms, route against route."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from quadred import applications, kernels
from quadred.applications import (
    FourierSpec,
    YukawaPairSpec,
    fourier_pair_erfi_result,
    fourier_pair_tau_result,
    hydrogenic_pair,
    yukawa_pair,
    yukawa_pair_oracle,
    yukawa_pair_reduced,
    yukawa_pair_reduced_alt,
)
from quadred.catalog import get_rule
from quadred.kernels import FourierErfiFactor
from quadred.params import Params, TestIntegrand
from quadred.quadrature import QuadratureError, QuadResult

import derivative_checks
from derivative_checks import cheshire_check

SQPI = math.sqrt(math.pi)
# equal ranges and zero separation take the general closed forms
EQUAL_ETAS = [0.01, 0.1, 0.5, 1.0, 2.0, 7.0, 30.0]
EQUAL_X2S = [0.0, 0.01, 0.3, 1.0, 5.0, 20.0]
ZERO_SEPARATION_ETAS = [(1.0, 2.0), (2.0, 1.0), (0.01, 30.0), (30.0, 0.01), (0.7, 0.7)]


class TestYukawaClosedForms:
    def test_reference_point(self):
        expected = 4.0 * math.pi * (math.exp(-1.0) - math.exp(-2.0)) / 3.0
        assert yukawa_pair(YukawaPairSpec(1.0, 2.0, 1.0)) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_symmetry(self):
        a = yukawa_pair(YukawaPairSpec(1.0, 2.0, 1.0))
        b = yukawa_pair(YukawaPairSpec(2.0, 1.0, 1.0))
        assert a == pytest.approx(b, rel=1e-14, abs=0)

    def test_small_separation_limit(self):
        # x2 -> 0 limit is 4 pi/(eta1 + eta2)
        val = yukawa_pair(YukawaPairSpec(1.0, 2.0, 1e-6))
        assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-4, abs=0)

    def test_equal_at_origin(self):
        assert yukawa_pair(YukawaPairSpec(1.0, 1.0, 0.0)) == pytest.approx(
            2.0 * math.pi, rel=1e-14, abs=0
        )

    def test_equal_general(self):
        assert yukawa_pair(YukawaPairSpec(1.0, 1.0, 1.0)) == pytest.approx(
            2.0 * math.pi / math.e, rel=1e-14, abs=0
        )

    def test_equal_is_the_limit(self):
        near = yukawa_pair(YukawaPairSpec(1.0, 1.0 + 1e-5, 1.0))
        assert near == pytest.approx(yukawa_pair(YukawaPairSpec(1.0, 1.0, 1.0)), rel=1e-4, abs=0)

    def test_equal_eta_routed_to_limit_form(self):
        # exprel(0) = 1: the general form is the limit 2 pi e^(-x2 eta)/eta
        for eta in EQUAL_ETAS:
            for x2 in EQUAL_X2S:
                ref = 2 * mp.pi * mp.exp(-mp.mpf(x2) * eta) / eta
                val = yukawa_pair(YukawaPairSpec(eta, eta, x2))
                assert abs(val - ref) <= 1e-15 * abs(ref), (eta, x2)

    def test_zero_separation(self):
        # x2 = 0 takes the same form: 4 pi/(eta1 + eta2)
        for e1, e2 in ZERO_SEPARATION_ETAS:
            ref = 4 * mp.pi / (mp.mpf(e1) + e2)
            val = yukawa_pair(YukawaPairSpec(e1, e2, 0.0))
            assert abs(val - ref) <= 1e-15 * abs(ref), (e1, e2)


class TestYukawaRoutes:
    def test_reference_point_all_routes(self):
        spec = YukawaPairSpec(1.0, 2.0, 1.0)
        cf = yukawa_pair(spec)
        assert complex(yukawa_pair_reduced(spec).value).real == pytest.approx(cf, rel=1e-8, abs=0)
        assert complex(yukawa_pair_oracle(spec).value).real == pytest.approx(cf, rel=1e-6, abs=0)

    def test_route_agreement_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            e1 = float(rng.uniform(0.4, 3.0))
            e2 = float(rng.uniform(0.4, 3.0))
            if abs(e1 - e2) < 1e-3:
                e2 += 0.1
            x2 = float(rng.uniform(0.2, 3.0))
            spec = YukawaPairSpec(e1, e2, x2)
            cf = yukawa_pair(spec)
            red = complex(yukawa_pair_reduced(spec).value).real
            orc = complex(yukawa_pair_oracle(spec).value).real
            assert red == pytest.approx(cf, rel=1e-6, abs=0)
            assert orc == pytest.approx(cf, rel=1e-6, abs=0)
            assert orc == pytest.approx(red, rel=1e-6, abs=0)

    def test_exponent_choice_invariance(self):
        # f = t^(3/2) at (4,4,0) equals mu = 0 at (1,1,3), bit for bit: G1's
        # kernel reads the triple only through A, B, the gamma ratio and
        # alpha + mu, which the power shift between them keeps
        rng = np.random.default_rng(21)
        specs = [YukawaPairSpec(1.0, 2.0, 1.0), YukawaPairSpec(2.2, 0.7, 0.6)]
        for _ in range(20):  # test_route_agreement_random's specs
            e1 = float(rng.uniform(0.4, 3.0))
            e2 = float(rng.uniform(0.4, 3.0))
            if abs(e1 - e2) < 1e-3:
                e2 += 0.1
            specs.append(YukawaPairSpec(e1, e2, float(rng.uniform(0.2, 3.0))))
        for spec in specs:
            want = yukawa_pair_reduced(spec)
            assert want.converged and yukawa_pair_reduced_alt(spec) == want, spec

    def test_equal_range_route(self):
        spec = YukawaPairSpec(1.0, 1.0, 1.0)
        red = complex(yukawa_pair_reduced(spec).value).real
        assert red == pytest.approx(yukawa_pair(spec), rel=1e-8, abs=0)

    @pytest.mark.parametrize("route", [yukawa_pair_reduced, yukawa_pair_reduced_alt])
    def test_equal_range_routes_keep_the_gamma_ratio_bits(self, route):
        # G1 takes a = b at h = 0, and gives N6-aeqb's result there bit for bit
        n6 = get_rule("N6-aeqb")
        for eta, x2 in itertools.product([0.5, 1.0, 2.0], [0.0, 0.7, 3.0]):
            spec = YukawaPairSpec(eta, eta, x2)
            base = applications._pair_params(spec)
            if route is yukawa_pair_reduced:
                params, f = base, TestIntegrand(1.0, 1.5, 0.0)
            else:
                params = Params(1, 1, 3, a=base.a, b=base.b, c=base.c)
                f = TestIntegrand(1.0, 0.0, 0.0)
            want = n6.reduce_to_1d(params, f).scaled(SQPI)
            assert want.converged and route(spec) == want, (eta, x2)

    @pytest.mark.parametrize("route", [yukawa_pair_reduced, yukawa_pair_reduced_alt])
    def test_equal_range_routes_make_no_hyp1f1_call(self, route, monkeypatch):
        # at a = b, h = 0 the Kummer factor is 1 at every node, returned
        # without scipy's series
        def refuse(*args):
            raise AssertionError("hyp1f1 called at shift = h = 0")

        monkeypatch.setattr(kernels._sp, "hyp1f1", refuse)
        assert route(YukawaPairSpec(1.0, 1.0, 1.0)).converged


class TestHydrogenic:
    def test_derivative_definition(self):
        # equals -(eta1^(3/2)/sqrt(pi)) d/d(eta1) of the pair overlap
        e1, e2, x2 = 2.0, 1.0, 1.0
        step = 1e-5
        fd = (
            yukawa_pair(YukawaPairSpec(e1 + step, e2, x2))
            - yukawa_pair(YukawaPairSpec(e1 - step, e2, x2))
        ) / (2.0 * step)
        expected = -(e1**1.5 / SQPI) * fd
        assert hydrogenic_pair(YukawaPairSpec(e1, e2, x2)) == pytest.approx(expected, rel=1e-5, abs=0)

    def test_equal_limit_form(self):
        eta, x2 = 1.0, 1.0
        closed = SQPI * (1.0 + x2 * eta) / math.sqrt(eta) * math.exp(-eta * x2)
        assert hydrogenic_pair(YukawaPairSpec(eta, eta, x2)) == pytest.approx(closed, rel=1e-14, abs=0)
        near = hydrogenic_pair(YukawaPairSpec(1.0, 1.0 + 1e-5, 1.0))
        assert near == pytest.approx(closed, rel=1e-4, abs=0)

    def test_equal_ranges_take_the_general_form(self):
        # phi2 at z = 0: sqrt(pi) (1 + x2 eta)/sqrt(eta) e^(-eta x2)
        for eta in EQUAL_ETAS:
            for x2 in EQUAL_X2S:
                e, x = mp.mpf(eta), mp.mpf(x2)
                ref = mp.sqrt(mp.pi) * (1 + x * e) / mp.sqrt(e) * mp.exp(-e * x)
                val = hydrogenic_pair(YukawaPairSpec(eta, eta, x2))
                assert abs(val - ref) <= 1e-15 * abs(ref), (eta, x2)

    def test_zero_separation(self):
        # x2 = 0: 4 sqrt(pi) eta1^(3/2)/(eta1 + eta2)^2
        for e1, e2 in ZERO_SEPARATION_ETAS:
            ref = 4 * mp.sqrt(mp.pi) * mp.mpf(e1) ** 1.5 / (mp.mpf(e1) + e2) ** 2
            val = hydrogenic_pair(YukawaPairSpec(e1, e2, 0.0))
            assert abs(val - ref) <= 1e-15 * abs(ref), (e1, e2)


def _yukawa_pair_mp(e1, e2, x2):
    return 4 * mp.pi * (mp.exp(-x2 * e1) - mp.exp(-x2 * e2)) / (x2 * (e2**2 - e1**2))


def _hydrogenic_pair_mp(e1, e2, x2):
    d = e1**2 - e2**2
    return (8 * mp.sqrt(mp.pi) * e1**2.5 / d**2
            * (mp.exp(-e2 * x2) / x2 - (d / (2 * e1) + 1 / x2) * mp.exp(-e1 * x2)))


class TestPairClosedFormsNearEqualRanges:
    """The pair closed forms keep their digits as eta2 -> eta1.

    The reference is the textbook form at 60 digits, where its cancellation
    (up to ~20 digits at eta2 - eta1 = 1e-9, x2 = 0.01) costs nothing.
    """

    GAPS = [sign * 10.0**k for k in range(-9, 1) for sign in (1.0, -1.0)]
    X2S = [0.01, 0.03, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0]

    @pytest.mark.parametrize("eta1", [0.4, 1.0, 3.0])
    @pytest.mark.parametrize(
        "closed, reference",
        [(yukawa_pair, _yukawa_pair_mp), (hydrogenic_pair, _hydrogenic_pair_mp)],
        ids=["yukawa", "hydrogenic"],
    )
    def test_against_mpmath(self, closed, reference, eta1):
        worst = 0.0
        with mp.workdps(60):
            for gap in self.GAPS:
                eta2 = eta1 + gap
                if eta2 <= 0.0:
                    continue
                for x2 in self.X2S:
                    ref = reference(mp.mpf(eta1), mp.mpf(eta2), mp.mpf(x2))
                    if ref < 1e-280:
                        continue
                    value = closed(YukawaPairSpec(eta1, eta2, x2))
                    worst = max(worst, float(abs(value - ref) / ref))
        assert worst <= 1e-12


def erfi_value(spec: FourierSpec) -> complex:
    res = fourier_pair_erfi_result(spec)
    assert res.converged, spec
    return complex(res.value)


def tau_value(spec: FourierSpec) -> complex:
    res = fourier_pair_tau_result(spec)
    assert res.converged, spec
    return complex(res.value)


class TestFourier:
    def test_cross_parametrization(self):
        for (k, chi, e1, e2, x2) in [
            (1.0, 0.0, 1.0, 0.5, 1.0),
            (2.0, 1.0, 1.0, 2.0, 0.5),
            (0.5, -0.2, 1.5, 1.5, 2.0),
        ]:
            spec = FourierSpec(k, chi, e1, e2, x2)
            a = erfi_value(spec)
            b = tau_value(spec)
            assert a == pytest.approx(b, rel=1e-6, abs=0)

    def test_real_when_phase_vanishes(self):
        spec = FourierSpec(1.0, 0.0, 1.0, 0.5, 1.0)
        val = erfi_value(spec)
        assert abs(val.imag) <= 1e-10 * abs(val.real)

    def test_small_k_matches_static_pair(self):
        spec = FourierSpec(1e-3, 0.0, 1.0, 2.0, 1.0)
        static = yukawa_pair(YukawaPairSpec(1.0, 2.0, 1.0))
        assert erfi_value(spec).real == pytest.approx(static, rel=1e-3, abs=0)

    def test_tau_at_k0_equal_ranges(self):
        spec = FourierSpec(0.0, 0.0, 1.0, 1.0, 1.0)
        assert tau_value(spec).real == pytest.approx(2.0 * math.pi / math.e, rel=1e-10, abs=0)

    def test_tau_against_mpmath(self):
        # the tau route's own integral, 2 pi int_0^1 e^(-i k.x2 tau) e^(-x2 L)/L,
        # at 30 digits; for k > 0 the erfi route must match it too, converged,
        # at every sign of k.x2 and at the small-k switch to the tau route
        worst, erfi_misses = 0.0, []
        # eta1, eta2, x2 and the cosine of the angle between k and x2
        grid = itertools.product((0.5, 2.0), (0.5, 2.0), (0.3, 3.0), (-1.0, 0.0, 1.0))
        with mp.workdps(30):
            for e1, e2, x2, cos in grid:
                for k in (0.0, applications._ERFI_SMALL_K * max(e1, e2), 0.5, 2.0):
                    chi = k * x2 * cos

                    def f(tau):
                        ell = mp.sqrt((1 - tau) * (k * k * tau + e2 * e2) + e1 * e1 * tau)
                        return mp.expj(-chi * tau) * mp.exp(-x2 * ell) / ell

                    ref = complex(2 * mp.pi * mp.quad(f, [0, 1]))
                    spec = FourierSpec(k, chi, e1, e2, x2)
                    worst = max(worst, abs(tau_value(spec) - ref) / abs(ref))
                    if k > 0.0:
                        res = fourier_pair_erfi_result(spec)
                        rel = abs(complex(res.value) - ref) / abs(ref)
                        if not (res.converged and rel <= 1e-12):
                            erfi_misses.append((spec, res.converged, rel))
        assert worst <= 1e-14, worst
        assert not erfi_misses, erfi_misses

    def test_hermiticity(self):
        up = erfi_value(FourierSpec(1.0, 0.5, 1.0, 2.0, 1.0))
        dn = erfi_value(FourierSpec(1.0, -0.5, 1.0, 2.0, 1.0))
        assert up.conjugate() == pytest.approx(dn, rel=1e-10, abs=0)

    def test_colinear_boundary(self):
        # |k.x2| = k*x2 saturates the Cauchy-Schwarz bound, where the
        # kernel's Gaussian growth/decay cancellation is exact; large x2
        # additionally pushes the factor through the denormal range
        for s in (+1.0, -1.0):
            for (e1, e2) in ((1.0, 0.6), (0.7, 1.8)):
                spec = FourierSpec(0.5, s * 0.5 * 8.0, e1, e2, 8.0)
                a = erfi_value(spec)
                b = tau_value(spec)
                assert a == pytest.approx(b, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("args", [
        (1.0, 0.0, 1.0, 0.5, 1.0),
        (2.0, 1.0, 1.0, 2.0, 0.5),
        (0.5, 4.0, 1.0, 0.6, 8.0),
        (1.3, -0.4, 0.7, 1.8, 0.9),
    ])
    def test_erfi_factor_sees_live_rows_only(self, monkeypatch, args):
        # the term carries the factor's exponentials exp(-beta t - gamma/t),
        # so no t at which the term underflows reaches the Faddeeva functions
        spec = FourierSpec(*args)
        gamma = min(spec.eta1, spec.eta2) ** 2 / 4.0
        beta = spec.x2 * spec.x2  # the whole Gaussian decay
        seen = []
        assert applications._erfi_kernel(spec)[0].beta == beta
        bounded_part = FourierErfiFactor.bounded_part

        def spy(factor, t):
            seen.append(np.array(t))
            return bounded_part(factor, t)

        monkeypatch.setattr(FourierErfiFactor, "bounded_part", spy)
        assert fourier_pair_erfi_result(spec).converged
        ts = np.concatenate(seen)
        logmag = math.log(SQPI / spec.k) - np.log(ts) - beta * ts - gamma / ts
        assert logmag.min() >= kernels._EXP_ZERO

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="k_dot_x2"):
            FourierSpec(1.0, 2.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["k", "k_dot_x2", "eta1", "eta2", "x2"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_field_is_rejected(self, field, bad):
        fields = dict(k=1.0, k_dot_x2=0.5, eta1=1.0, eta2=0.5, x2=1.0)
        fields[field] = bad
        with pytest.raises(ValueError, match=field):
            FourierSpec(**fields)

    def test_semi_numeric_rule_route(self):
        # the same quantity through the catalog's inner-integral rule with
        # an imaginary h: a third, fully independent route
        from quadred.applications import fourier_params
        from quadred.catalog import get_rule
        from quadred.params import TestIntegrand

        spec = FourierSpec(1.0, 0.4, 1.0, 0.7, 0.9)
        res = get_rule("R1-rint").reduce_to_1d(fourier_params(spec), TestIntegrand(1.0, 1.5, 0.0))
        via_rule = SQPI * complex(res.value)
        assert via_rule == pytest.approx(tau_value(spec), rel=1e-8, abs=0)
        assert via_rule == pytest.approx(erfi_value(spec), rel=1e-8, abs=0)


def _bits(res: QuadResult) -> tuple[str, str, int]:
    value = complex(res.value)
    return value.real.hex(), value.imag.hex(), res.evaluations


class TestRouteBitsArePinned:
    """Each route's value bits and evaluations; a change that moves them re-pins
    them and gives the old and new values in CHANGES.md."""

    PINS = {
        # chi > 0, chi < 0 and chi = 0: the erfi factor's two branches
        FourierSpec(1.0, 0.4, 1.0, 0.5, 1.0): (
            ("0x1.90ebc89a669d7p+1", "-0x1.067ec44e86418p-1", 393),
            ("0x1.90ebc89a669d6p+1", "-0x1.067ec44e86419p-1", 195),
        ),
        FourierSpec(1.3, -0.7, 0.8, 1.4, 0.9): (
            ("0x1.914f03008ea69p+0", "0x1.5fb8635728f6ap-1", 393),
            ("0x1.914f03008ea6ap+0", "0x1.5fb8635728f6ap-1", 195),
        ),
        FourierSpec(0.7, 0.0, 1.2, 0.6, 1.5): (
            ("0x1.accc2be3a73e5p+0", "0x1.085c21426e8a3p-53", 393),
            ("0x1.accc2be3a73e6p+0", "0x0.0p+0", 195),
        ),
    }

    @pytest.mark.parametrize("spec", sorted(PINS, key=lambda spec: spec.k_dot_x2),
                             ids=["chi<0", "chi=0", "chi>0"])
    def test_fourier_routes(self, spec):
        erfi, tau = self.PINS[spec]
        assert _bits(fourier_pair_erfi_result(spec)) == erfi
        assert _bits(fourier_pair_tau_result(spec)) == tau

    def test_yukawa_reduced(self):
        res = yukawa_pair_reduced(YukawaPairSpec(1.0, 2.0, 1.0))
        assert isinstance(res.value, float)
        assert _bits(res) == ("0x1.f2ba71329dae9p-1", "0x0.0p+0", 393)


class TestCheshire:
    def test_wrapped_derivative_agreement(self):
        rep = cheshire_check(1.0, 1.0)
        assert rep.spec.eta1 == 1.0 and rep.spec.eta2 == 0.5
        assert rep.rel_diff <= 1e-6

    def test_with_oblique_phase(self):
        rep = cheshire_check(1.0, 1.0, k_dot_x2=0.25)
        assert rep.rel_diff <= 1e-6

    def test_unconverged_route_raises(self, monkeypatch):
        # a value that never converged must not enter the finite difference
        def unconverged(spec, tol=None):
            return QuadResult(1.0 + 0.0j, math.inf, 50_081, False)

        monkeypatch.setattr(derivative_checks, "fourier_pair_tau_result", unconverged)
        with pytest.raises(QuadratureError, match="did not converge"):
            cheshire_check()
