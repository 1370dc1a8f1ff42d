"""Two derivative cross-checks, kept as test reference code.

Nothing in the package calls them.  ``derivative_check_k7`` differentiates
the K6 reduction in p and matches it against K7 (acceptance criterion 7,
``test_reducer.py``); ``cheshire_check`` differentiates the momentum-space
overlap in eta2 along both of its routes (``test_applications.py``).  Both
report their residual at ``Tolerance.scale`` of the value compared with.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, replace

from quadred.applications import FourierSpec, fourier_pair_erfi_result, fourier_pair_tau_result
from quadred.catalog import ApplicabilityError, get_rule
from quadred.params import Params, TestIntegrand
from quadred.quadrature import Tolerance

# largest relative residual the K6/K7 derivative cross-check accepts
_DERIVATIVE_CHECK_PASS = 1e-4


# ----------------------------------------------------------------------------
# The derivative cross-check between the two- and three-term Macdonald rules.
# ----------------------------------------------------------------------------


@dataclass
class DerivativeCheckReport:
    params: Params
    f: TestIntegrand
    step: float
    fd_value: float
    companion_value: float
    matched_sign: int
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= _DERIVATIVE_CHECK_PASS


def derivative_check_k7(
    params: Params,
    f: TestIntegrand,
    step: float | None = None,
    tol: Tolerance | None = None,
) -> DerivativeCheckReport:
    """Compare the p-derivative of the K6 reduction against +-K7.

    A central difference of the K6 value in p is matched against the K7
    value of the same parameters; the report records which sign agrees and
    the residual at Tolerance.scale(K7).  (Differentiating exp(-p x) under
    the integral pulls down -x, so the minus sign is the expected winner;
    the check records the empirical answer rather than assuming it.)
    """
    k6 = get_rule("K6-m111")
    k7 = get_rule("K7-m311")
    if step is None:
        step = 1e-4 * params.p
    if not (params.p - step > 0.0):
        raise ApplicabilityError("step too large: p - step must stay positive")
    tol = tol or Tolerance(rel=1e-12, abs=1e-15)
    k6_params = replace(params, n=-1, m=1, nu=1)
    k7_params = replace(params, n=-3, m=1, nu=1)
    up = k6.reduce_to_1d(replace(k6_params, p=params.p + step), f, tol).require_converged()
    dn = k6.reduce_to_1d(replace(k6_params, p=params.p - step), f, tol).require_converged()
    fd = (complex(up.value).real - complex(dn.value).real) / (2.0 * step)
    companion = complex(k7.reduce_to_1d(k7_params, f, tol).require_converged().value).real
    scale = Tolerance.scale(companion)
    res_plus, res_minus = abs(fd - companion) / scale, abs(fd + companion) / scale
    if res_minus <= res_plus:
        return DerivativeCheckReport(params, f, step, fd, companion, -1, res_minus)
    return DerivativeCheckReport(params, f, step, fd, companion, +1, res_plus)


# ----------------------------------------------------------------------------
# The range-derivative cross-check at the scattering-amplitude configuration.
# ----------------------------------------------------------------------------


@dataclass
class CheshireReport:
    """Agreement of -d/d(eta2) of the momentum-space overlap between routes."""

    spec: FourierSpec
    step: float
    wrapped_erfi: complex
    wrapped_tau: complex

    @property
    def rel_diff(self) -> float:
        return abs(self.wrapped_erfi - self.wrapped_tau) / Tolerance.scale(self.wrapped_tau)


def _wrapped_derivative(route, spec: FourierSpec, step: float) -> complex:
    pref = spec.eta1**1.5 * spec.eta2**1.5 / math.pi

    def at(eta2: float) -> complex:
        # an unconverged value raises rather than feed the difference
        res = route(FourierSpec(spec.k, spec.k_dot_x2, spec.eta1, eta2, spec.x2))
        return complex(res.require_converged().value)

    fd = (at(spec.eta2 + step) - at(spec.eta2 - step)) / (2.0 * step)
    return pref * (-fd)


def cheshire_check(
    kf_mag: float = 1.0,
    x2: float = 1.0,
    k_dot_x2: float = 0.0,
    step: float = 1e-5,
) -> CheshireReport:
    """Central-difference -d/d(eta2) wrapper at eta1 = 1, eta2 = 1/2,
    k = kf_mag/2, applied to both momentum-space routes.

    Raises QuadratureError if either route does not converge at a step.
    """
    spec = FourierSpec(kf_mag / 2.0, k_dot_x2, 1.0, 0.5, x2)
    return CheshireReport(
        spec, step,
        _wrapped_derivative(fourier_pair_erfi_result, spec, step),
        _wrapped_derivative(fourier_pair_tau_result, spec, step),
    )
