"""quadred: verified reductions of quadrant double integrals to 1-D kernels.

The catalog maps integrals of the form

    integral integral  x**(-n/2) y**(-m/2) (x+y)**(-nu/2) f(xy/(x+y))
        exp(-a/x - b/y - c xy/(x+y) - h y/(x+y) - j/(x+y) - p x - q y) dx dy

over the open quadrant onto  integral f(t) w(t) dt  with closed-form
weights w, and every rule ships with a brute-force 2-D oracle check.
"""

from .applications import (
    FourierSpec,
    YukawaPairSpec,
    fourier_pair_erfi_result,
    fourier_pair_tau_result,
    hydrogenic_pair,
    yukawa_pair,
    yukawa_pair_oracle,
    yukawa_pair_reduced,
)
from .catalog import (
    ApplicabilityError,
    Family,
    ReductionRule,
    RULES,
    get_rule,
    list_rules,
)
from .kernels import KernelError, KernelTerm
from .params import DivergentIntegralError, Params, TestIntegrand
from .quadrature import (
    QuadratureError,
    QuadResult,
    Tolerance,
    integrate_half_line,
    integrate_interval,
    integrate_quadrant,
)
from .reducer import (
    VerificationRecord,
    direct_2d,
    normalize,
    run_sweep,
    shift_power,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityError",
    "DivergentIntegralError",
    "Family",
    "FourierSpec",
    "KernelError",
    "KernelTerm",
    "Params",
    "QuadResult",
    "QuadratureError",
    "ReductionRule",
    "RULES",
    "TestIntegrand",
    "Tolerance",
    "VerificationRecord",
    "YukawaPairSpec",
    "direct_2d",
    "fourier_pair_erfi_result",
    "fourier_pair_tau_result",
    "get_rule",
    "hydrogenic_pair",
    "integrate_half_line",
    "integrate_interval",
    "integrate_quadrant",
    "list_rules",
    "normalize",
    "run_sweep",
    "shift_power",
    "verify",
    "yukawa_pair",
    "yukawa_pair_oracle",
    "yukawa_pair_reduced",
]
