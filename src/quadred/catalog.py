"""The reduction catalog: every verified quadrant-to-half-line identity.

Each rule maps the integral named by ``Params`` (for its exponent triple and
coefficient pattern) to  integral_0^inf f(t) w(t) dt  with a closed-form
weight w.  Rules come in five families, and the family fixes which
coefficients may be nonzero, the validity predicate and the sampler
(``_FAMILIES``); only N6-aeqb, the a = b form, overrides the last two:

  positive-exp   only p, q active: one builder, G&R 3.471.9's Macdonald
                 sum for the triple, gives exp terms at half-integer
                 orders and one term of K0 and K1 weights at integer
                 ones; the displays kept as descriptions and as the
                 tests' reference
  inverse-exp    only a, b, c active: N1-N5 weigh by G1's Kummer term at
                 h = 0, their split-exponential and erf displays kept as
                 descriptions and as the tests' reference; plus the a = b
                 gamma-ratio form
  mixed-tilde    a, b, c and g active, g = a - b exactly, g being the
                 tilde factor exp(-g(x+y)^2/(x y^2)): one erfcx term each,
                 the sum of its tabulated terms, whose displays are kept
                 as descriptions and as the tests' reference
  general-h      a, b, c, h active: confluent-hypergeometric kernel
  r-integral     a, b, c, h, j active: kernel carries a finite inner
                 integral evaluated numerically

Four entries deserve a note.  E1-uncorrected-pbm reproduces a coefficient
from a published table of integrals that is wrong by the factor
1/((sqrt p + sqrt q) sqrt(p+q)); it ships flagged as an erratum so the
failure stays demonstrable.  T2-* and T5-* carry kernels whose tabulated
coefficients are twice the value the 2-D oracle confirms, and T4-*'s
tabulated display mixes incompatible powers of t; all three ship with the
oracle-confirmed normalization, re-derived from the same completed-square
substitution that yields T1/T3, and keep a note saying so.
"""

from __future__ import annotations

import enum
import functools
import math

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import gamma

from .kernels import (
    BesselKFactor,
    ErfcxSqrtInvFactor,
    KernelTerm,
    KummerFactor,
    RInnerFactor,
    eval_kernel,
    eval_kernel_with_f,
)
from .params import DivergentIntegralError, Params, TestIntegrand, convergence_failure, mu_floor
from .quadrature import QuadResult, Tolerance, integrate_half_line

SQPI = math.sqrt(math.pi)

_Predicate = Callable[[Params], str | None]
_Sampler = Callable[[tuple[int, int, int] | None, np.random.Generator, int], Params]


class Family(enum.Enum):
    POSITIVE_EXP = "positive-exp"
    INVERSE_EXP = "inverse-exp"
    MIXED_TILDE = "mixed-tilde"
    GENERAL_H = "general-h"
    R_INTEGRAL = "r-integral"


class ApplicabilityError(ValueError):
    """Parameters violate a rule's validity predicate."""


_COEFF_NAMES = ("a", "b", "c", "g", "h", "j", "p", "q")


@dataclass(frozen=True)
class ReductionRule:
    id: str
    family: Family
    triple: tuple[int, int, int] | None  # None: rule covers a triple range
    description: str
    build_kernel: Callable[[Params], list[KernelTerm]]
    # None: the family's predicate and sampler (only N6-aeqb overrides them)
    extra_predicate: _Predicate | None = None
    sample: _Sampler | None = None
    erratum: bool = False
    note: str = ""

    @property
    def pattern(self) -> frozenset[str]:
        """Coefficients allowed to be nonzero."""
        return _FAMILIES[self.family].pattern

    @property
    def trusted(self) -> bool:
        return not self.erratum

    # -- validity ------------------------------------------------------------

    def applicability_failure(self, params: Params) -> str | None:
        """None when applicable, else the text of the failed predicate."""
        if self.triple is not None and params.triple != self.triple:
            return f"requires exponent triple {self.triple}, got {params.triple}"
        traits = _FAMILIES[self.family]
        for name in _COEFF_NAMES:
            if name not in traits.pattern and getattr(params, name) != 0:
                return f"requires {name}=0 for family {self.family.value}"
        return (self.extra_predicate or traits.predicate)(params)

    def check_applicability(self, params: Params) -> None:
        reason = self.applicability_failure(params)
        if reason is not None:
            raise ApplicabilityError(f"rule {self.id}: {reason}")

    def mu_min(self, params: Params) -> float:
        """The kernel's floor: f = t**mu is integrable at t -> 0 iff mu > mu_min.

        t = xy/(x+y) -> 0 exactly when x or y -> 0, so by Tonelli this is
        the contract's floor at the axes and the origin, params.mu_floor,
        read without building the kernel.  The samplers draw mu above it;
        whether an instance converges is params.convergence_failure's to
        decide, which reduce_to_1d asks.
        """
        self.check_applicability(params)
        return mu_floor(params)

    # -- evaluation ----------------------------------------------------------

    def kernel_weight(self, params: Params, t):
        self.check_applicability(params)
        return eval_kernel(self.build_kernel(params), t)

    def reduce_to_1d(self, params: Params, f: TestIntegrand, tol: Tolerance | None = None) -> QuadResult:
        """integral_0^inf f(t) w(t) dt: the half line taken with f's
        coefficient as 1, and the result scaled by it once."""
        self.check_applicability(params)
        reason = convergence_failure(params, f)
        if reason is not None:
            raise DivergentIntegralError(f"rule {self.id}: {reason}")
        terms = self.build_kernel(params)
        return integrate_half_line(lambda t: eval_kernel_with_f(terms, f, t), tol).scaled(f.coeff)

    def sample_params(self, rng: np.random.Generator, index: int) -> Params:
        return (self.sample or _FAMILIES[self.family].sample)(self.triple, rng, index)

    def descriptor(self) -> dict:
        """JSON-serializable registry row."""
        return {
            "id": self.id,
            "family": self.family.value,
            "triple": list(self.triple) if self.triple else None,
            "coefficient_pattern": sorted(self.pattern),
            "description": self.description,
            "erratum": self.erratum,
            "trusted": self.trusted,
            "note": self.note,
        }


# ----------------------------------------------------------------------------
# Samplers: log-uniform coefficients on [0.1, 10] intersected with validity.
# ----------------------------------------------------------------------------


def _loguni(rng, lo=0.1, hi=10.0):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _sample_pq(triple, rng, index):
    return Params(*triple, p=_loguni(rng), q=_loguni(rng))


def _sample_abc(triple, rng, index):
    a = _loguni(rng)
    return Params(*triple, a=a, b=a * rng.uniform(0.05, 0.85), c=_loguni(rng))


def _sample_tilde(triple, rng, index):
    params = _sample_abc(triple, rng, index)
    return replace(params, g=params.a - params.b)


# fixed exponent grids for the rules that cover a triple range
G1_GRID = (
    (3, 3, 0, 0.7),
    (4, 4, 0, 0.0),
    (1, 1, 3, 1.3),
    (2, 3, 1, 0.4),
    (5, 3, 0, 2.0),
    (3, 1, 2, 0.9),
    (4, 2, 1, 0.0),
    (2, 2, 2, 1.5),
    (6, 4, -1, 0.25),
    (1, 4, 2, 0.6),
)
R1_GRID = ((4, 4, 0), (3, 3, 1), (2, 3, 2), (4, 2, 1), (5, 5, 0))
N6_GRID = ((4, 4, 0), (3, 3, 1), (2, 2, 2), (1, 4, 2), (5, 3, 0))


def _sample_g1(triple, rng, index):
    n, m, nu, h = G1_GRID[index % len(G1_GRID)]
    return replace(_sample_abc((n, m, nu), rng, index), h=h)


def _sample_r1(triple, rng, index):
    params = _sample_abc(R1_GRID[index % len(R1_GRID)], rng, index)
    return replace(params, h=_loguni(rng, 0.1, 3.0), j=_loguni(rng, 0.1, 3.0))


def _sample_n6(triple, rng, index):
    n, m, nu = N6_GRID[index % len(N6_GRID)]
    b = _loguni(rng)
    return Params(n, m, nu, a=b, b=b, c=_loguni(rng))


# ----------------------------------------------------------------------------
# Kernel builders.
# ----------------------------------------------------------------------------


def _order_rows(v: float) -> list[tuple[str, float, float]]:
    """K_v(x) as rows (basis, shift, c), the sum of c x**shift basis(x)
    with basis "exp" e^-x, "k0" K_0(x) or "k1" x K_1(x).

    K_-v = K_v.  A half-integer order N + 1/2 is sqrt(pi/(2x)) e^-x times
    sum_j (N+j)!/(j! (N-j)! (2x)**j) (DLMF 10.49.12), (N+j)!/(N-j)! being
    math.perm(N+j, 2j).  An integer order comes from K_0 and
    K_1 = x**-1 (x K_1) by the upward recurrence
    K_(u+1) = K_(u-1) + (2u/x) K_u (DLMF 10.29.1).  Every c is positive.
    """
    whole = int(abs(v))
    if abs(v) != whole:
        return [("exp", -0.5 - j, math.sqrt(math.pi / 2.0) * math.perm(whole + j, 2 * j)
                 / (math.factorial(j) * 2**j)) for j in range(whole + 1)]
    below, at = [("k0", 0, 1)], [("k1", -1, 1)]
    for u in range(1, whole):
        below, at = at, below + [(basis, shift - 1, 2 * u * c) for basis, shift, c in at]
    return at if whole else below


@functools.lru_cache(maxsize=None)
def _pq_shape(n: int, m: int, nu: int):
    """What of _pq_kernel the triple alone fixes: the lowest power alpha of
    t, whether the orders are half-integers, the number of coefficients
    and of K_0 weights among them, and the monomials (j, c, v, e), each
    adding c sqrt(p/q)**v s**e to coefficient j.  Half-integer orders
    have a coefficient for each power alpha + j of t.  Integer orders have
    one for each K_0 weight, of t**j, then one for each x K_1 weight.  The
    last coefficient is never 0.
    """
    k, odd = divmod(4 - (n + m + 2 * nu), 2)
    if k < 0 or odd:
        raise ApplicabilityError(f"no pq sum at {(n, m, nu)}: 2 - (n+m+2nu)/2 is no whole k >= 0")
    power = 1.0 - (n + m + nu) / 2.0
    orders = [(n + nu) / 2.0 - 1.0 + i for i in range(k + 1)]
    rows = [(basis, power + shift, v, 2.0 * math.comb(k, i) * c)
            for i, v in enumerate(orders) for basis, shift, c in _order_rows(v)]
    alpha = min(at for _, at, _, _ in rows)
    # a basis's coefficients run from t**alpha to its highest power, x K_1's after K_0's
    count = {basis: round(max(at for b, at, _, _ in rows if b == basis) - alpha) + 1
             for basis, _, _, _ in rows}
    split = count.get("k0", 0)
    # x**shift is s**shift t**shift, and x K_1(x) is s times the factor's x K_1(x)/s
    monomials = tuple(((basis == "k1") * split + round(at - alpha), c, v, at - power + (basis == "k1"))
                      for basis, at, v, c in rows)
    return alpha, "exp" in count, sum(count.values()), split, monomials


def _pq_kernel(params: Params) -> list[KernelTerm]:
    """The pq pattern's weight for any triple with k = 2 - (n+m+2nu)/2 a
    whole number >= 0 (Gradshteyn and Ryzhik 3.471.9):

        w(t) = t**(1-(n+m+nu)/2) e^(-(p+q)t)
               sum_(i=0..k) C(k, i) 2 (p/q)**(v_i/2) K_(v_i)(2 sqrt(pq) t),

    with v_i = (n+nu)/2 - 1 + i, from the sigma-integral the quadrant
    reduces to, with u = sigma/(1-sigma).  Every summand is positive.
    Half-integer orders give exponential terms at
    beta = (sqrt p + sqrt q)**2, one for each power of t.  Integer orders
    give one term, whose BesselKFactor carries the K_0 and K_1 weights, the
    last (x K_1's at its highest power of t if it has one, else K_0's) taken
    out as the term's coefficient.
    """
    root, s = math.sqrt(params.p / params.q), 2.0 * math.sqrt(params.p * params.q)
    alpha, half, size, split, monomials = _pq_shape(params.n, params.m, params.nu)
    values = [0.0] * size
    for j, c, v, e in monomials:
        values[j] += c * root**v * s**e
    if half:
        beta = (math.sqrt(params.p) + math.sqrt(params.q)) ** 2
        return [KernelTerm(value, alpha + j, beta=beta) for j, value in enumerate(values)]
    weights = [value / values[-1] for value in values]
    return [KernelTerm(values[-1], alpha, beta=params.p + params.q, special=BesselKFactor(
        s, tuple(weights[:split]), tuple(weights[split:])))]


def _e1_uncorrected_kernel(params: Params) -> list[KernelTerm]:
    # the published coefficient is the true one times this error factor
    error = 1.0 / ((math.sqrt(params.p) + math.sqrt(params.q)) * math.sqrt(params.p + params.q))
    return [replace(term, coeff=term.coeff * error) for term in _pq_kernel(params)]


def _tilde_kernel(numerator: float, gap_power: float, lift: int, form: str,
                  params: Params) -> list[KernelTerm]:
    """numerator/(a-b)**gap_power t**alpha e^(-ct - (b + 2(a-b))/t)
    psi(2 sqrt((a-b)/t)), alpha = (nu-4)/2 + lift and psi the factor's form
    (see ErfcxSqrtInvFactor); a row of _tilde_rules' table gives the first
    four arguments.

    alpha is the largest power among the tabulated terms.  At large t,
    psi_1 ~ 2z/sqrt(pi) and psi_4 ~ sqrt(pi) z^2 take a further t^-1/2 and
    t^-1 off it, which params.convergence_failure's rays (1, 1) and (2, 1)
    account for.
    """
    a, b = params.a, params.b
    # math.sqrt is correctly rounded, and ** 0.5 need not be
    gap = math.sqrt(a - b) if gap_power == 0.5 else (a - b) ** gap_power
    return [KernelTerm(numerator / gap, (params.nu - 4) / 2.0 + lift, beta=params.c,
                       gamma=b + 2.0 * (a - b), special=ErfcxSqrtInvFactor(a - b, form))]


def _g1_kernel(params):
    n, m, nu = params.n, params.m, params.nu
    a_par = (n + nu - 2) / 2.0
    b_par = (m + n + 2 * nu - 4) / 2.0
    ratio = float(gamma((m + nu - 2) / 2.0)) * float(gamma(a_par)) / float(gamma(b_par))
    # at a = b and h = 0 the factor is 1F1(A; B; -0) = 1 exactly, so none is
    # built: the term is then N6-aeqb's gamma-ratio form, and N6 builds here
    special = None
    if params.a != params.b or params.h != 0:
        special = KummerFactor(a_par, b_par, params.a - params.b, params.h.real)
    return [KernelTerm(ratio, (2.0 - m - n - nu) / 2.0, beta=params.c, gamma=params.b,
                       special=special)]


def _r1_kernel(params):
    return [
        KernelTerm(1.0, 1.0 - (params.n + params.m + params.nu) / 2.0,
                   beta=params.c, gamma=min(params.a, params.b),
                   special=RInnerFactor(params.n, params.m, params.nu,
                                        params.a, params.b, params.h, params.j))
    ]


# ----------------------------------------------------------------------------
# Validity predicates beyond triple/pattern matching.
# ----------------------------------------------------------------------------


def _needs_pq(params: Params) -> str | None:
    if not params.p > 0.0:
        return "requires p>0"
    if not params.q > 0.0:
        return "requires q>0"
    return None


def _needs_a_gt_b(params: Params) -> str | None:
    if not params.a > params.b:
        return "requires a>b"
    return None


def _needs_tilde(params: Params) -> str | None:
    if (reason := _needs_a_gt_b(params)) is not None:
        return reason
    # compared exactly, as N6 compares a = b
    if params.g != params.a - params.b:
        return f"requires g=a-b={params.a - params.b!r}, got g={params.g!r}"
    return None


def _needs_exponent_sums(params: Params) -> str | None:
    # positive gamma-ratio arguments; integrable endpoint powers in r for R1
    if not params.m + params.nu > 2:
        return "requires m+nu>2"
    if not params.n + params.nu > 2:
        return "requires n+nu>2"
    return None


def _needs_n6(params: Params) -> str | None:
    if params.a != params.b:
        return "requires a=b"
    return _needs_exponent_sums(params)


def _needs_g1(params: Params) -> str | None:
    # a >= b and real h >= 0, a = b at h = 0 included (see _g1_kernel)
    if (reason := _needs_exponent_sums(params)) is not None:
        return reason
    h = params.h
    if h.imag != 0.0:
        return "requires real h"
    if h.real < 0.0:
        return "requires h>=0"
    if params.a < params.b:
        return "requires a>=b (mirror the axes for a<b)"
    return None


def _needs_r1(params: Params) -> str | None:
    if (reason := _needs_exponent_sums(params)) is not None:
        return reason
    if not (params.a > 0.0 and params.b > 0.0):
        return "requires a>0 and b>0"
    if params.h.real < 0.0:
        return "requires Re(h)>=0"
    return None


# ----------------------------------------------------------------------------
# The registry.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class _FamilyTraits:
    pattern: frozenset[str]  # coefficients allowed to be nonzero
    predicate: _Predicate  # beyond triple/pattern matching
    sample: _Sampler


_FAMILIES = {
    Family.POSITIVE_EXP: _FamilyTraits(frozenset("pq"), _needs_pq, _sample_pq),
    Family.INVERSE_EXP: _FamilyTraits(frozenset("abc"), _needs_a_gt_b, _sample_abc),
    Family.MIXED_TILDE: _FamilyTraits(frozenset("abcg"), _needs_tilde, _sample_tilde),
    Family.GENERAL_H: _FamilyTraits(frozenset("abch"), _needs_g1, _sample_g1),
    Family.R_INTEGRAL: _FamilyTraits(frozenset("abchj"), _needs_r1, _sample_r1),
}

_CORRECTED_NOTE = (
    "tabulated coefficient is twice this kernel; the halved normalization "
    "is what the 2-D oracle confirms"
)


def _tilde_rules() -> tuple[ReductionRule, ...]:
    # each weight is one term, coeff t^alpha e^(-ct - (2a-b)/t) psi(z), that
    # _tilde_kernel builds from its row (numerator, gap power, lift of alpha
    # over (nu-4)/2, form); the description gives the weight and, where the
    # display has several terms, says so
    specs = (
        ("T1", lambda nu: (3 - nu, 4 - nu, nu), (SQPI / 2.0, 0.5, 0, "T1"),
         "sqrt(pi)/(2 sqrt(a-b)) t^((nu-4)/2) (1 - erfcx z)", "; the display's two terms as one",
         ""),
        ("T2", lambda nu: (1 - nu, 4 - nu, nu), (SQPI / 2.0, 0.5, 1, "T2"),
         "sqrt(pi)/(2 sqrt(a-b)) t^((nu-2)/2) (1 + erfcx z)", "; the display's two terms as one",
         _CORRECTED_NOTE),
        ("T3", lambda nu: (1 - nu, 6 - nu, nu), (SQPI, 0.5, 0, "erfcx"),
         "sqrt(pi)/sqrt(a-b) t^((nu-4)/2) erfcx z", "",
         "tabulated display carries the reciprocal of the erfcx growth factor; "
         "this scaled form is what the 2-D oracle confirms"),
        ("T4", lambda nu: (1 - nu, 8 - nu, nu), (0.25, 1.5, 0, "T4"),
         "(a-b)^-3/2/4 t^((nu-4)/2) (sqrt(pi)((2z^2-1) erfcx z + 1) - 2z)",
         "; the display's four terms as one",
         "tabulated display mixes incompatible powers of t; kernel re-derived "
         "from the completed-square substitution and oracle-confirmed"),
        ("T5", lambda nu: (-1 - nu, 6 - nu, nu), (SQPI / 4.0, 1.5, 2, "T5"),
         "sqrt(pi)/(4 (a-b)^3/2) t^(nu/2) (1 + 2z/sqrt(pi) + (1-z^2) erfcx z)",
         "; the display's four terms as one",
         _CORRECTED_NOTE),
    )
    return tuple(
        ReductionRule(
            f"{base}-nu{nu}", Family.MIXED_TILDE, triple_of(nu),
            f"erfcx kernel {weight} e^(-ct-(2a-b)/t), z = 2 sqrt((a-b)/t){summed} "
            f"(nu={nu}; 2-D side carries exp(-(a-b)(x+y)^2/(x y^2)))",
            functools.partial(_tilde_kernel, *row), note=note,
        )
        for base, triple_of, row, weight, summed, note in specs
        for nu in (0, 1, 2)
    )


RULES: tuple[ReductionRule, ...] = (
    ReductionRule("E1-pbm-corrected", Family.POSITIVE_EXP, (0, 0, 1),
                  "corrected product-form identity: sqrt(pi)(sqrt p+sqrt q)/sqrt(pq) "
                  "exp(-(sqrt p+sqrt q)^2 t)", _pq_kernel),
    ReductionRule("E1-uncorrected-pbm", Family.POSITIVE_EXP, (0, 0, 1),
                  "as-tabulated coefficient sqrt(pi)/sqrt(pq(p+q)); wrong by "
                  "1/((sqrt p+sqrt q) sqrt(p+q)) and kept as a runnable erratum",
                  _e1_uncorrected_kernel, erratum=True),
    ReductionRule("E2-110", Family.POSITIVE_EXP, (1, 1, 0),
                  "power-shifted companion of E1: same exponential kernel times t^-1/2",
                  _pq_kernel),
    ReductionRule("E3-m110", Family.POSITIVE_EXP, (-1, 1, 0),
                  "dissimilar-power identity: exponential kernel with a linear-in-t polynomial",
                  _pq_kernel),
    ReductionRule("E4-1m12", Family.POSITIVE_EXP, (1, -1, 2),
                  "unlike-power identity: sqrt(pi)/sqrt(q) t^-1/2 exponential kernel",
                  _pq_kernel),
    ReductionRule("E5-1m54", Family.POSITIVE_EXP, (1, -5, 4),
                  "unlike-power identity: t^-1/2 (1 + 2 sqrt(pq) t) exponential kernel",
                  _pq_kernel),
    ReductionRule("K1-111", Family.POSITIVE_EXP, (1, 1, 1),
                  "Macdonald kernel 2 t^-1/2 e^-(p+q)t K0(2 sqrt(pq) t)", _pq_kernel),
    ReductionRule("K2-220", Family.POSITIVE_EXP, (2, 2, 0),
                  "Macdonald kernel 2 t^-1 e^-(p+q)t K0(2 sqrt(pq) t)", _pq_kernel),
    ReductionRule("K3-0m44", Family.POSITIVE_EXP, (0, -4, 4),
                  "Macdonald kernel 2 sqrt(p/q) t e^-(p+q)t K1(2 sqrt(pq) t)", _pq_kernel),
    ReductionRule("K4-1m33", Family.POSITIVE_EXP, (1, -3, 3),
                  "Macdonald kernel 2 sqrt(p/q) t^1/2 e^-(p+q)t K1(2 sqrt(pq) t)", _pq_kernel),
    ReductionRule("K5-1m75", Family.POSITIVE_EXP, (1, -7, 5),
                  "Macdonald kernel 2 (p/q) t^3/2 e^-(p+q)t K2(2 sqrt(pq) t)", _pq_kernel),
    ReductionRule("K6-m111", Family.POSITIVE_EXP, (-1, 1, 1),
                  "two-term Macdonald kernel: sqrt(p) K0 + sqrt(q) K1, weight t^1/2", _pq_kernel),
    ReductionRule("K7-m311", Family.POSITIVE_EXP, (-3, 1, 1),
                  "three-term Macdonald kernel; minus the p-derivative of K6-m111", _pq_kernel),
    # N1-N5 evaluate G1's 1F1 term, which never subtracts; their tabulated
    # elementary displays, which do, stay as descriptions and as the tests'
    # reference.  N5's display carries t^-3/2, but only t^-1 matches the 2-D
    # oracle and degenerates into N6-aeqb's t^-2 as b -> a, so its
    # description gives t^-1 and names the display's power
    ReductionRule("N1-133", Family.INVERSE_EXP, (1, 3, 3),
                  "split-exponential kernel (a-b)^-2 t^-3/2 (t e^-a/t - (b-a+t) e^-b/t)",
                  _g1_kernel),
    ReductionRule("N2-333", Family.INVERSE_EXP, (3, 3, 3),
                  "split-exponential kernel (a-b)^-3 t^-3/2 ((a-b-2t) e^-b/t + (a-b+2t) e^-a/t)",
                  _g1_kernel),
    ReductionRule("N3-033", Family.INVERSE_EXP, (0, 3, 3),
                  "erf kernel: (a-b)^-3/2 t^-3/2 (sqrt(pi)(a-b-t/2) e^-b/t erf(sqrt((a-b)/t)) "
                  "+ sqrt(t(a-b)) e^-a/t)", _g1_kernel),
    ReductionRule("N4-122", Family.INVERSE_EXP, (1, 2, 2),
                  "erf kernel: sqrt(pi/(a-b)) t^-1 e^-b/t erf(sqrt((a-b)/t))", _g1_kernel),
    ReductionRule("N5-222", Family.INVERSE_EXP, (2, 2, 2),
                  "split-exponential kernel (a-b)^-1 t^-1 (e^-b/t - e^-a/t); the paper's display "
                  "carries t^-3/2", _g1_kernel),
    ReductionRule("N6-aeqb", Family.INVERSE_EXP, None,
                  "a=b gamma-ratio form: G((m+nu-2)/2) G((n+nu-2)/2) / G((m+n+2nu-4)/2) "
                  "t^(2-m-n-nu)/2 e^-b/t, any m+nu>2, n+nu>2",
                  _g1_kernel, extra_predicate=_needs_n6, sample=_sample_n6),
    *_tilde_rules(),
    ReductionRule("G1-general", Family.GENERAL_H, None,
                  "confluent-hypergeometric kernel 1F1((n+nu-2)/2; (m+n+2nu-4)/2; -(a-b+ht)/t) "
                  "with the gamma-ratio prefactor, any m+nu>2, n+nu>2", _g1_kernel),
    ReductionRule("R1-rint", Family.R_INTEGRAL, None,
                  "semi-numeric rule: weight carries the finite inner integral int_0^(1/t) "
                  "r^((n+nu)/2-2) (1-rt)^((m+nu)/2-2) e^(jr^2t - r(a-b+ht+j)) dr", _r1_kernel),
)


_BY_ID = {rule.id: rule for rule in RULES}
if len(_BY_ID) != len(RULES):
    raise RuntimeError("duplicate rule ids in the registry")


def list_rules(family: Family | str | None = None, include_erratum: bool = True) -> list[ReductionRule]:
    """Registry in its stable order, optionally filtered by family."""
    if isinstance(family, str):
        family = Family(family)
    out = [r for r in RULES if family is None or r.family is family]
    if not include_erratum:
        out = [r for r in out if not r.erratum]
    return out


def get_rule(rule_id: str) -> ReductionRule:
    try:
        return _BY_ID[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}") from None

