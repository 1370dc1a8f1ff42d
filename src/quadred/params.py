"""Parameter tuples naming one quadrant integral, and the test function family.

The integrand described by ``Params`` is

    x**(-n/2) y**(-m/2) (x+y)**(-nu/2) f(xy/(x+y))
      * exp(-a/x - b/y - c*xy/(x+y) - g*(x+y)**2/(x*y**2) - h*y/(x+y) - j/(x+y)
            - p*x - q*y)

over x, y > 0; n, m, nu are twice the literal exponents so everything stays
an integer.  g is the tilde coefficient, which the mixed-tilde rules
require to be a - b; in t = xy/(x+y) and s = y/(x+y) its factor is
e^(-g/(s t)).  ``TestIntegrand`` is the f family coeff * t**mu *
exp(-sigma*t), closed under the power-shift rewriting, which is what makes
normalization searches exact.
"""

from __future__ import annotations

import math
import operator

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Params:
    n: int
    m: int
    nu: int
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    g: float = 0.0
    h: complex = 0.0
    j: float = 0.0
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        for name in ("n", "m", "nu"):
            v = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(v))
            except TypeError:
                raise ValueError(f"exponent {name} must be an integer, got {v!r}") from None
        for name in ("a", "b", "c", "g", "j", "p", "q"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"coefficient {name} must be finite and >= 0, got {v}")
        h = complex(self.h)
        if not (math.isfinite(h.real) and math.isfinite(h.imag)):
            raise ValueError("h must be finite")
        object.__setattr__(self, "h", h)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.n, self.m, self.nu)

    def mirrored(self) -> "Params":
        """Swap the roles of x and y: (n, a, p) <-> (m, b, q).

        The bare swap is an identity of the integral only when h == 0: as
        y/(x+y) = 1 - x/(x+y), the general mirror also takes h -> -h and the
        factor e^(-h), which this method does not apply (ROADMAP items 6, 15).
        Nor is it one when g != 0: the mirrored factor e^(-g(x+y)^2/(x^2 y))
        is not in the class.
        """
        if self.h != 0:
            raise ValueError("mirror swap is only valid for h = 0")
        if self.g != 0:
            raise ValueError("mirror swap is only valid for g = 0")
        return replace(self, n=self.m, m=self.n, a=self.b, b=self.a, p=self.q, q=self.p)

    def to_json(self) -> dict:
        return {
            "n": self.n, "m": self.m, "nu": self.nu,
            "a": self.a, "b": self.b, "c": self.c,
            "h": {"re": self.h.real, "im": self.h.imag},
            "j": self.j, "p": self.p, "q": self.q, "g": self.g,
        }


@dataclass(frozen=True)
class TestIntegrand:
    """f(t) = coeff * t**mu * exp(-sigma*t)."""

    __test__ = False  # not a pytest class, despite the name

    coeff: float = 1.0
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ValueError("coeff must be finite")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and >= 0")

    def shifted(self, delta: float) -> "TestIntegrand":
        """The companion g(t) = t**(-delta) f(t) of a power-shift rewrite."""
        return TestIntegrand(self.coeff, self.mu - delta, self.sigma)

    def to_json(self) -> dict:
        return {"coeff": self.coeff, "mu": self.mu, "sigma": self.sigma}


def _small_t_floors(params: Params) -> list[tuple[str, str, float]]:
    """(where, what vanishes, floor) of each of the contract's floors on mu at
    t -> 0: the x->0 axis when a = 0, the y->0 axis when b = 0 and the
    origin when a = b = j = 0; none where the tilde cut damps (g > 0)."""
    if params.g > 0.0:
        return []
    n, m, nu = params.triple
    floors = []
    if not params.a > 0.0:
        floors.append(("the x->0 axis", "a=0", n / 2.0 - 1.0))
    if not params.b > 0.0:
        floors.append(("the y->0 axis", "b=0", m / 2.0 - 1.0))
    if not (params.a or params.b or params.j):
        floors.append(("the origin", "a=b=j=0", (n + m + nu) / 2.0 - 2.0))
    return floors


def mu_floor(params: Params) -> float:
    """The largest of the contract's small-t floors on mu, or -inf if none applies.

    t = xy/(x+y) -> 0 exactly when x or y -> 0, so this is also each
    reduction's floor: f = t**mu is integrable against its kernel at
    t -> 0 iff mu > mu_floor.  A power shift moves mu and every floor by
    the same delta, and the mirror swaps the x and y floors.
    """
    return max((floor for _, _, floor in _small_t_floors(params)), default=-math.inf)


class DivergentIntegralError(ValueError):
    """The quadrant integral fails the convergence contract (convergence_failure).

    The one verdict of divergence: the oracle, every reduction and
    normalize raise it, each with convergence_failure's reason.
    """


def convergence_failure(params: Params, f: TestIntegrand) -> str | None:
    """None when the quadrant integral converges, else where it diverges.

    The one convergence contract, for the 2-D oracle and for every
    reduction alike: a reduction integrates out one variable of the
    quadrant integral after the change to t = xy/(x+y), so by Tonelli,
    applied to the integrand's modulus, the two converge together.  With
    u = log x and v = log y the integrand is exponentially damped along
    every ray r (u, v), r -> inf, on which one of its exponents grows, and
    elsewhere it goes like e^(r L(u, v)) with

        L = (kx + 1) u + (ky + 1) v + kt min(u, v),
        kx = -(n+nu)/2,  ky = -(m+nu)/2,  kt = mu + nu/2,

    the 1s from dx dy = x y du dv.  It converges iff L < 0 on each
    undamped ray.  The exponents change sign only on the rays +-x, +-y,
    +-(1, 1) and +-(2, 1), the last where the tilde monomial x/y^2 is flat;
    L is linear between them, so one check per ray decides.  The tilde
    term -g (x+y)^2/(x y^2) = -g(1/x + 2/y + x/y^2) damps when g > 0 and
    is 0 at g = 0.  Along -(2, 1) a/x or the tilde 1/x damps, and without
    the tilde cut +(2, 1) lies between +x and (1, 1), so both follow from
    the others.
    """
    n, m, nu, mu = params.n, params.m, params.nu, f.mu
    cut = params.g > 0.0
    for where, zero, floor in _small_t_floors(params):
        if not mu > floor:
            return f"divergent at {where} ({zero}; mu={mu} is not above its floor {floor})"
    if not (params.p > 0.0 or cut or n + nu > 2):
        return "divergent as x->inf (p=0 and n+nu<=2)"
    if not (params.q > 0.0 or m + nu > 2):
        return "divergent as y->inf (q=0 and m+nu<=2)"
    if params.p > 0.0 or params.q > 0.0 or params.c > 0.0 or f.sigma > 0.0:
        return None
    if not mu < (n + m + nu) / 2.0 - 2.0:
        return (f"no decay at large t along the diagonal (c=sigma=p=q=0; mu={mu} is not "
                f"below its ceiling {(n + m + nu) / 2.0 - 2.0})")
    if cut and not mu < n + m / 2.0 + nu - 3.0:
        return (f"no decay at large t along x ~ y^2 (c=sigma=p=q=0 and g>0; mu={mu} is not "
                f"below its ceiling {n + m / 2.0 + nu - 3.0})")
    return None
