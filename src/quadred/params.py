"""Parameter tuples naming one quadrant integral, and the test function family.

The integrand described by ``Params`` is

    x**(-n/2) y**(-m/2) (x+y)**(-nu/2) f(xy/(x+y))
      * exp(-a/x - b/y - c*xy/(x+y) - h*y/(x+y) - j/(x+y) - p*x - q*y)

over x, y > 0; n, m, nu are twice the literal exponents so everything stays
an integer.  ``TestIntegrand`` is the f family coeff * t**mu * exp(-sigma*t),
closed under the power-shift rewriting, which is what makes normalization
searches exact.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Params:
    n: int
    m: int
    nu: int
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    h: complex = 0.0
    j: float = 0.0
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "j", "p", "q"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"coefficient {name} must be finite and >= 0, got {v}")
        h = complex(self.h)
        if not (math.isfinite(h.real) and math.isfinite(h.imag)):
            raise ValueError("h must be finite")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.n, self.m, self.nu)

    def mirrored(self) -> "Params":
        """Swap the roles of x and y: (n, a, p) <-> (m, b, q).

        Only an identity of the integral when h == 0, since h couples to
        y/(x+y) alone.
        """
        if self.h != 0:
            raise ValueError("mirror swap is only valid for h = 0")
        return replace(self, n=self.m, m=self.n, a=self.b, b=self.a, p=self.q, q=self.p)

    def to_json(self) -> dict:
        return {
            "n": self.n, "m": self.m, "nu": self.nu,
            "a": self.a, "b": self.b, "c": self.c,
            "h": {"re": complex(self.h).real, "im": complex(self.h).imag},
            "j": self.j, "p": self.p, "q": self.q,
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
