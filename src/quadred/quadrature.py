"""Double-exponential quadrature on finite intervals, the half line and the quadrant.

Two transformations cover everything the reduction catalog needs:

  tanh-sinh   x = mid + half*tanh((pi/2) sinh u)      finite [lo, hi]
  exp-sinh    t = exp((pi/2) sinh u)                  (0, inf)

Both push algebraic endpoint singularities into doubly-exponentially
decaying trapezoid sums in u, so one level-halving driver serves
integrands like t**(-1/2)*exp(-1/t) without special casing.  Each level
reuses the previous level's sum (trapezoid interleaving), node ladders are
fixed, and truncation scans are value-driven but deterministic, so results
are bit-reproducible.

The ladders of the two fixed generators, exp-sinh on (0, inf) and the
(s, 1 - s) tanh-sinh pair on (0, 1), are built once per process: each
block of nodes is masked on first use and kept, read-only, for every later
integral.  Finite-interval nodes depend on [lo, hi] and are built per call.
The abscissae an integrand receives may therefore be read-only; integrands
must not write to them.

Integrands must accept numpy arrays (every integrand built by this package
does).  They are never called at an endpoint: finite-interval nodes are
generated as offsets from the endpoints and clipped strictly inside, and
exp-sinh nodes are strictly positive.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

_HALF_PI = math.pi / 2.0
# A truncation scan stops after two consecutive blocks below this fraction
# of the running sum.
_TRUNC_EPS = 1e-18
_BLOCK = 32
_MAX_LEVEL = 11
_BASE_STEP = 0.5
_U_MAX = 700.0  # |u| rail; transformed nodes under/overflow long before this


class QuadratureError(Exception):
    """Raised when an integrand produces NaN/inf or violates a precondition."""


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets and a work bound for one integral."""

    rel: float = 1e-10
    abs: float = 1e-14
    max_evaluations: int = 2_000_000

    def __post_init__(self):
        if not (self.rel >= 1e-14):
            raise ValueError("rel tolerance must be >= 1e-14")
        if not (self.abs > 0.0):
            raise ValueError("abs tolerance must be positive")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")

    def met_by(self, estimate: float, value, floor: float = 1.0) -> bool:
        """Whether estimate is within tolerance at the scale of value.

        The scale of a batch is its largest row, bounded below by floor.
        """
        return estimate <= max(self.abs, self.rel * max(floor, _largest(value)))


# Default work budget for the two-dimensional oracle.
QUADRANT_TOLERANCE = Tolerance(rel=1e-9, abs=1e-14, max_evaluations=100_000_000)


@dataclass
class QuadResult:
    """One converged (or best-effort) integral value."""

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool

    def scaled(self, factor: complex) -> "QuadResult":
        """The result of integrating factor times the same integrand."""
        return QuadResult(factor * self.value, abs(factor) * self.abs_error_estimate,
                          self.evaluations, self.converged)

    def require_converged(self) -> "QuadResult":
        if not self.converged:
            raise QuadratureError(
                f"quadrature did not converge (estimate {self.abs_error_estimate:.3e} "
                f"after {self.evaluations} evaluations)"
            )
        return self


class _Budget:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    def spend(self, n: int) -> None:
        self.used += n
        if self.used > self.limit:
            raise _BudgetExceeded


def _exp_sinh_nodes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
    """Abscissae/weights for t = exp((pi/2) sinh u) on (0, inf)."""
    with np.errstate(over="ignore"):
        g = _HALF_PI * np.sinh(u)
        t = np.exp(g)
        w = _HALF_PI * np.cosh(u) * t
    # abscissae are exact doubles at every scale: no rounding fuzz, no mask
    return t, w, None


def _make_tanh_sinh_nodes(lo: float, hi: float):
    half = 0.5 * (hi - lo)
    # Within ~16 ulp of a nonzero endpoint the evaluation abscissa is
    # quantized; those contributions are charged to the error estimate.
    fuzz_lo = 16.0 * np.finfo(float).eps * abs(lo) if lo != 0.0 else 0.0
    fuzz_hi = 16.0 * np.finfo(float).eps * abs(hi) if hi != 0.0 else 0.0

    def nodes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):
            g = _HALF_PI * np.sinh(u)
            # distance from the nearer endpoint, computed without cancellation
            off = 2.0 * half / (1.0 + np.exp(2.0 * np.abs(g)))
            x = np.where(u >= 0.0, hi - off, lo + off)
            w = half * _HALF_PI * np.cosh(u) / np.cosh(g) ** 2
        fuzzy = np.where(u >= 0.0, off <= fuzz_hi, off <= fuzz_lo)
        return x, w, fuzzy

    def valid(x: np.ndarray) -> np.ndarray:
        return (x > lo) & (x < hi)

    return nodes, valid


def _unit_pair_nodes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
    """Tanh-sinh on (0, 1), each abscissa given as the pair (s, 1 - s).

    Whichever member is small is the node's exact offset from its endpoint,
    so an integrand that takes both never forms a cancelled 1 - s.
    """
    with np.errstate(over="ignore"):
        g = _HALF_PI * np.sinh(u)
        off = 1.0 / (1.0 + np.exp(2.0 * np.abs(g)))
        pair = np.stack([off, 1.0 - off], axis=-1)
        x = np.where(u[:, None] >= 0.0, pair[:, ::-1], pair)
        w = 0.5 * _HALF_PI * np.cosh(u) / np.cosh(g) ** 2
    # the small member of each pair is exact: no rounding fuzz, no mask
    return x, w, None


def _unit_pair_valid(x: np.ndarray) -> np.ndarray:
    return x.min(axis=-1) > 0.0


# Half-line ladders span [1e-160, 1e160].  For integrands that clear the
# t**-1 divergence floor by at least ~0.05 (and decay at least that fast
# beyond 1/t at infinity) the mass outside is below 1e-8 of any digit this
# engine can resolve, and the bound keeps log-assembled integrands
# representable at every node.
_T_MIN, _T_MAX = 1e-160, 1e160


def _exp_sinh_valid(t: np.ndarray) -> np.ndarray:
    return (t > _T_MIN) & (t < _T_MAX)


# Generators whose ladders do not depend on the call, each with its valid().
_FIXED_LADDERS = {_exp_sinh_nodes: _exp_sinh_valid, _unit_pair_nodes: _unit_pair_valid}
# (generator, direction, spacing, offset, k0) -> read-only block, or None
_LADDER: dict[tuple, tuple | None] = {}


def _largest(a) -> float:
    """|a| for a single integral; the largest |row| for a batch."""
    return float(np.abs(a).max()) if isinstance(a, np.ndarray) else abs(a)


def _block(nodes, valid, direction: float, spacing: float, offset: float, k0: int):
    """The surviving (x, w, fuzzy) of nodes k0 .. k0 + _BLOCK - 1, or None.

    A node survives when it is valid and its weight is finite and positive.
    fuzzy is None unless some surviving node is fuzzy.
    """
    ks = np.arange(k0, k0 + _BLOCK)
    u = direction * (offset + spacing * ks)
    x, w, fuzzy = nodes(u)
    keep = valid(x) & np.isfinite(w) & (w > 0.0)
    if not keep.any():
        return None
    if fuzzy is not None:
        fuzzy = fuzzy[keep]
        if not fuzzy.any():
            fuzzy = None
    return x[keep], w[keep], fuzzy


def _ladder_block(nodes, valid, direction: float, spacing: float, offset: float, k0: int):
    """_block of a fixed generator, built on first use and kept read-only."""
    key = (nodes, direction, spacing, offset, k0)
    try:
        return _LADDER[key]
    except KeyError:
        pass
    block = _block(nodes, valid, direction, spacing, offset, k0)
    if block is not None:
        for a in block[:2]:
            a.flags.writeable = False
    _LADDER[key] = block
    return block


def _scan(f, nodes, valid, spacing: float, offset: float):
    """Sum f(x(u))*w(u) over u = dir*(offset + k*spacing), k = 0, 1, 2, ...

    With offset 0 this is a full trapezoid pass (u = 0 counted once); with
    offset h and spacing 2h it adds the odd nodes of the next level.  Each
    direction extends outward in blocks until terms fall below the
    truncation threshold, measured against the largest running sum.  The
    abscissae run along the first axis of x; trailing axes, such as the
    (s, 1 - s) pair, reach f unchanged.  f returns one value per abscissa
    or a (rows, abscissae) batch; sums run over the last axis.  Returns
    (sum, fuzzy-node mass).
    """
    block = _ladder_block if _FIXED_LADDERS.get(nodes) is valid else _block
    total = 0.0 + 0.0j
    fuzz_mass = 0.0
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for direction in (+1.0, -1.0):
            k0 = 1 if (direction < 0 and offset == 0.0) else 0
            quiet = 0
            while offset + spacing * k0 <= _U_MAX:
                kept = block(nodes, valid, direction, spacing, offset, k0)
                if kept is None:
                    break
                x, w, fuzzy = kept
                y = np.asarray(f(x))
                # w is finite and positive, so a term is non-finite only
                # when y is or when the product overflowed; max propagates
                # both NaN and inf, so one pass measures size and finiteness
                terms = y * w
                tmax = float(np.abs(terms).max()) if terms.size else 0.0
                if not math.isfinite(tmax):
                    if np.isnan(y).any():
                        raise QuadratureError("integrand returned NaN")
                    raise QuadratureError(
                        "integrand*weight overflowed; integral likely divergent"
                    )
                total += terms.sum(axis=-1)
                if fuzzy is not None:
                    fuzz_mass += np.abs(terms[..., fuzzy]).sum(axis=-1)
                if tmax <= _TRUNC_EPS * max(_largest(total), 1e-300):
                    quiet += 1
                    if quiet >= 2:
                        break
                else:
                    quiet = 0
                k0 += _BLOCK
    return total, fuzz_mass


def _drive(f, nodes, valid, tol: Tolerance, nested: bool = False):
    """Halve the step until two levels agree; return (value, estimate, converged).

    A batch converges when its largest row does.  Nested rows (the inner
    integrals of the quadrant) are judged with no floor of 1 on the scale,
    and a budget exhausted inside them stops the enclosing integral; at the
    top level exhaustion returns the last completed level, unconverged.
    """
    floor = 0.0 if nested else 1.0
    h = _BASE_STEP
    value, estimate, converged = 0.0, math.inf, False
    try:
        raw, fuzz = _scan(f, nodes, valid, h, 0.0)
        value = h * raw
        for _ in range(_MAX_LEVEL):
            h *= 0.5
            odd, fz = _scan(f, nodes, valid, 2.0 * h, h)
            prev, raw, fuzz = value, raw + odd, fuzz + fz
            value = h * raw
            estimate = _largest(abs(value - prev) + h * fuzz + 4e-16 * abs(value))
            if tol.met_by(estimate, value, floor):
                converged = True
                break
    except _BudgetExceeded:
        if nested:
            raise
    return value, estimate, converged


def _result(level, budget: _Budget) -> QuadResult:
    value, estimate, converged = level
    value = complex(value)
    out: complex = value.real if value.imag == 0.0 else value
    return QuadResult(out, float(estimate), budget.used, converged)


def _integrate(integrand, nodes, valid, tol: Tolerance) -> QuadResult:
    budget = _Budget(tol.max_evaluations)

    def counted(x: np.ndarray):
        budget.spend(x.size)
        return integrand(x)

    return _result(_drive(counted, nodes, valid, tol), budget)


def integrate_half_line(integrand, tol: Tolerance | None = None) -> QuadResult:
    """Integrate a function of t over (0, inf).

    The integrand may blow up at 0 no worse than an integrable power and
    must decay at infinity.  It is never evaluated at t = 0.
    """
    return _integrate(integrand, _exp_sinh_nodes, _exp_sinh_valid, tol or Tolerance())


def integrate_interval(integrand, lo: float, hi: float, tol: Tolerance | None = None) -> QuadResult:
    """Integrate over finite [lo, hi]; integrable endpoint singularities allowed."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise QuadratureError("integrate_interval requires finite lo < hi")
    nodes, valid = _make_tanh_sinh_nodes(lo, hi)
    return _integrate(integrand, nodes, valid, tol or Tolerance())


def integrate_quadrant(integrand2d, tol: Tolerance | None = None) -> QuadResult:
    """Integrate f(x, y) over (0, inf) x (0, inf) by iterated exp-sinh.

    The outer x-integral runs the 1-D driver; each outer block integrates
    over y for all its x nodes at once, as a batch sharing one y-ladder,
    with the inner tolerance tightened by a factor of 10.  Rows that are
    already tiny ride along for free because the batch is judged by its
    largest row.  Only evaluations of integrand2d count against the budget.
    """
    tol = tol or QUADRANT_TOLERANCE
    inner_tol = Tolerance(
        rel=max(tol.rel / 10.0, 1e-14), abs=tol.abs, max_evaluations=tol.max_evaluations
    )
    budget = _Budget(tol.max_evaluations)

    def inner_rows(xs: np.ndarray) -> np.ndarray:
        col = xs[:, None]

        def batch(ys: np.ndarray):
            budget.spend(xs.size * ys.size)
            return integrand2d(col, ys[None, :])

        return _drive(batch, _exp_sinh_nodes, _exp_sinh_valid, inner_tol, nested=True)[0]

    return _result(_drive(inner_rows, _exp_sinh_nodes, _exp_sinh_valid, tol), budget)
