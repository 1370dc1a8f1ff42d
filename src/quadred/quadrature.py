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

The driver's own rules fix some blocks in advance: a scan stops a
direction only after two quiet blocks, and the first convergence test
follows level 1.  So the first two blocks of each direction (a level's
head) are evaluated whatever the values, and they are fetched together:
one integrand call for the heads of levels 0 and 1, one for each later
level's head, and one per block past a head.  The sums are taken block by
block in the same order as with one call per block, so a pointwise
integrand gives the same bits either way.  Every drive fetches this way,
the quadrant's outer drive included: its inner rows are judged by their
share of the outer sum (see integrate_quadrant), so which x nodes share a
call moves an inner value only within the tolerance it was judged by.

A ladder is a node generator with the blocks and heads built from it,
each built on first use and kept read-only.  The two fixed ladders,
exp-sinh on (0, inf) and the (s, 1 - s) tanh-sinh pair on (0, 1), live
for the process; a finite-interval ladder depends on [lo, hi] and lives
for one call.  So the abscissae an integrand receives are read-only, and
integrands must not write to them.  The quadrant hands its integrand the
same column object for every inner call of one outer call, and the inner
ladder's own block or head as the row, so an integrand may keep its
x-only and y-only terms by object identity.

Each top-level integral runs under one np.errstate that ignores overflow,
underflow, division by zero and invalid operations; nested integrals run
inside their parent's.  Non-finite terms are caught by value instead.

Integrands must accept numpy arrays (every integrand built by this package
does).  They are never called at an endpoint: finite-interval nodes are
generated as offsets from the endpoints and clipped strictly inside, and
exp-sinh nodes are strictly positive.
"""

from __future__ import annotations

import math

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

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


class _Ladder:
    """A node generator, its valid() mask and what is built from it.

    kept maps (direction, spacing, offset, k0) to a block (see _block) and
    a tuple of levels to a head (see _head), each built once, read-only.
    """

    __slots__ = ("nodes", "valid", "kept")

    def __init__(self, nodes, valid):
        self.nodes = nodes
        self.valid = valid
        self.kept: dict[tuple, object] = {}


def _exp_sinh_nodes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
    """Abscissae/weights for t = exp((pi/2) sinh u) on (0, inf)."""
    with np.errstate(over="ignore"):
        g = _HALF_PI * np.sinh(u)
        t = np.exp(g)
        w = _HALF_PI * np.cosh(u) * t
    # abscissae are exact doubles at every scale: no rounding fuzz, no mask
    return t, w, None


def _make_tanh_sinh_nodes(lo: float, hi: float) -> _Ladder:
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

    return _Ladder(nodes, valid)


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


# Half-line ladders span [1e-160, 1e160].  For integrands that clear the
# t**-1 divergence floor by at least ~0.05 (and decay at least that fast
# beyond 1/t at infinity) the mass outside is below 1e-8 of any digit this
# engine can resolve, and the bound keeps log-assembled integrands
# representable at every node.
_T_MIN, _T_MAX = 1e-160, 1e160

# The ladders that do not depend on the call, kept for the process.
_EXP_SINH = _Ladder(_exp_sinh_nodes, lambda t: (t > _T_MIN) & (t < _T_MAX))
_UNIT_PAIR = _Ladder(_unit_pair_nodes, lambda x: x.min(axis=-1) > 0.0)


def _largest(a) -> float:
    """|a| for a single integral; the largest |row| for a batch."""
    return float(np.maximum.reduce(np.abs(a), axis=None)) if isinstance(a, np.ndarray) else abs(a)


def _block(ladder: _Ladder, direction: float, spacing: float, offset: float, k0: int):
    """The surviving (x, w, fuzzy) of nodes k0 .. k0 + _BLOCK - 1, or None.

    A node survives when it is valid and its weight is finite and positive.
    fuzzy is None unless some surviving node is fuzzy.
    """
    key = (direction, spacing, offset, k0)
    if key in ladder.kept:
        return ladder.kept[key]
    u = direction * (offset + spacing * np.arange(k0, k0 + _BLOCK))
    x, w, fuzzy = ladder.nodes(u)
    keep = ladder.valid(x) & np.isfinite(w) & (w > 0.0)
    block = None
    if keep.any():
        x, w = x[keep], w[keep]
        x.flags.writeable = w.flags.writeable = False
        if fuzzy is not None:
            fuzzy = fuzzy[keep]
            if not fuzzy.any():
                fuzzy = None
        block = x, w, fuzzy
    ladder.kept[key] = block
    return block


def _blocks(ladder: _Ladder, direction: float, spacing: float, offset: float):
    """The blocks of one direction of a level, outward, until the ladder ends."""
    k0 = 1 if (direction < 0 and offset == 0.0) else 0
    while offset + spacing * k0 <= _U_MAX:
        block = _block(ladder, direction, spacing, offset, k0)
        if block is None:
            return
        yield block
        k0 += _BLOCK


def _head(ladder: _Ladder, levels: tuple):
    """The abscissae every scan on levels must evaluate, fused, or None.

    levels lists one (spacing, offset) per level.  A scan stops a direction
    only after two quiet blocks, so whatever the values it evaluates the
    first two blocks of each direction, or fewer where the ladder ends.
    The head holds those blocks' abscissae in scan order; None stands for a
    head with no node.
    """
    if levels in ladder.kept:
        return ladder.kept[levels]
    xs = [
        x
        for spacing, offset in levels
        for direction in (+1.0, -1.0)
        for x, _, _ in islice(_blocks(ladder, direction, spacing, offset), 2)
    ]
    head = None
    if xs:
        head = np.concatenate(xs)
        head.flags.writeable = False
    ladder.kept[levels] = head
    return head


def _scan(f, ladder: _Ladder, spacing: float, offset: float, head=None, at: int = 0):
    """Sum f(x(u))*w(u) over u = dir*(offset + k*spacing), k = 0, 1, 2, ...

    With offset 0 this is a full trapezoid pass (u = 0 counted once); with
    offset h and spacing 2h it adds the odd nodes of the next level.  Each
    direction extends outward in blocks until terms fall below the
    truncation threshold, measured against the largest running sum.  The
    abscissae run along the first axis of x; trailing axes, such as the
    (s, 1 - s) pair, reach f unchanged.  f returns one value per abscissa
    or a (rows, abscissae) batch; sums run over the last axis.

    head, if given, is f's values on a fused call (see _head) whose
    abscissae from index at on are this level's head.  The first two
    blocks of each direction take their values from it by a running
    offset; blocks past them, or every block when head is None, cost one
    call of f each.  The summation is the same either way.  Returns (sum,
    fuzzy-node mass, the offset past this level's head).  It sets no error
    state: it runs under its _drive's.
    """
    total = 0.0 + 0.0j
    fuzz_mass = 0.0
    for direction in (+1.0, -1.0):
        quiet = 0
        for i, (x, w, fuzzy) in enumerate(_blocks(ladder, direction, spacing, offset)):
            if head is not None and i < 2:
                y = head[..., at:at + len(x)]
                at += len(x)
            else:
                y = np.asarray(f(x))
            # w is finite and positive, so a term is non-finite only when y
            # is or when the product overflowed; max propagates both NaN
            # and inf, so one pass measures size and finiteness
            terms = y * w
            tmax = float(np.maximum.reduce(np.abs(terms), axis=None)) if terms.size else 0.0
            if not math.isfinite(tmax):
                if np.isnan(y).any():
                    raise QuadratureError("integrand returned NaN")
                raise QuadratureError(
                    "integrand*weight overflowed; integral likely divergent"
                )
            total += np.add.reduce(terms, axis=-1)
            if fuzzy is not None:
                fuzz_mass += np.add.reduce(np.abs(terms[..., fuzzy]), axis=-1)
            if tmax <= _TRUNC_EPS * max(_largest(total), 1e-300):
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
    return total, fuzz_mass, at


def _drive(f, ladder: _Ladder, tol: Tolerance, nested: bool = False):
    """Halve the step until two levels agree; return (value, estimate, converged).

    Level 0 is the full pass at step _BASE_STEP; each later level halves
    the step and adds the odd nodes.  The first convergence test follows
    level 1.  So the heads of levels 0 and 1 (see _head) are fetched in one
    call of f, and each later level's head in one call before its scan;
    only blocks past a head cost a call each.

    A batch converges when its largest row does.  Nested rows (the inner
    integrals of the quadrant, each scaled by its share of the outer sum)
    are judged with no floor of 1 on the scale, and a budget exhausted
    inside them stops the enclosing integral.  At the top level exhaustion
    returns the last completed level, unconverged.
    A fused call is charged in full before it runs, so when it exhausts
    the budget none of the levels it covers is completed: exhaustion in the
    first call returns value 0 with an infinite estimate.  A top-level
    drive enters one np.errstate for all its scans, where overflow,
    underflow and invalid operations are expected and ignored; a nested
    drive runs under its parent's.
    """
    floor = 0.0 if nested else 1.0
    fp_state = nullcontext() if nested else np.errstate(
        over="ignore", under="ignore", divide="ignore", invalid="ignore"
    )

    def fetch(*levels):
        # f's values on the fused head of levels, or None
        x = _head(ladder, levels)
        return None if x is None else np.asarray(f(x))

    h = _BASE_STEP
    value, estimate, converged = 0.0, math.inf, False
    try:
        with fp_state:
            head = fetch((h, 0.0), (h, 0.5 * h))
            raw, fuzz, at = _scan(f, ladder, h, 0.0, head)
            value = h * raw
            for level in range(1, _MAX_LEVEL + 1):
                h *= 0.5
                if level > 1:  # level 1's head follows level 0's in one call
                    head, at = fetch((2.0 * h, h)), 0
                odd, fz, _ = _scan(f, ladder, 2.0 * h, h, head, at)
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


def _integrate(integrand, ladder: _Ladder, tol: Tolerance) -> QuadResult:
    budget = _Budget(tol.max_evaluations)

    def counted(x: np.ndarray):
        budget.spend(x.size)
        return integrand(x)

    return _result(_drive(counted, ladder, tol), budget)


def integrate_half_line(integrand, tol: Tolerance | None = None) -> QuadResult:
    """Integrate a function of t over (0, inf).

    The integrand may blow up at 0 no worse than an integrable power and
    must decay at infinity.  It is never evaluated at t = 0.
    """
    return _integrate(integrand, _EXP_SINH, tol or Tolerance())


def integrate_interval(integrand, lo: float, hi: float, tol: Tolerance | None = None) -> QuadResult:
    """Integrate over finite [lo, hi]; integrable endpoint singularities allowed."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise QuadratureError("integrate_interval requires finite lo < hi")
    return _integrate(integrand, _make_tanh_sinh_nodes(lo, hi), tol or Tolerance())


def integrate_quadrant(integrand2d, tol: Tolerance | None = None) -> QuadResult:
    """Integrate f(x, y) over (0, inf) x (0, inf) by iterated exp-sinh.

    The outer x-integral runs the 1-D driver; each outer call integrates
    over y for all its x nodes at once, as a batch sharing one y-ladder,
    with the inner tolerance tightened by a factor of 10.  Each row is
    judged by what it adds to the outer sum: before the inner drive sees
    it, row i is multiplied by its outer exp-sinh weight
    w(x) = x sqrt((pi/2)^2 + ln^2 x), rounded down to a power of two so
    that the scaling is exact while the product stays a normal double, and
    it is divided out again on return.  So a row far out on the x-ladder,
    whose weight is 1e-154, no longer holds its batch to the precision of
    its own large value.  Only evaluations of integrand2d count against the
    budget.  An inner drive that does not converge clears converged of
    the result.

    integrand2d is called as f(column of x, row of y), an (n, 1) column and
    a 1-D row.  Both drives fetch fused heads (see _drive): a column holds
    up to four blocks of x, eight for levels 0 and 1, and so does a row of
    y.  Within one integral every inner call of an outer call gets the same
    column object, and each row is the exp-sinh ladder's own kept block or
    head; both are read-only.
    """
    tol = tol or QUADRANT_TOLERANCE
    inner_tol = Tolerance(
        rel=max(tol.rel / 10.0, 1e-14), abs=tol.abs, max_evaluations=tol.max_evaluations
    )
    budget = _Budget(tol.max_evaluations)
    failures = 0

    def inner_rows(xs: np.ndarray) -> np.ndarray:
        nonlocal failures
        col = xs[:, None]
        # each row's outer exp-sinh weight, rounded down to a power of two
        weight = xs * np.hypot(_HALF_PI, np.log(xs))
        share = np.ldexp(0.5, np.frexp(weight)[1])[:, None]

        def batch(ys: np.ndarray):
            budget.spend(xs.size * ys.size)
            return integrand2d(col, ys) * share

        value, _, converged = _drive(batch, _EXP_SINH, inner_tol, nested=True)
        failures += not converged
        return value / share[:, 0]

    value, estimate, converged = _drive(inner_rows, _EXP_SINH, tol)
    return _result((value, estimate, converged and failures == 0), budget)
