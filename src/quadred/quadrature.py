"""Double-exponential quadrature on (0, 1), the half line and the quadrant.

Two transformations cover everything the reduction catalog needs:

  tanh-sinh   s = 1/(1 + exp(-pi sinh u))            (0, 1)
  exp-sinh    t = exp((pi/2) sinh u)                  (0, inf)

Both push algebraic endpoint singularities into doubly-exponentially
decaying trapezoid sums in u, so one level-halving driver serves
integrands like t**(-1/2)*exp(-1/t) without special casing.  Each level
reuses the previous level's sum (trapezoid interleaving), node ladders are
fixed and each level is summed whole, so results are bit-reproducible.

A drive fetches each level whole: one integrand call for the runs of
levels 0 to _FIRST_TEST_LEVEL (3), where the first convergence test
follows, and one for each later level, each summed in one pass.  A drive
pays per call more than per node (on a 2-core Xeon VM, an oracle call of
43 x 32 values costs about 37 us, and one of 43 x 258 about 147 us), and
nearly every drive reaches level 3, so levels 2 and 3 ride in the first
call.  Testing from level 3 also keeps two coarse levels that agree by
chance from passing for convergence.  The first call's terms are summed
in two groups, levels 0 to 2 and level 3.  A complex sum is two real
sums, so a real row of a complex batch keeps the bits it has alone.
Every drive fetches this way, row batches included (see _drive).

A ladder is a node generator with the fused heads built from it (see
_head), each built on first use and kept read-only.  There are two, both
fixed and kept for the process: exp-sinh on (0, inf), and tanh-sinh on
(0, 1) with each abscissa given as the pair (s, 1 - s).  So the
abscissae an integrand receives are read-only, and integrands must not
write to them.

A quadrant caller may pass a support box outside which it guarantees each
node's term, value times weights, is negligible against the sum
(reducer.quadrant_support: below e^-100 of its pilot's largest term).
The quadrant then drives a clipped exp-sinh ladder, a child of the fixed
one that lives for one integral: each of its heads is the fixed head cut
to the box by one mask, so no such term is computed, and the sums differ
from the unclipped ones by the cut terms and in how the terms are grouped.

A drive halves its step at most _MAX_LEVEL times, so a 1-D integral that
never converges stops at its ladder's last level after bounded work
(50 387 evaluations on the half line, 50 081 on (0, 1)).  Only the
quadrant oracle, each of whose outer nodes runs a whole inner drive, has
a work bound, _QUADRANT_MAX_EVALUATIONS; a Tolerance sets targets only.
An inner batch that would pass it stops its inner drive, and the outer
integrand then stops the outer drive at its last completed level.

The quadrant's inner batch and R1's inner batch are row batches: one
integral per row, each row judged by its share of a larger sum and
retired once done.  _drive alone scales and retires their rows.

A drive counts the values it fetches (see _drive); a 1-D integral
reports that count, and the quadrant counts its inner batches' values
before it runs them, against its work bound.

_drive sets no error state: each entry point enters one
np.errstate(all="ignore"), under which all its drives run, the quadrant's
inner ones included.  Non-finite terms are caught by value instead.

Integrands must accept numpy arrays (every integrand built by this package
does).  They are never called at an endpoint: of each (s, 1 - s) pair the
member near its endpoint is that endpoint's exact offset, and both members
are positive; exp-sinh nodes are strictly positive.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass, replace

import numpy as np

_HALF_PI = math.pi / 2.0
_MAX_LEVEL = 11
_BASE_STEP = 0.5
# Each run is generated up to |u| = _U_MAX, past both ladders' last valid
# node (|u| = 6.151 on exp-sinh, 6.113 on the (s, 1 - s) ladder)
_U_MAX = 6.5
# (spacing, offset, step) of each level: level 0 is the full pass at step
# _BASE_STEP, and level k adds the odd nodes of step h = _BASE_STEP / 2**k.
_LEVELS = [(_BASE_STEP, 0.0, _BASE_STEP)] + [
    (2.0 * h, h, h) for h in (_BASE_STEP * 0.5**k for k in range(1, _MAX_LEVEL + 1))
]
# A drive first tests for convergence after this level, and fetches the
# heads of levels 0 to it in its first integrand call (see _drive).
_FIRST_TEST_LEVEL = 3
# From that level on, a row of a row batch retires once its own estimate
# is within this share of the batch's bound (see _drive).
_RETIRE_SHARE = 0.1
# Below this scale a single value's targets and differences are absolute
# (Tolerance.scale); a batch has no floor
_SCALE_FLOOR = 1.0


class QuadratureError(Exception):
    """Raised when an integrand produces NaN/inf or violates a precondition."""


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets for one integral; no work bound (see the module)."""

    rel: float = 1e-10
    abs: float = 1e-14

    def __post_init__(self):
        if not (self.rel >= 1e-14 and math.isfinite(self.rel)):
            raise ValueError("rel tolerance must be finite and >= 1e-14")
        if not (self.abs > 0.0 and math.isfinite(self.abs)):
            raise ValueError("abs tolerance must be finite and positive")

    @staticmethod
    def scale(value) -> float:
        """A batch's largest |row|, or a single value's |value| bounded
        below by _SCALE_FLOOR.  A batch needs no floor: its rows arrive
        scaled by their shares of a larger sum (see _drive).
        """
        if isinstance(value, np.ndarray):
            return _largest(value)
        return max(_SCALE_FLOOR, abs(value))

    def bound(self, value) -> float:
        """The largest estimate within tolerance at the scale of value."""
        return max(self.abs, self.rel * self.scale(value))

    def met_by(self, estimate: float, value) -> bool:
        """Whether estimate is within tolerance at the scale of value (see bound)."""
        return estimate <= self.bound(value)


# Default targets for the 1-D drives, and for the two-dimensional oracle.
_DEFAULT_TOLERANCE = Tolerance()
QUADRANT_TOLERANCE = Tolerance(rel=1e-9, abs=1e-14)
# The oracle's work bound: an inner batch that would take its evaluations
# of the integrand past this stops it at its last completed outer level.
_QUADRANT_MAX_EVALUATIONS = 100_000_000


@dataclass
class QuadResult:
    """One converged (or best-effort) integral value, or one value per row."""

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


class _Ladder:
    """A node generator, its valid() mask and the heads built from it.

    heads maps a tuple of levels to a head (see _head), each built once,
    read-only, and kept for as long as the ladder lives: the two fixed
    ladders are module constants.  A clipped ladder (see _clipped) has a
    parent, whose heads it cuts at [lo, hi], and lives for one integral.
    """

    __slots__ = ("nodes", "valid", "heads", "parent", "lo", "hi")

    def __init__(self, nodes, valid, parent=None, lo=0.0, hi=math.inf):
        self.nodes = nodes
        self.valid = valid
        self.heads: dict[tuple, tuple] = {}
        self.parent = parent
        self.lo, self.hi = lo, hi


def _exp_sinh_nodes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae/weights for t = exp((pi/2) sinh u) on (0, inf)."""
    with np.errstate(over="ignore"):
        g = _HALF_PI * np.sinh(u)
        t = np.exp(g)
        w = _HALF_PI * np.cosh(u) * t
    return t, w


def _unit_pair_nodes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return x, w


# Half-line ladders span the open interval HALF_LINE_SPAN.  For integrands
# that clear the t**-1 divergence floor by at least ~0.05 (and decay at
# least that fast beyond 1/t at infinity) the mass outside is below 1e-8 of
# any digit this engine can resolve, and the bound keeps log-assembled
# integrands representable at every node.
HALF_LINE_SPAN = (1e-160, 1e160)

# The two ladders, kept for the process.
_EXP_SINH = _Ladder(_exp_sinh_nodes,
                    lambda t: (t > HALF_LINE_SPAN[0]) & (t < HALF_LINE_SPAN[1]))
_UNIT_PAIR = _Ladder(_unit_pair_nodes, lambda x: x.min(axis=-1) > 0.0)

# Every level's first node in each direction has |u| <= _BASE_STEP, so an
# exp-sinh clip that keeps this span keeps every head non-empty.
_FIRST_NODES = (math.exp(-_HALF_PI * math.sinh(_BASE_STEP)),
                math.exp(_HALF_PI * math.sinh(_BASE_STEP)))


def _clipped(lo: float, hi: float) -> _Ladder:
    """The exp-sinh ladder cut to the nodes in [lo, hi], for one integral.

    The span is widened to keep each level's first nodes.  Its heads are
    the fixed ladder's cut to the span, built on first use and kept by the
    child for its integral (see _head).
    """
    lo, hi = min(lo, _FIRST_NODES[0]), max(hi, _FIRST_NODES[1])
    return _Ladder(_EXP_SINH.nodes, _EXP_SINH.valid, _EXP_SINH, lo, hi)


def _largest(a) -> float:
    """|a| for a single integral; the largest |row| for a batch."""
    return float(np.maximum.reduce(np.abs(a), axis=None)) if isinstance(a, np.ndarray) else abs(a)


def _finite(a) -> bool:
    """Whether a sum is finite, both parts if complex, or every row of a batch;
    one sum is tested in Python, a numpy call on one value costing 25 times more."""
    if isinstance(a, np.ndarray):
        return np.logical_and.reduce(np.isfinite(a), axis=None)
    return cmath.isfinite(a)


def _row_share(log2_scale: np.ndarray) -> np.ndarray:
    """2 ** floor(log2_scale) in the normal range: a row's exact share (see _drive)."""
    # np.clip, through its Python wrapper, costs more than these two ufuncs
    return np.ldexp(1.0, np.minimum(np.maximum(np.floor(log2_scale), -1022.0), 1023.0).astype(int))


def _run(ladder: _Ladder, level: int, direction: float):
    """(x, w): the surviving nodes of one direction of a level.

    The level's nodes in that direction, outward up to |u| = _U_MAX, are
    generated as one array and masked once: a node survives when it is
    valid and its weight is finite and positive.  The survivors form a
    prefix of the array, and a node that does not survive follows them,
    so _U_MAX cuts no run.
    """
    spacing, offset, _ = _LEVELS[level]
    k0 = 1 if (direction < 0 and offset == 0.0) else 0
    k = np.arange(k0, int((_U_MAX - offset) / spacing) + 1)
    x, w = ladder.nodes(direction * (offset + spacing * k))
    keep = ladder.valid(x) & np.isfinite(w) & (w > 0.0)
    return x[keep], w[keep]


def _head(ladder: _Ladder, levels: tuple):
    """(x, w, split): every run on levels, whole and fused.

    levels lists level indices.  The head holds its runs' abscissae and
    weights, outward then inward on each level, the last level's from
    index split on; a drive fetches it in one call (see _drive).  It is
    never empty: u = 0 and u = offset are nodes of both ladders.  A
    clipped ladder's head is its parent's, kept by the parent, cut to
    [lo, hi] by one mask.
    """
    if levels in ladder.heads:
        return ladder.heads[levels]
    if ladder.parent is not None:
        x, w, split = _head(ladder.parent, levels)
        keep = (x >= ladder.lo) & (x <= ladder.hi)
        x, w, split = x[keep], w[keep], int(np.count_nonzero(keep[:split]))
    else:
        runs = [_run(ladder, level, direction) for level in levels for direction in (+1.0, -1.0)]
        x = np.concatenate([x for x, _ in runs])
        w = np.concatenate([w for _, w in runs])
        split = len(x) - sum(len(rx) for rx, _ in runs[-2:])
    x.flags.writeable = w.flags.writeable = False
    ladder.heads[levels] = head = x, w, split
    return head


def _where(x: np.ndarray, bad: np.ndarray) -> str:
    """The abscissa of the first column of bad that holds a True."""
    col = np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0]
    point = x[col]
    if point.ndim:  # a (s, 1 - s) pair
        return f"(s, 1 - s) = ({float(point[0])!r}, {float(point[1])!r})"
    return f"abscissa {float(point)!r}"


def _sum(terms):
    """The sum of terms over their last axis: a numpy scalar for a single
    integral, one value per row for a batch (see _finite).

    A complex sum is two real sums, built as they are: a real row of a
    complex batch keeps the bits it has alone (numpy's complex pairwise sum
    groups the terms otherwise), and a non-finite imaginary part leaves the
    real part alone.  One sum is a numpy complex, whose abs may be inf.
    """
    if terms.dtype.kind != "c":
        return np.add.reduce(terms, axis=-1)
    re, im = np.add.reduce(terms.real, axis=-1), np.add.reduce(terms.imag, axis=-1)
    if terms.ndim == 1:
        return np.complex128(complex(re, im))
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _raise_non_finite(x: np.ndarray, y: np.ndarray, terms: np.ndarray):
    """Raise for terms whose sum is not finite.

    Names the first NaN value of f anywhere in the sum, NaN being named
    before overflow; else the first non-finite term; else the sum itself.
    """
    nan = np.isnan(y)
    if nan.any():
        raise QuadratureError(f"integrand returned NaN at {_where(x, nan)}")
    bad = ~np.isfinite(terms)
    if bad.any():
        raise QuadratureError(
            f"integrand*weight overflowed at {_where(x, bad)}; a term leaves the double range"
        )
    raise QuadratureError("integrand*weight sum overflowed; the sum leaves the double range")


def _checked_sum(x: np.ndarray, y: np.ndarray, terms: np.ndarray):
    """_sum(terms), terms being f's values y at x times their weights.

    A non-finite term leaves its row's sum non-finite, so one test of the
    sum (_finite, in Python for a single integral) stands for a test of
    every term; a sum that fails it raises (see _raise_non_finite).
    """
    part = _sum(terms)
    if not _finite(part):
        _raise_non_finite(x, y, terms)
    return part


def _drive(f, ladder: _Ladder, tol: Tolerance, rows=None):
    """Halve the step until two levels agree; return (value, estimate,
    converged, evaluations), evaluations counting every value f returned,
    one per value whatever the trailing axes of its abscissae.

    Level 0 is the full pass at step _BASE_STEP; each later level halves
    the step and adds the odd nodes (see _LEVELS).  Each level is fetched
    whole, its head (see _head) in one call of f, multiplied by its
    weights and summed in one pass (see _checked_sum).  The first
    convergence test follows level _FIRST_TEST_LEVEL, so the first call
    fetches the head of levels 0 to it, summed in two groups: the levels
    below it and the level itself.

    A drive that never converges stops after level _MAX_LEVEL, which
    bounds its work; a cap below _FIRST_TEST_LEVEL moves the first test
    and fetch down to it.  A batch converges when its largest row does, at
    that row's scale; a single value's scale has a floor (see
    Tolerance.scale).  A drive whose f raises _BudgetExceeded stops at its
    last completed level, unconverged, or at value 0 with an infinite
    estimate if there is none.  It sets no error state: it runs under its
    entry point's (see the module).

    rows, if given, is (column, log2_share) and makes a row batch: one
    integral per row of column, a (rows, 1) array, each row judged by its
    share of a larger sum, log2_share holding each share's log2.  f is
    called as f(column of the live rows, nodes), must not write to the
    column, and returns one row of values per row.  The drive multiplies
    row i by 2 ** floor(log2_share[i]) in the normal range (_row_share),
    an exact scaling, and divides the shares out of the value it returns.
    So a batch is judged at its largest scaled row, and a row its share
    scales away does not hold the batch to the row's own precision: each
    row is accurate relative to the batch's largest scaled row, not to
    itself, and which rows share a call moves a value only within tol.rel
    of that largest row.
    A row batch retires its rows.  After each tested level that does not
    converge, a row whose own estimate |value - previous value| +
    4e-16 |value| is at most _RETIRE_SHARE of the batch's bound keeps the
    value it has at that level (the step times its raw sum, not the raw
    sum, which later steps would halve): double-exponential rules about
    double their correct digits per level, so it would gain nothing from
    more.  Later calls of f get a read-only column of the live rows only,
    a copy.  The sums, the evaluations and the estimate are those of the
    live rows, and the bound is taken over every row's value, retired
    rows included.  A level at which every live row would retire passes
    the test, so no call gets an empty column.
    """

    def fetch(levels):
        # the fused head of levels, f's values there and their terms
        nonlocal evaluations
        x, w, split = _head(ladder, levels)
        y = np.asarray(f(x) if rows is None else f(column, x) * share)
        evaluations += y.size
        return x, y, y * w, split

    if rows is not None:
        column, log2_share = rows
        share = shares = _row_share(log2_share)[:, None]  # the live rows'; every row's
    first = min(_FIRST_TEST_LEVEL, _MAX_LEVEL)
    value, estimate, converged, evaluations = 0.0, math.inf, False, 0
    # once a row retires: the indices of the live rows, and every row's value
    live = values = None
    try:
        # the raw sum of the levels below first, as one group; each level's
        # own sum runs from its head's split on
        x, y, terms, split = fetch(tuple(range(first + 1)))
        raw = _checked_sum(x[:split], y[..., :split], terms[..., :split])
        value = _LEVELS[first - 1][2] * raw
        for level in range(first, _MAX_LEVEL + 1):
            if level > first:
                x, y, terms, split = fetch((level,))
            prev, raw = value, raw + _checked_sum(x[split:], y[..., split:], terms[..., split:])
            value = _LEVELS[level][2] * raw
            if live is not None:
                values[live] = value
            error = abs(value - prev) + 4e-16 * abs(value)
            estimate = _largest(error)
            bound = tol.bound(value if live is None else values)
            if estimate <= bound:
                converged = True
                break
            if rows is not None:
                keep = error > _RETIRE_SHARE * bound
                if not keep.all():
                    if live is None:
                        live, values = np.arange(len(value)), value.copy()
                    live, raw, value = live[keep], raw[keep], value[keep]
                    column, share = column[keep], share[keep]
                    column.flags.writeable = False  # a mask makes a writable copy
    except _BudgetExceeded:
        pass
    value = value if live is None else values
    return (value if rows is None else value / shares[:, 0]), estimate, converged, evaluations


def _result(level, evaluations: int) -> QuadResult:
    """A drive's QuadResult from its (value, estimate, converged), real unless
    an imaginary part is nonzero or NaN: a single value's is tested in
    Python, a batch's rows' by one reduction."""
    value, estimate, converged = level
    if not isinstance(value, np.ndarray):
        value = complex(value)
        imag = value.imag
    else:
        imag = np.logical_or.reduce(np.imag(value), axis=None)
    return QuadResult(value if imag else value.real, float(estimate), evaluations, converged)


def _integrate(integrand, ladder: _Ladder, tol: Tolerance, rows=None) -> QuadResult:
    with np.errstate(all="ignore"):
        *level, evaluations = _drive(integrand, ladder, tol, rows)
    return _result(level, evaluations)


def integrate_half_line(integrand, tol: Tolerance | None = None) -> QuadResult:
    """Integrate a function of t over (0, inf).

    The integrand may blow up at 0 no worse than an integrable power and
    must decay at infinity.  It is never evaluated at t = 0.  It returns one
    value per t, or a (rows, n) batch: then the value holds one integral
    per row, the batch converges when its largest row does, judged at that
    row's own scale with no floor (see Tolerance.scale), and each of its
    values counts as one evaluation.
    """
    return _integrate(integrand, _EXP_SINH, tol or _DEFAULT_TOLERANCE)


def integrate_interval(integrand, tol: Tolerance | None = None, *, rows=None) -> QuadResult:
    """Integrate a function of s over (0, 1).

    The integrand is called with an (n, 2) array of pairs (s, 1 - s), a
    read-only head of the tanh-sinh ladder (see _head), and returns n
    values.  The member near each endpoint is that endpoint's exact
    offset, so an integrand that reads 1 - s from the pair never forms a
    cancelled difference, and integrable powers of s and 1 - s are handled
    natively.
    A (rows, n) batch gives one integral per row, as in integrate_half_line.
    rows, if given, is (column, log2_share) and makes the batch a row
    batch, whose integrand is called as integrand(column, pairs) (see _drive).
    """
    return _integrate(integrand, _UNIT_PAIR, tol or _DEFAULT_TOLERANCE, rows)


def integrate_quadrant(integrand2d, tol: Tolerance | None = None, *, support=None) -> QuadResult:
    """Integrate f(x, y) over (0, inf) x (0, inf) by iterated exp-sinh.

    The outer x-integral runs the 1-D driver; each outer call integrates
    over y for all its x nodes at once, as a row batch sharing one
    y-ladder (see _drive), with the inner tolerance tightened by a factor
    of 10.  Each row's share is its outer exp-sinh weight
    w(x) = x sqrt((pi/2)^2 + ln^2 x), what it adds to the outer sum; so a
    row far out on the x-ladder, whose weight is 1e-154, does not hold its
    batch to the precision of its own large value.  Only the live rows'
    values are counted against the work bound.
    An inner drive that does not converge clears converged of the result.
    Whatever tol is, an inner batch that would take the evaluations of
    integrand2d past _QUADRANT_MAX_EVALUATIONS is neither run nor counted,
    and the outer drive stops at its last completed level (see the module).

    integrand2d is called as f(column of x, row of y), an (n, 1) column and
    a 1-D row, both read-only.  Both drives fetch whole levels (see _drive
    and _head): a column holds the x nodes of one head, every node of
    levels 0 to 3 or of one later level (on the unclipped ladder 197 nodes
    for levels 0 to 3, 196 for level 4 and 394 for level 5, each level
    about doubling the one before), and so does a row of y.

    support, if given, is a box ((x_lo, x_hi), (y_lo, y_hi)) outside
    which the caller guarantees each node's term, the value of integrand2d
    times both exp-sinh weights, negligible against the sum: outside
    reducer.quadrant_support's box each term is below e^-100 of the
    largest term of its pilot.  The outer drive then runs on the exp-sinh
    ladder clipped to [x_lo, x_hi] and every inner drive on it clipped to
    [y_lo, y_hi] (see _clipped), so no cut value is computed; _clipped
    keeps each level's first nodes, so no box empties a head.
    The clipped drives add the same terms less the cut ones, grouped
    otherwise, which can move the last bit of a value.  A box that cuts a
    term that counts gives a wrong result, not an error.
    """
    tol = tol or QUADRANT_TOLERANCE
    inner_tol = replace(tol, rel=max(tol.rel / 10.0, 1e-14))
    evaluations = failures = 0
    exhausted = False  # an inner batch was refused: the outer drive stops too
    outer = inner = _EXP_SINH
    if support is not None:
        outer, inner = _clipped(*support[0]), _clipped(*support[1])

    def inner_batch(col: np.ndarray, ys: np.ndarray):
        nonlocal evaluations, exhausted
        if evaluations + col.size * ys.size > _QUADRANT_MAX_EVALUATIONS:
            exhausted = True
            raise _BudgetExceeded
        evaluations += col.size * ys.size
        return integrand2d(col, ys)

    def inner_rows(xs: np.ndarray) -> np.ndarray:
        nonlocal failures
        # each row's share: its outer exp-sinh weight
        rows = xs[:, None], np.log2(xs * np.hypot(_HALF_PI, np.log(xs)))
        value, _, converged, _ = _drive(inner_batch, inner, inner_tol, rows)
        if exhausted:
            raise _BudgetExceeded  # stop the outer drive too
        failures += not converged
        return value

    with np.errstate(all="ignore"):  # the inner drives run under it too
        value, estimate, converged, _ = _drive(inner_rows, outer, tol)
    return _result((value, estimate, converged and failures == 0), evaluations)
