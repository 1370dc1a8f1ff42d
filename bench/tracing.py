"""Span tracer and the probes that wrap quadred's layer boundaries.

A span is (name, start, end, parent, case id); the spans of one case share
the case id.  Spans stay in memory; the benchmark writes them out when it
ends.  Hot leaf calls (the 2-D integrand closure, scalar ``kummer_1f1``)
are counted and timed as plain accumulators instead of spans, so the trace
stays small and cheap.

``probes`` patches each public function at the name its caller binds (for
example ``quadred.catalog.integrate_half_line``, which ``reduce_to_1d``
looks up at call time) and restores the originals on exit.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import contextlib
import time

from collections import defaultdict

import numpy as np

from quadred import applications, catalog, kernels, reducer

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.totals: dict[str, float] = defaultdict(float)
        self.case_id: str | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.case_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextlib.contextmanager
    def case(self, case_id: str):
        self.case_id = case_id
        try:
            with self.span("case"):
                yield
        finally:
            self.case_id = None

    def add(self, key: str, value: float = 1.0) -> None:
        self.totals[key] += value

    def durations(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover.

    Children of one parent never overlap (one thread, properly nested
    spans), so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return out


# Short names for the special factors in kernels.bounded_part.<name>.
FACTOR_NAMES = {
    "BesselKFactor": "BesselK",
    "ErfSqrtInvFactor": "Erf",
    "ErfcxSqrtInvFactor": "Erfcx",
    "KummerFactor": "Kummer",
    "FourierErfiFactor": "FourierErfi",
}
APPLICATION_NAMES = {
    "yukawa_pair_reduced": "yukawa_reduced",
    "yukawa_pair_reduced_alt": "yukawa_reduced_alt",
    "yukawa_pair_oracle": "yukawa_oracle",
    "fourier_pair_erfi_result": "fourier_erfi",
    "fourier_pair_tau_result": "fourier_tau",
}


def _quad_span(tr: Tracer, name: str, fn, extra: str | None = None):
    """Span around a function returning a QuadResult, counting its work."""

    def wrapped(*args, **kwargs):
        index = tr.begin(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tr.end(index)
        tr.add(name + ".calls")
        tr.add(name + ".evals", res.evaluations)
        tr.add(name + ".nonconverged", not res.converged)
        if extra is not None:
            tr.add(extra + ".inner_calls")
            tr.add(extra + ".inner_evals", res.evaluations)
            tr.add(extra + ".inner_nonconverged", not res.converged)
        return res

    return wrapped


def _plain_span(tr: Tracer, name: str, fn, points: bool = False):
    def wrapped(*args, **kwargs):
        index = tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(index)
            tr.add(name + ".calls")
            if points:
                tr.add(name + ".points", np.size(args[-1]))

    return wrapped


def _accumulate(tr: Tracer, name: str, fn):
    def wrapped(*args, **kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.add(name + ".s", _clock() - start)
            tr.add(name + ".calls")

    return wrapped


def _integrand_factory(tr: Tracer, factory):
    # quadrant_integrand returns the closure integrate_quadrant calls once
    # per block of nodes; wrap the closure, not the factory
    def wrapped_factory(*args, **kwargs):
        closure = factory(*args, **kwargs)

        def integrand(x, y):
            start = _clock()
            out = closure(x, y)
            tr.add("reducer.quadrant_integrand.s", _clock() - start)
            tr.add("reducer.quadrant_integrand.points", out.size)
            return out

        return integrand

    return wrapped_factory


def _reduce_method(tr: Tracer, method):
    def reduce_to_1d(rule, params, f, tol=None):
        family = rule.family.value
        index = tr.begin("catalog.reduce_to_1d." + family)
        try:
            res = method(rule, params, f, tol)
        finally:
            tr.end(index)
        tr.add("catalog.reduce_to_1d.evals", res.evaluations)
        tr.add("catalog.reduce_to_1d.nonconverged", not res.converged)
        tr.add(f"catalog.reduce_to_1d.{family}.evals", res.evaluations)
        return res

    return reduce_to_1d


@contextlib.contextmanager
def probes(tr: Tracer):
    """Install every layer probe for the duration of the block.

    A name the program no longer has is skipped: that layer's metrics read 0.
    """
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    try:
        for module in (reducer, applications):
            patch(module, "direct_2d", lambda fn: _quad_span(tr, "reducer.direct_2d", fn))
        patch(reducer, "integrate_quadrant",
              lambda fn: _quad_span(tr, "quadrature.integrate_quadrant", fn))
        patch(reducer, "quadrant_integrand", lambda fn: _integrand_factory(tr, fn))
        patch(catalog.ReductionRule, "reduce_to_1d", lambda fn: _reduce_method(tr, fn))
        for module in (catalog, applications):
            patch(module, "integrate_half_line",
                  lambda fn: _quad_span(tr, "quadrature.integrate_half_line", fn))
        patch(kernels, "integrate_interval",
              lambda fn: _quad_span(tr, "quadrature.integrate_interval", fn,
                                    extra="kernels.rinner"))
        patch(applications, "integrate_interval",
              lambda fn: _quad_span(tr, "quadrature.integrate_interval", fn))
        for module in (catalog, applications, kernels):
            patch(module, "eval_kernel_with_f",
                  lambda fn: _plain_span(tr, "kernels.eval_kernel_with_f", fn, points=True))
        for cls_name, short in FACTOR_NAMES.items():
            patch(getattr(kernels, cls_name, None), "bounded_part",
                  lambda fn, short=short: _plain_span(tr, "kernels.bounded_part." + short, fn,
                                                      points=True))
        patch(getattr(kernels, "RInnerFactor", None), "bounded_part",
              lambda fn: _plain_span(tr, "kernels.rinner", fn, points=True))
        patch(kernels, "kummer_1f1", lambda fn: _accumulate(tr, "specfun.kummer_1f1", fn))
        for fn_name, short in APPLICATION_NAMES.items():
            patch(applications, fn_name,
                  lambda fn, short=short: _plain_span(tr, "applications." + short, fn))
        yield tr
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
