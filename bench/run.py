"""quadred benchmark: one closed-loop caller, one case at a time.

    python3 bench/run.py --workload {sweep,reduce,physics} --seed N \
        --seconds S --trace {0,1}

Run from the root of a quadred checkout; quadred is imported from its
``src/``.  A run draws one set of cases from the seed and repeats it; the
number of repeats follows from --seconds and the set's cost when the
benchmark was defined, so every commit does the same work at the same
arguments.  Timings are normalised to a fixed machine speed (``speed.py``)
and each case's time is the median over its repeats.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repeats and prints the per-layer metrics of the fastest traced
repeat, in raw seconds.  The last line of standard output is one JSON object; details (tail
percentile, slowest cases, the sweep's per-rule table, self times) go to
bench/results/.  A run whose outputs fail the workload's correctness gate
prints correct=false without metrics and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from dataclasses import dataclass, field
from pathlib import Path

from metrics import agree_digits, rel_diff, tail
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Seconds per repeat of each case set on the 2-core machine the benchmark
# was defined on, while it was busy.
NOMINAL_REPEAT_S = {"sweep": 20.0, "reduce": 0.5, "physics": 0.5}
# sweep's second repeat checks that the report is byte-identical
MIN_REPEATS = {"sweep": 2, "reduce": 4, "physics": 4}
SETUP_REPEATS = 5
# the verification engine's comparison tolerance
AGREE_REL, AGREE_ABS = 1e-6, 1e-9
# fixed check sets, outside the timed repeats
CHECK_REDUCE_DRAWS = 1
CHECK_YUKAWA, CHECK_FOURIER = 10, 20

SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import quadred\n"
    "quadred.list_rules()\n"
    "print(time.perf_counter() - t0)\n"
    "print(quadred.__file__)\n"
)

_clock = time.perf_counter


@dataclass
class Run:
    """What one benchmark run measured."""

    speed: Speed
    # case id -> untraced (raw seconds, index of the probe before the case)
    times: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    traced_times: dict[str, list[float]] = field(default_factory=dict)
    tracers: list = field(default_factory=list)  # one per traced repeat
    attempted: int = 0
    failed: int = 0
    worst_rel: float = 0.0
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    _first: dict[str, object] = field(default_factory=dict)

    def record(self, case_id: str, seconds: float, traced: bool, before: int) -> None:
        if traced:
            self.traced_times.setdefault(case_id, []).append(seconds)
        else:
            self.times.setdefault(case_id, []).append((seconds, before))
        self.speed.mark()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def same_as_first(self, case_id: str, value) -> None:
        """Gate: a case returns the same value on every repeat."""
        first = self._first.setdefault(case_id, value)
        if value != first:
            self.fail(f"{case_id}: value changed between repeats")

    def per_case(self) -> dict[str, float]:
        """Each case's normalised time: the median over its untraced repeats."""
        return {
            cid: statistics.median(self.speed.normalise(t, k) for t, k in samples)
            for cid, samples in self.times.items()
        }

    def fastest(self, traced: bool = False) -> dict[str, float]:
        """Each case's fastest raw time."""
        if traced:
            return {cid: min(ts) for cid, ts in self.traced_times.items()}
        return {cid: min(t for t, _ in samples) for cid, samples in self.times.items()}


def n_repeats(workload: str, seconds: float) -> int:
    return max(MIN_REPEATS[workload], round(seconds / NOMINAL_REPEAT_S[workload]))


def measure_setup() -> tuple[float, list[float]]:
    """Median over fresh interpreters of importing quadred and its registry.

    Raw seconds: scaling by a probe, taken either beside the child or inside
    it, made these samples spread more, not less."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, path = proc.stdout.splitlines()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported quadred from {path}, not {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples), samples


def _repeats(args, run: Run, workload: str):
    """Yield (tracer or None, probe scope) per repeat; a traced run makes
    every second repeat a traced one."""
    from tracing import Tracer, probes

    for r in range(n_repeats(workload, args.seconds)):
        if args.trace and r % 2 == 1:
            tracer = Tracer()
            run.tracers.append(tracer)
            yield tracer, probes(tracer)
        else:
            yield None, contextlib.nullcontext()


def run_sweep(args, speed: Speed) -> Run:
    from quadred import reducer
    from workloads import SWEEP_SAMPLES, SWEEP_SEED, sweep_rule_ids

    run = Run(speed)
    ids = sweep_rule_ids()
    original_verify = reducer.verify
    tracer = None

    # run_sweep looks verify up in its module at call time: timing it there
    # makes one case one verification record
    def timed_verify(rule, params, f, *rest, seed=None, case_index=None, **kw):
        rule_id = rule if isinstance(rule, str) else rule.id
        case_id = f"{rule_id}/{seed}/{case_index}"
        scope = tracer.case(case_id) if tracer else contextlib.nullcontext()
        before = speed.last
        start = _clock()
        with scope:
            rec = original_verify(rule, params, f, *rest, seed=seed, case_index=case_index, **kw)
        run.record(case_id, _clock() - start, tracer is not None, before)
        return rec

    digests = set()
    reducer.verify = timed_verify
    try:
        for tracer, scope in _repeats(args, run, "sweep"):
            with scope:
                report = reducer.run_sweep(ids, samples=SWEEP_SAMPLES, seed=SWEEP_SEED)
            digests.add(hashlib.sha256(report.to_json().encode()).hexdigest())
            for rec in report.records:
                run.attempted += 1
                if not rec.passed:
                    run.fail(f"{rec.rule_id}/{rec.case_index}: {rec.failure_reason}")
                else:
                    run.worst_rel = max(run.worst_rel, rec.rel_diff)
            if tracer is not None:
                run.detail["per_rule"] = _per_rule_table(report, tracer)
    finally:
        reducer.verify = original_verify
    timed = max(len(run.times), len(run.traced_times))
    if timed != len(ids) * SWEEP_SAMPLES:
        run.problems.append(f"timed {timed} verify cases, expected {len(ids) * SWEEP_SAMPLES}")
    if len(digests) != 1:
        run.problems.append(f"sweep report differs between repeats: {len(digests)} digests")
    run.detail["report_sha256"] = sorted(digests)
    return run


def _per_rule_table(report, tracer) -> dict:
    oracle_s: dict[str, float] = {}
    reduce_s: dict[str, float] = {}
    for name, start, end, _, case_id in tracer.spans:
        if case_id is None:
            continue
        rule_id = case_id.split("/")[0]
        if name == "reducer.direct_2d":
            oracle_s[rule_id] = oracle_s.get(rule_id, 0.0) + end - start
        elif name.startswith("catalog.reduce_to_1d."):
            reduce_s[rule_id] = reduce_s.get(rule_id, 0.0) + end - start
    table: dict[str, dict] = {}
    for rec in report.records:
        row = table.setdefault(rec.rule_id, {
            "oracle_s": oracle_s.get(rec.rule_id, 0.0),
            "reduction_s": reduce_s.get(rec.rule_id, 0.0),
            "oracle_evals": 0, "reduction_evals": 0, "worst_rel_diff": 0.0,
        })
        row["oracle_evals"] += rec.lhs.evaluations
        row["reduction_evals"] += rec.rhs.evaluations
        row["worst_rel_diff"] = max(row["worst_rel_diff"], rec.rel_diff)
    return table


def _run_cases(args, run: Run, workload: str, cases, case_id, do_case, check) -> None:
    """Closed loop: every repeat runs every case, one at a time."""
    ids = [case_id(i, case) for i, case in enumerate(cases)]
    for tracer, scope in _repeats(args, run, workload):
        with scope:
            for cid, case in zip(ids, cases):
                before = run.speed.last
                with tracer.case(cid) if tracer else contextlib.nullcontext():
                    start = _clock()
                    outcome = do_case(case)
                    seconds = _clock() - start
                run.record(cid, seconds, tracer is not None, before)
                run.attempted += 1
                check(cid, outcome)


def run_reduce(args, speed: Speed) -> Run:
    from quadred.catalog import Family
    from quadred.reducer import direct_2d
    from workloads import SWEEP_SEED, reduce_cases

    run = Run(speed)

    def case_id(i, case):
        rule, case_index, _, _ = case
        return f"{rule.id}/{args.seed}/{case_index}"

    def do_case(case):
        rule, _, params, f = case
        return rule.reduce_to_1d(params, f)

    def check(cid, res):
        if not res.converged:
            run.fail(f"{cid}: reduction did not converge")
        run.same_as_first(cid, res.value)

    cases = reduce_cases(args.seed)
    for case in reduce_cases(args.seed, draws=1):
        do_case(case)  # warm-up, untimed
    _run_cases(args, run, "reduce", cases, case_id, do_case, check)

    # the fixed oracle subset, outside the timed repeats
    checked = reduce_cases(SWEEP_SEED, draws=CHECK_REDUCE_DRAWS)
    for rule, case_index, params, f in checked:
        cid = f"{rule.id}/{SWEEP_SEED}/{case_index}"
        rhs = do_case((rule, case_index, params, f))
        lhs = direct_2d(params, f, tilde=rule.family is Family.MIXED_TILDE)
        diff = abs(complex(lhs.value) - complex(rhs.value))
        rel = rel_diff(complex(rhs.value), complex(lhs.value))
        run.worst_rel = max(run.worst_rel, rel)
        if not (lhs.converged and rhs.converged):
            run.problems.append(f"oracle check {cid}: did not converge")
        elif not (diff <= AGREE_ABS or rel <= AGREE_REL):
            run.problems.append(f"oracle check {cid}: sides disagree, rel {rel:.3e}")
    run.detail["oracle_checked"] = len(checked)
    return run


def _worst_route_diff(values: dict[str, complex]) -> float:
    routes = list(values.values())
    return max(rel_diff(a, b) for i, a in enumerate(routes) for b in routes[i + 1:])


def run_physics(args, speed: Speed) -> Run:
    from workloads import SWEEP_SEED, physics_cases, run_physics_case

    run = Run(speed)
    cases = physics_cases(args.seed)

    def case_id(i, case):
        return f"{case[0]}/{args.seed}/{i}"

    def do_case(case):
        return run_physics_case(*case)

    def check(cid, outcome):
        values, converged = outcome
        worst = _worst_route_diff(values)
        if not converged:
            run.fail(f"{cid}: a route did not converge")
        elif worst > AGREE_REL:
            run.fail(f"{cid}: routes disagree, rel {worst:.3e}")
        run.same_as_first(cid, tuple(values.values()))

    for case in (cases[0], cases[-1]):
        do_case(case)  # warm-up, untimed
    _run_cases(args, run, "physics", cases, case_id, do_case, check)

    # agreement digits come from a fixed check set, outside the timed repeats
    checked = physics_cases(SWEEP_SEED, CHECK_YUKAWA, CHECK_FOURIER)
    for i, case in enumerate(checked):
        values, converged = do_case(case)
        worst = _worst_route_diff(values)
        run.worst_rel = max(run.worst_rel, worst)
        if not converged or worst > AGREE_REL:
            run.problems.append(f"check {case[0]}/{SWEEP_SEED}/{i}: routes disagree")
    run.detail["routes_checked"] = len(checked)
    return run


WORKLOADS = {"sweep": run_sweep, "reduce": run_reduce, "physics": run_physics}

FAMILIES = ("positive-exp", "inverse-exp", "mixed-tilde", "general-h", "r-integral")
FACTORS = ("BesselK", "Erf", "Erfcx", "Kummer", "FourierErfi")
QUAD_LAYERS = ("integrate_half_line", "integrate_interval", "integrate_quadrant")
APPLICATIONS = ("fourier_erfi", "fourier_tau", "yukawa_reduced", "yukawa_reduced_alt",
                "yukawa_oracle")


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repeat."""
    from tracing import self_times

    spans = tracer.durations()
    own = self_times(tracer.spans)
    tot = tracer.totals
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def count(name):
        put(name, tot[name], "count")

    put("reducer.direct_2d.s", spans["reducer.direct_2d"], "s")
    count("reducer.direct_2d.evals")
    count("reducer.direct_2d.nonconverged")
    put("reducer.quadrant_integrand.s", tot["reducer.quadrant_integrand.s"], "s")
    count("reducer.quadrant_integrand.points")
    put("reducer.oracle_self.s",
        spans["reducer.direct_2d"] - tot["reducer.quadrant_integrand.s"], "s")

    put("kernels.rinner.s", spans["kernels.rinner"], "s")
    for name in ("points", "inner_calls", "inner_evals", "inner_nonconverged"):
        count("kernels.rinner." + name)
    # ratios are 0 when the layer did not run
    calls = tot["kernels.rinner.inner_calls"]
    useful = 1.0 - tot["kernels.rinner.inner_nonconverged"] / calls if calls else 0.0
    put("kernels.rinner.useful_ratio", useful, "ratio")
    reported = tot["catalog.reduce_to_1d.r-integral.evals"]
    hidden = tot["kernels.rinner.inner_evals"] / reported if reported else 0.0
    put("kernels.rinner.hidden_evals_ratio", hidden, "ratio")

    count("kernels.eval_kernel_with_f.calls")
    count("kernels.eval_kernel_with_f.points")
    put("kernels.eval_kernel_with_f.s", spans["kernels.eval_kernel_with_f"], "s")
    for factor in FACTORS:
        name = "kernels.bounded_part." + factor
        put(name + ".s", spans[name], "s")
        count(name + ".points")
    count("specfun.kummer_1f1.calls")
    put("specfun.kummer_1f1.s", tot["specfun.kummer_1f1.s"], "s")

    for family in FAMILIES:
        put(f"catalog.reduce_to_1d.{family}.s", spans["catalog.reduce_to_1d." + family], "s")
    count("catalog.reduce_to_1d.evals")
    count("catalog.reduce_to_1d.nonconverged")
    # reduce_to_1d's only child span is integrate_half_line
    put("catalog.reduce_self.s",
        sum(own["catalog.reduce_to_1d." + family] for family in FAMILIES), "s")

    for layer in QUAD_LAYERS:
        name = "quadrature." + layer
        put(name + ".s", spans[name], "s")
        for what in ("calls", "evals", "nonconverged"):
            count(f"{name}.{what}")
    for short in APPLICATIONS:
        put(f"applications.{short}.s", spans["applications." + short], "s")
    return out


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Each layer metric at its fastest traced repeat (counts repeat exactly)."""
    repeats = [layer_metrics(tracer) for tracer in run.tracers]
    out = {name: (min(r[name][0] for r in repeats), unit) for name, (_, unit) in repeats[0].items()}
    overhead = sum(run.fastest(traced=True).values()) / sum(run.fastest().values()) - 1.0
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def end_to_end(run: Run, setup_s: float) -> tuple[dict[str, tuple[float, str]], dict]:
    cases = list(run.per_case().values())
    level, tail_s, beyond = tail(cases)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(cases), "s"),
        "case_p50_ms": (statistics.median(cases) * 1e3, "ms"),
        "case_tail_ms": (tail_s * 1e3, "ms"),
        "agree_digits": (agree_digits(run.worst_rel), "digits"),
        "pass_frac": (1.0 - run.failed / run.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"percentile": level, "cases": len(cases), "beyond": beyond}


def write_spans(path: Path, tracers) -> None:
    with gzip.open(path, "wt") as fh:
        for repeat, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([repeat, *span]) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quadred" / "__init__.py").is_file():
        print(f"error: no quadred package under {SRC}; run from a quadred checkout",
              file=sys.stderr)
        return 2
    setup_s, setup_samples = measure_setup()
    speed = Speed()
    sys.path.insert(0, str(SRC))
    from tracing import self_times

    try:
        run = WORKLOADS[args.workload](args, speed)
    except Exception:  # the program under test raised: report, do not time
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    speed.probe()  # closes the last case's bracket
    correct = not run.problems and run.failed == 0 and run.attempted > 0
    fastest = run.fastest(traced=bool(args.trace))
    slowest = sorted(((s, cid) for cid, s in fastest.items()), reverse=True)[:10]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup_samples,
        "raw_fastest_wall_s": sum(run.fastest().values()),
        "probe_s": {"min": min(speed.samples), "median": statistics.median(speed.samples),
                    "count": len(speed.samples)},
        "slowest_cases": [{"case": cid, "ms": s * 1e3} for s, cid in slowest],
        "problems": run.problems, **run.detail,
    }
    metrics: dict[str, tuple[float, str]] = {}
    if correct:
        if args.trace:
            metrics = per_layer(run)
            own = self_times([s for t in run.tracers[:1] for s in t.spans])
            detail["self_s_first_traced_repeat"] = dict(sorted(own.items()))
            if args.workload == "sweep":
                share = (metrics["reducer.direct_2d.s"][0]
                         + metrics["catalog.reduce_to_1d.r-integral.s"][0]) / sum(fastest.values())
                detail["oracle_plus_r1_share"] = share
                print(f"# oracle + R1 reduction: {share:.1%} of the traced sweep")
        else:
            metrics, detail["tail"] = end_to_end(run, setup_s)
            print(f"# case_tail_ms is p{detail['tail']['percentile']:g} of "
                  f"{detail['tail']['cases']} cases ({detail['tail']['beyond']} beyond)")
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if args.trace:
        write_spans(RESULTS / f"{stem}.spans.jsonl.gz", run.tracers)

    for seconds, cid in slowest:
        print(f"# slow case {cid}: {seconds * 1e3:.1f} ms")
    if "per_rule" in run.detail:
        print("# rule                 oracle_s  reduction_s  evals(lhs+rhs)  worst_rel")
        for rule_id, row in run.detail["per_rule"].items():
            print(f"# {rule_id:<20} {row['oracle_s']:8.3f} {row['reduction_s']:12.3f} "
                  f"{row['oracle_evals'] + row['reduction_evals']:15d} "
                  f"{row['worst_rel_diff']:10.2e}")
    for problem in run.problems:
        print(f"# FAIL {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
