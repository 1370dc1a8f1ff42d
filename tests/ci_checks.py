"""The CI workflow's Python checks, one function a step, kept as test code.

Each step of ``.github/workflows/tests.yml`` that runs Python runs

    python tests/ci_checks.py <step> [paths]

with a step name from ``STEPS``; from a checkout, ``PYTHONPATH=src`` stands
in for the install.  The workflow's own shell only writes the files these
steps read: the sweep reports of this tree's CLI and of the parent commit's,
and the benchmark's traces.  The parent's routes listing is this module run
with the parent's ``src`` first on ``PYTHONPATH``.  A gate prints what it
read and exits non-zero with the records or names that broke it.
``tests/test_ci_checks.py`` runs every function here on small inputs, the
draw-walking ones on a few draws that each caller names.
"""

from __future__ import annotations

import ast
import csv
import dataclasses
import glob
import io
import itertools
import json
import math
import subprocess
import sys
import tokenize

from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np

from quadred import applications as apps, catalog, kernels, quadrature, reducer
from quadred.catalog import Family, list_rules

# the sweep's oracle budget at seeds 42 and 0, and the largest relative
# difference between a record's sides
ORACLE_EVALUATIONS = 13_000_000
RECORD_REL = 1e-12

# the draws whose oracle raises at marginal mu: a value of its integrand
# times its weights leaves the double range (ROADMAP item 9); the change
# that mends it empties this set and says so
RAISING = frozenset((rule_id, case_index) for rule_id in ("K1-111", "K2-220")
                    for case_index in range(3))

# the probes each traced smoke run must reach, by workload
PROBES = {
    "sweep": ("quadrature.integrate_quadrant.calls", "quadrature.integrate_half_line.calls",
              "quadrature.integrate_interval.calls", "kernels.bounded_part.BesselK.points",
              "kernels.bounded_part.Erfcx.points", "kernels.bounded_part.Kummer.points",
              "kernels.rinner.inner_calls", "kernels.rinner.points",
              "reducer.quadrant_integrand.points"),
    "physics": ("kernels.bounded_part.FourierErfi.points", "applications.fourier_erfi.s",
                "applications.fourier_tau.s", "applications.yukawa_reduced.s",
                "applications.yukawa_reduced_alt.s", "applications.yukawa_oracle.s"),
}

_SIDES = {"lhs": "oracle", "rhs": "reduction"}


def _fail(header: str, failures: list[str]) -> None:
    if failures:
        sys.exit(f"{header}:\n" + "\n".join(failures))


def sweep_draws(rules, cases, seed):
    """(rule, case index, params, f) for each of the cases of each trusted
    rule, rule by rule, drawn as the sweep at seed draws that case."""
    ids = [rule.id for rule in list_rules(include_erratum=False)]
    for rule in rules:
        for case_index in cases:
            params, f = reducer._case_inputs(rule, seed, ids.index(rule.id), case_index)
            yield rule, case_index, params, f


# ----------------------------------------------------------------------------
# Code lines: printed, not gated.
# ----------------------------------------------------------------------------

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines that hold a token other than layout or a comment, docstrings left out."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def _git(*args):
    out = subprocess.run(["git", *args], capture_output=True, text=True)
    return out.stdout if out.returncode == 0 else None


def print_code_lines() -> None:
    """Code lines of each file of src/quadred, here and at the parent commit where there is one."""
    listed = _git("ls-tree", "--name-only", "HEAD^1", "src/quadred/")
    parent = {path: code_lines(_git("show", f"HEAD^1:{path}"))
              for path in (listed or "").split() if path.endswith(".py")}
    own = {path: code_lines(Path(path).read_text()) for path in glob.glob("src/quadred/*.py")}
    for path in sorted(own.keys() | parent.keys()):
        count, before = own.get(path, 0), parent.get(path, 0)
        print(f"{count:5d} code lines {path}" + (f" (parent {before}, {count - before:+d})"
                                                 if listed is not None else ""))
    total, before = sum(own.values()), sum(parent.values())
    print(f"{total:5d} code lines total" + (f" (parent {before}, {total - before:+d})"
                                            if listed is not None else " (no parent commit)"))


# ----------------------------------------------------------------------------
# Comparisons with the parent commit: printed, not gated.
# ----------------------------------------------------------------------------


def moved_fields(old: dict, new: dict) -> dict:
    """{key: names of the fields that differ} for each key whose record moved;
    old and new map keys to records, each a dict of fields, and a record that
    one side lacks moves in every field the other has."""
    moved = {}
    for key in old.keys() | new.keys():
        a, b = old.get(key, {}), new.get(key, {})
        if names := [n for n in a.keys() | b.keys() if a.get(n) != b.get(n)]:
            moved[key] = names
    return moved


def _leaves(value, prefix=""):
    # every scalar field of a record, by its dotted name
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{prefix}{key}.")
    else:
        yield prefix[:-1] if prefix else "(value)", value


# each parser gives (records by key, each a dict of fields; top-level fields)
def json_records(text):
    doc = json.loads(text)
    records = {(rec["rule_id"], rec["case_index"]): dict(_leaves(rec)) for rec in doc["records"]}
    return records, {key: value for key, value in doc.items() if key != "records"}


def csv_records(text):
    rows = csv.DictReader(io.StringIO(text))
    return {(row["rule_id"], row["case_index"]): row for row in rows}, {}


def human_records(text):
    # a line is a record of one field, keyed by the rule id and case= after its status
    return {tuple(line.split()[1:3]): {"rule_id": (line.split()[1:2] or [""])[0], "line": line}
            for line in text.splitlines()}, {}


def _move(a, b):
    # (|b - a|, |b - a| / max(|a|, |b|)) for two finite numbers, else None;
    # a difference such as abs_diff moves by its own size, so both are shown
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(b - a), abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0


REPORTS = (
    ("seed-42 JSON", "parent-42.json", "jobs1-42.json", json_records),
    ("seed-0 JSON", "parent-0.json", "jobs1-0.json", json_records),
    ("seed-42 csv", "parent-csv.txt", "report-csv-jobs1.txt", csv_records),
    ("seed-42 human", "parent-human.txt", "report-human-jobs1.txt", human_records),
)


def report_diff(directory: str) -> None:
    """Whether each sweep report in directory moved against the parent's, and
    which rules and fields moved, with each field's largest move."""
    for name, parent_name, own_name, parse in REPORTS:
        parent_text = Path(directory, parent_name).read_text()
        text = Path(directory, own_name).read_text()
        if parent_text == text:
            print(f"{name} sweep report against the parent commit: unchanged")
            continue
        try:
            old, old_rest = parse(parent_text)
        except (ValueError, KeyError):
            print(f"{name} sweep report against the parent commit: the parent gave no such report")
            continue
        new, new_rest = parse(text)
        moved = moved_fields(old, new)
        counts = Counter(n for names in moved.values() for n in names)
        largest = {}
        for key, names in moved.items():
            a, b = old.get(key, {}), new.get(key, {})
            for n in names:
                if (step := _move(a.get(n), b.get(n))) is not None:
                    largest[n] = tuple(map(max, largest.get(n, (0.0, 0.0)), step))
        rules = {new.get(key, {}).get("rule_id") or old.get(key, {}).get("rule_id") for key in moved}
        rest = sorted(key for key in old_rest.keys() | new_rest.keys()
                      if old_rest.get(key) != new_rest.get(key))
        print(f"{name} sweep report against the parent commit: {len(moved)} of {len(new)} records",
              f"and {counts.total()} fields differ; top-level fields that differ: {rest or 'none'}")
        print(f"  rules whose records moved: {', '.join(sorted(rules, key=str)) or 'none'}")
        for n, count in sorted(counts.items(), key=str):
            most = (f", largest move {largest[n][0]:.2e} absolute, {largest[n][1]:.2e} relative"
                    if n in largest else "")
            print(f"  {n}: {count} records{most}")


def routes(rules, cases) -> None:
    """Each physics route's result and the reduce_to_1d result of each of
    the rules' cases at seeds 1 and 7, one tab-separated line each: route,
    spec, result."""
    print("routes listing from", Path(reducer.__file__).parent, file=sys.stderr)
    # test_route_agreement_random's 20 specs, then nine equal-range specs
    rng = np.random.default_rng(21)
    specs = []
    for _ in range(20):
        e1 = float(rng.uniform(0.4, 3.0))
        e2 = float(rng.uniform(0.4, 3.0))
        if abs(e1 - e2) < 1e-3:
            e2 += 0.1
        specs.append(apps.YukawaPairSpec(e1, e2, float(rng.uniform(0.2, 3.0))))
    specs += [apps.YukawaPairSpec(eta, eta, x2)
              for eta, x2 in itertools.product((0.5, 1.0, 2.0), (0.0, 0.7, 3.0))]
    yukawa = (("closed", apps.yukawa_pair), ("reduced", apps.yukawa_pair_reduced),
              ("reduced_alt", apps.yukawa_pair_reduced_alt), ("oracle", apps.yukawa_pair_oracle),
              ("hydrogenic", apps.hydrogenic_pair))
    for spec in specs:
        for name, route in yukawa:
            print(name, spec, repr(route(spec)), sep="\t")
    # momentum space at k = 1, 1e-4 (the erfi route hands it to tau) and 0,
    # on three range pairs and two angles
    ranges = ((1.3, 0.8), (0.8, 1.3), (1.0, 1.0))
    for k, (e1, e2), cosine in itertools.product((1.0, 1e-4, 0.0), ranges, (0.6, -0.6)):
        spec = apps.FourierSpec(k, cosine * k * 0.9, e1, e2, 0.9)
        for name, route in (("erfi", apps.fourier_pair_erfi_result),
                            ("tau", apps.fourier_pair_tau_result)):
            print(name, spec, repr(route(spec)), sep="\t")
    for seed in (1, 7):
        for rule, case_index, params, f in sweep_draws(rules, cases, seed):
            try:
                res = rule.reduce_to_1d(params, f)
                out = repr((res.value, res.abs_error_estimate, res.evaluations, res.converged))
            except (quadrature.QuadratureError, ValueError) as exc:  # a raise is a result too
                out = f"raised {type(exc).__name__}: {exc}"
            print("reduce_to_1d", f"{rule.id} seed {seed} case {case_index}", out, sep="\t")


def routes_diff(directory: str) -> None:
    """How many of the routes listing's results moved against the parent's, and each one that did."""
    def results(name):
        # (route, spec) -> its result
        lines = Path(directory, name).read_text().splitlines()
        return {tuple(line.split("\t")[:2]): {"result": line.split("\t")[-1]} for line in lines}

    old, new = results("parent-routes.txt"), results("routes.txt")
    changed = moved_fields(old, new)
    moved = [key for key in new if key in old and key in changed]
    missing = len(new.keys() - old.keys())
    print("physics routes and reduce_to_1d against the parent commit:",
          f"{len(moved)} of {len(new)} results moved"
          + (f", {missing} the parent did not give" if missing else ""))
    for key in moved:
        print(f"  {key[0]} {key[1]}\n    parent {old[key]['result']}\n    here   {new[key]['result']}")


# ----------------------------------------------------------------------------
# The sweep reports' gates.
# ----------------------------------------------------------------------------


def _reports(paths):
    # each JSON sweep report's path and records
    for path in paths:
        yield path, json.loads(Path(path).read_text())["records"]


def evaluation_gate(paths) -> None:
    """Each report's evaluations and each rule's oracle evaluations; no
    report's oracle may make more than ORACLE_EVALUATIONS."""
    over = []
    for path, records in _reports(paths):
        totals = {side: sum(rec[side]["evaluations"] for rec in records if rec[side])
                  for side in ("lhs", "rhs")}
        print(path, "oracle (lhs):", totals["lhs"], "reduction (rhs):", totals["rhs"])
        by_rule = Counter()
        for rec in records:
            if rec["lhs"]:
                by_rule[rec["rule_id"]] += rec["lhs"]["evaluations"]
        for rule_id, evaluations in by_rule.items():
            print(f"  {rule_id:<20} oracle {evaluations}")
        if totals["lhs"] > ORACLE_EVALUATIONS:
            over.append(f"{path}: the oracle made {totals['lhs']} evaluations")
    _fail("above 13 000 000 oracle evaluations", over)


def record_gate(paths) -> None:
    """Each report's worst relative difference between a record's sides,
    overall and by rule; no record's may exceed RECORD_REL."""
    def value(v):
        return complex(v["re"], v["im"]) if isinstance(v, dict) else v

    over = []
    for path, records in _reports(paths):
        by_rule = {}
        for rec in records:
            if rec["lhs"] is None or rec["rhs"] is None:
                continue
            lhs, rhs = value(rec["lhs"]["value"]), value(rec["rhs"]["value"])
            rel = abs(lhs - rhs) / abs(rhs) if rhs else (0.0 if lhs == rhs else math.inf)
            if rel > by_rule.get(rec["rule_id"], (-1.0,))[0]:
                by_rule[rec["rule_id"]] = (rel, rec["case_index"])
            if rel > RECORD_REL:
                over.append(f"{path}: {rec['rule_id']} case {rec['case_index']}: {rel:.3e}")
        print(path, "worst |lhs - rhs| / |rhs|:", max((rel for rel, _ in by_rule.values()), default=0.0))
        for rule_id, (rel, case) in sorted(by_rule.items()):
            print(f"  {rule_id:<20} worst {rel:.3e} at case {case}")
    _fail("records above 1e-12 relative", over)


def trace_probes(sweep_trace: str, physics_trace: str) -> None:
    """Each of PROBES' names in the last line of its workload's trace, which must read above 0."""
    zero = []
    for path, names in ((sweep_trace, PROBES["sweep"]), (physics_trace, PROBES["physics"])):
        metrics = json.loads(Path(path).read_text().splitlines()[-1])["metrics"]
        for name in names:
            value = metrics[name]["value"]
            print(path, name, value)
            if not value > 0:
                zero.append(f"{path}: {name} reads {value}")
    _fail("probes that no longer reach the code they measure", zero)


# ----------------------------------------------------------------------------
# Counting spies: printed, not gated.
# ----------------------------------------------------------------------------


def spies(rule_ids, samples) -> None:
    """The seed-42 sweep of rule_ids' integrand calls, one-pass sums, factor
    calls and rows, oracle values exactly 0 or subnormal, and R1's sigma-batch
    evaluations, then R1's alone on its seed-0 draws; the library's own
    functions are back in place on return."""
    calls, values = Counter(), Counter()
    make_integrand, tiny = reducer.quadrant_integrand, np.finfo(float).tiny

    def counted_integrand(*args):
        integrand = make_integrand(*args)

        def call(x, y):
            calls["integrand2d"] += 1
            out = integrand(x, y)
            size = np.abs(out)
            values["all"] += out.size
            values["zero"] += np.count_nonzero(size == 0.0)
            values["subnormal"] += np.count_nonzero((size > 0.0) & (size < tiny))
            return out
        return call

    # kernel-evaluator calls, and the driver's one-pass sums: one per level, two for the first call
    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    # each special factor's bounded_part: the factor work the kernel evaluator asks for
    factors = {cls.__name__: [0, 0] for cls in kernels._Factor.__subclasses__()}

    def counted_factor(cls):
        bounded_part = cls.bounded_part

        def call(factor, t):
            factors[cls.__name__][0] += 1
            factors[cls.__name__][1] += len(t)
            return bounded_part(factor, t)
        return call

    # R1's sigma-batches, each a row batch: the report's rhs evaluations count only R1's outer points
    def counted_interval(integrand, tol=None, *, rows=None):
        res = quadrature.integrate_interval(integrand, tol, rows=rows)
        calls["r1_inner"] += res.evaluations
        return res

    with ExitStack() as spied:
        for owner, name, spy in (
                (reducer, "quadrant_integrand", counted_integrand),
                (catalog, "eval_kernel_with_f", counted("eval_kernel_with_f", catalog.eval_kernel_with_f)),
                (kernels, "integrate_interval", counted_interval),
                (quadrature, "_sum", counted("sum", quadrature._sum)),
                *((cls, "bounded_part", counted_factor(cls)) for cls in kernels._Factor.__subclasses__())):
            spied.enter_context(mock.patch.object(owner, name, spy))
        report = reducer.run_sweep(rule_ids, samples=samples, seed=42)
        print("seed 42:", report.n_pass, "of", len(report.records), "passed;",
              "oracle integrand2d calls:", calls["integrand2d"],
              "kernel-evaluator calls:", calls["eval_kernel_with_f"],
              "driver sums (quadrature._sum):", calls["sum"])
        # values the support box leaves in its corners: exp gives exactly 0
        # (skipped, cheap) or a subnormal (taken on exp's slow path)
        for kind in ("zero", "subnormal"):
            print(f"oracle values {kind}: {values[kind]} of {values['all']}",
                  f"({100.0 * values[kind] / values['all']:.2f} %)")
        for name, (count, rows) in factors.items():
            print(f"seed 42: {name}.bounded_part calls: {count}, rows: {rows}")
        print("seed 42: R1 sigma-batch evaluations:", calls["r1_inner"])
        # seed 0: R1-rint's sweep draws alone, each reduced as verify reduces it
        calls["r1_inner"] = 0
        for rule, _, params, f in sweep_draws([catalog.get_rule("R1-rint")], range(samples), 0):
            rule.reduce_to_1d(params, f)
        print("seed 0: R1 sigma-batch evaluations:", calls["r1_inner"])


# ----------------------------------------------------------------------------
# Edge rows: gated.
# ----------------------------------------------------------------------------


def _add(row, side, res, where, failures):
    # a side's evaluations, and whether it stopped unconverged, which fails the row
    row[side] += res.evaluations
    row[side + " unconverged"] += not res.converged
    if not res.converged:
        failures.append(f"{where}: {_SIDES[side]} unconverged")


def _verified(rec, row, where, failures) -> bool:
    # a verified record's sides added to the row; False, and a failure, if a side raised
    if rec.lhs is None or rec.rhs is None:
        failures.append(f"{where}: {rec.failure_reason}")
        return False
    for side in _SIDES:
        _add(row, side, getattr(rec, side), where, failures)
    return True


def _runs(rule, params):
    # the oracle and the reduction of the rule's instance, each a function of f
    tilde = rule.family is Family.MIXED_TILDE
    return (("lhs", lambda f: reducer.direct_2d(params, f, tilde=tilde)),
            ("rhs", lambda f: rule.reduce_to_1d(params, f)))


def edge_rows(rules, cases) -> None:
    """Aim 3's edge rows on the seed-42 draws of the cases of trusted rules:
    every rule with a, b, c, h, j, p, q and sigma scaled by 1e-3, 1e-2, 1e2
    and 1e3; N1-N5 and T1-T5 at b = a(1 - 1e-8); T1-T5 at c = sigma = 0;
    every rule at f.coeff = 1e300 and -1e-290; every rule at
    mu = max(rule.mu_min, -0.75) + 0.05.

    Each row prints its evaluations and what it found.  A side that raises,
    an oracle or a reduction that stops unconverged, a record refused as
    divergent by one side only, a coefficient side that is not its
    coefficient-1 side scaled, or a marginal-mu record that fails fails the
    rows, save the RAISING draws, which must raise.
    """
    failures = []
    for scale in (1e-3, 1e-2, 1e2, 1e3):
        row = Counter()
        for rule, case_index, params, f in sweep_draws(rules, cases, 42):
            params = dataclasses.replace(params, **{k: scale * getattr(params, k) for k in "abchjpq"})
            rec = reducer.verify(rule, params, dataclasses.replace(f, sigma=scale * f.sigma))
            if not _verified(rec, row, f"x{scale:g} {rule.id} case {case_index}", failures):
                row["raised"] += 1
            else:  # a record whose sides are both exactly 0 compares nothing
                row["zeros"] += rec.lhs.value == 0.0 and rec.rhs.value == 0.0
        print(f"x{scale:g}: oracle {row['lhs']} evaluations, {row['lhs unconverged']} unconverged;",
              f"reduction {row['rhs']} evaluations, {row['rhs unconverged']} unconverged;",
              f"{row['raised']} records with a side that raised;",
              f"{row['zeros']} records with both sides exactly 0")
    # a = b approached: the rules whose kernels hold a - b, at b = a(1 - 1e-8)
    row = Counter()
    near = [rule for rule in rules if rule.id[0] in "NT" and rule.id[1] in "12345"]
    for rule, case_index, params, f in sweep_draws(near, cases, 42):
        rec = reducer.verify(rule, dataclasses.replace(params, b=params.a * (1.0 - 1e-8)), f)
        _verified(rec, row, f"a~b {rule.id} case {case_index}", failures)
    print(f"b = a(1 - 1e-8): oracle {row['lhs']} evaluations, {row['lhs unconverged']} unconverged;",
          f"reduction {row['rhs']} evaluations, {row['rhs unconverged']} unconverged")
    # no decay at large t but what the mixed-tilde term gives: T1-T5 at c = sigma = 0;
    # each side is run on its own, as verify runs no reduction once the oracle
    # refuses, and the two must refuse the same records as divergent
    row = Counter()
    for rule, case_index, params, f in sweep_draws([rule for rule in near if rule.id[0] == "T"], cases, 42):
        where = f"c=sigma=0 {rule.id} case {case_index}"
        sides = {}
        for side, run in _runs(rule, dataclasses.replace(params, c=0.0)):
            try:
                sides[side] = run(dataclasses.replace(f, sigma=0.0))
            except reducer.DivergentIntegralError:
                continue
            _add(row, side, sides[side], where, failures)
        row["refused"] += not sides
        row["converged"] += len(sides) == 2 and all(res.converged for res in sides.values())
        if len(sides) == 1:
            failures.append(f"{where}: only the {'reduction' if 'lhs' in sides else 'oracle'} refused")
    print(f"c = sigma = 0: {row['refused']} records refused as divergent by both sides,",
          f"{row['converged']} converged; oracle {row['lhs']} evaluations,",
          f"reduction {row['rhs']} evaluations")
    # f's coefficient at 1e300 and -1e-290: each side integrates f with
    # coefficient 1 and scales its result once, so no side may raise, and
    # each must be its coefficient-1 result scaled, with the same evaluations
    coeffs = (1e300, -1e-290)
    row = Counter()
    for rule, case_index, params, f in sweep_draws(rules, cases, 42):
        for side, run in _runs(rule, params):
            unit = run(f)
            for coeff in coeffs:
                where = f"f.coeff = {coeff:g} {rule.id} case {case_index} {side}"
                try:
                    res = run(dataclasses.replace(f, coeff=coeff))
                except (ValueError, quadrature.QuadratureError) as exc:
                    failures.append(f"{where}: {exc}")
                    continue
                row["sides"] += 1
                row[side] += res.evaluations
                if res != unit.scaled(coeff):
                    failures.append(f"{where}: {res} is not {coeff:g} times {unit}")
    print(f"f.coeff in {coeffs}: {row['sides']} sides, each its coefficient-1 side scaled;",
          f"oracle {row['lhs']} evaluations, reduction {row['rhs']} evaluations")
    # marginal mu, 0.05 above each draw's small-t floor (rule.mu_min) or -0.75
    row = Counter()
    for rule, case_index, params, f in sweep_draws(rules, cases, 42):
        rec = reducer.verify(rule, params, dataclasses.replace(f, mu=max(rule.mu_min(params), -0.75) + 0.05))
        where = f"mu = floor + 0.05 {rule.id} case {case_index}"
        raised, expected = rec.lhs is None or rec.rhs is None, (rule.id, case_index) in RAISING
        row["records"] += 1
        row["raised"] += raised
        row["expected"] += expected
        if raised != expected:
            reason = rec.failure_reason if raised else "no longer raises (ROADMAP item 9)"
            failures.append(f"{where}: {reason}")
        if not raised:
            row.update(lhs=rec.lhs.evaluations, rhs=rec.rhs.evaluations)
            row["passed"] += rec.passed
            if not rec.passed:
                failures.append(f"{where}: {rec.failure_reason}")
    print(f"mu = floor + 0.05: {row['passed']} of {row['records']} records passed,",
          f"{row['raised']} with a side that raised ({row['expected']} expected);",
          f"oracle {row['lhs']} evaluations, reduction {row['rhs']} evaluations")
    _fail("edge-row records that did not converge or pass", failures)


# each step's function of the command line's paths, with the draws CI walks
_TRUSTED = list_rules(include_erratum=False)
STEPS = {
    "code-lines": print_code_lines,
    "report-diff": report_diff,
    "routes": lambda: routes([rule for rule in _TRUSTED if rule.family is not Family.R_INTEGRAL],
                             range(10)),
    "routes-diff": routes_diff,
    "evaluations": lambda *paths: evaluation_gate(paths),
    "spies": lambda: spies([rule.id for rule in _TRUSTED], 20),
    "edge-rows": lambda: edge_rows(_TRUSTED, range(3)),
    "record-gate": lambda *paths: record_gate(paths),
    "trace-probes": trace_probes,
}

if __name__ == "__main__":
    STEPS[sys.argv[1]](*sys.argv[2:])
