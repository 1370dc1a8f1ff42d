"""The CI workflow's checks (``tests/ci_checks.py``) on small inputs.

Every step the workflow runs is a function of ``ci_checks``; each runs
here, each gate on one input it passes and one it must fail, and the steps
that walk sweep draws on a few draws.  K1-111 case 0 raises at marginal mu
(ROADMAP item 9), so the edge rows' pin on it is tier-1 too.
"""

import ast
import json
import os
import re
import subprocess
import sys

from dataclasses import replace
from pathlib import Path

import pytest

import ci_checks
from quadred import catalog, kernels, quadrature, reducer
from quadred.catalog import get_rule

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _record(rule_id, case_index, lhs, rhs, evaluations=10):
    # a sweep record as the JSON report holds it; a side of None raised
    def side(value):
        return None if value is None else {"value": value, "evaluations": evaluations}
    return {"rule_id": rule_id, "case_index": case_index, "lhs": side(lhs), "rhs": side(rhs)}


def _report(path, records):
    path.write_text(json.dumps({"seed": 42, "records": records}))
    return str(path)


class TestWorkflow:
    def test_each_step_names_a_check_and_each_check_runs(self):
        text = WORKFLOW.read_text()
        assert "<<" not in text  # no inline program
        assert set(re.findall(r"python3 tests/ci_checks\.py ([\w-]+)", text)) == set(ci_checks.STEPS)

    def test_runs_as_a_script(self, tmp_path):
        path = _report(tmp_path / "r.json", [_record("X", 0, 1.0, 1.0 + 2e-12)])
        pythonpath = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        out = subprocess.run([sys.executable, str(ROOT / "tests" / "ci_checks.py"), "record-gate", path],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 1
        assert out.stderr == f"records above 1e-12 relative:\n{path}: X case 0: 2.000e-12\n"


class TestCodeLines:
    def test_docstrings_comments_and_blank_lines_left_out(self):
        text = ('"""Module\n\ndocstring."""\n\n# comment\nx = (1,\n     2)  # trailing\n\n\n'
                'def f():\n    """Docstring."""\n    return """a\nb"""\n')
        assert ci_checks.code_lines(text) == 5

    def test_package_counts_sum_to_the_total(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        ci_checks.print_code_lines()
        *files, total = capsys.readouterr().out.splitlines()
        assert len(files) >= 9
        counts = [int(line.split()[0]) for line in files]
        assert total.split()[:4] == [str(sum(counts)), "code", "lines", "total"]

    def test_without_a_parent_commit(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        monkeypatch.setattr(ci_checks, "_git", lambda *args: None)
        ci_checks.STEPS["code-lines"]()
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].endswith("code lines total (no parent commit)")
        assert all("parent" not in line for line in lines[:-1])


class TestParentComparisons:
    def test_moved_fields(self):
        old = {1: {"a": 1, "b": 2}, 2: {"a": 1}, 3: {"a": 5}}
        new = {1: {"a": 1, "b": 3}, 2: {"a": 1}, 4: {"a": 5}}
        moved = ci_checks.moved_fields(old, new)
        assert {key: sorted(names) for key, names in moved.items()} == {1: ["b"], 3: ["a"], 4: ["a"]}

    @staticmethod
    def _reports(directory, parent, own):
        # parent and own: (JSON records, csv text, human text); seed 0's JSON is seed 42's
        for (j42, j0, csv, human), texts in (
                (("parent-42.json", "parent-0.json", "parent-csv.txt", "parent-human.txt"), parent),
                (("jobs1-42.json", "jobs1-0.json", "report-csv-jobs1.txt", "report-human-jobs1.txt"), own)):
            records, csv_text, human_text = texts
            for name in (j42, j0):
                if records is None:  # a parent that gave no report
                    (directory / name).write_text("")
                else:
                    _report(directory / name, records)
            (directory / csv).write_text(csv_text)
            (directory / human).write_text(human_text)

    def test_unchanged_and_absent_reports(self, tmp_path, capsys):
        own = ([_record("A", 0, 1.0, 1.0)], "rule_id,case_index,x\nA,0,1\n",
               "pass    A    case=0 rel_diff=0\n")
        self._reports(tmp_path, own, own)
        ci_checks.STEPS["report-diff"](str(tmp_path))
        assert capsys.readouterr().out == "".join(
            f"{name} sweep report against the parent commit: unchanged\n"
            for name in ("seed-42 JSON", "seed-0 JSON", "seed-42 csv", "seed-42 human"))
        self._reports(tmp_path, (None,) + own[1:], own)
        ci_checks.report_diff(str(tmp_path))
        assert capsys.readouterr().out.splitlines()[0] == (
            "seed-42 JSON sweep report against the parent commit: the parent gave no such report")

    def test_moved_records_fields_and_largest_move(self, tmp_path, capsys):
        parent = ([_record("A", 0, 1.0, 1.0), _record("B", 0, 2.0, 2.0)], "rule_id,case_index,x\nA,0,1\n",
                  "pass    A    case=0\n")
        own = ([_record("A", 0, 1.0, 1.0), _record("B", 0, 2.0, 2.5)], "rule_id,case_index,x\nA,0,1.5\n",
               "pass    A    case=0\n")
        self._reports(tmp_path, parent, own)
        ci_checks.report_diff(str(tmp_path))
        assert capsys.readouterr().out.splitlines()[:6] == [
            "seed-42 JSON sweep report against the parent commit: 1 of 2 records and 1 fields differ;"
            " top-level fields that differ: none",
            "  rules whose records moved: B",
            "  rhs.value: 1 records, largest move 5.00e-01 absolute, 2.00e-01 relative",
            "seed-0 JSON sweep report against the parent commit: 1 of 2 records and 1 fields differ;"
            " top-level fields that differ: none",
            "  rules whose records moved: B",
            "  rhs.value: 1 records, largest move 5.00e-01 absolute, 2.00e-01 relative",
        ]

    def test_human_lines_keyed_by_rule_and_case(self, tmp_path, capsys):
        # a rule registered in the middle moves its own lines, not every later one
        lines = ["pass    A                    case=0 rel_diff=1.0e-16",
                 "pass    B                    case=0 rel_diff=2.0e-16",
                 "pass    C                    case=0 rel_diff=3.0e-16"]
        json_same = ([_record("A", 0, 1.0, 1.0)], "rule_id,case_index\nA,0\n")
        self._reports(tmp_path, json_same + ("\n".join(lines[::2]) + "\n",),
                      json_same + ("\n".join(lines) + "\n",))
        ci_checks.report_diff(str(tmp_path))
        assert capsys.readouterr().out.splitlines()[3:] == [
            "seed-42 human sweep report against the parent commit: 1 of 3 records and 2 fields differ;"
            " top-level fields that differ: none",
            "  rules whose records moved: B",
            "  line: 1 records",
            "  rule_id: 1 records",
        ]

    def test_routes_diff(self, tmp_path, capsys):
        (tmp_path / "parent-routes.txt").write_text("closed\ts1\t1.0\noracle\ts1\tQ(2)\n")
        (tmp_path / "routes.txt").write_text("closed\ts1\t1.0\noracle\ts1\tQ(3)\nerfi\ts2\tQ(4)\n")
        ci_checks.STEPS["routes-diff"](str(tmp_path))
        assert capsys.readouterr().out == (
            "physics routes and reduce_to_1d against the parent commit: 1 of 3 results moved,"
            " 1 the parent did not give\n  oracle s1\n    parent Q(2)\n    here   Q(3)\n")

    def test_routes_listing(self, capsys):
        ci_checks.routes([get_rule("E1-pbm-corrected"), get_rule("T1-nu0")], [1])
        out, err = capsys.readouterr()
        lines = [line.split("\t") for line in out.splitlines()]
        assert err == f"routes listing from {os.path.dirname(reducer.__file__)}\n"
        assert all(len(fields) == 3 for fields in lines)
        # 29 Yukawa specs by five routes, 18 Fourier specs by two, each rule's
        # case at seeds 1 and 7, G1-general where scipy's hyp1f1 returns NaN,
        # and the 24 tilde instances that normalize routes to a T rule
        assert len(lines) == 29 * 5 + 18 * 2 + 2 * 2 + 2 + 24
        assert [fields[1] for fields in lines[-30:-26]] == [
            "E1-pbm-corrected seed 1 case 1", "T1-nu0 seed 1 case 1",
            "E1-pbm-corrected seed 7 case 1", "T1-nu0 seed 7 case 1"]
        for route, spec, result in lines[-24:]:
            assert route == "normalize" and spec.endswith(str(ci_checks.TILDE_F))
            # a T rule at the shifted triple, and its converged reduction
            reduced = re.fullmatch(r"T\d-nu\d at \(.*?\) (\(.*\))", result).group(1)
            assert ast.literal_eval(reduced)[3], result
        for (params, f), (route, spec, result) in zip(ci_checks.G1_NAN_ROWS, lines[-26:-24]):
            assert (route, spec) == ("reduce_to_1d", f"G1-general {params} {f}")
            # a value, no longer "raised QuadratureError: integrand returned NaN ..."
            value, _, _, converged = ast.literal_eval(result)
            assert converged and value == pytest.approx(0.178388036, rel=1e-9, abs=0)


class TestGates:
    def test_evaluations(self, tmp_path, capsys):
        at = _report(tmp_path / "at.json", [_record("A", 0, 1.0, 1.0, 6_500_000),
                                            _record("B", 0, 1.0, None, 6_500_000)])
        ci_checks.STEPS["evaluations"](at)
        assert capsys.readouterr().out == (f"{at} oracle (lhs): 13000000 reduction (rhs): 6500000\n"
                                           "  A                    oracle 6500000\n"
                                           "  B                    oracle 6500000\n")
        over = _report(tmp_path / "over.json", [_record("A", 0, 1.0, 1.0, 13_000_001)])
        with pytest.raises(SystemExit, match="the oracle made 13000001 evaluations"):
            ci_checks.evaluation_gate([at, over])

    def test_records(self, tmp_path, capsys):
        within = _report(tmp_path / "within.json", [
            _record("A", 0, 1.0 + 5e-13, 1.0), _record("A", 1, 2.0, 2.0),
            _record("B", 0, {"re": 0.0, "im": 1.0}, {"re": 0.0, "im": 1.0}), _record("C", 0, None, None)])
        ci_checks.STEPS["record-gate"](within)
        assert capsys.readouterr().out.splitlines() == [
            f"{within} worst |lhs - rhs| / |rhs|: 5.000444502911705e-13",
            "  A                    worst 5.000e-13 at case 0",
            "  B                    worst 0.000e+00 at case 0"]
        apart = _report(tmp_path / "apart.json", [_record("A", 3, 1.0 + 2e-12, 1.0)])
        with pytest.raises(SystemExit, match=r"apart\.json: A case 3: 2\.000e-12"):
            ci_checks.record_gate([within, apart])

    def test_trace_probes(self, tmp_path, capsys):
        paths = []
        for workload, names in ci_checks.PROBES.items():
            metrics = {name: {"value": 1.0} for name in names}
            path = tmp_path / f"{workload}.jsonl"
            path.write_text(json.dumps({"metrics": {}}) + "\n" + json.dumps({"metrics": metrics}) + "\n")
            paths.append(str(path))
        ci_checks.STEPS["trace-probes"](*paths)
        assert len(capsys.readouterr().out.splitlines()) == sum(map(len, ci_checks.PROBES.values()))
        metrics["applications.yukawa_oracle.s"]["value"] = 0
        path.write_text(json.dumps({"metrics": metrics}) + "\n")
        with pytest.raises(SystemExit, match="physics.jsonl: applications.yukawa_oracle.s reads 0"):
            ci_checks.trace_probes(*paths)


class TestSpies:
    def test_counts_and_restores(self, capsys):
        spied = [(reducer, "quadrant_integrand"), (catalog, "eval_kernel_with_f"),
                 (kernels, "integrate_interval"), (quadrature, "_sum"),
                 *((cls, "bounded_part") for cls in kernels._Factor.__subclasses__())]
        before = [getattr(owner, name) for owner, name in spied]
        ci_checks.spies(["K1-111", "R1-rint"], 2)
        assert [getattr(owner, name) for owner, name in spied] == before
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("seed 42: 4 of 4 passed; oracle integrand2d calls: ")
        assert "seed 42: BesselKFactor.bounded_part calls: 2, rows: " in lines[3]
        assert "seed 42: ErfcxSqrtInvFactor.bounded_part calls: 0, rows: 0" in lines
        for line in (lines[-2], lines[-1]):  # R1's inner work at seeds 42 and 0
            assert re.fullmatch(r"seed (42|0): R1 sigma-batch evaluations: [1-9]\d*", line)


class TestEdgeRows:
    def test_rows_on_three_draws(self, capsys):
        # K1-111 case 0 raises at marginal mu (ROADMAP item 9), and must
        ci_checks.edge_rows([get_rule("K1-111"), get_rule("N1-133"), get_rule("T1-nu0")], [0])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "x0.001", "x0.01", "x100", "x1000", "b = a(1 - 1e-8)", "c = sigma = 0",
            "f.coeff in (1e+300, -1e-290)", "mu = floor + 0.05"]
        assert "0 records with a side that raised" in lines[0]
        assert lines[6].startswith("f.coeff in (1e+300, -1e-290): 12 sides,"
                                   " each its coefficient-1 side scaled")
        assert lines[7].startswith("mu = floor + 0.05: 2 of 3 records passed, 1 with a side that raised"
                                   " (1 expected)")

    def test_marginal_mu_raising_set(self, monkeypatch):
        monkeypatch.setattr(ci_checks, "RAISING", frozenset({("E1-pbm-corrected", 0)}))
        with pytest.raises(SystemExit) as exit_:
            ci_checks.edge_rows([get_rule("K1-111"), get_rule("E1-pbm-corrected")], [0])
        message = str(exit_.value)
        assert "mu = floor + 0.05 K1-111 case 0: integrand*weight" in message
        assert "mu = floor + 0.05 E1-pbm-corrected case 0: no longer raises (ROADMAP item 9)" in message

    @pytest.mark.parametrize("stub, failure", [
        (lambda rec: replace(rec, rhs=None, failure_reason="stub raised"), "stub raised"),
        (lambda rec: replace(rec, lhs=replace(rec.lhs, converged=False)), "oracle unconverged"),
    ], ids=["side raised", "side unconverged"])
    def test_scaled_rows_fail(self, monkeypatch, capsys, stub, failure):
        verify = reducer.verify
        monkeypatch.setattr(reducer, "verify", lambda *args: stub(verify(*args)))
        with pytest.raises(SystemExit) as exit_:
            ci_checks.edge_rows([get_rule("E1-pbm-corrected")], [0])
        assert f"x0.001 E1-pbm-corrected case 0: {failure}" in str(exit_.value)
        assert f"x1000 E1-pbm-corrected case 0: {failure}" in str(exit_.value)
        lines = capsys.readouterr().out.splitlines()
        raised = int(failure == "stub raised")
        assert f"{raised} records with a side that raised" in lines[0]
        # the stub leaves the record's verdict as it was
        assert lines[-1].startswith(f"mu = floor + 0.05: {1 - raised} of 1 records passed, {raised} with a"
                                    " side that raised (0 expected)")
