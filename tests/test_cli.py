"""CLI contracts: exit codes, formats, determinism."""

import json
import subprocess
import sys

import pytest

from quadred import applications, catalog, quadrature, reducer
from quadred.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_human_table(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "E1-pbm-corrected" in out
        rows = [line for line in out.splitlines() if line and not line.startswith(" ")]
        assert len(rows) - 1 >= 20  # header plus at least twenty rules

    def test_erratum_is_flagged_once(self, capsys):
        # trusted is `not erratum`, so one flag says both
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("E1-uncorrected-pbm "))
        assert row.split()[-1] == "erratum"
        assert "untrusted" not in out

    def test_family_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--family", "inverse-exp")
        assert code == 0
        body = [line.split()[0] for line in out.splitlines()[1:] if line and not line.startswith(" ")]
        assert body == ["N1-133", "N2-333", "N3-033", "N4-122", "N5-222", "N6-aeqb"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list)
        assert any(r["id"] == "E1-pbm-corrected" for r in rows)
        assert all({"id", "family", "triple", "coefficient_pattern"} <= set(r) for r in rows)

    def test_json_validates_against_schema(self, capsys):
        import jsonschema

        from quadred.schemas import RULE_DESCRIPTOR_SCHEMA

        _, out, _ = run_cli(capsys, "list", "--format", "json")
        for row in json.loads(out):
            jsonschema.validate(row, RULE_DESCRIPTOR_SCHEMA)


class TestEval:
    def test_rule_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "E1-pbm-corrected", "--p", "1", "--q", "1",
            "--f-mu", "0", "--f-sigma", "1",
        )
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert value == pytest.approx(0.7089815403622064, rel=1e-9, abs=0)
        assert "abs_error_estimate" in out and "evaluations" in out
        assert out.splitlines()[-1] == "converged = True"

    def test_application_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "yukawa-pair", "--eta1", "1", "--eta2", "2", "--x2", "1"
        )
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert value == pytest.approx(0.9740786909377138, rel=1e-12, abs=0)

    def test_applicability_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "E1-pbm-corrected", "--p", "0", "--q", "1", "--f-sigma", "1"
        )
        assert code == 2
        assert "requires p>0" in err

    def test_unknown_rule_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "Z9-nope", "--f-sigma", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--eta1", "inf", "eta1"), ("--x2", "nan", "x2"), ("--k-dot-x2", "nan", "k_dot_x2")],
    )
    def test_non_finite_fourier_argument_exit_code(self, capsys, flag, value, message):
        args = {"--eta1": "1", "--eta2": "0.5", "--x2": "1", "--k": "1", "--k-dot-x2": "0"}
        args[flag] = value
        argv = [a for pair in args.items() for a in pair]
        code, out, err = run_cli(capsys, "eval", "fourier-tau", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "target, eta, x2, message",
        [
            pytest.param("yukawa-pair", "1", "nan", "x2", id="yukawa-pair-equal-1-nan-x2"),
            pytest.param("yukawa-pair", "inf", "1", "eta", id="yukawa-pair-equal-inf-1-eta"),
            pytest.param(
                "hydrogenic-pair", "1", "-1", "x2", id="hydrogenic-pair-equal-1--1-x2"
            ),
        ],
    )
    def test_bad_equal_range_argument_exit_code(self, capsys, target, eta, x2, message):
        # equal ranges take the general closed forms, which check their spec
        code, out, err = run_cli(
            capsys, "eval", target, "--eta1", eta, "--eta2", eta, "--x2", x2
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_quadrature_error_exit_code(self, capsys, monkeypatch):
        # the R1 inner integral cannot converge in one level: main returns
        # an error line and the exit code an uncaught exception would give
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
        code, out, err = run_cli(
            capsys, "eval", "R1-rint", "--n", "4", "--m", "2", "--nu", "1",
            "--a", "0.44", "--b", "0.12", "--c", "2.26", "--h-re", "2.94", "--j", "0.12",
            "--f-mu", "1.62", "--f-sigma", "0.9",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: R1 inner integral did not converge")

    def test_unconverged_value_says_so(self, capsys, monkeypatch):
        # the human output names the verdict that the exit code 1 gives
        unconverged = quadrature.QuadResult(3.25, 4e-5, 1234, False)
        monkeypatch.setattr(applications, "fourier_pair_tau_result", lambda spec, tol: unconverged)
        code, out, _ = run_cli(
            capsys, "eval", "fourier-tau", "--eta1", "1", "--eta2", "0.5", "--x2", "1", "--k", "1",
        )
        assert code == 1
        assert out.splitlines()[2:] == ["evaluations = 1234", "converged = False"]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "fourier-tau", "--eta1", "1", "--eta2", "0.5",
            "--x2", "1", "--k", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["value"]["re"] == pytest.approx(3.196415162413308, rel=1e-8, abs=0)

    @pytest.mark.parametrize("argv", [
        ("K1-111", "--p", "1", "--q", "2", "--f-mu", "1"),
        ("yukawa-pair", "--eta1", "1", "--eta2", "2", "--x2", "1"),
    ])
    def test_json_real_value_is_a_number(self, capsys, argv):
        # as in verify records: only a complex value is {"re", "im"}
        code, out, _ = run_cli(capsys, "eval", *argv, "--format", "json")
        assert code == 0
        assert type(json.loads(out)["value"]) is float

    def test_tolerance_defaults_are_the_library_defaults(self):
        args = _build_parser().parse_args(["eval", "K1-111"])
        default = quadrature.Tolerance()
        assert (args.rel, args.abs) == (default.rel, default.abs)


class TestVerify:
    def test_passing_sweep_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--rules", "E1-pbm-corrected,K1-111",
            "--samples", "2", "--seed", "7",
        )
        assert code == 0
        assert "4/4 passed" in err

    def test_erratum_sweep_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--rules", "E1-uncorrected-pbm", "--samples", "2", "--seed", "7"
        )
        assert code == 1
        assert "FLAGGED" in out

    def test_json_deterministic(self, capsys):
        args = (
            "verify", "--rules", "K1-111", "--samples", "1", "--seed", "7",
            "--format", "json",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["summary"]["pass"] == 1
        assert doc["records"][0]["seed"] == 7

    def test_verify_json_validates_against_schema(self, capsys):
        import jsonschema

        from quadred.schemas import REPORT_SCHEMA

        # include a failing erratum record so the null-diff branch is covered
        _, out, _ = run_cli(
            capsys, "verify", "--rules", "E1-pbm-corrected,E1-uncorrected-pbm",
            "--samples", "1", "--seed", "3", "--format", "json",
        )
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--rules", "E1-pbm-corrected", "--samples", "1",
            "--seed", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rule_id,case_index,seed")
        assert len(lines) == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--rules", "E1-pbm-corrected", "--samples", "1",
            "--seed", "5", "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["summary"]["total"] == 1
        assert list(tmp_path.iterdir()) == [target]  # no temporary file left

    @pytest.mark.parametrize(
        "refused",
        [["--rules", "K1-111", "--jobs", "0"], ["--rules", "Z9"]],
        ids=["jobs-0", "unknown-rule"],
    )
    def test_refused_sweep_keeps_an_existing_report(self, capsys, tmp_path, refused):
        target = tmp_path / "out.json"
        target.write_bytes(b'{"an": "earlier report"}\n')
        code, _, err = run_cli(capsys, "verify", *refused, "--samples", "1",
                               "--output", str(target))
        assert code == 2
        assert err.startswith("error: ")
        assert target.read_bytes() == b'{"an": "earlier report"}\n'
        assert list(tmp_path.iterdir()) == [target]

    def test_directory_output_exits_two_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("quadred.cli.run_sweep", no_sweep)
        code, _, err = run_cli(capsys, "verify", "--rules", "E1-pbm-corrected",
                               "--samples", "1", "--output", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exits_two_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("quadred.cli.run_sweep", no_sweep)
        code, _, err = run_cli(
            capsys, "verify", "--rules", "E1-pbm-corrected", "--samples", "1",
            "--output", str(tmp_path / "missing" / "r.json"),
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "module, name",
        [(reducer, "integrate_quadrant"), (catalog, "integrate_half_line")],
        ids=["oracle", "reduction"],
    )
    def test_nonconverged_side_exit_three(self, capsys, monkeypatch, module, name):
        # either side of a record that did not converge gives exit 3
        unconverged = quadrature.QuadResult(1.0, 1.0, 1, False)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: unconverged)
        code, out, _ = run_cli(
            capsys, "verify", "--rules", "K1-111", "--samples", "1", "--seed", "7",
            "--jobs", "1",
        )
        assert code == 3
        assert "quadrature did not converge" in out

    def test_unconverged_oracle_before_a_reduction_error_exits_three(self, capsys, monkeypatch):
        # the oracle ran, unconverged, and the reduction then raised: the
        # record keeps the oracle, so its unconverged side still gives exit 3
        integrate_quadrant = reducer.integrate_quadrant

        def unconverged(*args, **kwargs):
            res = integrate_quadrant(*args, **kwargs)
            res.converged = False
            return res

        def raises(*args, **kwargs):
            raise quadrature.QuadratureError("quadrature did not converge")

        monkeypatch.setattr(reducer, "integrate_quadrant", unconverged)
        monkeypatch.setattr(catalog.ReductionRule, "reduce_to_1d", raises)
        code, out, _ = run_cli(
            capsys, "verify", "--rules", "K1-111", "--samples", "1", "--seed", "7",
            "--jobs", "1", "--format", "json",
        )
        assert code == 3
        [rec] = json.loads(out)["records"]
        assert rec["lhs"]["converged"] is False and rec["lhs"]["evaluations"] > 0
        assert rec["rhs"] is None and rec["failure_reason"] == "quadrature did not converge"

    def test_unknown_rule_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--rules", "Z9-nope", "--samples", "1")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--abs", "--rel"])
    def test_infinite_tolerance_exits_two(self, capsys, flag):
        # an infinite target would pass the erratum's records
        code, out, err = run_cli(
            capsys, "verify", "--rules", "E1-uncorrected-pbm", "--samples", "3", flag, "inf"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exit_two(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--rules", "E1-pbm-corrected",
                                 "--samples", samples)
        assert code == 2
        assert out == ""
        assert "samples" in err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit_two(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "--rules", "E1-pbm-corrected",
                                 "--samples", "1", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "jobs" in err

    @pytest.mark.parametrize("rules", [",", " , ,"])
    def test_empty_rule_list_exit_two(self, capsys, rules):
        # a sweep that verified nothing must not report success
        code, out, err = run_cli(capsys, "verify", "--rules", rules, "--samples", "1")
        assert code == 2
        assert out == ""
        assert "no rules" in err


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quadred.cli", "list", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)
