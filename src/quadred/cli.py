"""Command-line front end: list rules, evaluate reductions, run sweeps.

Exit codes: 0 success/all-pass, 1 verification failure or non-convergence,
2 applicability violation or bad arguments, 3 non-convergence of either
side of any record during a sweep.  Output for a fixed (command, seed) is
byte-identical run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import applications as apps
from .catalog import (
    ApplicabilityError,
    Family,
    get_rule,
    list_rules,
)
from .params import Params, TestIntegrand
from .quadrature import QuadResult, QuadratureError, Tolerance
from .reducer import DEFAULT_COMPARE_TOL, _quad_json, run_sweep

_APPLICATIONS = (
    "yukawa-pair",
    "hydrogenic-pair",
    "fourier-erfi",
    "fourier-tau",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadred",
        description="Verified reductions of quadrant double integrals to 1-D kernel integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the rule registry")
    p_list.add_argument("--family", choices=[f.value for f in Family], default=None)
    p_list.add_argument("--format", choices=("human", "json"), default="human")

    p_eval = sub.add_parser("eval", help="evaluate one rule or application")
    p_eval.add_argument("target", help="rule id or one of: " + ", ".join(_APPLICATIONS))
    for name in ("n", "m", "nu"):
        p_eval.add_argument(f"--{name}", type=int, default=None)
    for name in ("a", "b", "c", "g", "j", "p", "q"):
        p_eval.add_argument(f"--{name}", type=float, default=0.0)
    p_eval.add_argument("--h-re", type=float, default=0.0)
    p_eval.add_argument("--h-im", type=float, default=0.0)
    p_eval.add_argument("--f-coeff", type=float, default=1.0)
    p_eval.add_argument("--f-mu", type=float, default=0.0)
    p_eval.add_argument("--f-sigma", type=float, default=0.0)
    for name in ("eta1", "eta2", "x2", "k"):
        p_eval.add_argument(f"--{name}", type=float, default=None)
    p_eval.add_argument("--k-dot-x2", type=float, default=0.0)
    p_eval.add_argument("--rel", type=float, default=Tolerance().rel)
    p_eval.add_argument("--abs", type=float, default=Tolerance().abs)
    p_eval.add_argument("--format", choices=("human", "json"), default="human")

    p_verify = sub.add_parser("verify", help="oracle-verification sweep")
    p_verify.add_argument("--rules", default="all",
                          help="'all' (non-erratum rules) or comma-separated rule ids")
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--rel", type=float, default=DEFAULT_COMPARE_TOL.rel,
                          help="comparison tolerance (relative)")
    p_verify.add_argument("--abs", type=float, default=DEFAULT_COMPARE_TOL.abs,
                          help="comparison tolerance (absolute)")
    p_verify.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p_verify.add_argument("--output", default=None, help="write the report to this file")
    p_verify.add_argument("--jobs", type=int, default=1)
    return parser


def cmd_list(args) -> int:
    rules = list_rules(args.family)
    if args.format == "json":
        print(json.dumps([r.descriptor() for r in rules], indent=2, sort_keys=True))
        return 0
    print(f"{'id':<20} {'family':<14} {'triple':<14} {'pattern':<12} flags")
    for r in rules:
        triple = "free" if r.triple is None else str(r.triple)
        flags = []
        if r.erratum:
            flags.append("erratum")
        if r.note:
            flags.append("corrected")
        pattern = "".join(sorted(r.pattern))
        print(f"{r.id:<20} {r.family.value:<14} {triple:<14} {pattern:<12} {','.join(flags)}")
        print(f"    {r.description}")
        if r.note:
            print(f"    note: {r.note}")
    return 0


def _print_result(res: QuadResult, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(_quad_json(res), sort_keys=True))
    else:
        v = complex(res.value)
        shown = repr(v.real) if v.imag == 0.0 else repr(v)
        print(f"value = {shown}")
        print(f"abs_error_estimate = {float(res.abs_error_estimate)!r}")
        print(f"evaluations = {res.evaluations}")
        print(f"converged = {res.converged}")
    return 0 if res.converged else 1


def _eval_application(args) -> int:
    name = args.target

    def need(*fields):
        missing = [f for f in fields if getattr(args, f.replace("-", "_")) is None]
        if missing:
            raise ApplicabilityError(
                f"{name} requires " + ", ".join(f"--{f}" for f in missing)
            )

    tol = Tolerance(rel=args.rel, abs=args.abs)
    if name in ("yukawa-pair", "hydrogenic-pair"):
        need("eta1", "eta2", "x2")
        spec = apps.YukawaPairSpec(args.eta1, args.eta2, args.x2)
        fn = apps.yukawa_pair if name == "yukawa-pair" else apps.hydrogenic_pair
        # a closed form: exact, at no evaluation
        return _print_result(QuadResult(fn(spec), 0.0, 0, True), args.format)
    need("eta1", "eta2", "x2", "k")
    spec = apps.FourierSpec(args.k, args.k_dot_x2, args.eta1, args.eta2, args.x2)
    fn = apps.fourier_pair_erfi_result if name == "fourier-erfi" else apps.fourier_pair_tau_result
    return _print_result(fn(spec, tol), args.format)


def cmd_eval(args) -> int:
    if args.target in _APPLICATIONS:
        return _eval_application(args)
    rule = get_rule(args.target)  # KeyError -> exit 2 via main()
    triple = rule.triple
    n = args.n if args.n is not None else (triple[0] if triple else None)
    m = args.m if args.m is not None else (triple[1] if triple else None)
    nu = args.nu if args.nu is not None else (triple[2] if triple else None)
    if None in (n, m, nu):
        raise ApplicabilityError(f"rule {rule.id} covers a triple range: pass --n --m --nu")
    params = Params(n, m, nu, a=args.a, b=args.b, c=args.c, g=args.g,
                    h=complex(args.h_re, args.h_im), j=args.j, p=args.p, q=args.q)
    f = TestIntegrand(args.f_coeff, args.f_mu, args.f_sigma)
    return _print_result(rule.reduce_to_1d(params, f, Tolerance(rel=args.rel, abs=args.abs)),
                         args.format)


def _report_body(report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json() + "\n"
    if fmt == "csv":
        return report.to_csv()
    lines = []
    for r in report.records:
        status = "pass" if r.passed else ("FLAGGED" if not r.trusted else "FAIL")
        rel = "nan" if r.rel_diff != r.rel_diff else f"{r.rel_diff:.3e}"
        lines.append(
            f"{status:7} {r.rule_id:<20} case={r.case_index} rel_diff={rel}"
            + (f" [{r.failure_reason}]" if r.failure_reason else "")
        )
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if args.rules == "all":
        ids = [r.id for r in list_rules(include_erratum=False)]
    else:
        ids = [s.strip() for s in args.rules.split(",") if s.strip()]
    compare = Tolerance(rel=args.rel, abs=args.abs)
    # a report path that cannot be written is a bad argument: fail before the
    # sweep.  The report goes to a temporary file beside it, renamed onto it
    # once written, so a refused or failed sweep leaves an earlier report.
    tmp = fh = None
    if args.output:
        tmp = f"{args.output}.{os.getpid()}.tmp"
        try:
            if os.path.isdir(args.output):
                raise IsADirectoryError(f"{args.output!r} is a directory")
            fh = open(tmp, "x")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_sweep(ids, samples=args.samples, seed=args.seed,
                           compare_tol=compare, jobs=args.jobs)
        body = _report_body(report, args.format)
        if fh is None:
            sys.stdout.write(body)
        else:
            with fh:
                fh.write(body)
            os.replace(tmp, args.output)
            tmp = None
    finally:
        if tmp is not None:
            fh.close()
            os.remove(tmp)
    print(report.summary_line(), file=sys.stderr)
    if report.any_nonconverged():
        return 3
    return 0 if report.all_passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_verify(args)
    except ValueError as exc:  # the applicability, kernel and divergence errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
