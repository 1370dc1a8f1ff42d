"""Seeded inputs and single-case runners for the three benchmark workloads.

Everything here calls quadred through its public modules and attributes, so
the probes in ``tracing`` see each call at the name its caller binds.

  sweep    the north-star verification sweep: ``run_sweep`` over every
           non-erratum rule, SWEEP_SAMPLES draws per rule at SWEEP_SEED
  reduce   ``ReductionRule.reduce_to_1d`` alone over fresh draws of every
           closed-form rule (all non-erratum rules except R1-rint)
  physics  Yukawa pair overlaps through their closed form, both catalog
           exponent choices and the 2-D oracle, plus momentum-space specs
           through the erfi kernel and the parametric tau integral
"""

from __future__ import annotations

import numpy as np

from quadred import applications
from quadred.applications import FourierSpec, YukawaPairSpec
from quadred.catalog import Family, ReductionRule, list_rules
from quadred.params import Params, TestIntegrand

# The sweep's draws do not follow the run seed.  R1-rint's (4,2,1) draws
# cost 2.4 s to over 80 s each depending on the seed (ROADMAP item 2), so a
# sweep whose draws follow the run seed varies by more than half its median
# from seed to seed.  Seed 42 is the north-star sweep, tail case included.
# The fixed agreement check sets of reduce and physics use it too.
SWEEP_SEED = 42
# a multiple of 10 draws every G1_GRID, R1_GRID and N6_GRID triple equally
SWEEP_SAMPLES = 10
REDUCE_DRAWS_PER_RULE = 10
# One Yukawa case (its oracle pair) costs about eight Fourier cases.  Few
# Yukawa cases keep one repeat short, so each case gets many repeats in a
# run, and keep the median and tail percentile inside the Fourier cases
# instead of at the boundary between the two.
YUKAWA_CASES = 6
FOURIER_CASES = 54


def sweep_rule_ids() -> list[str]:
    return [rule.id for rule in list_rules(include_erratum=False)]


def closed_form_rules() -> list[ReductionRule]:
    return [
        rule for rule in list_rules(include_erratum=False)
        if rule.family is not Family.R_INTEGRAL
    ]


def _draw(rule: ReductionRule, rng: np.random.Generator, case_index: int):
    # The sweep sampler's distribution (reducer._case_inputs), kept here so
    # the benchmark's inputs move only when the benchmark does.
    for _ in range(64):
        params = rule.sample_params(rng, case_index)
        if rule.applicability_failure(params) is not None:
            continue
        floor = max(rule.mu_min(params), -0.75)
        f = TestIntegrand(
            coeff=1.0,
            mu=float(rng.uniform(floor + 0.5, floor + 3.0)),
            sigma=float(rng.uniform(0.0, 2.0)),
        )
        return params, f
    raise RuntimeError(f"sampler for rule {rule.id} kept violating its own predicate")


def reduce_cases(seed: int, draws: int = REDUCE_DRAWS_PER_RULE
                 ) -> list[tuple[ReductionRule, int, Params, TestIntegrand]]:
    """`draws` draws of every closed-form rule, as (rule, case_index, params, f)."""
    cases = []
    for case_index in range(draws):
        for rule_index, rule in enumerate(closed_form_rules()):
            rng = np.random.default_rng((seed, rule_index, case_index))
            params, f = _draw(rule, rng, case_index)
            cases.append((rule, case_index, params, f))
    return cases


def physics_cases(seed: int, yukawa: int = YUKAWA_CASES, fourier: int = FOURIER_CASES
                  ) -> list[tuple[str, object]]:
    """("yukawa", YukawaPairSpec) and ("fourier", FourierSpec) cases."""
    rng = np.random.default_rng(seed)
    cases: list[tuple[str, object]] = []
    for _ in range(yukawa):
        e1, e2 = (float(v) for v in rng.uniform(0.4, 3.0, size=2))
        if abs(e1 - e2) < 1e-3:  # the closed form needs distinct ranges
            e2 += 0.1
        cases.append(("yukawa", YukawaPairSpec(e1, e2, float(rng.uniform(0.2, 3.0)))))
    for _ in range(fourier):
        e1, e2, x2 = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
        # k stays far above the erfi route's small-k delegation to tau
        k = float(rng.uniform(0.5, 2.0))
        cosine = float(rng.uniform(-1.0, 1.0))
        cases.append(("fourier", FourierSpec(k, cosine * k * x2, e1, e2, x2)))
    return cases


def run_physics_case(kind: str, spec) -> tuple[dict[str, complex], bool]:
    """Every route of one physical quantity: ({route: value}, all converged)."""
    if kind == "yukawa":
        reduced = applications.yukawa_pair_reduced(spec)
        alt = applications.yukawa_pair_reduced_alt(spec)
        oracle = applications.yukawa_pair_oracle(spec)
        values = {
            "closed": complex(applications.yukawa_pair(spec)),
            "reduced": complex(reduced.value),
            "reduced_alt": complex(alt.value),
            "oracle": complex(oracle.value),
        }
        return values, reduced.converged and alt.converged and oracle.converged
    erfi = applications.fourier_pair_erfi_result(spec)
    tau = applications.fourier_pair_tau_result(spec)
    return {"erfi": complex(erfi.value), "tau": complex(tau.value)}, erfi.converged and tau.converged
