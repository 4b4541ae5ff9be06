"""Workload ``isa-onboard``: the offline stage for new targets.

Each sweep runs live rule synthesis for fusion-g3 (``max_term_size=4``,
no time budget), re-generalizes the shipped single-lane algebra for
``masked-w8`` and ``avx-like-w8``, assigns phases for all three, then
compiles and simulates small elementwise kernels on each onboarded ISA
under one-round budgets.
"""

from __future__ import annotations

import time

import numpy as np

import common
import references

#: The ISAs re-generalized from the shipped single-lane rules.
FAMILY_ISAS = ("masked-w8", "avx-like-w8")
#: Label of the ISA whose rules come from live synthesis.
LIVE_ISA = "fusion-g3-live"
ISAS = (LIVE_ISA,) + FAMILY_ISAS
#: Rules drawn per ruleset for the LHS = RHS check.
RULE_SAMPLE = 24
SETUP_REPEATS = 3


def layer_names() -> list:
    """Every per-kernel and per-ISA metric this workload reports."""
    names = []
    for isa in ISAS:
        names.append(f"machine.lane_utilization.{isa}")
        for stem, length in common.ONBOARD_SHAPES:
            kernel = f"{isa}.ew-{stem}-{length}"
            names += [f"machine.cycles.{kernel}",
                      f"baselines.scalar_cycles.{kernel}",
                      f"machine.instrs.{kernel}"]
            if length % 4:
                names.append(f"machine.scalar_instrs.{kernel}")
    for isa in FAMILY_ISAS:
        names += [f"ruler.regeneralize_s.{isa}", f"ruler.reprune_s.{isa}",
                  f"ruler.family_rules.{isa}"]
    return names


def setup(rec, layers, size):
    """Load the shipped single-lane rules and trace the kernels."""
    from repro.core.pregen import single_lane_rules
    from repro.isa.families import spec_by_name
    from repro.isa.fusion_g3 import fusion_g3_spec

    specs = {LIVE_ISA: fusion_g3_spec()}
    specs.update({isa: spec_by_name(isa) for isa in FAMILY_ISAS})
    loads, traces, totals = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with rec.span("core.load_rules"):
            seed_rules = single_lane_rules()
        t1 = time.perf_counter()
        with rec.span("compiler.frontend"):
            kernels = {
                isa: common.onboarding_kernels(spec.vector_width,
                                               size["shapes"])
                for isa, spec in specs.items()
            }
        t2 = time.perf_counter()
        loads.append(t1 - t0)
        traces.append(t2 - t1)
        totals.append(t2 - t0)
    layers["core.load_rules_s"] = common.median(loads)
    layers["compiler.frontend_s"] = common.median(traces)
    seed_rules = seed_rules[: size["seed_rules"]]
    return common.median(totals), (specs, seed_rules, kernels)


def _offline(specs, seed_rules, size, rec, layers):
    """Synthesize, re-generalize and phase every ISA; returns compilers."""
    from repro.core.framework import GeneratedCompiler
    from repro.phases.assign import assign_phases, default_params
    from repro.phases.cost import CostModel
    from repro.ruler.cost_prune import cost_prune_rules
    from repro.ruler.lanes import generalize_rules
    from repro.ruler.synthesize import SynthesisConfig, synthesize_rules

    rules = {}
    spec = specs[LIVE_ISA]
    with rec.span("ruler.synthesize"):
        result = synthesize_rules(spec, SynthesisConfig(
            max_term_size=size["max_term_size"], enumeration_jobs=1))
    rules[LIVE_ISA] = result.rules
    for stage in ("enumerate", "candidates", "verify", "cost_prune",
                  "minimize", "generalize"):
        layers[f"ruler.{stage}_s"] = result.stage_times.get(stage, 0.0)
    layers["ruler.enumerated"] = result.n_enumerated
    layers["ruler.candidates"] = result.n_candidates
    layers["ruler.verified"] = result.n_verified
    layers["ruler.rules_out"] = len(result.rules)

    for isa in FAMILY_ISAS:
        t0 = time.perf_counter()
        with rec.span(f"ruler.regeneralize.{isa}"):
            generalized, _ = generalize_rules(seed_rules, specs[isa])
        t1 = time.perf_counter()
        with rec.span(f"ruler.reprune.{isa}"):
            pruned, _ = cost_prune_rules(generalized, specs[isa])
        t2 = time.perf_counter()
        rules[isa] = pruned
        layers[f"ruler.regeneralize_s.{isa}"] = t1 - t0
        layers[f"ruler.reprune_s.{isa}"] = t2 - t1
        layers[f"ruler.family_rules.{isa}"] = len(pruned)

    compilers = {}
    t0 = time.perf_counter()
    for isa, isa_rules in rules.items():
        with rec.span(f"phases.assign.{isa}"):
            cost_model = CostModel(specs[isa])
            ruleset = assign_phases(
                cost_model, isa_rules, default_params(specs[isa]))
        compilers[isa] = GeneratedCompiler(
            spec=specs[isa], cost_model=cost_model, ruleset=ruleset,
            options=common.onboarding_options(),
        )
    layers["phases.assign_s"] = time.perf_counter() - t0
    return compilers, rules


def sweep(state, seed, rec, outcome, size):
    """One offline stage plus the onboarding compiles."""
    from repro.baselines.scalar import compile_scalar

    specs, seed_rules, kernels = state
    layers = references.compile_layers()
    t_sweep = time.perf_counter()
    cpu_sweep = time.process_time()
    outcome.attempted += 1 + len(FAMILY_ISAS)
    try:
        compilers, rules = _offline(specs, seed_rules, size, rec, layers)
    except Exception as exc:  # counted, reported; nothing left to compile
        outcome.fail(f"offline stage: {type(exc).__name__}: {exc}")
        return None, layers
    layers["ruler.offline_s"] = time.perf_counter() - t_sweep

    runs = []
    for isa, programs in kernels.items():
        spec = specs[isa]
        for name, program in programs:
            outcome.attempted += 1
            inputs = common.kernel_inputs(program, seed, f"{isa}.{name}")
            try:
                with rec.span(f"compile_kernel.{isa}.{name}"):
                    t0 = time.perf_counter()
                    compiled = compilers[isa].compile_kernel(program)
                    wall = time.perf_counter() - t0
                with rec.span(f"machine.run.{isa}.{name}"):
                    result = common.simulate(
                        spec, compiled.machine_program, program, inputs)
                with rec.span(f"baselines.scalar.{isa}.{name}"):
                    scalar = common.simulate(
                        spec, compile_scalar(program, spec), program, inputs)
            except Exception as exc:  # counted, reported, sweep goes on
                outcome.fail(f"{isa}/{name}: {type(exc).__name__}: {exc}")
                continue
            references.add_compile_layers(layers, compiled.report, wall)
            runs.append((isa, name, program, inputs, compiled, result, scalar))
    layers["obs.sweep_wall_s"] = time.perf_counter() - t_sweep
    sweep_s = time.process_time() - cpu_sweep

    rng = np.random.default_rng([seed, 0x6F6E62])
    for isa in ISAS:
        outcome.problems += references.rule_sample_problems(
            rules[isa], specs[isa], rng, isa, RULE_SAMPLE)
    for isa, name, program, inputs, compiled, result, scalar in runs:
        label = f"{isa}.{name}"
        stem = name.split("-")[1]
        for got in (result, scalar):
            outcome.problems += references.elementwise_problems(
                stem, common.output_of(got, program), inputs, label)
        report = compiled.report
        outcome.check(report.final_cost <= report.initial_cost,
                      f"{label}: final cost above initial cost")
        opcodes = [i.opcode for i in compiled.machine_program.instrs]
        scalar_instrs = sum(op.startswith("s.") for op in opcodes)
        if program.output_len % 4:
            layers[f"machine.scalar_instrs.{label}"] = scalar_instrs
        if (specs[isa].masked and program.output_len % specs[isa].vector_width
                and scalar_instrs):
            # Tail masking exists so that this cannot happen: the
            # compile missed its purpose, so it counts as failed.
            outcome.fail(f"{label}: masked tail compiled with "
                         f"{scalar_instrs} scalar instructions")
        layers[f"machine.cycles.{label}"] = result.cycles
        layers[f"baselines.scalar_cycles.{label}"] = scalar.cycles
        layers[f"machine.instrs.{label}"] = len(opcodes)
    for isa in ISAS:
        layers[f"machine.lane_utilization.{isa}"] = common.lane_utilization(
            r for run_isa, *_, r, _s in runs if run_isa == isa)
    e2e = {
        "sweep_s": sweep_s,
        "speedup_vs_scalar": common.geomean(
            s.cycles / r.cycles for *_, r, s in runs) if runs else 0.0,
        "code_instrs": sum(
            len(c.machine_program.instrs) for *_, c, _r, _s in runs),
        "lane_utilization": common.lane_utilization(
            r for *_, r, _s in runs),
    }
    return e2e, layers
