"""Workload ``fig4-compile``: one kernel per Fig. 4 family on fusion-g3.

Each sweep compiles ``2dconv-3x3-2x2``, ``matmul-2x2x2``, ``qprod`` and
``qr-3x3`` with the shipped ruleset under the default schedule (node
budgets scaled by ``common.FIG4_NODE_SCALE``, no wall-clock limit),
then simulates each compiled kernel next to the scalar baseline.
"""

from __future__ import annotations

import time

import common
import references

# The rule load, phase assignment and kernel tracing are repeated this
# many times per run; setup_s reports their median plus the median import.
SETUP_REPEATS = 3


def _build_kernels(keys):
    from repro.kernels.conv2d import conv2d_kernel
    from repro.kernels.mat_mul import matmul_kernel
    from repro.kernels.qr import qr_kernel
    from repro.kernels.quaternion import quaternion_product_kernel

    makers = {
        "2dconv-3x3-2x2": lambda: conv2d_kernel(3, 3, 2, 2, 4),
        "matmul-2x2x2": lambda: matmul_kernel(2, 2, 2, 4),
        "qprod": lambda: quaternion_product_kernel(4),
        "qr-3x3": lambda: qr_kernel(3, 4),
    }
    return {key: makers[key]() for key in keys}


def setup(rec, layers, size):
    """Load rules, assign phases, trace kernels; returns the compiler."""
    from repro.core.framework import GeneratedCompiler
    from repro.core.pregen import load_pregenerated_rules
    from repro.isa.fusion_g3 import fusion_g3_spec
    from repro.phases.assign import assign_phases, default_params
    from repro.phases.cost import CostModel

    spec = fusion_g3_spec()
    times = {"core.load_rules_s": [], "phases.assign_s": [],
             "compiler.frontend_s": [], "setup": []}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with rec.span("core.load_rules"):
            rules = load_pregenerated_rules()
        t1 = time.perf_counter()
        with rec.span("phases.assign"):
            cost_model = CostModel(spec)
            ruleset = assign_phases(cost_model, rules, default_params(spec))
        t2 = time.perf_counter()
        with rec.span("compiler.frontend"):
            kernels = _build_kernels(size["kernels"])
        t3 = time.perf_counter()
        times["core.load_rules_s"].append(t1 - t0)
        times["phases.assign_s"].append(t2 - t1)
        times["compiler.frontend_s"].append(t3 - t2)
        times["setup"].append(t3 - t0)
    for name in ("core.load_rules_s", "phases.assign_s", "compiler.frontend_s"):
        layers[name] = common.median(times[name])
    compiler = GeneratedCompiler(
        spec=spec, cost_model=cost_model, ruleset=ruleset,
        options=common.fig4_options(),
    )
    return common.median(times["setup"]), (compiler, kernels)


def sweep(state, seed, rec, outcome, size):
    """Compile and simulate every kernel once; returns per-sweep metrics."""
    from repro.baselines.scalar import compile_scalar

    compiler, kernels = state
    spec = compiler.spec
    layers = references.compile_layers()
    runs = []
    t_sweep = time.perf_counter()
    cpu_sweep = time.process_time()
    for key, instance in kernels.items():
        outcome.attempted += 1
        program = instance.program
        inputs = common.kernel_inputs(program, seed, key)
        try:
            with rec.span(f"compile_kernel.{key}"):
                t0 = time.perf_counter()
                compiled = compiler.compile_kernel(instance)
                wall = time.perf_counter() - t0
            with rec.span(f"machine.run.{key}"):
                result = common.simulate(
                    spec, compiled.machine_program, program, inputs
                )
            with rec.span(f"baselines.scalar.{key}"):
                scalar = common.simulate(
                    spec, compile_scalar(program, spec), program, inputs
                )
        except Exception as exc:  # counted, reported, and the sweep goes on
            outcome.fail(f"{key}: {type(exc).__name__}: {exc}")
            continue
        runs.append((key, program, inputs, compiled, result, scalar))
        references.add_compile_layers(layers, compiled.report, wall)
    layers["obs.sweep_wall_s"] = time.perf_counter() - t_sweep
    sweep_s = time.process_time() - cpu_sweep

    for key, program, inputs, compiled, result, scalar in runs:
        for got in (result, scalar):
            outcome.problems += references.fig4_problems(
                key, common.output_of(got, program), inputs)
        report = compiled.report
        outcome.check(report.final_cost <= report.initial_cost,
                      f"{key}: final cost above initial cost")
        layers[f"machine.cycles.{key}"] = result.cycles
        layers[f"baselines.scalar_cycles.{key}"] = scalar.cycles
        layers[f"machine.instrs.{key}"] = len(compiled.machine_program.instrs)

    layers["machine.lane_utilization.fusion-g3"] = common.lane_utilization(
        r for *_, r, _s in runs)
    e2e = {
        "sweep_s": sweep_s,
        "speedup_vs_scalar": common.geomean(
            s.cycles / r.cycles for *_, r, s in runs) if runs else 0.0,
        "code_instrs": sum(
            len(c.machine_program.instrs) for *_, c, _r, _s in runs),
        "lane_utilization": layers["machine.lane_utilization.fusion-g3"],
    }
    return e2e, layers

