"""Regenerate the reference figures quoted in ``perfbench/README.md``.

Not part of a benchmark run: this is the slow, default-options record
the workloads are scaled down from.  It prints one JSON document with

- ``grid``: every kernel of the default Fig. 4 grid compiled on
  fusion-g3 with default ``CompileOptions`` (compile seconds,
  extraction seconds and share, rounds, peak e-nodes, phases stopped
  by their wall-clock limit, final cost, simulated cycles);
- ``baselines``: scalar / SLP / Nature / Diospyros / Isaria cycles for
  the four ``fig4-compile`` kernels;
- ``elementwise_default``: default-options compiles of the onboarding
  elementwise kernels on ``masked-w8`` and ``avx-like-w8``, next to the
  one-round budgets the ``isa-onboard`` workload uses.

Run from the repository root, one section at a time; ``--skip`` leaves
out kernels that do not finish (see README)::

    PYTHONPATH=src python3 perfbench/reference_figures.py --sections grid --skip qr-4x4
    PYTHONPATH=src python3 perfbench/reference_figures.py --sections baselines --skip qr-3x3
    PYTHONPATH=src python3 perfbench/reference_figures.py --sections elementwise_default

Progress goes to stderr, one line per compile.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
from repro.baselines.slp import compile_slp
from repro.baselines.nature import has_nature_kernel, nature_program
from repro.baselines.scalar import compile_scalar
from repro.compiler.diospyros import DiospyrosCompiler
from repro.compiler.pipeline import (
    CompilationContext,
    baseline_kernel_pipeline,
)
from repro.core.pregen import default_compiler, family_compiler
from repro.isa.families import spec_by_name
from repro.kernels.suite import default_suite

_SEED = 0


def _compile_row(compiler, program, options=None):
    """Compile once; returns the figures row and the compiled kernel."""
    t0 = time.perf_counter()
    compiled = compiler.compile_kernel(program, options=options)
    wall = time.perf_counter() - t0
    report = compiled.report
    return {
        "compile_s": round(wall, 3),
        "extract_s": round(report.extract_time, 3),
        "extract_share": round(report.extract_time / wall, 3),
        "rounds": len(report.rounds),
        "peak_nodes": report.peak_nodes,
        "time_limit_stops": common.time_limit_stops(report),
        "final_cost": report.final_cost,
    }, compiled


def grid(skip=()) -> dict:
    """Default-options compiles of the default Fig. 4 grid."""
    compiler = default_compiler()
    spec = compiler.spec
    rows = {}
    for instance in default_suite(spec=spec):
        if instance.key in skip:
            continue
        row, compiled = _compile_row(compiler, instance)
        inputs = common.kernel_inputs(instance.program, _SEED, instance.key)
        row["cycles"] = common.simulate(
            spec, compiled.machine_program, instance.program, inputs
        ).cycles
        rows[instance.key] = row
        print(instance.key, row, file=sys.stderr, flush=True)
    return rows


def baselines(skip=()) -> dict:
    """Scalar / SLP / Nature / Diospyros cycles of the Fig. 4 kernels.

    Isaria's own cycles come from the ``fig4-compile`` workload and
    from :func:`grid`.
    """
    spec = default_compiler().spec
    diospyros = DiospyrosCompiler(spec)
    suite = {inst.key: inst for inst in default_suite(spec=spec)}
    rows = {}
    for key in common.FIG4_KERNELS:
        if key in skip:
            continue
        instance = suite[key]
        program = instance.program
        inputs = common.kernel_inputs(program, _SEED, key)
        cycles = {
            "scalar": common.simulate(
                spec, compile_scalar(program, spec), program, inputs
            ).cycles,
            "slp": common.simulate(
                spec, compile_slp(program, spec), program, inputs
            ).cycles,
        }
        if has_nature_kernel(instance, spec):
            nature, extra = nature_program(instance, spec)
            cycles["nature"] = common.simulate(
                spec, nature, program, inputs, extra
            ).cycles
        ctx = CompilationContext(
            cost_model=diospyros.cost_model, program=program, spec=spec
        )
        t0 = time.perf_counter()
        baseline_kernel_pipeline(diospyros.compile).run(ctx)
        cycles["diospyros_compile_s"] = round(time.perf_counter() - t0, 3)
        cycles["diospyros"] = common.simulate(
            spec, ctx.machine, program, inputs
        ).cycles
        rows[key] = cycles
        print(key, cycles, file=sys.stderr, flush=True)
    return rows


def elementwise_default(skip=()) -> dict:
    """Onboarding kernels at default options and at one-round budgets."""
    rows = {}
    for isa in ("masked-w8", "avx-like-w8"):
        isa_spec = spec_by_name(isa)
        family = family_compiler(isa_spec)
        for name, program in common.onboarding_kernels(isa_spec.vector_width):
            if name in skip:
                continue
            row = {}
            for label, options in (("default", None),
                                   ("one_round", common.onboarding_options())):
                row[label], compiled = _compile_row(family, program, options)
                row[label]["scalar_instrs"] = sum(
                    i.opcode.startswith("s.")
                    for i in compiled.machine_program.instrs)
            rows[f"{isa}.{name}"] = row
            print(isa, name, row, file=sys.stderr, flush=True)
    return rows


SECTIONS = {
    "grid": grid,
    "baselines": baselines,
    "elementwise_default": elementwise_default,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sections", nargs="+", choices=sorted(SECTIONS),
                        default=list(SECTIONS))
    parser.add_argument("--skip", nargs="+", default=(),
                        help="kernels to leave out")
    args = parser.parse_args(argv)
    doc = {name: SECTIONS[name](args.skip) for name in args.sections}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
