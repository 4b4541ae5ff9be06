"""Pieces every workload shares: kernels, options, inputs, simulation,
statistics and the span recorder of traced runs.

Inputs are generated here from the workload seed, never by
``KernelInstance.make_inputs``: that function seeds from
``hash(self.key)``, which Python salts per process, so the same seed
would give different inputs in every run (see README).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
import zlib
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

#: One kernel per Fig. 4 family (2DConv, MatMul, QP, QrD).
FIG4_KERNELS = ("2dconv-3x3-2x2", "matmul-2x2x2", "qprod", "qr-3x3")

#: A wall-clock limit no phase reaches: every budget below is a count
#: of iterations, e-nodes or matches, so a compile is a function of its
#: inputs and not of machine load.
NO_TIME_LIMIT = 1e6

#: Share of the default node budgets the ``fig4-compile`` workload keeps.
#: At 1.0 (default options) the four kernels take 24-53 s each, more
#: than one run may take; 0.2 keeps the pruning loop, two to three rounds
#: per kernel and extraction-dominated qr-3x3 (see README).
FIG4_NODE_SCALE = 0.2

#: Elementwise kernels compiled on each onboarded ISA and served by the
#: compile service: name stem -> the lane computation (traced by the
#: front end, and evaluated on numpy arrays as the reference).
ELEMENTWISE = {
    "mac": lambda a, b, c: a * b + c,
    "submul": lambda a, b, c: (a - b) * c,
}
#: Lengths: 16 and 24 are lane multiples of widths 4 and 8; 11 and 13
#: leave a tail at both widths.
ONBOARD_SHAPES = (("mac", 16), ("mac", 11), ("submul", 24), ("submul", 13))


def fig4_options(scale: float = FIG4_NODE_SCALE):
    """Default ``CompileOptions`` with node budgets scaled, no time limit."""
    from repro.compiler.compile import CompileOptions

    def scaled(limits):
        return replace(limits, max_nodes=int(limits.max_nodes * scale),
                       time_limit=NO_TIME_LIMIT)

    default = CompileOptions()
    return replace(
        default,
        expansion_limits=scaled(default.expansion_limits),
        compilation_limits=scaled(default.compilation_limits),
        optimization_limits=scaled(default.optimization_limits),
    )


def onboarding_options():
    """The one-round iteration/node budgets of ``test_perf_isa.py``,
    with the wall-clock limit lifted."""
    from repro.compiler.compile import CompileOptions
    from repro.egraph.runner import RunnerLimits

    return CompileOptions(
        max_rounds=1,
        expansion_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=NO_TIME_LIMIT
        ),
        compilation_limits=RunnerLimits(
            max_iterations=4, max_nodes=4_000, time_limit=NO_TIME_LIMIT
        ),
        optimization_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=NO_TIME_LIMIT
        ),
    )


def elementwise_kernel(stem: str, length: int, width: int, name=None):
    """Trace ``out[i] = f(a[i], b[i], c[i])`` for ``i < length``."""
    from repro.compiler.frontend import trace_kernel

    fn = ELEMENTWISE[stem]

    def kernel(a, b, c):
        return [fn(a[i], b[i], c[i]) for i in range(length)]

    arrays = {"a": length, "b": length, "c": length}
    return trace_kernel(name or f"ew-{stem}-{length}", kernel, arrays, width)


def onboarding_kernels(width: int, shapes=ONBOARD_SHAPES):
    """``(name, KernelProgram)`` for each onboarding shape at ``width``."""
    return [
        (f"ew-{stem}-{length}", elementwise_kernel(stem, length, width))
        for stem, length in shapes
    ]


def kernel_inputs(program, seed: int, salt: str) -> dict:
    """Seeded inputs for every input array of ``program``.

    ``salt`` (the kernel's name) gives each kernel its own stream; the
    CRC is the same in every process, unlike ``hash``.
    """
    rng = np.random.default_rng([seed, zlib.crc32(salt.encode())])
    return {
        name: rng.uniform(-4.0, 4.0, size=length).round(3).tolist()
        for name, length in sorted(program.arrays.items())
    }


def simulate(spec, machine_program, program, inputs: dict, extra=None):
    """Schedule and run ``machine_program`` on ``program``'s arrays.

    Every system gets the same instruction scheduler, as in the
    evaluation harness; ``extra`` names scratch arrays a library
    baseline needs.
    """
    from repro.machine.schedule import schedule_program
    from repro.machine.simulator import Machine

    machine = Machine(spec)
    width = spec.vector_width
    memory = {}
    for name, length in program.arrays.items():
        data = [float(x) for x in inputs[name]]
        memory[name] = data + [0.0] * (-len(data) % width)
    memory[program.output] = [0.0] * program.padded_len
    for name, size in (extra or {}).items():
        memory[name] = [0.0] * size
    return machine.run(schedule_program(machine_program, machine), memory)


def output_of(result, program) -> np.ndarray:
    """The unpadded output array of a simulated run."""
    return np.asarray(
        result.memory[program.output][: program.output_len], dtype=float
    )


def lane_utilization(results) -> float:
    """Active over issued vector lanes across simulated runs."""
    results = list(results)
    issued = sum(r.lanes_issued for r in results)
    return sum(r.lanes_active for r in results) / issued if issued else 0.0


def time_limit_stops(report) -> int:
    """Phases of one compile that ended on their wall-clock limit."""
    from repro.egraph.runner import StopReason

    runs = [r.expansion for r in report.rounds]
    runs += [r.compilation for r in report.rounds]
    runs.append(report.optimization)
    return sum(
        1 for run in runs
        if run is not None and run.stop_reason is StopReason.TIME_LIMIT
    )


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), by linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Recorder:
    """Spans the benchmark places around its own calls into the program.

    Each span is ``(name, start, end, parent index)``; spans stay in
    memory and :meth:`dump` writes them out when the workload ends.
    Disabled recorders (untraced runs) keep nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed calls as one span named ``name``."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent}) + "\n")


class Outcome:
    """Operations attempted and failed, and every failed output check.

    A failed operation raised; a problem is an output or property
    check that did not hold (which makes the run incorrect).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.problems: list = []

    def fail(self, message: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as a problem unless ``ok``."""
        if not ok:
            self.problems.append(message)
