"""Run one workload in this interpreter; print its result as JSON.

``run.py`` starts this script in a fresh interpreter per workload, with
every ``REPRO_*`` variable removed from the environment and
``PYTHONPATH`` pointing at the checkout's ``src``.  The last line of
standard output is the result: end-to-end values (medians over the
run's sweeps), per-layer values, operation counts and every check
that failed.
"""

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

# The program's modules the in-process workloads call; importing them
# is the first part of set-up.
_PROGRAM_MODULES = (
    "repro.baselines.scalar",
    "repro.core.framework",
    "repro.core.pregen",
    "repro.machine.schedule",
    "repro.ruler.synthesize",
)
_T_START = time.perf_counter()
for _name in _PROGRAM_MODULES:
    importlib.import_module(_name)
_IMPORT_S = time.perf_counter() - _T_START

import common  # noqa: E402
import fig4  # noqa: E402
import onboard  # noqa: E402
import serve  # noqa: E402

#: Per-workload sizes: ``full`` is what a benchmark run measures,
#: ``smoke`` the smallest size that still exercises every layer.
SIZES = {
    "fig4-compile": {
        "full": {"kernels": common.FIG4_KERNELS},
        "smoke": {"kernels": ("matmul-2x2x2", "qprod")},
    },
    "isa-onboard": {
        "full": {"max_term_size": 4, "seed_rules": None,
                 "shapes": common.ONBOARD_SHAPES},
        "smoke": {"max_term_size": 3, "seed_rules": 40,
                  "shapes": common.ONBOARD_SHAPES[:2]},
    },
    "serve-mixed": {
        "full": {"shapes": serve.SERVE_SHAPES, "requests": 2000},
        "smoke": {"shapes": serve.SERVE_SHAPES[:1], "requests": 40},
    },
}


def _import_s() -> float:
    """Median import time of the program: this interpreter's and two more.

    An import happens once per process, so the repeats are made in
    fresh interpreters.
    """
    import subprocess

    code = ("import time; t = time.perf_counter()\n"
            f"import {', '.join(_PROGRAM_MODULES)}\n"
            "print(time.perf_counter() - t)")
    samples = [_IMPORT_S]
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             stdout=subprocess.PIPE, text=True, timeout=60)
        samples.append(float(out.stdout))
    return common.median(samples)


def _in_process(module, args, size, rec, outcome):
    """Set up once, then sweep until the run's seconds are spent."""
    layers: dict = {}
    setup_s, state = module.setup(rec, layers, size)
    setup_s += _import_s()
    sweeps = []
    t_run = time.perf_counter()
    while True:
        e2e, sweep_layers = module.sweep(state, args.seed, rec, outcome, size)
        if e2e is None:
            break
        sweeps.append((e2e, sweep_layers))
        if time.perf_counter() - t_run >= args.seconds:
            break
    return [setup_s], sweeps, layers, common.peak_rss_mb()


def _served(args, size, rec, outcome):
    """Sweeps of ``serve-mixed``, each on a freshly started server."""
    import resource

    setups, sweeps = [], []
    workdir = Path(args.workdir) / f"serve-{args.seed}"
    t_run = time.perf_counter()
    while True:
        with rec.span("service.sweep"):
            setup_s, e2e, layers = serve.run_sweep(
                workdir, args.seed, bool(args.trace), outcome, size)
        setups.append(setup_s)
        sweeps.append((e2e, layers))
        if time.perf_counter() - t_run >= args.seconds:
            break
    # The only children are the servers: this is the largest one's peak.
    return setups, sweeps, {}, common.peak_rss_mb(resource.RUSAGE_CHILDREN)


def _medians(dicts) -> dict:
    keys = sorted({k for d in dicts for k in d})
    return {k: common.median([d[k] for d in dicts if k in d]) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    size = SIZES[args.workload][args.size]
    rec = common.Recorder(bool(args.trace))
    outcome = common.Outcome()
    if args.workload == "serve-mixed":
        setups, sweeps, layers, rss = _served(args, size, rec, outcome)
    else:
        module = fig4 if args.workload == "fig4-compile" else onboard
        setups, sweeps, layers, rss = _in_process(
            module, args, size, rec, outcome)

    e2e = _medians([e for e, _ in sweeps])
    e2e["setup_s"] = common.median(setups)
    e2e["peak_rss_mb"] = rss
    layers.update(_medians([lay for _, lay in sweeps]))
    if args.trace:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        rec.dump(workdir / f"spans-{args.workload}-{args.seed}.jsonl")
    for message in outcome.errors + outcome.problems:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "sweeps": len(sweeps),
        "e2e": e2e,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
