"""The repository's benchmark: Fig. 4 compiles, ISA onboarding and the
compile service, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-compile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Each run starts the workload in a fresh interpreter (``worker.py``)
with every ``REPRO_*`` variable removed, so no cache, schedule or
legacy switch left in the environment changes what is measured.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run runs the workload twice, untraced and then traced;
``obs.trace_overhead_s`` is the difference of their sweep times.

``--smoke`` runs every workload at its smallest size, traced and
untraced, and checks that each report carries every metric
``BENCHMARK.json`` names, with its unit, and the operation counts.
See ``perfbench/README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKER = HERE / "worker.py"
# A run must end within 180 s; a traced run starts two workers.
_WORKER_TIMEOUT = 85.0
_SMOKE_TIMEOUT = 170.0
WORKDIR = ".perfbench_work"


def _environment(root: Path) -> dict:
    """The parent environment without ``REPRO_*``, with ``src`` on the path."""
    found = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if found:
        print("perfbench: unset for the workload: " + ", ".join(found),
              file=sys.stderr)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(root / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(root, workload, seed, seconds, trace, size="full",
               timeout=_WORKER_TIMEOUT) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    command = [
        sys.executable, str(WORKER), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size,
        "--workdir", str(root / WORKDIR),
    ]
    # Its own session, so a timeout also ends the server it may run.
    proc = subprocess.Popen(
        command, cwd=root, env=_environment(root), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(root, workload, seed, seconds, trace, size="full",
            timeout=_WORKER_TIMEOUT) -> dict:
    """One benchmark run: the result object ``run.py`` prints."""
    base = run_worker(root, workload, seed, seconds, 0, size, timeout)
    runs = [base]
    if trace:
        traced = run_worker(root, workload, seed, seconds, 1, size, timeout)
        runs.append(traced)
        # Per-layer metrics of layers this workload does not use read 0.
        values = dict(traced["layers"])
        values["obs.trace_overhead_s"] = (
            traced["e2e"]["sweep_s"] - base["e2e"]["sweep_s"])
        table = metrics.PER_LAYER
    else:
        values = base["e2e"]
        table = metrics.END_TO_END
        missing = sorted(set(table) - set(values))
        if missing:
            raise RuntimeError(f"{workload}: no value for {missing}")
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in table.items()
        },
    }


def _report_problems(spec: dict, result: dict, trace: int) -> list:
    """How ``result`` falls short of what ``BENCHMARK.json`` promises."""
    problems = []
    group = "per_layer" if trace else "end_to_end"
    for entry in spec[group]:
        got = result["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"missing {entry['name']}")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{entry['name']} in {got['unit']}, "
                            f"not {entry['unit']}")
        elif group == "end_to_end" and not got["value"] > 0:
            problems.append(f"{entry['name']} is {got['value']}")
    if set(result["metrics"]) != {e["name"] for e in spec[group]}:
        problems.append("reported names differ from BENCHMARK.json")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"no whole-number {key}")
    if result.get("attempted", 0) < 1:
        problems.append("no operation attempted")
    if result.get("failed") or not result.get("correct"):
        problems.append("failed operations or output checks")
    return problems


def smoke(root: Path) -> int:
    """Every workload at its smallest size, untraced and traced."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = measure(root, workload, 1, 0, trace, "smoke",
                             _SMOKE_TIMEOUT)
            problems = _report_problems(spec, result, trace)
            print(f"{workload} trace={trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
            status |= bool(problems)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of record (see perfbench/README.md).")
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at its smallest size and "
                        "check the reports against BENCHMARK.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
