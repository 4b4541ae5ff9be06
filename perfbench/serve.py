"""Workload ``serve-mixed``: a ``repro-serve`` process under a closed loop.

Each sweep starts a server on a fresh registry, waits until it has
answered one warm-up compile per ISA (set-up), then drives a seeded
request stream through two client connections, each sending its next
request only after the previous answer.  Every distinct request key
appears at least once, so each sweep compiles exactly the same keys;
the remaining requests repeat keys with Zipf popularity and are
answered from the result cache, or deduped when they arrive while
their key is compiling.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import common
import references

#: ISA name on the wire -> vector width of its kernels.
ISAS = {"fusion-g3": 4, "masked-w8": 8}
#: Elementwise shapes served per ISA; none equals a warm-up kernel.
SERVE_SHAPES = (("mac", 6), ("mac", 13), ("mac", 20), ("submul", 9),
                ("submul", 17), ("submul", 24))
#: Popularity exponent of the repeats.
ZIPF_S = 1.1
CLIENTS = 2
#: The CPUs this process may use, read once: the server gets the last
#: and the load process the first, so neither preempts the other (with
#: one CPU they share it).
_CPUS = sorted(os.sched_getaffinity(0))
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 30.0
_HOST = Path(__file__).resolve().parent / "serve_host.py"


def request_pool(shapes):
    """Every distinct request: ``(isa, name, program)``."""
    return [
        (isa, name, program)
        for isa, width in ISAS.items()
        for name, program in common.onboarding_kernels(width, shapes)
    ]


def request_stream(n_keys: int, n_requests: int, seed: int) -> list:
    """Indices into the pool: each key once, the rest Zipf repeats."""
    rng = np.random.default_rng([seed, 0x73657276])
    rank = rng.permutation(n_keys)
    weights = 1.0 / np.arange(1, n_keys + 1) ** ZIPF_S
    repeats = rng.choice(rank, size=n_requests - n_keys,
                         p=weights / weights.sum())
    stream = np.concatenate([np.arange(n_keys), repeats])
    rng.shuffle(stream)
    return [int(i) for i in stream]


class _Server:
    """One ``repro-serve`` process on its own registry directory."""

    def __init__(self, workdir: Path, trace_path: "Path | None",
                 server_cpus: set):
        self.registry = workdir / "registry"
        self.cpu_file = workdir / "server-cpu.txt"
        env = dict(os.environ)
        if trace_path is not None:
            env["REPRO_TRACE"] = str(trace_path)
        self.proc = subprocess.Popen(
            [sys.executable, str(_HOST), str(self.cpu_file), "--port", "0",
             "--registry", str(self.registry)],
            stdout=subprocess.PIPE, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpus),
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(left, 0))
            if not ready:
                raise RuntimeError("repro-serve did not announce its port")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("repro-serve exited before listening")
            line += chunk
        # "repro-serve: listening on HOST:PORT (registry ...)"
        return int(line.split()[3].rsplit(b":", 1)[1])

    def cpu(self) -> float:
        """CPU seconds the server process has used so far."""
        def reports():
            if not self.cpu_file.exists():
                return []
            return self.cpu_file.read_text().split()

        before = len(reports())
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + _START_TIMEOUT
        while len(reports()) == before:
            if time.monotonic() > deadline:
                raise RuntimeError("repro-serve did not report its CPU time")
            time.sleep(0.002)
        return float(reports()[-1])

    def stop(self, client) -> None:
        """Ask the server to drain and exit; kill it if it does not."""
        try:
            if client is not None:
                client.shutdown()
            self.proc.wait(timeout=_STOP_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def _drive(port, stream, pool, options, outcome):
    """Send ``stream`` through ``CLIENTS`` closed-loop connections."""
    from repro.service.client import CompileClient
    from repro.service.protocol import kernel_to_wire

    wire = [(isa, kernel_to_wire(program)) for isa, _name, program in pool]
    answers = [None] * len(stream)
    lock = threading.Lock()
    position = [0]

    def client_loop():
        with CompileClient(port=port) as client:
            while True:
                with lock:
                    i = position[0]
                    position[0] += 1
                if i >= len(stream):
                    return
                isa, kernel = wire[stream[i]]
                t0 = time.perf_counter()
                try:
                    response = client.compile(kernel, isa=isa,
                                              options=options)
                except Exception as exc:  # noqa: BLE001 - counted below
                    answers[i] = (time.perf_counter() - t0, exc)
                else:
                    answers[i] = (time.perf_counter() - t0, response)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    for i, (latency, answer) in enumerate(answers):
        outcome.attempted += 1
        if isinstance(answer, Exception):
            outcome.fail(f"request {i}: {type(answer).__name__}: {answer}")
    return wall, answers


def _check_served(pool, stream, answers, seed, outcome):
    """Check every served program against its own lowering and numpy.

    Returns ``(instruction count, simulated run, scalar run)`` per key.
    """
    from repro.baselines.scalar import compile_scalar
    from repro.compiler.lowering import lower_program
    from repro.isa.families import spec_by_name
    from repro.lang.parser import parse

    payloads = {}
    for index, (_latency, answer) in zip(stream, answers):
        if isinstance(answer, Exception):
            continue
        payload = answer["result"]
        first = payloads.setdefault(index, payload)
        outcome.check(payload == first,
                      f"{pool[index][1]}@{pool[index][0]}: two answers for "
                      "one key differ")
    runs = []
    for index, payload in sorted(payloads.items()):
        isa, name, program = pool[index]
        label = f"{isa}.{name}"
        spec = spec_by_name(isa)
        machine = lower_program(
            parse(payload["compiled_term"]), spec, program.arrays,
            output=program.output, output_len=program.output_len)
        outcome.check([str(i) for i in machine.instrs]
                      == payload["instructions"],
                      f"{label}: served instructions are not the lowering "
                      "of the served term")
        outcome.check(payload["final_cost"] <= payload["initial_cost"],
                      f"{label}: final cost above initial cost")
        inputs = common.kernel_inputs(program, seed, label)
        result = common.simulate(spec, machine, program, inputs)
        scalar = common.simulate(spec, compile_scalar(program, spec),
                                 program, inputs)
        outcome.problems += references.elementwise_problems(
            name.split("-")[1], common.output_of(result, program), inputs,
            label)
        runs.append((len(payload["instructions"]), result, scalar))
    return runs


def _server_layers(trace_path: Path) -> dict:
    """Medians of the server's own ``service.request`` records."""
    hits, cold, queue = [], [], []
    with open(trace_path) as handle:
        for line in handle:
            event = json.loads(line)
            if event["name"] != "service.request":
                continue
            attrs = event.get("attrs", {})
            if attrs.get("kernel", "").startswith("warmup"):
                continue
            if attrs.get("cache_hit"):
                hits.append(event["dur"] * 1e3)
            elif not attrs.get("deduped"):
                cold.append(event["dur"] * 1e3)
                queue.append(attrs.get("queue_s", 0.0) * 1e3)
    return {
        "service.hit_ms_p50": common.median(hits) if hits else 0.0,
        "service.cold_ms_p50": common.median(cold) if cold else 0.0,
        "service.queue_wait_ms_p50": common.median(queue) if queue else 0.0,
    }


def run_sweep(workdir: Path, seed: int, traced: bool, outcome, size):
    """Start a server, drive one stream, stop; returns (setup_s, e2e, layers)."""
    from repro.service.client import CompileClient

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_path = workdir / "server-trace.jsonl" if traced else None
    options = common.onboarding_options()
    pool = request_pool(size["shapes"])
    stream = request_stream(len(pool), size["requests"], seed)
    warmups = [
        (isa, common.elementwise_kernel("mac", width, width,
                                        name=f"warmup-{isa}"))
        for isa, width in ISAS.items()
    ]

    os.sched_setaffinity(0, _CPUS[:1])
    t_start = time.perf_counter()
    server = _Server(workdir, trace_path, set(_CPUS[-1:]))
    client = None
    try:
        t_listen = time.perf_counter()
        client = CompileClient(port=server.port)
        for isa, program in warmups:
            client.compile(program, isa=isa, options=options)
        setup_s = time.perf_counter() - t_start
        bootstrap_s = time.perf_counter() - t_listen

        cpu_before = server.cpu()
        wall, answers = _drive(server.port, stream, pool, options, outcome)
        server_cpu = server.cpu() - cpu_before
        stats = client.stats()
    finally:
        server.stop(client)
        if client is not None:
            client.close()

    outcome.check(stats["compiled"] == len(pool) + len(warmups),
                  f"service compiled {stats['compiled']} programs for "
                  f"{len(pool)} distinct keys and {len(warmups)} warm-ups")
    runs = _check_served(pool, stream, answers, seed, outcome)
    latencies = [latency for latency, _ in answers]
    layers = {
        "service.bootstrap_s": bootstrap_s,
        "service.requests": len(stream),
        "service.cache_hits": stats["cache_hits"],
        "service.dedup_hits": stats["dedup_hits"],
        "service.compiles": stats["compiled"],
        "service.batches": stats["batches"],
        "service.client_p50_ms": common.percentile(latencies, 50) * 1e3,
        "service.client_p99_ms": common.percentile(latencies, 99) * 1e3,
        "service.rps": len(stream) / wall,
    }
    if trace_path is not None:
        layers.update(_server_layers(trace_path))
    layers["obs.sweep_wall_s"] = wall
    e2e = {
        "sweep_s": server_cpu,
        "speedup_vs_scalar": common.geomean(
            s.cycles / r.cycles for _, r, s in runs) if runs else 0.0,
        "code_instrs": sum(n for n, _, _ in runs),
        "lane_utilization": common.lane_utilization(
            r for _, r, _s in runs),
    }
    shutil.rmtree(workdir, ignore_errors=True)
    return setup_s, e2e, layers
