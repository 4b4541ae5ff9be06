"""Names and units of every metric the benchmark reports.

End-to-end metrics are reported by every workload and measure work
each one really does; per-layer metrics that a workload does not
exercise read 0 on it (for instance ``ruler.*`` on ``fig4-compile``).
``BENCHMARK.json`` must list exactly these names with these units;
``run.py --smoke`` checks that it does.
"""

import common
import onboard

WORKLOADS = ("fig4-compile", "isa-onboard", "serve-mixed")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "speedup_vs_scalar": "x",
    "code_instrs": "count",
    "lane_utilization": "ratio",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict:
    units = {
        "core.load_rules_s": "s",
        "phases.assign_s": "s",
        "compiler.frontend_s": "s",
        "compiler.compile_s": "s",
        "compiler.saturate_s": "s",
        "compiler.optimize_s": "s",
        "compiler.extract_s": "s",
        "compiler.validate_s": "s",
        "compiler.lower_s": "s",
        "compiler.unattributed_s": "s",
        "compiler.rounds": "count",
        "egraph.expansion_s": "s",
        "egraph.compilation_s": "s",
        "egraph.optimization_s": "s",
        "egraph.match_s": "s",
        "egraph.rebuild_s": "s",
        "egraph.index_s": "s",
        "egraph.extract_round_s": "s",
        "egraph.node_visits": "count",
        "egraph.iterations": "count",
        "egraph.peak_nodes": "count",
        "egraph.time_limit_stops": "count",
        "ruler.offline_s": "s",
        "ruler.enumerate_s": "s",
        "ruler.candidates_s": "s",
        "ruler.verify_s": "s",
        "ruler.cost_prune_s": "s",
        "ruler.minimize_s": "s",
        "ruler.generalize_s": "s",
        "ruler.enumerated": "count",
        "ruler.candidates": "count",
        "ruler.verified": "count",
        "ruler.rules_out": "count",
        "service.bootstrap_s": "s",
        "service.client_p50_ms": "ms",
        "service.client_p99_ms": "ms",
        "service.rps": "1/s",
        "service.hit_ms_p50": "ms",
        "service.cold_ms_p50": "ms",
        "service.queue_wait_ms_p50": "ms",
        "service.requests": "count",
        "service.cache_hits": "count",
        "service.dedup_hits": "count",
        "service.compiles": "count",
        "service.batches": "count",
        "obs.trace_overhead_s": "s",
        "obs.sweep_wall_s": "s",
        "machine.lane_utilization.fusion-g3": "ratio",
    }
    for key in common.FIG4_KERNELS:
        units[f"machine.cycles.{key}"] = "cycles"
        units[f"baselines.scalar_cycles.{key}"] = "cycles"
        units[f"machine.instrs.{key}"] = "count"
    for name in onboard.layer_names():
        if name.startswith("machine.lane_utilization."):
            units[name] = "ratio"
        elif "cycles." in name:
            units[name] = "cycles"
        elif "_s." in name:
            units[name] = "s"
        else:
            units[name] = "count"
    return units


PER_LAYER = _per_layer()
