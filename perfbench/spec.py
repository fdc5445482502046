"""The benchmark's definition: workloads, metrics and the layer map.

BENCHMARK.json at the repository root is generated from this file
(`python3 perfbench/run.py --write-benchmark-json`).  BENCHMARK.json admits
only a fixed set of keys, so the module list, each end-to-end metric's
meaning per workload and the layer -> end-to-end map live here and are
printed by `python3 perfbench/run.py --describe`.
"""

RUN_SECONDS = 20

# Untraced runs of these workloads run perfbench this many times, each for
# an equal share of the budget, and report the mean of the processes'
# end-to-end metrics.  The redirector's throughput depends on the process's
# address-space layout: one process read run_s within +-3% run after run
# with randomization off, but +-10% between processes with it on.  Each
# process draws its own layout, so the mean averages over layouts.
PROCESSES = {"redirect-steady": 6, "redirect-churn": 6}

# The repository's modules (src/<name>); the layers of every per-layer
# metric and of the traced run's self times.
MODULES = [
    "core", "topology", "workload", "cache", "cdn", "model", "placement",
    "sim", "fault", "net", "redirectd", "obs",
]

WORKLOADS = [
    ("paper-e2e",
     "Paper Section 5.1 run (N=50, M=200, L=1000, 5% storage, LRU): hybrid "
     "placement, then the sequential and shard event engines; the request "
     "loop dominates"),
    ("plan-large",
     "Twice the paper's fleet (100 servers, 200 sites): hybrid and "
     "replication placement plus the flow report; placement and model do "
     "nearly all the work, no request loop"),
    ("redirect-steady",
     "Model-mode redirectd on loopback, no faults: open loop at 3000 req/s "
     "for latency, then a pipelined closed loop; net, redirectd and cdn "
     "ranking do the work"),
    ("redirect-churn",
     "redirect-steady's closed loop plus wall-clock server and origin "
     "outages and a placement RELOAD every 200 ms alternating hybrid and "
     "replication plans"),
]

# Every end-to-end metric is measured on every workload; "meaning" says
# what it is on each.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "meaning": "median set-up before the first measured operation: the "
                "scenario build, sampled 8 times per measured pass across the "
                "window (planner); scenario, set-up placement(s) and daemon "
                "bind, repeated at least 3 times and for 1.5 s before each "
                "perfbench process's window, mean of the processes' medians "
                "(redirect-*)"},
    {"name": "plan_s", "unit": "s", "better": "lower", "bound": 0.25,
     "meaning": "placement wall time, median: hybrid (paper-e2e); hybrid + "
                "replication (plan-large); the set-up placement(s) "
                "(redirect-*)"},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25,
     "meaning": "median wall time of one measured pass: scenario -> hybrid "
                "-> sequential report -> shard report (paper-e2e); scenario "
                "-> hybrid + replication -> flow report (plan-large); one "
                "closed-loop block of 65536 redirects (redirect-*, so "
                "65536 / run_s is the closed-loop redirects/s)"},
    {"name": "mean_latency_ms", "unit": "ms", "better": "lower", "bound": 0.05,
     "meaning": "mean response time of the hybrid plan under the paper's "
                "2 ms/hop model (Figure 3): sequential simulation "
                "(paper-e2e), flow report (plan-large), over the daemon's "
                "answers (redirect-*); deterministic per seed on the "
                "planner workloads"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15,
     "meaning": "peak resident memory of the benchmark process"},
]

# name, unit, better, the end-to-end metric it should move, where it is
# large / small.  Metrics a workload does not exercise read 0 there.
PER_LAYER = [
    ("core.scenario_s", "s", "lower", "setup_s", "largest in plan-large"),
    ("placement.hybrid_s", "s", "lower", "plan_s",
     "large in plan-large, small in paper-e2e, absent in redirect-*"),
    ("placement.replication_s", "s", "lower", "plan_s", "plan-large only"),
    ("placement.hybrid.candidates_evaluated", "count", "lower", "plan_s",
     "planner workloads"),
    ("placement.hybrid.heap_reevaluations", "count", "lower", "plan_s",
     "planner workloads"),
    ("placement.hybrid.heap_repairs", "count", "lower", "plan_s",
     "planner workloads"),
    ("placement.hybrid.stale_discarded", "count", "lower", "plan_s",
     "planner workloads"),
    ("placement.hybrid.evals_per_s", "1/s", "higher", "plan_s",
     "planner workloads"),
    ("placement.candidate_benefit_ns", "ns", "lower", "plan_s",
     "planner workloads; every candidate of the initial state"),
    ("placement.hybrid.replicas", "count", "higher", "mean_latency_ms",
     "exact canary per seed"),
    ("placement.predicted_cost_per_request", "hops", "lower",
     "mean_latency_ms", "exact canary per seed"),
    ("model.curve_clamped", "count", "lower", "mean_latency_ms",
     "planner workloads"),
    ("workload.batch_gen_ns", "ns", "lower", "run_s",
     "paper-e2e (sim requests/s); absent in plan-large"),
    ("cache.access_ns", "ns", "lower", "run_s", "paper-e2e"),
    ("cache.hit_ratio", "ratio", "higher", "mean_latency_ms",
     "paper-e2e, exact canary per seed"),
    ("cdn.nearest_ns", "ns", "lower", "run_s", "paper-e2e"),
    ("cdn.rank_ns", "ns", "lower", "run_s",
     "redirect-* (redirect p50 and redirects/s)"),
    ("sim.simulate_s", "s", "lower", "run_s", "paper-e2e"),
    ("sim.loop_other_ns", "ns", "lower", "run_s",
     "paper-e2e: simulate ns/request minus the three replayed stages"),
    ("sim.requests_per_s", "1/s", "higher", "run_s",
     "paper-e2e, sequential event engine"),
    ("sim.par.requests_per_s", "1/s", "higher", "run_s",
     "paper-e2e, shard engine"),
    ("sim.par.speedup", "ratio", "higher", "run_s", "paper-e2e"),
    ("sim.par.shard_imbalance", "ratio", "lower", "run_s",
     "paper-e2e: max/mean shard span"),
    ("sim.par.barrier_s", "s", "lower", "run_s",
     "paper-e2e: first to last shard finishing"),
    ("sim.par.merge_s", "s", "lower", "run_s", "paper-e2e"),
    ("sim.flow_s", "s", "lower", "run_s", "plan-large, small"),
    ("sim.local_ratio", "ratio", "higher", "mean_latency_ms",
     "paper-e2e, exact canary per seed"),
    ("sim.mean_cost_hops", "hops", "lower", "mean_latency_ms",
     "paper-e2e, exact canary per seed"),
    ("redirectd.parse_ns", "ns", "lower", "run_s", "redirect-*"),
    ("redirectd.format_ns", "ns", "lower", "run_s", "redirect-*"),
    ("redirectd.answer_mean_us", "us", "lower", "run_s",
     "redirect-*: server side of each answer (redirect/answer_latency)"),
    ("redirectd.redirects_per_s", "1/s", "higher", "run_s",
     "redirect-*, closed loop"),
    ("redirectd.fail_frac", "ratio", "lower", "run_s",
     "redirect-*: transport failures, ERR, UNAVAILABLE and unanswered "
     "requests over requests attempted"),
    ("redirectd.replica", "count", "higher", "mean_latency_ms", "redirect-*"),
    ("redirectd.origin", "count", "lower", "mean_latency_ms", "redirect-*"),
    ("redirectd.no_live_copy", "count", "lower", "run_s", "redirect-*"),
    ("redirectd.shed", "count", "lower", "run_s", "redirect-*"),
    ("redirectd.deadline", "count", "lower", "run_s", "redirect-*"),
    ("redirectd.parse_errors", "count", "lower", "run_s", "redirect-*"),
    ("redirectd.slow_reader_closes", "count", "lower", "run_s", "redirect-*"),
    ("redirectd.reloads_applied", "count", "higher", "run_s",
     "redirect-churn"),
    ("redirectd.reloads_failed", "count", "lower", "run_s", "redirect-churn"),
    ("redirectd.generation", "count", "higher", "run_s", "redirect-churn"),
    ("redirectd.reload_p50_ms", "ms", "lower", "run_s", "redirect-churn"),
    ("net.wire_mean_us", "us", "lower", "run_s",
     "redirect-*: client mean minus server mean"),
    ("net.loop_busy_frac", "ratio", "lower", "run_s",
     "redirect-*: daemon thread CPU / wall in the closed loop"),
    ("net.redirect_p50_ms", "ms", "lower", "run_s",
     "redirect-steady, open loop from due time"),
    ("net.redirect_p99_ms", "ms", "lower", "run_s",
     "redirect-steady, open loop from due time"),
    ("load.late_p99_ms", "ms", "lower", "run_s",
     "redirect-steady: decides whether net.redirect_p99_ms is valid"),
    ("fault.transitions", "count", "higher", "run_s", "redirect-churn"),
    ("obs.trace_overhead_pct", "%", "lower", "run_s",
     "every workload: traced run_s (or redirects/s) against untraced"),
    ("obs.spans_dropped", "count", "lower", "run_s",
     "every workload: spans lost to ring overflow in the traced run"),
] + [
    (f"{module}.self_ms", "ms", "lower", "run_s",
     "traced run: span time minus child spans, from the Chrome trace, per "
     "traced pass (planner) or per 65536 redirects served (redirect-*)")
    for module in MODULES
]


def benchmark_json():
    """The BENCHMARK.json document: exactly the keys the format admits."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }
