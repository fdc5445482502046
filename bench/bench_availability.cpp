// Availability under increasing failure rates — the robustness benchmark.
//
// Sweeps the random fault regime of fault::FaultSchedule::random over a
// range of per-server failure rates (fixed MTTR, shrinking MTBF) and runs
// hybrid, greedy-global replication, and pure caching against the SAME
// schedule at every rate.  The question the paper's healthy-fleet
// evaluation leaves open: which mechanism degrades most gracefully when
// servers actually crash?  Replicas act as extra live copies (availability
// holds, latency climbs), while caching's copies die with the server that
// held them.
//
// Emits availability and P99 latency series vs failure rate per mechanism
// through the observability JSON exporter:
//
//   avail/failure_rate              swept down-time fraction mttr/(mtbf+mttr)
//   avail/<mech>/availability       1 - failed/measured at each rate
//   avail/<mech>/p99_ms             P99 response time at each rate
//   avail/<mech>/slo_violation      SLO-violation fraction at each rate
//
// Also writes a schema-versioned BENCH_availability.json artifact (see
// bench/bench_artifact.h) with per-mechanism availability / P99 / SLO
// metrics at the harshest swept failure rate; the CI regression gate diffs
// it against bench/baselines/BENCH_availability.json.  The simulation is
// deterministic in the seed, so the thresholds are tight — drift means the
// failover or fault-replay logic changed, not the machine.
//
// Usage: bench_availability [--smoke] [metrics.json]
//                           [--artifact BENCH_availability.json]
//   --smoke  small scenario + short sweep, used by CI sanitizer runs and
//            the bench-regression gate (the committed baseline is a smoke
//            run for exactly that reason).

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_artifact.h"
#include "bench/bench_support.h"
#include "src/core/experiment.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace cdn;

  bool smoke = false;
  std::string metrics_path = "availability_metrics.json";
  std::string artifact_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--artifact" && a + 1 < argc) {
      artifact_path = argv[++a];
    } else {
      metrics_path = arg;
    }
  }

  std::cout << "Availability vs failure rate: hybrid / replication "
               "(greedy-global) / caching\n\n";

  core::ScenarioConfig cfg;
  if (smoke) {
    cfg.server_count = 8;
    cfg.classes = {{6, 1.0, "low"}, {6, 4.0, "medium"}, {4, 16.0, "high"}};
    cfg.surge.objects_per_site = 50;
  } else {
    cfg = bench::paper_config(0.05, 0.0);
  }
  core::Scenario scenario(cfg);
  const std::size_t n = scenario.system().server_count();
  const std::size_t m = scenario.system().site_count();

  auto sim_base = bench::paper_sim();
  if (smoke) sim_base.total_requests = 100'000;
  sim_base.slo_ms = 120.0;

  // Down-time fractions to sweep; MTTR is pinned so higher rates mean more
  // frequent crashes, not longer ones.
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.10}
            : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10, 0.20};
  const double mttr =
      static_cast<double>(sim_base.total_requests) / 50.0;

  const std::vector<core::MechanismSpec> mechanisms = {
      core::hybrid_mechanism(), core::replication_mechanism(),
      core::caching_mechanism()};

  // Placements do not depend on the fault schedule — build each once.
  std::vector<placement::PlacementResult> placements;
  placements.reserve(mechanisms.size());
  for (const auto& spec : mechanisms) {
    placements.push_back(spec.build(scenario.system()));
  }

  obs::Registry registry;
  obs::Series& rate_out = registry.series("avail/failure_rate");
  util::TextTable table({"failure_rate", "mechanism", "availability",
                         "failed", "failover", "p99_ms", "slo_violation"});
  // Per-mechanism results at the harshest swept rate (the last one) — the
  // numbers the regression artifact gates on.
  std::vector<sim::SimulationReport> worst_case(mechanisms.size());

  for (const double rate : rates) {
    fault::FaultSchedule schedule;
    if (rate > 0.0) {
      fault::RandomFaultParams fp;
      fp.mttr_requests = mttr;
      fp.mtbf_requests = mttr * (1.0 - rate) / rate;
      fp.seed = 1234;
      // Origins fail too (10x rarer) — otherwise the primary always
      // backstops every outage and availability stays pinned at 1.
      fp.origin_mtbf_scale = 10.0;
      schedule = fault::FaultSchedule::random(n, m, sim_base.total_requests,
                                              fp);
    }
    rate_out.push(rate);

    for (std::size_t k = 0; k < mechanisms.size(); ++k) {
      auto sim_cfg = sim_base;
      sim_cfg.faults = schedule.empty() ? nullptr : &schedule;
      const auto report =
          sim::simulate(scenario.system(), placements[k], sim_cfg);

      if (rate == rates.back()) worst_case[k] = report;

      const std::string pfx = "avail/" + mechanisms[k].name + "/";
      const double p99 = report.latency_cdf.empty()
                             ? 0.0
                             : report.latency_cdf.quantile(0.99);
      registry.series(pfx + "availability").push(report.availability);
      registry.series(pfx + "p99_ms").push(p99);
      registry.series(pfx + "slo_violation")
          .push(report.slo_violation_fraction);

      table.add_row({util::format_double(rate, 2), mechanisms[k].name,
                     util::format_double(report.availability, 6),
                     std::to_string(report.failed_requests),
                     std::to_string(report.failover_requests),
                     util::format_double(p99, 2),
                     util::format_double(report.slo_violation_fraction, 4)});
    }
  }

  std::cout << table.str() << '\n';
  obs::write_json_file(registry, metrics_path);
  std::cout << "metrics: " << metrics_path << '\n';

  if (!artifact_path.empty()) {
    obs::RunManifest manifest = obs::make_run_manifest(
        smoke ? "bench_availability --smoke" : "bench_availability");
    manifest.seed = sim_base.seed;
    // The gated runs are fault runs, which take the one-shard reference on
    // the calling thread.
    manifest.threads = 1;
    manifest.shards = worst_case.front().shards_used;

    // Deterministic in the seed: tight thresholds, matching the workload
    // metrics in bench_throughput (2% covers libm rounding differences
    // across toolchains, nothing more).
    bench::BenchArtifact artifact("availability");
    for (std::size_t k = 0; k < mechanisms.size(); ++k) {
      const auto& report = worst_case[k];
      const std::string pfx = mechanisms[k].name + "_";
      const double p99 = report.latency_cdf.empty()
                             ? 0.0
                             : report.latency_cdf.quantile(0.99);
      artifact.set(pfx + "availability", report.availability, "ratio",
                   /*higher_is_better=*/true, /*threshold_pct=*/2.0);
      artifact.set(pfx + "p99_ms", p99, "ms", /*higher_is_better=*/false,
                   2.0);
      artifact.set(pfx + "slo_violation", report.slo_violation_fraction,
                   "ratio", /*higher_is_better=*/false, 2.0);
    }
    artifact.write_json_file(artifact_path, manifest);
    std::cout << "artifact: " << artifact_path << '\n';
  }
  return 0;
}
