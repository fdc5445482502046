// Simulator throughput bench — requests/sec of the event engine's one-shard
// reference run and an 8-shard run on all cores on the paper's full scenario
// (N = 50, M = 200, pure-caching placement so the measurement is
// simulate-dominated, not placement-dominated).
//
// Writes a schema-versioned BENCH_throughput.json artifact (see
// bench/bench_artifact.h) with an embedded provenance manifest; the CI
// regression gate diffs it against bench/baselines/BENCH_throughput.json
// with scripts/check_bench_regression.py.
//
// Wall-clock metrics carry generous thresholds (machines differ); the
// workload metrics (local ratio, mean hop cost) are deterministic in
// (seed, shards) — the shard count is pinned here for exactly that reason —
// and carry tight thresholds, so a silent change to the request stream or
// the cache model fails the gate even when the run happens to be fast.
//
// Usage: bench_throughput [--smoke] [artifact.json]
//   --smoke  500k requests instead of 5M (sanitizer/CI-PR runs).

#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_artifact.h"
#include "bench/bench_support.h"
#include "src/cache/probe_table.h"
#include "src/obs/run_manifest.h"
#include "src/placement/fixed_split.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/zipf.h"
#include "src/workload/request_stream.h"

namespace {

using namespace cdn;

struct EngineRun {
  sim::SimulationReport report;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
};

EngineRun run_engine(const sys::CdnSystem& system,
                     const placement::PlacementResult& placement,
                     sim::SimulationConfig cfg, std::size_t threads) {
  cfg.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  EngineRun run{sim::simulate(system, placement, cfg)};
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.requests_per_sec =
      run.wall_seconds > 0.0
          ? static_cast<double>(cfg.total_requests) / run.wall_seconds
          : 0.0;
  return run;
}

// Steady-state probe rate of the cache policies' open-addressed hit path
// (Zipf keys against a warm table) — the per-request primitive the
// data-oriented loop leans on hardest.
double cache_probe_ops_per_sec(std::uint64_t ops) {
  cache::ProbeTable table;
  constexpr std::uint64_t kResident = 10'000;
  for (std::uint64_t k = 1; k <= kResident; ++k) {
    table.insert(k, static_cast<std::uint32_t>(k));
  }
  // Keys are drawn up front so the timed loop is probes, not Zipf
  // sampling (BM_RequestBatchGen / batch_gen_requests_per_sec cover that).
  const util::ZipfDistribution zipf(100'000, 1.0);
  util::Rng rng(1);
  std::vector<std::uint64_t> keys(1u << 20);
  for (auto& key : keys) {
    key = static_cast<std::uint64_t>(zipf.sample(rng));
  }
  std::uint64_t hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    hits += table.find(keys[i & (keys.size() - 1)]) != cache::ProbeTable::kNil
                ? 1
                : 0;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  CDN_EXPECT(hits > 0, "probe bench found no resident keys");
  return wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
}

// SoA batch-generation rate of workload::RequestStream::next_batch — the
// input stage of the data-oriented request loop.
double batch_gen_requests_per_sec(const sys::CdnSystem& system,
                                  std::uint64_t requests) {
  workload::RequestStream stream(system.catalog(), system.demand(), 99);
  workload::RequestBatch batch;
  constexpr std::size_t kBatch = 4096;  // the engines' chunk size
  std::uint64_t generated = 0;
  const auto start = std::chrono::steady_clock::now();
  while (generated < requests) {
    stream.next_batch(batch, kBatch);
    generated += kBatch;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return wall > 0.0 ? static_cast<double>(generated) / wall : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_throughput.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  std::cout << "Simulator throughput: sequential vs parallel sharded engine\n";

  core::Scenario scenario(bench::paper_config(0.05, 0.0));
  const auto placement = placement::pure_caching(scenario.system());

  sim::SimulationConfig cfg;
  cfg.total_requests = smoke ? 500'000 : 5'000'000;
  cfg.warmup_fraction = 0.3;
  cfg.seed = 99;
  cfg.shards = 8;  // pinned: parallel results are deterministic in
                   // (seed, shards), never in the machine's core count

  const auto seq = run_engine(scenario.system(), placement, cfg, 1);
  const auto par = run_engine(scenario.system(), placement, cfg, 0);
  const double speedup =
      par.requests_per_sec > 0.0 && seq.requests_per_sec > 0.0
          ? par.requests_per_sec / seq.requests_per_sec
          : 0.0;

  util::TextTable table(
      {"engine", "wall_s", "req/s", "local%", "hops/req", "digest"});
  for (const auto& [name, run] :
       {std::pair<const char*, const EngineRun&>{"sequential", seq},
        std::pair<const char*, const EngineRun&>{"parallel", par}}) {
    std::ostringstream digest;
    digest << std::hex << std::setfill('0') << std::setw(16)
           << sim::report_digest(run.report);
    table.add_row({name, util::format_double(run.wall_seconds, 2),
                   util::format_double(run.requests_per_sec, 0),
                   util::format_double(100.0 * run.report.local_ratio, 2),
                   util::format_double(run.report.mean_cost_hops, 4),
                   digest.str()});
  }
  std::cout << table.str() << "parallel speedup "
            << util::format_double(speedup, 2) << "x\n";

  const double probe_rate = cache_probe_ops_per_sec(smoke ? 2'000'000
                                                          : 20'000'000);
  const double batch_rate = batch_gen_requests_per_sec(
      scenario.system(), smoke ? 1'000'000 : 10'000'000);
  std::cout << "cache probe " << util::format_double(probe_rate / 1e6, 1)
            << " Mops/s, batch gen "
            << util::format_double(batch_rate / 1e6, 1) << " Mreq/s\n";

  obs::RunManifest manifest =
      obs::make_run_manifest(smoke ? "bench_throughput --smoke"
                                   : "bench_throughput");
  manifest.seed = cfg.seed;
  manifest.threads = 0;
  manifest.shards = cfg.shards;
  for (const auto& [engine, threads] :
       {std::pair<const char*, std::size_t>{"engine/sequential", 1},
        std::pair<const char*, std::size_t>{"engine/parallel", 0}}) {
    sim::SimulationConfig shaped = cfg;
    shaped.threads = threads;
    for (const auto& section : sim::detail::checkpoint_fingerprint(
             scenario.system(), placement, shaped)) {
      manifest.add_fingerprint(
          section.first == "engine" ? engine : section.first, section.second);
    }
  }

  // Wall-clock metrics: generous thresholds (only catastrophic regressions
  // fail across machines).  Workload metrics: deterministic modulo libm
  // rounding across toolchains, so a tight-but-nonzero threshold.
  bench::BenchArtifact artifact("throughput");
  artifact.set("seq_requests_per_sec", seq.requests_per_sec, "req/s",
               /*higher_is_better=*/true, /*threshold_pct=*/65.0);
  artifact.set("par_requests_per_sec", par.requests_per_sec, "req/s", true,
               65.0);
  artifact.set("parallel_speedup", speedup, "x", true, 90.0);
  artifact.set("seq_local_ratio", seq.report.local_ratio, "ratio", true, 2.0);
  artifact.set("seq_mean_cost_hops", seq.report.mean_cost_hops, "hops",
               /*higher_is_better=*/false, 2.0);
  artifact.set("par_local_ratio", par.report.local_ratio, "ratio", true, 2.0);
  artifact.set("par_mean_cost_hops", par.report.mean_cost_hops, "hops", false,
               2.0);
  artifact.set("cache_probe_ops_per_sec", probe_rate, "ops/s", true, 65.0);
  artifact.set("batch_gen_requests_per_sec", batch_rate, "req/s", true, 65.0);
  artifact.write_json_file(out_path, manifest);
  std::cout << "artifact: " << out_path << '\n';
  return 0;
}
