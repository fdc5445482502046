// Shared configuration for the paper-figure benchmark drivers.
//
// Every bench_figN binary reconstructs the paper's Section 5.1 setup:
// a 1560-node GT-ITM-style transit-stub graph, N = 50 CDN servers, M = 200
// web sites (50 low / 100 medium / 50 high popularity), SURGE-like object
// populations with theta = 1.0, homogeneous server storage quoted as a
// percentage of the cumulative site bytes, and 2 ms/hop latency.

#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/scenario.h"

namespace cdn::bench {

/// The paper's full-scale scenario at a given capacity and lambda.
inline core::ScenarioConfig paper_config(double storage_fraction,
                                         double lambda,
                                         std::uint64_t seed = 2005) {
  core::ScenarioConfig cfg;  // defaults already encode N=50, M=200, L=1000
  cfg.storage_fraction = storage_fraction;
  cfg.uncacheable_fraction = lambda;
  cfg.seed = seed;
  return cfg;
}

/// Simulation length used by the figure drivers.  5M requests keep each
/// panel under ~10 s while leaving CDF noise well below the effects being
/// measured; override with HYBRIDCDN_BENCH_REQUESTS.
///
/// Healthy panels run sharded on every hardware thread by default (fault
/// panels run the one-shard case automatically);
/// HYBRIDCDN_BENCH_THREADS=1 restores the one-shard reference,
/// HYBRIDCDN_BENCH_SHARDS pins the shard count for reproducible parallel
/// results across machines.
inline sim::SimulationConfig paper_sim(std::uint64_t seed = 99) {
  sim::SimulationConfig sc;
  sc.total_requests = 5'000'000;
  if (const char* env = std::getenv("HYBRIDCDN_BENCH_REQUESTS")) {
    sc.total_requests = std::strtoull(env, nullptr, 10);
  }
  sc.threads = 0;  // all hardware threads
  if (const char* env = std::getenv("HYBRIDCDN_BENCH_THREADS")) {
    sc.threads = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("HYBRIDCDN_BENCH_SHARDS")) {
    sc.shards = std::strtoull(env, nullptr, 10);
  }
  sc.warmup_fraction = 0.3;
  sc.seed = seed;
  return sc;
}

/// Prints one figure panel: the summary table plus the response-time CDF
/// on a shared grid — the textual equivalent of the paper's plot.
inline void print_panel(const std::string& title,
                        const std::vector<core::MechanismRun>& runs) {
  std::cout << "\n=== " << title << " ===\n"
            << core::summary_table(runs).str() << '\n'
            << "Response-time CDF:\n"
            << core::cdf_table(runs) << std::flush;
}

}  // namespace cdn::bench
