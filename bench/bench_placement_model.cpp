// Placement model benchmark — the hybrid engine's exact Eq. 1/Eq. 2
// candidate pricing across system sizes.
//
// Builds the same deterministic ring systems as bench_placement_scaling and
// sweeps N in {64, 256, 512} x M in {64, 256}, running hybrid_greedy once
// per (N, M).  Every key is prefixed nN_mM_exact_:
//
//   * digest    — FNV-1a over the placement cells and the full cost
//                 trajectory, folded to 32 bits, exported with a 0%
//                 threshold so the CI baseline diff
//                 (scripts/check_bench_regression.py) enforces placement
//                 identity across commits;
//   * replicas  — replicas committed (tight threshold);
//   * wall_ms   — wall-clock of the run;
//   * eval_ms   — candidate pricing time (the engine's
//                 placement/hybrid/phase/eval timer: the initial sweep, row
//                 re-evaluations, bound patches and verifications).
//
// Emits a schema-versioned BENCH_placement_model.json artifact (see
// bench/bench_artifact.h).
//
// Usage: bench_placement_model [--smoke] [artifact.json]
//   --smoke  one small config (CI sanitizer runs).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_artifact.h"
#include "src/cdn/system.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/placement/hybrid_greedy.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/workload/demand.h"
#include "src/workload/site_catalog.h"

namespace {

using namespace cdn;

// Deterministic synthetic system on a ring topology (identical construction
// to bench_placement_scaling so the two artifacts describe the same world).
struct BenchSystem {
  std::unique_ptr<workload::SiteCatalog> catalog;
  std::unique_ptr<workload::DemandMatrix> demand;
  std::unique_ptr<sys::DistanceOracle> distances;
  std::unique_ptr<sys::CdnSystem> system;

  static BenchSystem make(std::size_t servers, std::size_t low_sites,
                          std::size_t high_sites,
                          std::size_t objects_per_site,
                          double storage_fraction, std::uint64_t seed) {
    BenchSystem b;
    workload::SurgeParams params;
    params.objects_per_site = objects_per_site;
    const std::vector<workload::PopularityClass> classes{
        {low_sites, 1.0, "low"}, {high_sites, 8.0, "high"}};
    util::Rng rng(seed);
    b.catalog = std::make_unique<workload::SiteCatalog>(
        workload::SiteCatalog::generate(params, classes, rng));

    util::Rng demand_rng(seed + 1);
    b.demand = std::make_unique<workload::DemandMatrix>(
        workload::DemandMatrix::generate(*b.catalog, servers, 1e7,
                                         demand_rng));

    const std::size_t sites = b.catalog->site_count();
    std::vector<double> ss(servers * servers);
    for (std::size_t i = 0; i < servers; ++i) {
      for (std::size_t k = 0; k < servers; ++k) {
        const std::size_t d = i > k ? i - k : k - i;
        ss[i * servers + k] =
            static_cast<double>(d < servers - d ? d : servers - d);
      }
    }
    std::vector<double> sp(servers * sites);
    const double half = static_cast<double>(servers) / 2.0;
    for (std::size_t i = 0; i < servers; ++i) {
      for (std::size_t j = 0; j < sites; ++j) {
        sp[i * sites + j] = half + 2.0 + static_cast<double>((i + 3 * j) % 7);
      }
    }
    b.distances = std::make_unique<sys::DistanceOracle>(
        servers, sites, std::move(ss), std::move(sp));
    b.system = std::make_unique<sys::CdnSystem>(*b.catalog, *b.demand,
                                                *b.distances,
                                                storage_fraction);
    return b;
  }
};

struct ExactRun {
  placement::PlacementResult result;
  double wall_ms = 0.0;
  double eval_ms = 0.0;
};

ExactRun run_exact(const sys::CdnSystem& system, std::size_t max_replicas) {
  obs::Registry registry;
  placement::HybridGreedyOptions options;
  options.max_replicas = max_replicas;
  options.metrics = &registry;
  options.metrics_prefix = "placement/hybrid/";
  const auto start = std::chrono::steady_clock::now();
  auto result = placement::hybrid_greedy(system, options);
  const auto stop = std::chrono::steady_clock::now();
  ExactRun run{std::move(result)};
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  if (const auto* t = registry.find_timer("placement/hybrid/phase/eval")) {
    run.eval_ms = static_cast<double>(t->total_ns()) * 1e-6;
  }
  return run;
}

// FNV-1a over the placement bitmap and the raw cost-trajectory doubles:
// any bit of drift in the exact path moves this digest.
std::uint64_t placement_digest(const sys::CdnSystem& system,
                               const placement::PlacementResult& run) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < system.server_count(); ++i) {
    for (std::size_t j = 0; j < system.site_count(); ++j) {
      mix(run.placement.is_replicated(static_cast<sys::ServerIndex>(i),
                                      static_cast<sys::SiteIndex>(j))
              ? 1u
              : 0u);
    }
  }
  for (const double c : run.cost_trajectory) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(c));
    __builtin_memcpy(&bits, &c, sizeof(bits));
    mix(bits);
  }
  return h;
}

struct Config {
  std::size_t servers;
  std::size_t low_sites;
  std::size_t high_sites;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string metrics_path = "placement_model_metrics.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      metrics_path = arg;
    }
  }

  std::cout << "Hybrid placement, exact model pricing\n\n";

  std::vector<Config> configs;
  if (smoke) {
    configs.push_back({24, 9, 3});
  } else {
    for (const std::size_t n : {std::size_t{64}, std::size_t{256},
                                std::size_t{512}}) {
      configs.push_back({n, 48, 16});    // M = 64
      configs.push_back({n, 192, 64});   // M = 256
    }
  }

  obs::RunManifest manifest = obs::make_run_manifest(
      smoke ? "bench_placement_model --smoke" : "bench_placement_model");
  manifest.seed = 2005;
  bench::BenchArtifact artifact("placement_model");

  util::TextTable table(
      {"N", "M", "wall_ms", "eval_ms", "cost/req", "replicas"});

  for (const Config& cfg : configs) {
    const auto bench = BenchSystem::make(cfg.servers, cfg.low_sites,
                                         cfg.high_sites,
                                         /*objects_per_site=*/40,
                                         /*storage_fraction=*/0.04,
                                         /*seed=*/2005);
    const sys::CdnSystem& system = *bench.system;
    const std::size_t m = system.site_count();
    const std::string key = "n" + std::to_string(cfg.servers) + "_m" +
                            std::to_string(m) + "_exact_";

    // Runs are replica-capped so the sweep stays CI-sized.
    const ExactRun run = run_exact(system, smoke ? 0 : 300);
    std::cerr << "  [n" << cfg.servers << "_m" << m << "] wall "
              << util::format_double(run.wall_ms, 0) << " ms, eval "
              << util::format_double(run.eval_ms, 0) << " ms\n";
    const std::uint64_t digest = placement_digest(system, run.result);
    // Folded to 32 bits so the value is exact in a double; 0% threshold
    // makes the CI baseline diff a digest-identity check.
    artifact.set(key + "digest", static_cast<double>(digest % 0xffffffffull),
                 "hash", /*higher_is_better=*/true, /*threshold_pct=*/0.0);
    artifact.set(key + "wall_ms", run.wall_ms, "ms",
                 /*higher_is_better=*/false, /*threshold_pct=*/75.0);
    artifact.set(key + "eval_ms", run.eval_ms, "ms",
                 /*higher_is_better=*/false, /*threshold_pct=*/75.0);
    artifact.set(key + "replicas",
                 static_cast<double>(run.result.replicas_created), "count",
                 /*higher_is_better=*/true, /*threshold_pct=*/2.0);
    table.add_row({std::to_string(cfg.servers), std::to_string(m),
                   util::format_double(run.wall_ms, 1),
                   util::format_double(run.eval_ms, 1),
                   util::format_double(
                       run.result.predicted_cost_per_request, 4),
                   std::to_string(run.result.replicas_created)});
  }

  std::cout << table.str() << '\n';
  artifact.write_json_file(metrics_path, manifest);
  std::cout << "artifact: " << metrics_path << '\n';
  return 0;
}
