// Placement scaling benchmark — the lazy-heap hybrid engine at N=256, M=64.
//
// Builds a deterministic N-server / M-site system (ring server topology,
// varied primary distances — no random topology generation, so the bench
// measures placement alone) and runs hybrid_greedy once.  Bit-identity with
// the plain every-candidate loop is a ctest contract
// (placement_engine_equivalence_test), not a bench step.
//
// Emits a schema-versioned BENCH_placement.json artifact (see
// bench/bench_artifact.h) with an embedded provenance manifest, keyed:
//
//   incremental_ms          wall-clock of the run
//   incremental_candidates  benefit evaluations
//   replicas                replicas placed
//
// The candidate and replica counts are machine-independent facts about the
// algorithm — tight thresholds — while the wall-clock number carries a
// generous one.  scripts/check_bench_regression.py diffs the file against
// bench/baselines/BENCH_placement.json in CI.
//
// Usage: bench_placement_scaling [--smoke] [artifact.json]
//   --smoke  small system (CI sanitizer runs).

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

// Owns every component of a synthetic CdnSystem (mirrors the test fixture,
// scaled up).  Servers sit on a ring — C(i,k) = min(|i-k|, n-|i-k|) — and
// primary distances vary per (server, site) so the nearest-replica
// structure is non-trivial.
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
        ss[i * servers + k] = static_cast<double>(d < servers - d
                                                      ? d
                                                      : servers - d);
      }
    }
    std::vector<double> sp(servers * sites);
    const double half = static_cast<double>(servers) / 2.0;
    for (std::size_t i = 0; i < servers; ++i) {
      for (std::size_t j = 0; j < sites; ++j) {
        // Primaries are farther than most of the ring, with per-pair
        // variation so different servers prefer different replica spots.
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

struct EngineRun {
  placement::PlacementResult result;
  double wall_ms = 0.0;
  double candidates = 0.0;
};

EngineRun run_engine(const sys::CdnSystem& system) {
  obs::Registry registry;
  placement::HybridGreedyOptions options;
  options.metrics = &registry;
  const auto start = std::chrono::steady_clock::now();
  auto result = placement::hybrid_greedy(system, options);
  const auto stop = std::chrono::steady_clock::now();
  EngineRun run{std::move(result)};
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  if (const auto* c =
          registry.find_counter("placement/hybrid/candidates_evaluated")) {
    run.candidates = static_cast<double>(c->value());
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string metrics_path = "placement_scaling_metrics.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      metrics_path = arg;
    }
  }

  std::cout << "Hybrid placement scaling: lazy-heap engine\n\n";

  // Smoke keeps CI sanitizer runs fast but still runs the engine end to
  // end; the full size is the scaling target (N=256, M=64).
  const std::size_t servers = smoke ? 24 : 256;
  const std::size_t low_sites = smoke ? 9 : 48;
  const std::size_t high_sites = smoke ? 3 : 16;
  const std::size_t objects_per_site = smoke ? 50 : 60;
  const auto bench = BenchSystem::make(servers, low_sites, high_sites,
                                       objects_per_site,
                                       /*storage_fraction=*/0.04,
                                       /*seed=*/2005);
  const sys::CdnSystem& system = *bench.system;

  const auto incremental = run_engine(system);

  util::TextTable table({"wall_ms", "candidates", "replicas", "cost/req"});
  table.add_row({util::format_double(incremental.wall_ms, 1),
                 util::format_double(incremental.candidates, 0),
                 std::to_string(incremental.result.replicas_created),
                 util::format_double(
                     incremental.result.predicted_cost_per_request, 4)});
  std::cout << table.str() << '\n';

  obs::RunManifest manifest = obs::make_run_manifest(
      smoke ? "bench_placement_scaling --smoke" : "bench_placement_scaling");
  manifest.seed = 2005;

  bench::BenchArtifact artifact("placement_scaling");
  artifact.set("servers", static_cast<double>(servers), "count",
               /*higher_is_better=*/true, /*threshold_pct=*/0.0);
  artifact.set("sites", static_cast<double>(system.site_count()), "count",
               true, 0.0);
  artifact.set("incremental_ms", incremental.wall_ms, "ms", false, 75.0);
  // Benefit-evaluation counts are pure algorithm facts: any drift means the
  // engine changed, not the machine.
  artifact.set("incremental_candidates", incremental.candidates, "count",
               false, 1.0);
  artifact.set("replicas",
               static_cast<double>(incremental.result.replicas_created),
               "count", true, 1.0);
  artifact.write_json_file(metrics_path, manifest);
  std::cout << "artifact: " << metrics_path << '\n';
  return 0;
}
