// Placement model-tier benchmark — exact vs closed-form candidate pricing
// on the hybrid engine.
//
// Builds the same deterministic ring systems as bench_placement_scaling and
// sweeps N in {64, 256, 512} x M in {64, 256} x placement-model tiers.  For
// every swept (N, M) it runs hybrid_greedy once per tier and HARD-GATES
// (exit 1) the tentpole acceptance criteria:
//
//   * final-cost parity   — the closed-form tier's final predicted cost
//                           within 1% of the exact tier's, at EVERY (N, M);
//   * eval speedup        — candidate-evaluation time (the engine's
//                           placement/hybrid/phase/eval timer) of the
//                           closed-form tier >= 5x faster than exact at
//                           N=512 / M=256;
//   * exact immutability  — the kExact tier is byte-identical (placement
//                           cells + full cost trajectory) to a run with
//                           default options, and its placement digest is
//                           exported with a 0%-threshold so the CI baseline
//                           diff (scripts/check_bench_regression.py)
//                           enforces digest identity across commits.
//
// Emits a schema-versioned BENCH_placement_model.json artifact (see
// bench/bench_artifact.h).  Per-config keys are prefixed nN_mM_<tier>_:
// wall_ms, eval_ms, cost, plus the derived eval_speedup and cost_ratio_pct;
// algorithm facts (replicas, digests, tier fallback counts) carry tight
// thresholds, wall-clock numbers generous ones.
//
// Usage: bench_placement_model [--smoke] [artifact.json]
//   --smoke  one small config, gates except the 512x256 speedup (CI
//            sanitizer runs).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_artifact.h"
#include "src/cdn/system.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"
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

struct TierRun {
  placement::PlacementResult result;
  double wall_ms = 0.0;
  double eval_ms = 0.0;
  double fallbacks = 0.0;
};

TierRun run_tier(const sys::CdnSystem& system, placement::PlacementModel tier,
                 std::size_t max_replicas) {
  obs::Registry registry;
  placement::HybridGreedyOptions options;
  options.placement_model = tier;
  options.max_replicas = max_replicas;
  options.metrics = &registry;
  options.metrics_prefix = "placement/hybrid/";
  const auto start = std::chrono::steady_clock::now();
  auto result = placement::hybrid_greedy(system, options);
  const auto stop = std::chrono::steady_clock::now();
  TierRun run{std::move(result)};
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  if (const auto* t = registry.find_timer("placement/hybrid/phase/eval")) {
    run.eval_ms = static_cast<double>(t->total_ns()) * 1e-6;
  }
  if (const auto* c =
          registry.find_counter("placement/hybrid/tier_fallbacks")) {
    run.fallbacks = static_cast<double>(c->value());
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

bool byte_identical(const sys::CdnSystem& system,
                    const placement::PlacementResult& a,
                    const placement::PlacementResult& b) {
  for (std::size_t i = 0; i < system.server_count(); ++i) {
    for (std::size_t j = 0; j < system.site_count(); ++j) {
      if (a.placement.is_replicated(static_cast<sys::ServerIndex>(i),
                                    static_cast<sys::SiteIndex>(j)) !=
          b.placement.is_replicated(static_cast<sys::ServerIndex>(i),
                                    static_cast<sys::SiteIndex>(j))) {
        return false;
      }
    }
  }
  return a.cost_trajectory == b.cost_trajectory;
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

  std::cout << "Hybrid placement model tiers: exact vs closed-form\n\n";

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

  const std::vector<std::pair<placement::PlacementModel, std::string>> tiers{
      {placement::PlacementModel::kExact, "exact"},
      {placement::PlacementModel::kClosedForm, "closed_form"}};

  obs::RunManifest manifest = obs::make_run_manifest(
      smoke ? "bench_placement_model --smoke" : "bench_placement_model");
  manifest.seed = 2005;
  bench::BenchArtifact artifact("placement_model");

  util::TextTable table({"N", "M", "tier", "wall_ms", "eval_ms",
                         "eval_speedup", "cost/req", "cost_vs_exact_%",
                         "replicas", "fallbacks"});
  bool gates_ok = true;
  auto fail = [&gates_ok](const std::string& what) {
    std::cerr << "GATE FAILED: " << what << '\n';
    gates_ok = false;
  };

  for (const Config& cfg : configs) {
    const auto bench = BenchSystem::make(cfg.servers, cfg.low_sites,
                                         cfg.high_sites,
                                         /*objects_per_site=*/40,
                                         /*storage_fraction=*/0.04,
                                         /*seed=*/2005);
    const sys::CdnSystem& system = *bench.system;
    const std::size_t m = system.site_count();
    const std::string key =
        "n" + std::to_string(cfg.servers) + "_m" + std::to_string(m) + "_";

    // Runs are replica-capped so the sweep stays CI-sized; the cap binds
    // identically across tiers, so cost parity compares like with like.
    const std::size_t max_replicas = smoke ? 0 : 300;

    // Gate: the exact tier must be byte-identical to a run through options
    // that never mention a tier (the plumbing must not have perturbed the
    // pre-tier code path).  Checked at the cheapest config only — the
    // digest metric extends the same guarantee to every config over time.
    const bool check_identity = smoke || cfg.servers == 64;
    std::optional<placement::PlacementResult> baseline;
    if (check_identity) {
      placement::HybridGreedyOptions options;
      options.max_replicas = max_replicas;
      baseline.emplace(placement::hybrid_greedy(system, options));
    }

    double exact_eval_ms = 0.0;
    double exact_cost = 0.0;
    for (const auto& [tier, name] : tiers) {
      const TierRun run = run_tier(system, tier, max_replicas);
      std::cerr << "  [" << key << name << "] wall "
                << util::format_double(run.wall_ms, 0) << " ms, eval "
                << util::format_double(run.eval_ms, 0) << " ms\n";
      const double cost = run.result.predicted_cost_per_request;
      double ratio_pct = 0.0;
      double speedup = 1.0;
      if (tier == placement::PlacementModel::kExact) {
        exact_eval_ms = run.eval_ms;
        exact_cost = cost;
        if (check_identity && !byte_identical(system, *baseline, run.result)) {
          fail(key + "exact diverged from the default-options engine");
        }
        const std::uint64_t digest = placement_digest(system, run.result);
        // Folded to 32 bits so the value is exact in a double; 0% threshold
        // makes the CI baseline diff a digest-identity check.
        artifact.set(key + "exact_digest",
                     static_cast<double>(digest % 0xffffffffull), "hash",
                     /*higher_is_better=*/true, /*threshold_pct=*/0.0);
      } else {
        ratio_pct = exact_cost != 0.0
                        ? 100.0 * (cost - exact_cost) / exact_cost
                        : 0.0;
        speedup = run.eval_ms > 0.0 ? exact_eval_ms / run.eval_ms : 0.0;
        if (!(std::abs(cost - exact_cost) <= 0.01 * exact_cost)) {
          fail(key + name + " final cost " + util::format_double(cost, 4) +
               " beyond 1% of exact " + util::format_double(exact_cost, 4));
        }
        if (!smoke && cfg.servers == 512 && m == 256 &&
            tier == placement::PlacementModel::kClosedForm &&
            speedup < 5.0) {
          fail("closed-form eval speedup " + util::format_double(speedup, 2) +
               "x < 5x at N=512 M=256");
        }
        artifact.set(key + name + "_eval_speedup", speedup, "x",
                     /*higher_is_better=*/true, /*threshold_pct=*/60.0);
        artifact.set(key + name + "_cost_ratio_pct", ratio_pct, "%",
                     /*higher_is_better=*/false, /*threshold_pct=*/1.0);
      }
      artifact.set(key + name + "_wall_ms", run.wall_ms, "ms",
                   /*higher_is_better=*/false, /*threshold_pct=*/75.0);
      artifact.set(key + name + "_eval_ms", run.eval_ms, "ms",
                   /*higher_is_better=*/false, /*threshold_pct=*/75.0);
      artifact.set(key + name + "_replicas",
                   static_cast<double>(run.result.replicas_created), "count",
                   /*higher_is_better=*/true, /*threshold_pct=*/2.0);
      table.add_row({std::to_string(cfg.servers), std::to_string(m), name,
                     util::format_double(run.wall_ms, 1),
                     util::format_double(run.eval_ms, 1),
                     util::format_double(speedup, 2),
                     util::format_double(cost, 4),
                     util::format_double(ratio_pct, 3),
                     std::to_string(run.result.replicas_created),
                     util::format_double(run.fallbacks, 0)});
    }
  }

  std::cout << table.str() << '\n';
  artifact.write_json_file(metrics_path, manifest);
  std::cout << "artifact: " << metrics_path << '\n';
  if (!gates_ok) {
    std::cerr << "bench_placement_model: acceptance gates failed\n";
    return 1;
  }
  std::cout << "all gates passed\n";
  return 0;
}
