// Engine equivalence: the lazy-heap placement engines must produce
// byte-identical placements, cost trajectories and commit orders to the
// plain greedy loops of tests/placement_oracle.h.  Every double is compared
// with EXPECT_EQ (exact), not EXPECT_NEAR — the contract is bit-identity,
// not tolerance.
//
// The iteration logs are compared column-by-column except "candidates" and
// "eval_ms": the engines legitimately evaluate fewer candidates per commit
// than the oracle (that is the whole point) and the oracle keeps no clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"
#include "tests/placement_oracle.h"
#include "tests/test_support.h"

namespace {

using cdn::placement::greedy_global;
using cdn::placement::GreedyGlobalOptions;
using cdn::placement::hybrid_greedy;
using cdn::placement::HybridGreedyOptions;
using cdn::placement::PlacementResult;
using cdn::test::OracleRun;
using cdn::test::oracle_greedy_global;
using cdn::test::oracle_hybrid_greedy;
using cdn::test::TestSystem;

struct EngineRun {
  PlacementResult result;
  std::vector<std::string> log_columns;
  std::vector<std::vector<double>> log_rows;
  std::uint64_t repairs = 0;        // O(1) bound patches
  std::uint64_t verifications = 0;  // bound tops re-priced exactly
};

std::uint64_t counter_value(const cdn::obs::Registry& registry,
                            const std::string& name) {
  const auto* counter = registry.find_counter(name);
  return counter != nullptr ? counter->value() : 0;
}

EngineRun run_hybrid(const cdn::sys::CdnSystem& system,
                     HybridGreedyOptions options) {
  cdn::obs::Registry registry;
  options.metrics = &registry;
  EngineRun run{hybrid_greedy(system, options), {}, {}};
  const auto* log = registry.find_table("placement/hybrid/iterations");
  if (log != nullptr) {
    run.log_columns = log->columns();
    run.log_rows = log->rows();
  }
  run.repairs = counter_value(registry, "placement/hybrid/heap/repairs");
  run.verifications =
      counter_value(registry, "placement/hybrid/heap/verifications");
  return run;
}

bool skipped_column(const std::string& name) {
  return name == "candidates" || name == "eval_ms";
}

void expect_equivalent(const cdn::sys::CdnSystem& system, const OracleRun& ref,
                       const EngineRun& inc) {
  EXPECT_EQ(ref.result.replicas_created, inc.result.replicas_created);
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<cdn::sys::ServerIndex>(i);
      const auto site = static_cast<cdn::sys::SiteIndex>(j);
      EXPECT_EQ(ref.result.placement.is_replicated(server, site),
                inc.result.placement.is_replicated(server, site))
          << "placement cell (" << i << ", " << j << ")";
    }
  }
  ASSERT_EQ(ref.result.cost_trajectory.size(),
            inc.result.cost_trajectory.size());
  for (std::size_t k = 0; k < ref.result.cost_trajectory.size(); ++k) {
    EXPECT_EQ(ref.result.cost_trajectory[k], inc.result.cost_trajectory[k])
        << "cost trajectory entry " << k << " is not bit-identical";
  }
  EXPECT_EQ(ref.result.predicted_total_cost, inc.result.predicted_total_cost);
  EXPECT_EQ(ref.result.predicted_cost_per_request,
            inc.result.predicted_cost_per_request);
  ASSERT_EQ(ref.result.modeled_hit.size(), inc.result.modeled_hit.size());
  for (std::size_t k = 0; k < ref.result.modeled_hit.size(); ++k) {
    EXPECT_EQ(ref.result.modeled_hit[k], inc.result.modeled_hit[k])
        << "modeled hit entry " << k;
  }

  // Commit order and per-commit decomposition, from the iteration logs.
  ASSERT_EQ(ref.log_rows.size(), inc.log_rows.size());
  for (std::size_t r = 0; r < ref.log_rows.size(); ++r) {
    ASSERT_EQ(ref.log_rows[r].size(), inc.log_columns.size());
    for (std::size_t c = 0; c < inc.log_columns.size(); ++c) {
      if (skipped_column(inc.log_columns[c])) continue;
      EXPECT_EQ(ref.log_rows[r][c], inc.log_rows[r][c])
          << "iteration log row " << r << " column " << inc.log_columns[c];
    }
  }
}

void expect_hybrid_engines_agree(const cdn::sys::CdnSystem& system,
                                 const HybridGreedyOptions& options = {}) {
  const OracleRun ref = oracle_hybrid_greedy(system, options);
  const EngineRun inc = run_hybrid(system, options);
  expect_equivalent(system, ref, inc);
  EXPECT_GT(ref.result.replicas_created, 0u)
      << "vacuous comparison: no replicas committed";
}

TEST(PlacementEngineEquivalenceTest, HybridDefaultOptions) {
  const auto t = TestSystem::make();
  expect_hybrid_engines_agree(*t.system);
}

TEST(PlacementEngineEquivalenceTest, HybridMaxReplicasCaps) {
  const auto t = TestSystem::make();
  for (const std::size_t cap : {std::size_t{1}, std::size_t{3}}) {
    HybridGreedyOptions options;
    options.max_replicas = cap;
    expect_equivalent(*t.system, oracle_hybrid_greedy(*t.system, options),
                      run_hybrid(*t.system, options));
  }
}

TEST(PlacementEngineEquivalenceTest, HybridSeededPlacement) {
  const auto t = TestSystem::make();
  HybridGreedyOptions seed_options;
  seed_options.max_replicas = 2;
  const auto seed = hybrid_greedy(*t.system, seed_options);
  ASSERT_GT(seed.replicas_created, 0u);
  HybridGreedyOptions options;
  options.seed = &seed.placement;
  expect_hybrid_engines_agree(*t.system, options);
}

TEST(PlacementEngineEquivalenceTest, HybridAddCostPerByte) {
  const auto t = TestSystem::make();
  HybridGreedyOptions options;
  options.add_cost_per_byte = 1e-9;
  expect_equivalent(*t.system, oracle_hybrid_greedy(*t.system, options),
                    run_hybrid(*t.system, options));
}

TEST(PlacementEngineEquivalenceTest, HybridPerIterationPb) {
  const auto t = TestSystem::make();
  HybridGreedyOptions options;
  options.pb_mode = cdn::model::PbMode::kPerIteration;
  expect_hybrid_engines_agree(*t.system, options);
}

TEST(PlacementEngineEquivalenceTest, HybridTinyStorageNoReplicas) {
  // Degenerate case: nothing fits, the engine must report an empty
  // placement with the oracle's pure-caching starting cost.
  const auto t = TestSystem::make(4, 6, 2, 100, 0.001);
  const OracleRun ref = oracle_hybrid_greedy(*t.system);
  EXPECT_EQ(ref.result.replicas_created, 0u);
  expect_equivalent(*t.system, ref, run_hybrid(*t.system, {}));
}

TEST(PlacementEngineEquivalenceTest, HybridTwentyFourServers) {
  // Large enough that every invalidation class (row re-evaluation, column
  // bound, penalty patch, relative patch) fires many times per run, and
  // that patched bounds surface and get verified: the comparison covers
  // both the bound path and the verification path.
  const auto t = TestSystem::make(24, 12, 6, 100, 0.08);
  const OracleRun ref = oracle_hybrid_greedy(*t.system);
  const EngineRun inc = run_hybrid(*t.system, {});
  expect_equivalent(*t.system, ref, inc);
  EXPECT_GE(ref.result.replicas_created, 20u);
  EXPECT_GT(inc.repairs, 0u);
  EXPECT_GT(inc.verifications, 0u);
}

/// `servers` identical servers: the same demand row everywhere, every
/// server-to-server distance 1 and one primary distance for every (server,
/// site), so a candidate's benefit does not depend on its server.
TestSystem symmetric_system(std::size_t servers) {
  TestSystem t;
  cdn::workload::SurgeParams params;
  params.objects_per_site = 100;
  const std::vector<cdn::workload::PopularityClass> classes{
      {6, 1.0, "low"}, {2, 8.0, "high"}};
  cdn::util::Rng rng(11);
  t.catalog = std::make_unique<cdn::workload::SiteCatalog>(
      cdn::workload::SiteCatalog::generate(params, classes, rng));
  const std::size_t sites = t.catalog->site_count();
  cdn::util::Rng demand_rng(12);
  const auto one_row = cdn::workload::DemandMatrix::generate(
      *t.catalog, 1, 1e6, demand_rng);
  std::vector<double> values;
  for (std::size_t i = 0; i < servers; ++i) {
    for (std::size_t j = 0; j < sites; ++j) {
      values.push_back(one_row.requests(0, static_cast<std::uint32_t>(j)));
    }
  }
  t.demand = std::make_unique<cdn::workload::DemandMatrix>(
      cdn::workload::DemandMatrix::from_values(servers, sites, values));
  std::vector<double> ss(servers * servers);
  for (std::size_t i = 0; i < servers; ++i) {
    for (std::size_t k = 0; k < servers; ++k) {
      ss[i * servers + k] = i == k ? 0.0 : 1.0;
    }
  }
  t.distances = std::make_unique<cdn::sys::DistanceOracle>(
      servers, sites, std::move(ss),
      std::vector<double>(servers * sites, 6.0));
  t.system = std::make_unique<cdn::sys::CdnSystem>(*t.catalog, *t.demand,
                                                   *t.distances, 0.15);
  return t;
}

TEST(PlacementEngineEquivalenceTest, HybridExactTiesFollowTheOracle) {
  const auto t = symmetric_system(5);
  const cdn::sys::CdnSystem& system = *t.system;

  // The fixture must really tie: on the initial state at least two
  // candidates share the top benefit bit for bit.
  const cdn::placement::ModelContext context(system);
  const auto states = context.make_states();
  const cdn::sys::ReplicaPlacement empty(system.server_storage(),
                                         system.site_bytes());
  const cdn::sys::NearestReplicaIndex nearest(system.distances(), empty);
  const std::vector<double> hit = cdn::placement::modeled_hit_matrix(states);
  std::vector<double> benefits;
  for (cdn::sys::ServerIndex i = 0; i < system.server_count(); ++i) {
    for (cdn::sys::SiteIndex j = 0; j < system.site_count(); ++j) {
      if (!empty.can_add(i, j)) continue;
      benefits.push_back(cdn::placement::hybrid_candidate_benefit(
          system, empty, nearest, states[i], hit, i, j));
    }
  }
  ASSERT_FALSE(benefits.empty());
  const double top = *std::max_element(benefits.begin(), benefits.end());
  ASSERT_GT(top, 0.0);
  ASSERT_GE(std::count(benefits.begin(), benefits.end(), top), 2)
      << "fixture regression: the top benefit is not tied";

  expect_hybrid_engines_agree(system);
}

TEST(PlacementEngineEquivalenceTest, HeapMetricsAndClampCounterExported) {
  const auto t = TestSystem::make();
  const OracleRun ref = oracle_hybrid_greedy(*t.system);

  cdn::obs::Registry inc_registry;
  HybridGreedyOptions inc_options;
  inc_options.metrics = &inc_registry;
  hybrid_greedy(*t.system, inc_options);

  EXPECT_NE(inc_registry.find_counter("placement/hybrid/heap/reevaluations"),
            nullptr);
  EXPECT_NE(inc_registry.find_counter("placement/hybrid/heap/invalidations"),
            nullptr);
  EXPECT_NE(
      inc_registry.find_counter("placement/hybrid/heap/stale_discarded"),
      nullptr);
  EXPECT_NE(inc_registry.find_gauge("placement/hybrid/heap/peak_size"),
            nullptr);
  EXPECT_NE(
      inc_registry.find_series("placement/hybrid/heap/invalidated_per_commit"),
      nullptr);
  EXPECT_NE(inc_registry.find_counter("model/curve_clamped"), nullptr);

  // The lazy heap must never evaluate more candidates than the oracle's
  // every-candidate-every-iteration loop.
  const auto* inc_evals =
      inc_registry.find_counter("placement/hybrid/candidates_evaluated");
  ASSERT_NE(inc_evals, nullptr);
  EXPECT_LE(inc_evals->value(), ref.evaluations);
}

EngineRun run_greedy_global(const cdn::sys::CdnSystem& system,
                            GreedyGlobalOptions options) {
  cdn::obs::Registry registry;
  options.metrics = &registry;
  EngineRun run{greedy_global(system, options), {}, {}};
  const auto* log = registry.find_table("placement/greedy_global/iterations");
  if (log != nullptr) {
    run.log_columns = log->columns();
    run.log_rows = log->rows();
  }
  return run;
}

TEST(PlacementEngineEquivalenceTest, GreedyGlobalDefaultOptions) {
  const auto t = TestSystem::make();
  const OracleRun ref = oracle_greedy_global(*t.system);
  expect_equivalent(*t.system, ref, run_greedy_global(*t.system, {}));
  EXPECT_GT(ref.result.replicas_created, 0u);
}

TEST(PlacementEngineEquivalenceTest, GreedyGlobalMaxReplicasCap) {
  const auto t = TestSystem::make();
  GreedyGlobalOptions options;
  options.max_replicas = 3;
  expect_equivalent(*t.system, oracle_greedy_global(*t.system, 3),
                    run_greedy_global(*t.system, options));
}

TEST(PlacementEngineEquivalenceTest, GreedyGlobalRandomizedSystems) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto t = TestSystem::make(3 + seed % 6, 4 + seed % 5, 1 + seed % 3,
                                    100, 0.05 + 0.03 * static_cast<double>(
                                                           seed % 7),
                                    2.0 + static_cast<double>(seed % 9),
                                    seed);
    expect_equivalent(*t.system, oracle_greedy_global(*t.system),
                      run_greedy_global(*t.system, {}));
  }
}

TEST(PlacementEngineEquivalenceTest, HybridRandomizedSystems) {
  // Property check: bit-identity must hold across topologies, storage
  // pressures and demand skews, not just the default fixture.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::size_t servers = 3 + seed % 6;              // 3..8
    const std::size_t low_sites = 4 + seed % 5;            // 4..8
    const std::size_t high_sites = 1 + seed % 3;           // 1..3
    const double storage_fraction = 0.05 + 0.03 * static_cast<double>(
                                               seed % 7);  // 0.05..0.23
    const double primary_hops = 2.0 + static_cast<double>(seed % 9);
    const auto t = TestSystem::make(servers, low_sites, high_sites, 100,
                                    storage_fraction, primary_hops, seed);
    HybridGreedyOptions options;
    if (seed % 3 == 0) options.pb_mode = cdn::model::PbMode::kPerIteration;
    if (seed % 4 == 0) options.add_cost_per_byte = 1e-10;
    expect_equivalent(*t.system, oracle_hybrid_greedy(*t.system, options),
                      run_hybrid(*t.system, options));
  }
}

}  // namespace
