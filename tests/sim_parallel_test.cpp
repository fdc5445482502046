// Tests of the parallel sharded simulation engine: statistical equivalence
// with the sequential reference, deterministic merge for a fixed
// (seed, shards), engine auto-selection, and the shard plan itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/placement/fixed_split.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/shard_engine.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using cdn::fault::FaultSchedule;
using cdn::placement::hybrid_greedy;
using cdn::placement::pure_caching;
using cdn::sim::plan_shards;
using cdn::sim::resolve_shard_count;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::sim::SimulationReport;
using cdn::test::TestSystem;

SimulationConfig parallel_sim(std::uint64_t requests = 200'000,
                              std::size_t threads = 4,
                              std::size_t shards = 0) {
  SimulationConfig sc;
  sc.total_requests = requests;
  sc.warmup_fraction = 0.3;
  sc.seed = 17;
  sc.threads = threads;
  sc.shards = shards;
  return sc;
}

void expect_identical(const SimulationReport& a, const SimulationReport& b) {
  EXPECT_EQ(a.measured_requests, b.measured_requests);
  EXPECT_EQ(a.shards_used, b.shards_used);
  EXPECT_EQ(a.latency_cdf.count(), b.latency_cdf.count());
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.mean_cost_hops, b.mean_cost_hops);
  EXPECT_EQ(a.local_ratio, b.local_ratio);
  EXPECT_EQ(a.cache_hit_ratio, b.cache_hit_ratio);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.latency_cdf.quantile(q), b.latency_cdf.quantile(q));
  }
  ASSERT_EQ(a.server_cache_stats.size(), b.server_cache_stats.size());
  for (std::size_t i = 0; i < a.server_cache_stats.size(); ++i) {
    EXPECT_EQ(a.server_cache_stats[i].hits(), b.server_cache_stats[i].hits());
    EXPECT_EQ(a.server_cache_stats[i].misses(),
              b.server_cache_stats[i].misses());
  }
}

TEST(ShardPlanTest, CoversEveryServerAndRequest) {
  const auto t = TestSystem::make(7);
  const auto plan = plan_shards(t.system->demand(), 100'000, 3, 42);
  ASSERT_EQ(plan.servers.size(), 3u);
  ASSERT_EQ(plan.requests.size(), 3u);
  std::vector<bool> seen(7, false);
  for (std::size_t s = 0; s < 3; ++s) {
    for (const auto server : plan.servers[s]) {
      EXPECT_EQ(server % 3, s);  // round-robin ownership
      seen[server] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  EXPECT_EQ(std::accumulate(plan.requests.begin(), plan.requests.end(),
                            std::uint64_t{0}),
            100'000u);
}

TEST(ShardPlanTest, DeterministicInSeedAndShards) {
  const auto t = TestSystem::make(8);
  const auto a = plan_shards(t.system->demand(), 50'000, 4, 7);
  const auto b = plan_shards(t.system->demand(), 50'000, 4, 7);
  EXPECT_EQ(a.requests, b.requests);
  const auto c = plan_shards(t.system->demand(), 50'000, 4, 8);
  EXPECT_NE(a.requests, c.requests);  // different seed, different split
}

TEST(ShardPlanTest, SplitTracksDemandMass) {
  // Shard request counts are multinomial over shard demand masses, so each
  // shard's share must track its mass within sampling noise.
  const auto t = TestSystem::make(6);
  const auto& demand = t.system->demand();
  const std::size_t shards = 3;
  const auto plan = plan_shards(demand, 300'000, shards, 11);
  double total_mass = 0.0;
  std::vector<double> mass(shards, 0.0);
  for (std::size_t i = 0; i < demand.server_count(); ++i) {
    for (const double d : demand.row(static_cast<std::uint32_t>(i))) {
      mass[i % shards] += d;
      total_mass += d;
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const double expected = mass[s] / total_mass;
    const double got =
        static_cast<double>(plan.requests[s]) / 300'000.0;
    EXPECT_NEAR(got, expected, 0.01);
  }
}

TEST(ShardEngineTest, ResolveShardCountClampsToServers) {
  EXPECT_EQ(resolve_shard_count(0, 4, 100), 16u);  // auto: 4x threads
  EXPECT_EQ(resolve_shard_count(0, 4, 10), 10u);   // capped at servers
  EXPECT_EQ(resolve_shard_count(32, 4, 10), 10u);  // explicit also capped
  EXPECT_EQ(resolve_shard_count(2, 8, 10), 2u);    // explicit wins
  EXPECT_EQ(resolve_shard_count(0, 1, 1), 1u);
}

TEST(ParallelSimTest, UsesParallelEngineOnHealthySyntheticRuns) {
  const auto t = TestSystem::make(8);
  const auto placement = pure_caching(*t.system);
  const auto report = simulate(*t.system, placement, parallel_sim());
  EXPECT_GT(report.shards_used, 1u);
  EXPECT_TRUE(report.latency_cdf.sketched());
  EXPECT_EQ(report.latency_cdf.count(), report.measured_requests);
}

TEST(ParallelSimTest, SequentialEngineWhenThreadsOne) {
  const auto t = TestSystem::make(8);
  const auto placement = pure_caching(*t.system);
  const auto report =
      simulate(*t.system, placement, parallel_sim(200'000, 1));
  EXPECT_EQ(report.shards_used, 1u);
  EXPECT_FALSE(report.latency_cdf.sketched());
}

TEST(ParallelSimTest, DeterministicForFixedSeedAndShards) {
  // The parallel report is a function of (seed, shards) alone: any thread
  // count produces byte-identical results.
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  const auto a = simulate(*t.system, placement, parallel_sim(200'000, 2, 8));
  const auto b = simulate(*t.system, placement, parallel_sim(200'000, 5, 8));
  const auto c = simulate(*t.system, placement, parallel_sim(200'000, 8, 8));
  expect_identical(a, b);
  expect_identical(a, c);
}

TEST(ParallelSimTest, MatchesSequentialStatistically) {
  // Same workload law, different decomposition: at 1M requests the two
  // engines must agree on every aggregate within tight sampling noise.
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  const auto seq =
      simulate(*t.system, placement, parallel_sim(1'000'000, 1));
  const auto par =
      simulate(*t.system, placement, parallel_sim(1'000'000, 4));
  EXPECT_NEAR(par.mean_latency_ms / seq.mean_latency_ms, 1.0, 0.02);
  EXPECT_NEAR(par.mean_cost_hops / seq.mean_cost_hops, 1.0, 0.02);
  EXPECT_NEAR(par.local_ratio, seq.local_ratio, 0.01);
  EXPECT_NEAR(par.cache_hit_ratio, seq.cache_hit_ratio, 0.02);
  // Quantiles agree within the sketch's relative-error bound plus noise.
  for (double q : {0.5, 0.9, 0.99}) {
    const double s = seq.latency_cdf.quantile(q);
    EXPECT_NEAR(par.latency_cdf.quantile(q) / s, 1.0, 0.05) << "q=" << q;
  }
}

TEST(ParallelSimTest, FaultScheduleForcesSequentialEngine) {
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  FaultSchedule faults;
  faults.add_server_outage(1, 40'000, 120'000);
  auto cfg = parallel_sim();
  cfg.faults = &faults;
  const auto with_threads = simulate(*t.system, placement, cfg);
  EXPECT_EQ(with_threads.shards_used, 1u);
  cfg.threads = 1;
  const auto sequential = simulate(*t.system, placement, cfg);
  expect_identical(with_threads, sequential);
}

TEST(ParallelSimTest, WindowSeriesSumBackToAggregates) {
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  cdn::obs::Registry registry;
  auto cfg = parallel_sim();
  cfg.metrics = &registry;
  cfg.metrics_prefix = "par/";
  cfg.metrics_windows = 20;
  const auto report = simulate(*t.system, placement, cfg);
  ASSERT_GT(report.shards_used, 1u);
  const double requests = registry.series("par/window/requests").sum();
  const double local = registry.series("par/window/local").sum();
  const double eligible = registry.series("par/window/eligible").sum();
  const double hits = registry.series("par/window/eligible_hits").sum();
  EXPECT_DOUBLE_EQ(requests,
                   static_cast<double>(report.measured_requests));
  EXPECT_DOUBLE_EQ(local / requests, report.local_ratio);
  EXPECT_DOUBLE_EQ(hits / eligible, report.cache_hit_ratio);
}

TEST(ParallelSimTest, CauseCountersSumToMeasuredRequests) {
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  cdn::obs::Registry registry;
  auto cfg = parallel_sim();
  cfg.metrics = &registry;
  cfg.metrics_prefix = "par/";
  const auto report = simulate(*t.system, placement, cfg);
  std::uint64_t total = 0;
  for (const char* cause : {"replica", "cache-hit", "cache-miss",
                            "stale-refresh", "uncacheable"}) {
    total += registry.counter(std::string("par/cause/") + cause).value();
  }
  EXPECT_EQ(total, report.measured_requests);
  EXPECT_EQ(registry.gauge("par/parallel/shards").value(),
            static_cast<double>(report.shards_used));
}

TEST(ParallelSimTest, ShardRequestCountersCoverTheRun) {
  const auto t = TestSystem::make(8);
  const auto placement = pure_caching(*t.system);
  cdn::obs::Registry registry;
  auto cfg = parallel_sim(100'000, 4, 4);
  cfg.metrics = &registry;
  cfg.metrics_prefix = "par/";
  const auto report = simulate(*t.system, placement, cfg);
  EXPECT_EQ(report.shards_used, 4u);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    total += registry.counter("par/shard/" + std::to_string(s) + "/requests")
                 .value();
  }
  EXPECT_EQ(total, 100'000u);
}

}  // namespace
