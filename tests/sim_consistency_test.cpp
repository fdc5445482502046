// Unit tests for the cache-consistency substrate (Section 3.3 mechanisms)
// and the event engine's kTtl and kInvalidation staleness modes.

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/sim/consistency.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::test::TestSystem;

TEST(ModificationProcessTest, DeterministicReplay) {
  sim::ModificationProcess a(100.0, 1000.0, 42, 200'000);
  sim::ModificationProcess b(100.0, 1000.0, 42, 200'000);
  for (workload::ObjectId obj : {1ull, 99ull, 123456ull}) {
    for (double now : {50.0, 500.0, 5000.0, 50000.0}) {
      EXPECT_DOUBLE_EQ(a.last_modification(obj, now),
                       b.last_modification(obj, now));
    }
  }
}

TEST(ModificationProcessTest, LastModificationIsMonotoneAndBounded) {
  sim::ModificationProcess proc(10.0, 100.0, 7, 200'000);
  double prev = -1.0;
  for (double now = 0.0; now < 10000.0; now += 37.0) {
    const double last = proc.last_modification(5, now);
    EXPECT_LE(last, now);
    EXPECT_GE(last, prev);
    prev = last;
  }
}

TEST(ModificationProcessTest, MeanIntervalInConfiguredRange) {
  sim::ModificationProcess proc(3600.0, 86400.0, 11, 200'000);
  for (workload::ObjectId obj = 0; obj < 500; ++obj) {
    const double m = proc.mean_interval(obj);
    EXPECT_GE(m, 3600.0);
    EXPECT_LE(m, 86400.0);
  }
}

TEST(ModificationProcessTest, UpdateRateMatchesMeanInterval) {
  sim::ModificationProcess proc(50.0, 50.0, 13, 200'000);  // fixed mean 50
  // Count updates in [0, T] by stepping through last_modification.
  const double horizon = 100000.0;
  int updates = 0;
  double t = 0.0;
  double last = 0.0;
  while (t < horizon) {
    const double lm = proc.last_modification(1, t);
    if (lm > last) {
      ++updates;
      last = lm;
    }
    t += 10.0;
  }
  EXPECT_NEAR(static_cast<double>(updates), horizon / 50.0,
              0.15 * horizon / 50.0);
}

TEST(ModificationProcessTest, RejectsBadIntervals) {
  EXPECT_THROW(sim::ModificationProcess(0.0, 10.0, 1, 200'000),
               cdn::PreconditionError);
  EXPECT_THROW(sim::ModificationProcess(20.0, 10.0, 1, 200'000),
               cdn::PreconditionError);
}

TEST(FreshnessTableTest, TracksFetchTimes) {
  sim::FreshnessTable table;
  EXPECT_LT(table.fetch_time(1), 0.0);  // -inf for unknown
  table.on_fetch(1, 42.0);
  EXPECT_DOUBLE_EQ(table.fetch_time(1), 42.0);
  table.on_fetch(1, 50.0);
  EXPECT_DOUBLE_EQ(table.fetch_time(1), 50.0);
  table.erase(1);
  EXPECT_LT(table.fetch_time(1), 0.0);
}

class ConsistencySimTest : public ::testing::Test {
 protected:
  static sim::SimulationConfig quick(sim::StalenessMode mode) {
    sim::SimulationConfig cfg;
    cfg.total_requests = 400'000;
    cfg.seed = 23;
    cfg.staleness = mode;
    return cfg;
  }

  /// A short run with churny objects, so every consistency branch runs.
  static sim::SimulationConfig churny(sim::StalenessMode mode) {
    auto cfg = quick(mode);
    cfg.total_requests = 100'000;
    cfg.consistency.ttl = 5.0;
    cfg.consistency.min_mean_update_interval = 100.0;
    cfg.consistency.max_mean_update_interval = 1000.0;
    return cfg;
  }

  static double stale_ratio(const sim::SimulationReport& report) {
    return static_cast<double>(report.stale_served) /
           static_cast<double>(report.measured_requests);
  }
};

constexpr sim::StalenessMode kConsistencyModes[] = {
    sim::StalenessMode::kTtl, sim::StalenessMode::kInvalidation};

TEST_F(ConsistencySimTest, InvalidationNeverServesStale) {
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  auto cfg = quick(sim::StalenessMode::kInvalidation);
  cfg.consistency.min_mean_update_interval = 100.0;  // very churny objects
  cfg.consistency.max_mean_update_interval = 1000.0;
  const auto report = sim::simulate(*t.system, placement, cfg);
  EXPECT_EQ(report.stale_served, 0u);
  EXPECT_EQ(report.validations, 0u);
  EXPECT_GT(report.invalidation_misses, 0u);
}

TEST_F(ConsistencySimTest, TtlServesStaleUnderChurn) {
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  auto cfg = quick(sim::StalenessMode::kTtl);
  cfg.consistency.ttl = 1e6;  // effectively never revalidate
  cfg.consistency.min_mean_update_interval = 100.0;
  cfg.consistency.max_mean_update_interval = 1000.0;
  const auto report = sim::simulate(*t.system, placement, cfg);
  EXPECT_GT(report.stale_served, 0u);
  EXPECT_GT(stale_ratio(report), 0.0);
  EXPECT_EQ(report.invalidation_misses, 0u);
}

TEST_F(ConsistencySimTest, ShortTtlEliminatesStalenessButCostsLatency) {
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  auto lazy = quick(sim::StalenessMode::kTtl);
  lazy.consistency.ttl = 1e7;
  lazy.consistency.min_mean_update_interval = 200.0;
  lazy.consistency.max_mean_update_interval = 2000.0;
  auto eager = lazy;
  eager.consistency.ttl = 1000.0 * sim::kSecondsPerRequest;  // ~1k requests
  const auto lazy_report = sim::simulate(*t.system, placement, lazy);
  const auto eager_report = sim::simulate(*t.system, placement, eager);
  EXPECT_LT(stale_ratio(eager_report), stale_ratio(lazy_report));
  EXPECT_GT(eager_report.validations, lazy_report.validations);
  EXPECT_GT(eager_report.mean_latency_ms, lazy_report.mean_latency_ms);
}

TEST_F(ConsistencySimTest, SlowUpdatesMakeStrongConsistencyCheap) {
  // [22]: modification intervals of 1-24h make the stale probability tiny;
  // invalidation misses should be rare relative to total requests.
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  // Defaults: 1h..24h.
  const auto report = sim::simulate(
      *t.system, placement, quick(sim::StalenessMode::kInvalidation));
  EXPECT_LT(static_cast<double>(report.invalidation_misses) /
                static_cast<double>(report.measured_requests),
            0.02);
}

TEST_F(ConsistencySimTest, ReplicatedSitesUnaffectedByChurn) {
  // 100%-storage replication: everything local regardless of updates.
  const auto t = TestSystem::make(2, 2, 1, 50, 1.0);
  const auto placement = placement::greedy_global(*t.system);
  auto cfg = quick(sim::StalenessMode::kInvalidation);
  cfg.consistency.min_mean_update_interval = 10.0;
  cfg.consistency.max_mean_update_interval = 20.0;
  const auto report = sim::simulate(*t.system, placement, cfg);
  EXPECT_DOUBLE_EQ(report.local_ratio, 1.0);
  EXPECT_EQ(report.invalidation_misses, 0u);
}

TEST_F(ConsistencySimTest, RunsTheOneShardCaseAtAnyThreadCount) {
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  for (const sim::StalenessMode mode : kConsistencyModes) {
    auto cfg = churny(mode);
    const auto one = sim::simulate(*t.system, placement, cfg);
    cfg.threads = 4;
    cfg.shards = 4;
    const auto four = sim::simulate(*t.system, placement, cfg);
    EXPECT_EQ(four.shards_used, 1u);
    EXPECT_EQ(sim::report_digest(four), sim::report_digest(one));
  }
}

TEST_F(ConsistencySimTest, MetricsLeaveTheReportUnchanged) {
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  for (const sim::StalenessMode mode : kConsistencyModes) {
    auto cfg = churny(mode);
    const auto plain = sim::simulate(*t.system, placement, cfg);
    EXPECT_GT(plain.validations + plain.invalidation_misses, 0u);
    obs::Registry registry;
    cfg.metrics = &registry;
    const auto instrumented = sim::simulate(*t.system, placement, cfg);
    EXPECT_EQ(sim::report_digest(instrumented), sim::report_digest(plain));

    const obs::Series* requests = registry.find_series("sim/window/requests");
    ASSERT_NE(requests, nullptr);
    double windowed = 0.0;
    for (const double v : requests->values()) windowed += v;
    EXPECT_EQ(windowed, static_cast<double>(plain.measured_requests));
    const obs::Counter* refreshes =
        registry.find_counter("sim/cause/stale-refresh");
    ASSERT_NE(refreshes, nullptr);
    EXPECT_EQ(refreshes->value(), plain.validations);
  }
}

TEST_F(ConsistencySimTest, RejectsBadConfig) {
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  const auto expect_refused = [&](const sim::SimulationConfig& cfg,
                                  const char* why) {
    try {
      sim::simulate(*t.system, placement, cfg);
      ADD_FAILURE() << "accepted a run with " << why;
    } catch (const cdn::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("TTL"), std::string::npos)
          << why << ": " << e.what();
    }
  };
  for (const double ttl : {0.0, -1.0}) {
    auto cfg = quick(sim::StalenessMode::kTtl);
    cfg.consistency.ttl = ttl;
    expect_refused(cfg, "a non-positive TTL");
  }
  fault::FaultSchedule faults;
  faults.add_server_outage(1, 1'000, 2'000);
  const std::atomic<bool> stop{false};
  for (const sim::StalenessMode mode : kConsistencyModes) {
    auto flow = quick(mode);
    flow.engine = sim::SimEngine::kFlow;
    expect_refused(flow, "the flow engine");
    auto faulty = quick(mode);
    faulty.faults = &faults;
    expect_refused(faulty, "a fault schedule");
    auto checkpointed = quick(mode);
    checkpointed.checkpoint_path = "unused.ckpt";
    checkpointed.checkpoint_every_requests = 10'000;
    expect_refused(checkpointed, "a checkpoint path");
    auto resumed = quick(mode);
    resumed.resume_path = "unused.ckpt";
    expect_refused(resumed, "a resume path");
    auto stoppable = quick(mode);
    stoppable.stop = &stop;
    expect_refused(stoppable, "a stop flag");
  }
  // Lambda is the other staleness model; the two do not combine.
  const auto flagged = TestSystem::make();
  flagged.catalog->set_uncacheable_fraction(0.1);
  const auto flagged_placement = placement::pure_caching(*flagged.system);
  for (const sim::StalenessMode mode : kConsistencyModes) {
    EXPECT_THROW(sim::simulate(*flagged.system, flagged_placement, quick(mode)),
                 cdn::PreconditionError);
  }
}

}  // namespace
