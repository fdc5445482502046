// Event-level parity of the event engine's three-pass blocks.  The
// reference is the per-request oracle of tests/sim_oracle.h: every request
// of an engine run, warm-up included, must produce the oracle's trace event
// field for field, and the run's failure, consistency and per-server cache
// counters must equal the oracle's — across cache policies, the four
// staleness modes, a fault schedule and trace replay.  A live synthetic run
// must also report exactly what replaying its recorded stream reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include "src/cache/cache_factory.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/fixed_split.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/serial.h"
#include "src/workload/request_stream.h"
#include "src/workload/trace_io.h"
#include "tests/sim_oracle.h"
#include "tests/test_support.h"

namespace {

using cdn::cache::PolicyKind;
using cdn::sim::report_digest;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::sim::StalenessMode;
using cdn::test::TestSystem;
using cdn::workload::RecordedTrace;
using cdn::workload::RequestStream;

constexpr std::uint64_t kRequests = 120'000;
constexpr std::uint64_t kSeed = 23;

SimulationConfig base_config() {
  SimulationConfig cfg;
  cfg.total_requests = kRequests;
  cfg.warmup_fraction = 0.3;
  cfg.seed = kSeed;
  return cfg;
}

/// gtest names allow [A-Za-z0-9_] only ("delayed-lru").
std::string policy_label(PolicyKind policy) {
  std::string name = cdn::cache::policy_name(policy);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

const auto kPolicies =
    ::testing::Values(PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kLfu,
                      PolicyKind::kClock, PolicyKind::kDelayedLru);

class BatchParityTest
    : public ::testing::TestWithParam<std::tuple<PolicyKind, StalenessMode>> {
};

TEST_P(BatchParityTest, LiveRunMatchesTraceReplayExactly) {
  const auto [policy, staleness] = GetParam();
  auto t = TestSystem::make();
  // A nonzero lambda exercises the flagged-request branches of the block;
  // kUncacheable additionally covers the admission bypass.
  t.catalog->set_uncacheable_fraction(0.2);
  const auto placement = cdn::placement::hybrid_greedy(*t.system);

  auto live_cfg = base_config();
  live_cfg.policy = policy;
  live_cfg.staleness = staleness;
  const auto live = simulate(*t.system, placement, live_cfg);

  // A trace recorded from the same stream seed replays the exact sequence
  // the live run generated, drawn from the trace instead of the stream.
  RequestStream stream(*t.catalog, *t.demand, kSeed);
  const auto trace = RecordedTrace::record(stream, kRequests);
  auto replay_cfg = live_cfg;
  replay_cfg.trace = &trace;
  const auto replay = simulate(*t.system, placement, replay_cfg);
  t.catalog->set_uncacheable_fraction(0.0);

  EXPECT_EQ(report_digest(live), report_digest(replay));
  EXPECT_EQ(live.measured_requests, replay.measured_requests);
  EXPECT_DOUBLE_EQ(live.mean_latency_ms, replay.mean_latency_ms);
  EXPECT_DOUBLE_EQ(live.mean_cost_hops, replay.mean_cost_hops);
  EXPECT_DOUBLE_EQ(live.cache_hit_ratio, replay.cache_hit_ratio);
  EXPECT_EQ(live.cache_totals.hits(), replay.cache_totals.hits());
  EXPECT_EQ(live.cache_totals.evictions(), replay.cache_totals.evictions());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndStaleness, BatchParityTest,
    ::testing::Combine(kPolicies,
                       ::testing::Values(StalenessMode::kRefresh,
                                         StalenessMode::kUncacheable)),
    [](const auto& suite_info) {
      return policy_label(std::get<0>(suite_info.param)) +
             (std::get<1>(suite_info.param) == StalenessMode::kRefresh
                  ? "Refresh"
                  : "Uncacheable");
    });

/// What an engine-vs-oracle run exercises besides its cache policy.
struct Workload {
  const char* name;
  StalenessMode staleness;
  bool faults;  // oracle_faults() and a 40 ms SLO
  bool trace;   // replay a recorded stream
};

// Keeps the test names ctest lists free of pointer values.
void PrintTo(const Workload& workload, std::ostream* os) {
  *os << workload.name;
}

constexpr Workload kWorkloads[] = {
    {"Refresh", StalenessMode::kRefresh, false, false},
    {"Uncacheable", StalenessMode::kUncacheable, false, false},
    {"Ttl", StalenessMode::kTtl, false, false},
    {"Invalidation", StalenessMode::kInvalidation, false, false},
    {"Faults", StalenessMode::kRefresh, true, false},
    {"TraceReplay", StalenessMode::kRefresh, false, true},
};

/// Server and origin outages, a link degradation and two overlapping
/// surges on the four-server TestSystem.  Transitions also land on the
/// warm-up edge (36,000), a window edge of the engine run's seven metric
/// windows (48,000) and a multiple of the one-shard block length (65,536).
cdn::fault::FaultSchedule oracle_faults() {
  cdn::fault::FaultSchedule faults;
  faults.add_server_outage(1, 10'000, 40'000);
  faults.add_server_outage(3, 36'000, 70'000);
  faults.add_server_outage(2, 48'000, 65'536);
  faults.add_server_outage(1, 90'000, 90'001);
  faults.add_origin_outage(0, 20'000, 60'000);
  faults.add_origin_outage(5, 30'000, 100'000);
  faults.add_link_degradation(0, 5'000, 100'000, 2.5);
  faults.add_demand_surge(6, 45'000, 80'000, 6.0);
  faults.add_demand_surge(1, 60'000, 75'000, 3.0);
  return faults;
}

/// The first field in which `a` (engine) and `b` (oracle) differ, or "".
std::string first_difference(const cdn::obs::TraceEvent& a,
                             const cdn::obs::TraceEvent& b) {
  std::ostringstream os;
  const auto field = [&](const char* name, const auto& x, const auto& y) {
    if (os.tellp() == 0 && !(x == y)) {
      os << name << ": engine " << +x << ", oracle " << +y;
    }
  };
  field("t", a.t, b.t);
  field("server", a.server, b.server);
  field("site", a.site, b.site);
  field("rank", a.rank, b.rank);
  field("cause", static_cast<int>(a.cause), static_cast<int>(b.cause));
  field("served_by", a.served_by, b.served_by);
  field("measured", a.measured, b.measured);
  field("hops", a.hops, b.hops);
  field("latency_ms", a.latency_ms, b.latency_ms);
  return os.str();
}

std::string stats_bytes(const cdn::cache::CacheStats& stats) {
  cdn::util::ByteWriter w;
  stats.save_state(w);
  return std::string(w.buffer().begin(), w.buffer().end());
}

class EngineOracleTest
    : public ::testing::TestWithParam<std::tuple<PolicyKind, Workload>> {};

TEST_P(EngineOracleTest, EveryEventMatchesThePerRequestOracle) {
  const auto [policy, workload] = GetParam();
  const bool consistency = workload.staleness == StalenessMode::kTtl ||
                           workload.staleness == StalenessMode::kInvalidation;
  auto t = TestSystem::make();
  // The consistency modes refuse lambda > 0; everything else runs the
  // flagged branches at lambda = 0.2.
  t.catalog->set_uncacheable_fraction(consistency ? 0.0 : 0.2);
  const auto placement = cdn::placement::hybrid_greedy(*t.system);

  auto cfg = base_config();
  cfg.policy = policy;
  cfg.staleness = workload.staleness;
  cfg.consistency.ttl = 5.0;
  cfg.consistency.min_mean_update_interval = 100.0;
  cfg.consistency.max_mean_update_interval = 1000.0;
  const auto faults = oracle_faults();
  if (workload.faults) {
    cfg.faults = &faults;
    cfg.slo_ms = 40.0;
  }
  RequestStream stream(*t.catalog, *t.demand, 31);
  const auto trace = RecordedTrace::record(stream, kRequests);
  if (workload.trace) cfg.trace = &trace;
  const auto oracle = cdn::test::oracle_simulate(*t.system, placement, cfg);

  // Every request is traced; the metric windows add block edges.
  cdn::obs::TraceSink sink(1.0, 1, kRequests);
  cdn::obs::Registry registry;
  cfg.trace_sink = &sink;
  cfg.metrics = &registry;
  cfg.metrics_windows = 7;
  const auto report = simulate(*t.system, placement, cfg);
  t.catalog->set_uncacheable_fraction(0.0);

  ASSERT_EQ(sink.dropped(), 0u);
  ASSERT_EQ(sink.events().size(), oracle.events.size());
  for (std::size_t i = 0; i < oracle.events.size(); ++i) {
    const std::string diff =
        first_difference(sink.events()[i], oracle.events[i]);
    ASSERT_EQ(diff, "") << "first mismatch at request " << i;
  }
  EXPECT_EQ(report.failed_requests, oracle.failed);
  EXPECT_EQ(report.failover_requests, oracle.failover);
  EXPECT_EQ(report.retry_attempts, oracle.retries);
  EXPECT_EQ(report.cold_restarts, oracle.cold_restarts);
  EXPECT_EQ(report.stale_served, oracle.stale_served);
  EXPECT_EQ(report.validations, oracle.validations);
  EXPECT_EQ(report.invalidation_misses, oracle.invalidation_misses);
  ASSERT_EQ(report.server_cache_stats.size(),
            oracle.server_cache_stats.size());
  for (std::size_t i = 0; i < oracle.server_cache_stats.size(); ++i) {
    EXPECT_EQ(stats_bytes(report.server_cache_stats[i]),
              stats_bytes(oracle.server_cache_stats[i]))
        << "server " << i;
  }

  // The run reaches the branches it is here for.
  if (workload.faults) {
    EXPECT_GT(oracle.failed, 0u);
    EXPECT_GT(oracle.failover, 0u);
    EXPECT_GT(oracle.cold_restarts, 0u);
  }
  if (workload.staleness == StalenessMode::kTtl) {
    EXPECT_GT(oracle.validations, 0u);
    EXPECT_GT(oracle.stale_served, 0u);
  }
  if (workload.staleness == StalenessMode::kInvalidation) {
    EXPECT_GT(oracle.invalidation_misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndWorkloads, EngineOracleTest,
    ::testing::Combine(kPolicies, ::testing::ValuesIn(kWorkloads)),
    [](const auto& suite_info) {
      return policy_label(std::get<0>(suite_info.param)) +
             std::get<1>(suite_info.param).name;
    });

}  // namespace
