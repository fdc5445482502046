// Byte-level parity of the data-oriented (batched) request loop: a live
// synthetic run must produce exactly the report of replaying the same
// stream through the trace path (which drives the per-request reference
// loop), across cache policies and staleness modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>

#include "src/cache/cache_factory.h"
#include "src/placement/fixed_split.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/workload/request_stream.h"
#include "src/workload/trace_io.h"
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

class BatchParityTest
    : public ::testing::TestWithParam<std::tuple<PolicyKind, StalenessMode>> {
};

TEST_P(BatchParityTest, LiveRunMatchesTraceReplayExactly) {
  const auto [policy, staleness] = GetParam();
  auto t = TestSystem::make();
  // A nonzero lambda exercises the flagged-request branches of the batched
  // loop; kUncacheable additionally covers the admission bypass.
  t.catalog->set_uncacheable_fraction(0.2);
  const auto placement = cdn::placement::hybrid_greedy(*t.system);

  auto live_cfg = base_config();
  live_cfg.policy = policy;
  live_cfg.staleness = staleness;
  const auto live = simulate(*t.system, placement, live_cfg);

  // The trace path forces the sequential per-request reference loop; a
  // trace recorded from the same stream seed replays the exact sequence the
  // live run generated.
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
    ::testing::Combine(::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                         PolicyKind::kLfu, PolicyKind::kClock,
                                         PolicyKind::kDelayedLru),
                       ::testing::Values(StalenessMode::kRefresh,
                                         StalenessMode::kUncacheable)),
    [](const auto& suite_info) {
      // gtest names allow [A-Za-z0-9_] only ("delayed-lru").
      std::string name =
          cdn::cache::policy_name(std::get<0>(suite_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      name += std::get<1>(suite_info.param) == StalenessMode::kRefresh
                  ? "Refresh"
                  : "Uncacheable";
      return name;
    });

}  // namespace
