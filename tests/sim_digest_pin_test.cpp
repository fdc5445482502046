// Literal report digests of the event engine.  The other simulator tests
// compare runs with each other (batched vs replay, killed vs resumed,
// thread counts), so a change that shifted every path the same way would
// pass them; these pins would not.  Each value is the report_digest (and,
// where noted, an FNV-1a over registry series or sampled trace events) of
// one fixed TestSystem run.  A deliberate change to what the simulator
// computes must re-record them and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/serial.h"
#include "src/workload/request_stream.h"
#include "src/workload/trace_io.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::sim::report_digest;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::test::TestSystem;

SimulationConfig pin_config() {
  SimulationConfig cfg;
  cfg.total_requests = 60'000;
  cfg.warmup_fraction = 0.3;
  cfg.seed = 29;
  cfg.metrics_windows = 7;
  return cfg;
}

std::uint64_t hash_of(const util::ByteWriter& w) {
  return util::fnv1a(w.buffer().data(), w.size());
}

/// FNV-1a over every per-window series value and every cause counter of a
/// healthy run, in a fixed name order.
std::uint64_t window_and_cause_digest(const obs::Registry& registry) {
  util::ByteWriter w;
  for (const char* name :
       {"requests", "local", "eligible", "eligible_hits", "hops", "hit_ratio",
        "local_ratio", "mean_hops", "mean_latency_ms"}) {
    const obs::Series* series =
        registry.find_series(std::string("sim/window/") + name);
    EXPECT_NE(series, nullptr) << name;
    if (series == nullptr) continue;
    w.u64(series->values().size());
    for (const double v : series->values()) w.f64(v);
  }
  for (const char* cause : {"replica", "cache-hit", "cache-miss",
                            "stale-refresh", "uncacheable"}) {
    const obs::Counter* counter =
        registry.find_counter(std::string("sim/cause/") + cause);
    EXPECT_NE(counter, nullptr) << cause;
    w.u64(counter != nullptr ? counter->value() : 0);
  }
  return hash_of(w);
}

/// FNV-1a over every field of every sampled trace event.
std::uint64_t trace_digest(const obs::TraceSink& sink) {
  util::ByteWriter w;
  w.u64(sink.events().size());
  for (const obs::TraceEvent& e : sink.events()) {
    w.u64(e.t);
    w.u32(e.server);
    w.u32(e.site);
    w.u32(e.rank);
    w.u8(static_cast<std::uint8_t>(e.cause));
    w.u32(static_cast<std::uint32_t>(e.served_by));
    w.u8(e.measured ? 1 : 0);
    w.f64(e.hops);
    w.f64(e.latency_ms);
  }
  return hash_of(w);
}

/// Eight servers (so eight shards fit) and lambda = 0.2, so the flagged
/// branches of every request path run.
TestSystem pin_system() {
  TestSystem t = TestSystem::make(8);
  t.catalog->set_uncacheable_fraction(0.2);
  return t;
}

class DigestPinTest : public ::testing::Test {
 protected:
  DigestPinTest()
      : t_(pin_system()), placement_(placement::hybrid_greedy(*t_.system)) {}

  std::uint64_t digest_of(const SimulationConfig& cfg) const {
    return report_digest(simulate(*t_.system, placement_, cfg));
  }

  TestSystem t_;
  placement::PlacementResult placement_;
};

TEST_F(DigestPinTest, SequentialHealthyLruRefresh) {
  obs::Registry registry;
  auto cfg = pin_config();
  cfg.metrics = &registry;
  EXPECT_EQ(digest_of(cfg), 0x124b78ddfc0de23cull);
  EXPECT_EQ(window_and_cause_digest(registry), 0xb0feff6d638b0b84ull);
}

TEST_F(DigestPinTest, SequentialFifoUncacheable) {
  auto cfg = pin_config();
  cfg.policy = cache::PolicyKind::kFifo;
  cfg.staleness = sim::StalenessMode::kUncacheable;
  EXPECT_EQ(digest_of(cfg), 0x9b09e9d1089cfe4aull);
}

TEST_F(DigestPinTest, SequentialStreamLocality) {
  auto cfg = pin_config();
  cfg.stream_locality = 0.3;
  EXPECT_EQ(digest_of(cfg), 0xde8dae0a8418d56full);
}

TEST_F(DigestPinTest, FaultScheduleWithSlo) {
  fault::FaultSchedule faults;
  faults.add_server_outage(1, 8'000, 30'000);
  faults.add_origin_outage(0, 20'000, 35'000);
  faults.add_link_degradation(2, 10'000, 50'000, 3.0);
  faults.add_demand_surge(3, 25'000, 45'000, 6.0);
  auto cfg = pin_config();
  cfg.faults = &faults;
  cfg.slo_ms = 40.0;
  const auto report = simulate(*t_.system, placement_, cfg);
  EXPECT_GT(report.failover_requests, 0u);
  EXPECT_GT(report.cold_restarts, 0u);
  EXPECT_EQ(report_digest(report), 0x28523038b5b0db60ull);
}

TEST_F(DigestPinTest, TraceReplay) {
  workload::RequestStream stream(*t_.catalog, *t_.demand, 31);
  const auto trace = workload::RecordedTrace::record(stream, 50'000);
  auto cfg = pin_config();
  cfg.trace = &trace;
  EXPECT_EQ(digest_of(cfg), 0x7c2b35987fd58c88ull);
}

TEST_F(DigestPinTest, TraceSinkAttached) {
  obs::TraceSink sink(0.02, 5, 100'000);
  auto cfg = pin_config();
  cfg.trace_sink = &sink;
  EXPECT_EQ(digest_of(cfg), 0x124b78ddfc0de23cull);
  EXPECT_EQ(trace_digest(sink), 0xf41093849b15645full);
}

TEST_F(DigestPinTest, ShardedFourThreadsEightShards) {
  auto cfg = pin_config();
  cfg.total_requests = 120'000;
  cfg.threads = 4;
  cfg.shards = 8;
  EXPECT_EQ(digest_of(cfg), 0x811f04f08ded01a3ull);
}

}  // namespace
