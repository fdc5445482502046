// Unit tests for trace recording, serialisation and replay.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/placement/fixed_split.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "src/workload/trace_io.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::test::TestSystem;

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hybridcdn_trace_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

workload::RecordedTrace sample_trace(const TestSystem& t, std::size_t n) {
  workload::RequestStream stream(*t.catalog, *t.demand, 42);
  return workload::RecordedTrace::record(stream, n);
}

TEST_F(TraceIoTest, RecordProducesRequestedCount) {
  const auto t = TestSystem::make();
  const auto trace = sample_trace(t, 1000);
  EXPECT_EQ(trace.size(), 1000u);
  trace.validate(t.system->server_count(), t.system->site_count(),
                 t.catalog->objects_per_site());
}

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const auto t = TestSystem::make();
  const auto trace = sample_trace(t, 5000);
  trace.save_binary(path("trace.bin"));
  const auto loaded = workload::RecordedTrace::load_binary(path("trace.bin"));
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].server, trace[i].server);
    EXPECT_EQ(loaded[i].site, trace[i].site);
    EXPECT_EQ(loaded[i].rank, trace[i].rank);
  }
}

TEST_F(TraceIoTest, CsvRoundTrip) {
  const auto t = TestSystem::make();
  const auto trace = sample_trace(t, 500);
  trace.save_csv(path("trace.csv"));
  const auto loaded = workload::RecordedTrace::load_csv(path("trace.csv"));
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); i += 37) {
    EXPECT_EQ(loaded[i].server, trace[i].server);
    EXPECT_EQ(loaded[i].site, trace[i].site);
    EXPECT_EQ(loaded[i].rank, trace[i].rank);
  }
}

TEST_F(TraceIoTest, CorruptedBinaryIsDetected) {
  const auto t = TestSystem::make();
  const auto trace = sample_trace(t, 200);
  trace.save_binary(path("trace.bin"));
  // Flip one payload byte.
  std::fstream f(path("trace.bin"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(64);
  char byte = 0x7f;
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(workload::RecordedTrace::load_binary(path("trace.bin")),
               cdn::PreconditionError);
}

TEST_F(TraceIoTest, WrongMagicRejected) {
  std::ofstream(path("junk.bin"), std::ios::binary) << "NOTATRACE.......";
  EXPECT_THROW(workload::RecordedTrace::load_binary(path("junk.bin")),
               cdn::PreconditionError);
}

TEST_F(TraceIoTest, MissingFileRejected) {
  EXPECT_THROW(workload::RecordedTrace::load_binary(path("absent.bin")),
               cdn::PreconditionError);
}

TEST_F(TraceIoTest, ValidateCatchesOutOfRangeRecords) {
  workload::RecordedTrace trace;
  trace.append({99, 0, 1});
  EXPECT_THROW(trace.validate(4, 8, 100), cdn::PreconditionError);
  workload::RecordedTrace trace2;
  trace2.append({0, 0, 0});  // rank 0 invalid
  EXPECT_THROW(trace2.validate(4, 8, 100), cdn::PreconditionError);
}

TEST_F(TraceIoTest, ReplayIsDeterministicAcrossPolicies) {
  // The same trace replayed twice gives bit-identical reports; replayed
  // against a different policy it differs — the core "replay" use case.
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  const auto trace = sample_trace(t, 300'000);

  sim::SimulationConfig cfg;
  cfg.trace = &trace;
  const auto a = sim::simulate(*t.system, placement, cfg);
  const auto b = sim::simulate(*t.system, placement, cfg);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.total_requests, trace.size());

  cfg.policy = cache::PolicyKind::kFifo;
  const auto c = sim::simulate(*t.system, placement, cfg);
  EXPECT_NE(c.cache_hit_ratio, a.cache_hit_ratio);
}

TEST_F(TraceIoTest, ReplayMatchesLiveStreamWithSameSeed) {
  // Recording seed-42 traffic and replaying it must equal simulating with
  // the generator seeded at 42 (the simulator draws lambda and object
  // updates from separate streams, so with lambda = 0 the runs coincide
  // exactly) — in the lambda mode and in both consistency modes.
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  const auto trace = sample_trace(t, 200'000);

  for (const sim::StalenessMode mode :
       {sim::StalenessMode::kRefresh, sim::StalenessMode::kTtl,
        sim::StalenessMode::kInvalidation}) {
    sim::SimulationConfig live;
    live.total_requests = 200'000;
    live.seed = 42;
    live.staleness = mode;
    live.consistency.ttl = 5.0;
    live.consistency.min_mean_update_interval = 100.0;
    live.consistency.max_mean_update_interval = 1000.0;
    const auto live_report = sim::simulate(*t.system, placement, live);

    sim::SimulationConfig replay = live;
    replay.trace = &trace;
    const auto replay_report = sim::simulate(*t.system, placement, replay);
    EXPECT_EQ(sim::report_digest(replay_report),
              sim::report_digest(live_report))
        << static_cast<int>(mode);
  }
}

TEST_F(TraceIoTest, EmptyTraceRejectedBySimulator) {
  const auto t = TestSystem::make();
  const auto placement = placement::pure_caching(*t.system);
  const workload::RecordedTrace empty;
  sim::SimulationConfig cfg;
  cfg.trace = &empty;
  EXPECT_THROW(sim::simulate(*t.system, placement, cfg),
               cdn::PreconditionError);
}

}  // namespace
