// Kill-and-resume determinism tests (the headline invariant of
// docs/RECOVERY.md): for any kill point, resuming from the flushed
// checkpoint produces a SimulationReport byte-identical to the
// uninterrupted run — including under fault schedules, with metrics and
// trace sinks attached, and on the parallel sharded engine.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/fixed_split.h"
#include "src/placement/hybrid_greedy.h"
#include "src/recover/checkpoint.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::placement::hybrid_greedy;
using cdn::placement::pure_caching;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::sim::SimulationReport;
using cdn::test::TestSystem;

class KillResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hybridcdn_killresume_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

SimulationConfig base_config(std::uint64_t requests = 40'000,
                             std::uint64_t seed = 17) {
  SimulationConfig sc;
  sc.total_requests = requests;
  sc.warmup_fraction = 0.3;
  sc.seed = seed;
  return sc;
}

/// Runs with a pre-set stop flag so the engine halts at its first probe
/// after `kill_at` requests (sequential: probe stride = the request
/// cadence), flushing a checkpoint.  Returns the interrupt request index.
std::uint64_t killed_run(const TestSystem& t,
                         const placement::PlacementResult& placement,
                         SimulationConfig cfg, const std::string& ckpt,
                         std::uint64_t kill_at) {
  std::atomic<bool> stop{true};
  cfg.checkpoint_path = ckpt;
  cfg.checkpoint_every_requests = kill_at;
  cfg.stop = &stop;
  try {
    simulate(*t.system, placement, cfg);
  } catch (const recover::Interrupted& e) {
    EXPECT_EQ(e.checkpoint_path(), ckpt);
    EXPECT_GT(e.request_index(), 0u);
    EXPECT_LT(e.request_index(), cfg.total_requests);
    return e.request_index();
  }
  ADD_FAILURE() << "run was not interrupted";
  return 0;
}

SimulationReport resumed_run(const TestSystem& t,
                             const placement::PlacementResult& placement,
                             SimulationConfig cfg, const std::string& ckpt) {
  cfg.resume_path = ckpt;
  return simulate(*t.system, placement, cfg);
}

void expect_byte_identical(const SimulationReport& a,
                           const SimulationReport& b) {
  EXPECT_EQ(sim::serialize_report(a), sim::serialize_report(b));
  EXPECT_EQ(sim::report_digest(a), sim::report_digest(b));
}

TEST_F(KillResumeTest, SequentialResumeIsByteIdenticalAtManyKillPoints) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  const auto cfg = base_config();
  const auto reference = simulate(*t.system, placement, cfg);

  // Kill points straddle the warm-up boundary (12k), window boundaries and
  // both ends of the run.
  const std::uint64_t kills[] = {1,      7,      4'096,  11'999, 12'000,
                                 12'001, 20'000, 33'333, 39'998, 39'999};
  for (const std::uint64_t kill_at : kills) {
    const std::uint64_t at =
        killed_run(t, placement, cfg, path("ck.bin"), kill_at);
    EXPECT_EQ(at, kill_at);
    const auto resumed = resumed_run(t, placement, cfg, path("ck.bin"));
    expect_byte_identical(resumed, reference);
  }
}

TEST_F(KillResumeTest, SequentialResumeSurvivesADoubleKill) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  const auto cfg = base_config();
  const auto reference = simulate(*t.system, placement, cfg);

  killed_run(t, placement, cfg, path("ck.bin"), 9'000);
  // Second leg resumes AND gets killed again further in.
  std::atomic<bool> stop{true};
  auto leg2 = cfg;
  leg2.resume_path = path("ck.bin");
  leg2.checkpoint_path = path("ck2.bin");
  leg2.checkpoint_every_requests = 9'000;  // next probe: request 18'000
  leg2.stop = &stop;
  try {
    simulate(*t.system, placement, leg2);
    FAIL() << "second leg not interrupted";
  } catch (const recover::Interrupted& e) {
    EXPECT_EQ(e.request_index(), 18'000u);
  }
  const auto resumed = resumed_run(t, placement, cfg, path("ck2.bin"));
  expect_byte_identical(resumed, reference);
}

TEST_F(KillResumeTest, ResumeUnderActiveFaultsIsByteIdentical) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  fault::FaultSchedule faults;
  faults.add_server_outage(1, 10'000, 25'000);
  faults.add_server_outage(3, 15'000, 30'000);
  faults.add_origin_outage(0, 18'000, 22'000);
  faults.add_link_degradation(2, 5'000, 35'000, 2.5);
  auto cfg = base_config();
  cfg.faults = &faults;
  cfg.slo_ms = 40.0;
  const auto reference = simulate(*t.system, placement, cfg);
  ASSERT_GT(reference.failover_requests, 0u);

  // Kill points inside outages, at transition edges, and mid-recovery.
  for (const std::uint64_t kill_at :
       {std::uint64_t{9'999}, std::uint64_t{10'000}, std::uint64_t{17'000},
        std::uint64_t{25'000}, std::uint64_t{25'001}, std::uint64_t{31'000}}) {
    const std::uint64_t at =
        killed_run(t, placement, cfg, path("ck.bin"), kill_at);
    EXPECT_EQ(at, kill_at);
    const auto resumed = resumed_run(t, placement, cfg, path("ck.bin"));
    expect_byte_identical(resumed, reference);
    EXPECT_EQ(resumed.cold_restarts, reference.cold_restarts);
    EXPECT_EQ(resumed.fault_transitions, reference.fault_transitions);
  }
}

TEST_F(KillResumeTest, ResumeWithMetricsReproducesTheFullRegistry) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  auto cfg = base_config();
  cfg.metrics_windows = 10;
  obs::Registry ref_registry;
  {
    auto ref_cfg = cfg;
    ref_cfg.metrics = &ref_registry;
    simulate(*t.system, placement, ref_cfg);
  }

  auto kill_cfg = cfg;
  obs::Registry kill_registry;
  kill_cfg.metrics = &kill_registry;
  killed_run(t, placement, kill_cfg, path("ck.bin"), 21'000);

  // The resumed run gets a FRESH registry; the checkpoint replays the
  // pre-kill windows and counters into it.
  obs::Registry registry;
  auto resume_cfg = cfg;
  resume_cfg.metrics = &registry;
  resumed_run(t, placement, resume_cfg, path("ck.bin"));

  for (const char* name :
       {"sim/window/requests", "sim/window/hit_ratio", "sim/window/local",
        "sim/window/eligible", "sim/window/eligible_hits"}) {
    const auto& a = ref_registry.series(name).values();
    const auto& b = registry.series(name).values();
    EXPECT_EQ(a, b) << name;
  }
  for (const char* name :
       {"sim/cause/cache-hit", "sim/cause/cache-miss", "sim/cause/replica",
        "sim/cause/stale-refresh", "sim/cause/uncacheable"}) {
    EXPECT_EQ(ref_registry.counter(name).value(),
              registry.counter(name).value())
        << name;
  }
  EXPECT_EQ(registry.gauge("sim/recover/resumed").value(), 1.0);
  EXPECT_EQ(registry.gauge("sim/recover/resume_request_index").value(),
            21'000.0);
}

TEST_F(KillResumeTest, ResumeWithTraceSinkReplaysSampledEvents) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  const auto cfg = base_config(20'000);

  obs::TraceSink ref_sink(0.05, 99, 100'000);
  {
    auto ref_cfg = cfg;
    ref_cfg.trace_sink = &ref_sink;
    simulate(*t.system, placement, ref_cfg);
  }

  obs::TraceSink kill_sink(0.05, 99, 100'000);
  auto kill_cfg = cfg;
  kill_cfg.trace_sink = &kill_sink;
  killed_run(t, placement, kill_cfg, path("ck.bin"), 8'192);

  obs::TraceSink sink(0.05, 99, 100'000);
  auto resume_cfg = cfg;
  resume_cfg.trace_sink = &sink;
  resumed_run(t, placement, resume_cfg, path("ck.bin"));

  ASSERT_EQ(sink.events().size(), ref_sink.events().size());
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    EXPECT_EQ(sink.events()[i].t, ref_sink.events()[i].t);
    EXPECT_EQ(sink.events()[i].latency_ms, ref_sink.events()[i].latency_ms);
  }
}

TEST_F(KillResumeTest, ParallelResumeIsByteIdenticalAndThreadInvariant) {
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  auto cfg = base_config(60'000);
  cfg.threads = 4;
  cfg.shards = 8;
  const auto reference = simulate(*t.system, placement, cfg);
  ASSERT_EQ(reference.shards_used, 8u);

  for (const std::uint64_t kill_at :
       {std::uint64_t{5'000}, std::uint64_t{20'000}, std::uint64_t{59'000}}) {
    const std::uint64_t at =
        killed_run(t, placement, cfg, path("ck.bin"), kill_at);
    EXPECT_GT(at, 0u);
    // Resume with a DIFFERENT thread count: shards fix the result, threads
    // only change the schedule.
    auto resume_cfg = cfg;
    resume_cfg.threads = 2;
    const auto resumed = resumed_run(t, placement, resume_cfg, path("ck.bin"));
    expect_byte_identical(resumed, reference);
  }
}

TEST_F(KillResumeTest, ParallelResumeReproducesRegistryWindows) {
  const auto t = TestSystem::make(8);
  const auto placement = pure_caching(*t.system);
  auto cfg = base_config(60'000);
  cfg.threads = 3;
  cfg.shards = 6;
  cfg.metrics_windows = 8;

  obs::Registry ref_registry;
  {
    auto ref_cfg = cfg;
    ref_cfg.metrics = &ref_registry;
    simulate(*t.system, placement, ref_cfg);
  }

  obs::Registry kill_registry;
  auto kill_cfg = cfg;
  kill_cfg.metrics = &kill_registry;
  killed_run(t, placement, kill_cfg, path("ck.bin"), 15'000);

  obs::Registry registry;
  auto resume_cfg = cfg;
  resume_cfg.metrics = &registry;
  resumed_run(t, placement, resume_cfg, path("ck.bin"));

  for (const char* name : {"sim/window/requests", "sim/window/hit_ratio"}) {
    EXPECT_EQ(ref_registry.series(name).values(),
              registry.series(name).values())
        << name;
  }
}

TEST_F(KillResumeTest, ParallelStopAfterTheLastProbeStillInterrupts) {
  // The cadence does not divide the run, so the last barrier is no probe.
  // A stop raised after the last probe makes the workers return short of
  // the end; the run must checkpoint and throw, not report partial shards.
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  auto cfg = base_config(200'000);
  cfg.threads = 4;
  cfg.shards = 4;
  const auto reference = simulate(*t.system, placement, cfg);

  std::atomic<bool> stop{false};
  auto kill_cfg = cfg;
  kill_cfg.checkpoint_path = path("ck.bin");
  kill_cfg.checkpoint_every_requests = 150'000;  // one probe, at 150k
  kill_cfg.stop = &stop;
  kill_cfg.progress_every = 150'000;  // one snapshot, after that probe
  kill_cfg.progress = [&](const sim::SimulationProgress&) { stop = true; };
  try {
    simulate(*t.system, placement, kill_cfg);
    FAIL() << "a stop after the last probe returned a report";
  } catch (const recover::Interrupted& e) {
    EXPECT_EQ(e.checkpoint_path(), path("ck.bin"));
    EXPECT_GT(e.request_index(), 150'000u);
    EXPECT_LT(e.request_index(), cfg.total_requests);
  }
  const auto resumed = resumed_run(t, placement, cfg, path("ck.bin"));
  expect_byte_identical(resumed, reference);
}

TEST_F(KillResumeTest, ManySeedsSequentialAndParallel) {
  // The acceptance bar: ten seeds, randomised kill points derived from the
  // seed, both engines, all byte-identical after resume.
  const auto t = TestSystem::make(8);
  const auto placement = hybrid_greedy(*t.system);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto cfg = base_config(30'000, seed);
    if (seed % 2 == 0) {  // even seeds exercise the parallel engine
      cfg.threads = 4;
      cfg.shards = 4;
    }
    const auto reference = simulate(*t.system, placement, cfg);
    const std::uint64_t kill_at = 1'000 + (seed * 2'923) % 28'000;
    killed_run(t, placement, cfg, path("ck.bin"), kill_at);
    const auto resumed = resumed_run(t, placement, cfg, path("ck.bin"));
    expect_byte_identical(resumed, reference);
  }
}

TEST_F(KillResumeTest, MismatchedResumeConfigurationsAreRefused) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  const auto cfg = base_config();
  killed_run(t, placement, cfg, path("ck.bin"), 10'000);

  const auto expect_refused = [&](SimulationConfig bad, const char* section) {
    bad.resume_path = path("ck.bin");
    try {
      simulate(*t.system, placement, bad);
      FAIL() << "accepted a mismatched " << section;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(section), std::string::npos);
    }
  };

  {  // different seed → "config"
    auto bad = cfg;
    bad.seed = 18;
    expect_refused(bad, "config");
  }
  {  // different run length → "config"
    auto bad = cfg;
    bad.total_requests = 50'000;
    expect_refused(bad, "config");
  }
  {  // sequential checkpoint into the parallel engine → "engine"
    auto bad = cfg;
    bad.threads = 4;
    bad.shards = 4;
    expect_refused(bad, "engine");
  }
  {  // a fault schedule the checkpoint never saw → "faults"
    auto bad = cfg;
    fault::FaultSchedule faults;
    faults.add_server_outage(0, 1'000, 2'000);
    bad.faults = &faults;
    expect_refused(bad, "faults");
  }
  {  // different placement → "placement"
    auto bad = cfg;
    bad.resume_path = path("ck.bin");
    const auto other = pure_caching(*t.system);
    EXPECT_THROW(simulate(*t.system, other, bad), PreconditionError);
  }
}

TEST_F(KillResumeTest, CorruptedCheckpointRefusedCleanly) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  const auto cfg = base_config();
  killed_run(t, placement, cfg, path("ck.bin"), 10'000);

  // Flip one byte in the middle of the payload.
  std::fstream f(path("ck.bin"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(200);
  f.put('\x7f');
  f.close();

  auto resume_cfg = cfg;
  resume_cfg.resume_path = path("ck.bin");
  EXPECT_THROW(simulate(*t.system, placement, resume_cfg), PreconditionError);
}

TEST_F(KillResumeTest, VersionOneCheckpointRefusedNamingBothVersions) {
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  const auto cfg = base_config();
  killed_run(t, placement, cfg, path("ck.bin"), 10'000);

  // Re-head the file as version 1 with a valid checksum trailer, so the
  // version is the only thing wrong with it.
  std::ifstream in(path("ck.bin"), std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 20u);
  constexpr std::size_t kVersionOffset = 8;  // after the 8-byte magic
  bytes[kVersionOffset] = 1;
  bytes[kVersionOffset + 1] = bytes[kVersionOffset + 2] =
      bytes[kVersionOffset + 3] = 0;
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t checksum = util::fnv1a(bytes.data(), body);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[body + i] = static_cast<std::uint8_t>(checksum >> (8 * i));
  }
  std::ofstream out(path("v1.bin"), std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto resume_cfg = cfg;
  resume_cfg.resume_path = path("v1.bin");
  try {
    simulate(*t.system, placement, resume_cfg);
    FAIL() << "resumed from a version-1 checkpoint";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1 "), std::string::npos) << what;
    EXPECT_NE(what.find("reads version " +
                        std::to_string(recover::kCheckpointVersion)),
              std::string::npos)
        << what;
  }
}

TEST_F(KillResumeTest, CheckpointCadenceDoesNotChangeTheReport) {
  // A full, uninterrupted run WITH checkpointing enabled must still be
  // byte-identical to one without — checkpoint writes are pure observers.
  const auto t = TestSystem::make(6);
  const auto placement = hybrid_greedy(*t.system);
  const auto cfg = base_config();
  const auto reference = simulate(*t.system, placement, cfg);

  auto ck_cfg = cfg;
  ck_cfg.checkpoint_path = path("ck.bin");
  ck_cfg.checkpoint_every_requests = 7'000;
  const auto with_ckpt = simulate(*t.system, placement, ck_cfg);
  expect_byte_identical(with_ckpt, reference);
  EXPECT_TRUE(std::filesystem::exists(path("ck.bin")));

  // The final checkpoint resumes to the same report too.
  const auto resumed = resumed_run(t, placement, cfg, path("ck.bin"));
  expect_byte_identical(resumed, reference);

  auto par_cfg = cfg;
  par_cfg.threads = 4;
  par_cfg.shards = 4;
  const auto par_reference = simulate(*t.system, placement, par_cfg);
  auto par_ck = par_cfg;
  par_ck.checkpoint_path = path("par.bin");
  par_ck.checkpoint_every_requests = 7'000;
  const auto par_with = simulate(*t.system, placement, par_ck);
  expect_byte_identical(par_with, par_reference);
}

TEST(CheckpointConfigTest, IncoherentFlagCombinationsRejected) {
  SimulationConfig cfg;
  cfg.checkpoint_every_requests = 100;  // cadence without a path
  EXPECT_THROW(cfg.validate(), PreconditionError);

  cfg = SimulationConfig{};
  cfg.checkpoint_every_seconds = 1.0;  // time cadence without a path
  EXPECT_THROW(cfg.validate(), PreconditionError);

  cfg = SimulationConfig{};
  cfg.checkpoint_path = "ck.bin";  // path without any trigger
  EXPECT_THROW(cfg.validate(), PreconditionError);

  cfg = SimulationConfig{};
  cfg.checkpoint_path = "ck.bin";
  cfg.checkpoint_every_seconds = -1.0;  // negative seconds
  EXPECT_THROW(cfg.validate(), PreconditionError);

  cfg = SimulationConfig{};
  cfg.checkpoint_path = "ck.bin";
  cfg.checkpoint_every_seconds =
      std::numeric_limits<double>::quiet_NaN();  // NaN seconds
  EXPECT_THROW(cfg.validate(), PreconditionError);

  // Coherent combinations pass.
  cfg = SimulationConfig{};
  cfg.checkpoint_path = "ck.bin";
  cfg.checkpoint_every_requests = 100;
  EXPECT_NO_THROW(cfg.validate());

  std::atomic<bool> stop{false};
  cfg = SimulationConfig{};
  cfg.checkpoint_path = "ck.bin";
  cfg.stop = &stop;
  EXPECT_NO_THROW(cfg.validate());

  cfg = SimulationConfig{};
  cfg.resume_path = "ck.bin";  // resume alone is fine
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
