// Literal report digests of the event engine.  The other simulator tests
// compare runs with each other (batched vs replay, killed vs resumed,
// thread counts), so a change that shifted every path the same way would
// pass them; these pins would not.  Each value is the report_digest (and,
// where noted, an FNV-1a over registry series or sampled trace events) of
// one fixed TestSystem run.  A deliberate change to what the simulator
// computes must re-record them and say why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

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
  // Re-recorded when every selector moved to the one nearest-copy order:
  // at equal cost the precomputed target and the failover pick are now a
  // replica before the origin, then the lowest holder, so which outages a
  // request runs into (retries, failovers, failures) moves with them.
  EXPECT_EQ(report_digest(report), 0xd4d28a39973a8b18ull);
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
  // Re-recorded when the index moved to the one nearest-copy order: costs
  // are unchanged (so is the report), but a tie cell now names a replica
  // before the origin, then the lowest holder, and the sampled events
  // record that copy as served_by.
  EXPECT_EQ(trace_digest(sink), 0x0cca93f5995669f4ull);
}

TEST_F(DigestPinTest, ShardedFourThreadsEightShards) {
  auto cfg = pin_config();
  cfg.total_requests = 120'000;
  cfg.threads = 4;
  cfg.shards = 8;
  EXPECT_EQ(digest_of(cfg), 0x811f04f08ded01a3ull);
}

/// TTL and invalidation runs on the default TestSystem with churny objects
/// (mean update intervals of 100-1000 virtual seconds).  The values were
/// recorded from the stand-alone request loop these modes ran in before
/// they became staleness modes of the event engine, hashing its report
/// followed by its three consistency counters, which is what
/// serialize_report appends for them.
class ConsistencyPinTest : public ::testing::Test {
 protected:
  ConsistencyPinTest()
      : t_(TestSystem::make()),
        caching_(placement::pure_caching(*t_.system)),
        hybrid_(placement::hybrid_greedy(*t_.system)) {}

  static SimulationConfig consistency_config(sim::StalenessMode mode) {
    auto cfg = pin_config();
    cfg.staleness = mode;
    cfg.consistency.ttl = 5.0;
    cfg.consistency.min_mean_update_interval = 100.0;
    cfg.consistency.max_mean_update_interval = 1000.0;
    return cfg;
  }

  std::uint64_t digest_of(const placement::PlacementResult& placement,
                          sim::StalenessMode mode) const {
    return report_digest(
        simulate(*t_.system, placement, consistency_config(mode)));
  }

  /// Digest of a pure-caching run on caches of 0.02% of the catalogue
  /// bytes (8,000 objects, 4 servers).  Every request is traced, so the
  /// run also checks its own precondition: each server fetches at least
  /// ten times as many distinct objects as its cache can hold.
  static std::uint64_t tiny_cache_digest(sim::StalenessMode mode) {
    const TestSystem t = TestSystem::make(4, 6, 2, 1000, 0.0002);
    const auto caching = placement::pure_caching(*t.system);
    obs::TraceSink sink(1.0, 5, 100'000);
    auto cfg = consistency_config(mode);
    cfg.trace_sink = &sink;
    const auto report = simulate(*t.system, caching, cfg);
    EXPECT_EQ(sink.dropped(), 0u);
    std::vector<std::set<workload::ObjectId>> fetched(4);
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.cause == obs::EventCause::kCacheMiss) {
        fetched[e.server].insert(t.catalog->object_id(e.site, e.rank));
      }
    }
    for (sys::ServerIndex i = 0; i < 4; ++i) {
      const std::size_t holds =
          max_resident_objects(*t.catalog, caching.cache_bytes(i));
      EXPECT_GE(fetched[i].size(), 10 * holds) << "server " << i;
    }
    return report_digest(report);
  }

  /// No cache of `bytes` holds more objects than the catalogue's smallest
  /// objects that fit in it together.
  static std::size_t max_resident_objects(const workload::SiteCatalog& c,
                                          std::uint64_t bytes) {
    std::vector<std::uint64_t> sizes;
    for (workload::SiteId j = 0; j < c.site_count(); ++j) {
      for (std::size_t rank = 1; rank <= c.objects_per_site(); ++rank) {
        sizes.push_back(c.object_bytes(j, rank));
      }
    }
    std::sort(sizes.begin(), sizes.end());
    std::size_t count = 0;
    for (const std::uint64_t size : sizes) {
      if (size > bytes) break;
      bytes -= size;
      ++count;
    }
    return count;
  }

  TestSystem t_;
  placement::PlacementResult caching_;
  placement::PlacementResult hybrid_;
};

TEST_F(ConsistencyPinTest, TtlFiveSeconds) {
  EXPECT_EQ(digest_of(caching_, sim::StalenessMode::kTtl),
            0xb8b457a2bea1f3bbull);
  EXPECT_EQ(digest_of(hybrid_, sim::StalenessMode::kTtl),
            0xb062928cdf20f51bull);
}

TEST_F(ConsistencyPinTest, Invalidation) {
  EXPECT_EQ(digest_of(caching_, sim::StalenessMode::kInvalidation),
            0xe6177fb64166828eull);
  EXPECT_EQ(digest_of(hybrid_, sim::StalenessMode::kInvalidation),
            0x7a546833b8bc9dd3ull);
}

// Recorded before the engine pruned its freshness tables, when every
// server kept the fetch time of each object it ever fetched.  Here each
// table outgrows its cache many times over, so a prune that ever dropped
// a resident object's entry would change what that object's next hit
// decides, and these digests.
TEST_F(ConsistencyPinTest, TtlTinyCache) {
  EXPECT_EQ(tiny_cache_digest(sim::StalenessMode::kTtl),
            0x40ed0fd633875141ull);
}

TEST_F(ConsistencyPinTest, InvalidationTinyCache) {
  EXPECT_EQ(tiny_cache_digest(sim::StalenessMode::kInvalidation),
            0xa479c0ad0f309734ull);
}

}  // namespace
