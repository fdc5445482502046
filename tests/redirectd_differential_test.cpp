// Exact engine-to-daemon differential: the event engine and the live
// redirector must send every redirected request to the same copy.
//
// Each row runs the one-shard event engine with a trace sink that samples
// every request, then replays every redirected event (cause cache-miss,
// stale-refresh, uncacheable, failover or failed) as a GET against a
// model-mode RedirectorDaemon over a real socket.  The answer must name
// the event's served_by: REPLICA s for server s, ORIGIN for -1, UNAVAILABLE
// no_live_copy for -2, at the event's cost; the per-(server, site) REPLICA
// and ORIGIN counts of the two sides must be equal.
//
// Fault rows use static masks: every outage starts at request 0 and
// outlasts the run.  The engine gets the schedule directly and the daemon
// the same schedule as a WallClockTimeline, so both see one fixed mask and
// no shared request clock is needed.  The rows follow the happy-eyeballs
// test tables of SNIPPETS.md: what each row runs, the minimum count each
// answer kind must reach (so no row passes vacuously), and bounds on the
// socket exchange's duration.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/fault/wall_clock.h"
#include "src/net/socket.h"
#include "src/obs/trace.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/redirectd/daemon.h"
#include "src/redirectd/protocol.h"
#include "src/sim/simulator.h"
#include "test_support.h"

namespace cdn::redirectd {
namespace {

using Clock = std::chrono::steady_clock;

enum class Plan { kHybrid, kGreedyGlobal };

/// Servers and origins down for the whole run (empty = healthy).
struct DifferentialFaults {
  std::vector<std::uint32_t> servers_down;
  std::vector<std::uint32_t> origins_down;
};

/// What a row must show: the minimum count of each answer kind, of the
/// failovers among them, and of the ties the shared order had to break
/// (rank 1 and rank 2 of the live copies at equal cost), plus bounds on
/// the wall time of the socket exchange.
struct DifferentialExpected {
  std::uint64_t min_replica;
  std::uint64_t min_origin;
  std::uint64_t min_no_live_copy;
  std::uint64_t min_failover;
  std::uint64_t min_origin_ties;
  std::uint64_t min_holder_ties;
  int duration_min_ms;
  int duration_max_ms;
};

struct DifferentialCase {
  const char* name;
  Plan plan;
  sim::StalenessMode staleness;
  DifferentialFaults faults;
  DifferentialExpected expected;
};

// Every third server and every third site's origin down: first-hop
// crashes fail over, replicas on dead servers force re-routes, and sites
// whose holders are all down lose their last copy with their origin.
const DifferentialFaults kStaticMask{{0, 3, 6, 9}, {0, 3, 6, 9}};

// Minimums are about half of what the rows read when they were written
// (20k requests, seed 23).
const DifferentialCase kCases[] = {
    {"hybrid_healthy", Plan::kHybrid, sim::StalenessMode::kRefresh, {},
     {.min_replica = 2500, .min_origin = 1500, .min_no_live_copy = 0,
      .min_failover = 0, .min_origin_ties = 90, .min_holder_ties = 600,
      .duration_min_ms = 0, .duration_max_ms = 60000}},
    {"hybrid_static_faults", Plan::kHybrid, sim::StalenessMode::kRefresh,
     kStaticMask,
     {.min_replica = 4000, .min_origin = 1200, .min_no_live_copy = 700,
      .min_failover = 3000, .min_origin_ties = 180, .min_holder_ties = 500,
      .duration_min_ms = 0, .duration_max_ms = 60000}},
    {"greedy_global_healthy", Plan::kGreedyGlobal,
     sim::StalenessMode::kUncacheable, {},
     {.min_replica = 4500, .min_origin = 1500, .min_no_live_copy = 0,
      .min_failover = 0, .min_origin_ties = 50, .min_holder_ties = 1000,
      .duration_min_ms = 0, .duration_max_ms = 60000}},
    {"greedy_global_static_faults", Plan::kGreedyGlobal,
     sim::StalenessMode::kUncacheable, kStaticMask,
     {.min_replica = 5000, .min_origin = 1800, .min_no_live_copy = 450,
      .min_failover = 4500, .min_origin_ties = 300, .min_holder_ties = 500,
      .duration_min_ms = 0, .duration_max_ms = 60000}},
};

constexpr std::uint64_t kRequests = 20'000;
constexpr std::uint64_t kOutageEnd = 1'000'000'000;  // outlasts every run
constexpr std::size_t kPipelineDepth = 256;

bool redirected(obs::EventCause cause) {
  switch (cause) {
    case obs::EventCause::kCacheMiss:
    case obs::EventCause::kStaleRefresh:
    case obs::EventCause::kUncacheable:
    case obs::EventCause::kFailover:
    case obs::EventCause::kFailed:
      return true;
    case obs::EventCause::kReplica:
    case obs::EventCause::kCacheHit:
      return false;
  }
  return false;
}

/// Runs a daemon's event loop on its own thread; joins on scope exit.
class DaemonRunner {
 public:
  explicit DaemonRunner(RedirectorDaemon& daemon) : daemon_(daemon) {
    daemon_.start();
    thread_ = std::thread([this] { daemon_.run(); });
  }
  ~DaemonRunner() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      daemon_.request_stop();
      thread_.join();
    }
  }

 private:
  RedirectorDaemon& daemon_;
  std::thread thread_;
};

class EngineDaemonDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(EngineDaemonDifferential, EveryRedirectedRequestGetsTheEnginesCopy) {
  const DifferentialCase& row = GetParam();
  // A 12-server line (C(i, k) = |i - k|) with every primary 3 hops away:
  // holder-holder and replica-origin ties are common.  lambda = 0.2 makes
  // the flagged (refresh or uncacheable) paths run.
  test::TestSystem t = test::TestSystem::make(12, 8, 4, 100, 0.15, 3.0);
  t.catalog->set_uncacheable_fraction(0.2);
  const sys::CdnSystem& system = *t.system;
  const placement::PlacementResult plan =
      row.plan == Plan::kHybrid ? placement::hybrid_greedy(system)
                                : placement::greedy_global(system);

  fault::FaultSchedule schedule;
  std::vector<std::uint8_t> server_up(system.server_count(), 1);
  std::vector<std::uint8_t> origin_up(system.site_count(), 1);
  for (const std::uint32_t s : row.faults.servers_down) {
    schedule.add_server_outage(s, 0, kOutageEnd);
    server_up[s] = 0;
  }
  for (const std::uint32_t j : row.faults.origins_down) {
    schedule.add_origin_outage(j, 0, kOutageEnd);
    origin_up[j] = 0;
  }

  obs::TraceSink sink(1.0, 3, kRequests);
  sim::SimulationConfig config;
  config.total_requests = kRequests;
  config.seed = 23;
  config.staleness = row.staleness;
  config.trace_sink = &sink;
  if (!schedule.empty()) config.faults = &schedule;
  (void)sim::simulate(system, plan, config);
  ASSERT_EQ(sink.recorded(), kRequests);

  std::vector<obs::TraceEvent> events;
  for (const obs::TraceEvent& e : sink.events()) {
    if (redirected(e.cause)) events.push_back(e);
  }

  // The ties the order had to break, under the row's mask.
  std::uint64_t origin_ties = 0;
  std::uint64_t holder_ties = 0;
  std::uint64_t failovers = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.cause == obs::EventCause::kFailover) ++failovers;
    const auto ranked = plan.nearest.nearest_live_candidates(
        e.server, e.site, plan.placement.replicators(e.site), server_up,
        origin_up[e.site] != 0, 2);
    if (ranked.size() < 2 || ranked[0].cost != ranked[1].cost) continue;
    ++(ranked[1].at_primary ? origin_ties : holder_ties);
  }

  fault::WallClockTimeline timeline(schedule, system.server_count(),
                                    system.site_count(), 1000.0);
  DaemonConfig daemon_config;
  daemon_config.system = &system;
  daemon_config.placement = &plan;
  if (!schedule.empty()) daemon_config.timeline = &timeline;
  RedirectorDaemon daemon(daemon_config);
  DaemonRunner runner(daemon);
  net::ConnectStart conn = net::start_connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(conn.fd.valid());
  const int fd = conn.fd.get();

  // Per (first-hop server, site): REPLICA and ORIGIN answers.
  using Counts = std::map<std::pair<std::uint32_t, std::uint32_t>,
                          std::array<std::uint64_t, 2>>;
  Counts engine_counts;
  Counts daemon_counts;
  std::uint64_t replica = 0;
  std::uint64_t origin = 0;
  std::uint64_t no_live_copy = 0;
  std::uint64_t mismatches = 0;
  const auto started = Clock::now();
  for (std::size_t begin = 0; begin < events.size();
       begin += kPipelineDepth) {
    const std::size_t end = std::min(events.size(), begin + kPipelineDepth);
    std::string block;
    for (std::size_t k = begin; k < end; ++k) {
      block += format_request({events[k].server, events[k].site,
                               events[k].rank});
    }
    ASSERT_TRUE(net::write_all(fd, block.data(), block.size(), 10000));
    for (std::size_t k = begin; k < end; ++k) {
      const obs::TraceEvent& e = events[k];
      const auto line = net::read_line(fd, 10000);
      ASSERT_TRUE(line.has_value()) << "no answer for event t=" << e.t;
      const RedirectAnswer answer = parse_answer(*line);
      const auto cell = std::make_pair(e.server, e.site);
      if (e.served_by >= 0) ++engine_counts[cell][0];
      if (e.served_by == -1) ++engine_counts[cell][1];
      bool match = false;
      switch (answer.kind) {
        case AnswerKind::kReplica:
          ++replica;
          ++daemon_counts[cell][0];
          match = e.served_by == static_cast<std::int32_t>(answer.server) &&
                  answer.cost == e.hops;
          break;
        case AnswerKind::kOrigin:
          ++origin;
          ++daemon_counts[cell][1];
          match = e.served_by == -1 && answer.site == e.site &&
                  answer.cost == e.hops;
          break;
        case AnswerKind::kUnavailable:
          if (answer.reason == UnavailableReason::kNoLiveCopy) ++no_live_copy;
          match = e.served_by == -2 &&
                  answer.reason == UnavailableReason::kNoLiveCopy;
          break;
      }
      if (!match && ++mismatches <= 10) {
        ADD_FAILURE() << row.name << ": event t=" << e.t << " server "
                      << e.server << " site " << e.site << " cause "
                      << obs::to_string(e.cause) << " served_by "
                      << e.served_by << " hops " << e.hops
                      << " but the daemon answered " << *line;
      }
    }
  }
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - started)
                              .count();
  runner.stop();

  EXPECT_EQ(mismatches, 0u) << row.name;
  EXPECT_EQ(engine_counts, daemon_counts) << row.name;
  EXPECT_EQ(daemon.stats().requests, events.size());
  EXPECT_EQ(daemon.stats().unavailable_no_live_copy, no_live_copy);

  const DifferentialExpected& want = row.expected;
  EXPECT_GE(replica, want.min_replica) << row.name;
  EXPECT_GE(origin, want.min_origin) << row.name;
  EXPECT_GE(no_live_copy, want.min_no_live_copy) << row.name;
  EXPECT_GE(failovers, want.min_failover) << row.name;
  EXPECT_GE(origin_ties, want.min_origin_ties) << row.name;
  EXPECT_GE(holder_ties, want.min_holder_ties) << row.name;
  EXPECT_GE(elapsed_ms, want.duration_min_ms) << row.name;
  EXPECT_LE(elapsed_ms, want.duration_max_ms) << row.name;
}

std::string row_name(
    const ::testing::TestParamInfo<DifferentialCase>& param) {
  return param.param.name;
}

INSTANTIATE_TEST_SUITE_P(Rows, EngineDaemonDifferential,
                         ::testing::ValuesIn(kCases), row_name);

}  // namespace
}  // namespace cdn::redirectd
