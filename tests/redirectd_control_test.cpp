// Live-reconfiguration suite for the redirector daemon: the control
// socket (RELOAD/STATUS/DRAIN), SIGHUP-path reloads, generation-counted
// state swaps under load, EWMA outlier ejection shifting real race
// outcomes, and the slow-reader disconnect.  Mirrors the discipline of
// redirectd_integration_test.cpp: every read has a timeout and
// daemon.stats()/latency_ewma() are only touched after the loop thread
// has been joined.

#include "src/redirectd/control.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mock_replica.h"
#include "src/placement/fixed_split.h"
#include "src/placement/placement_io.h"
#include "src/redirectd/daemon.h"
#include "test_support.h"

namespace cdn::redirectd {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// parse_control_command: the grammar wall.

TEST(ControlCommand, ParsesTheThreeVerbs) {
  const ControlCommand status = parse_control_command("STATUS\n");
  EXPECT_EQ(status.verb, ControlCommand::Verb::kStatus);

  const ControlCommand drain = parse_control_command("DRAIN\r\n");
  EXPECT_EQ(drain.verb, ControlCommand::Verb::kDrain);

  const ControlCommand rp =
      parse_control_command("RELOAD placement /tmp/plan.txt\n");
  EXPECT_EQ(rp.verb, ControlCommand::Verb::kReload);
  EXPECT_EQ(rp.reload_kind, ReloadKind::kPlacement);
  EXPECT_EQ(rp.path, "/tmp/plan.txt");

  const ControlCommand re =
      parse_control_command("RELOAD endpoints eps.txt");  // '\n' optional
  EXPECT_EQ(re.reload_kind, ReloadKind::kEndpoints);
  EXPECT_EQ(re.path, "eps.txt");
}

TEST(ControlCommand, RejectsMalformedLines) {
  EXPECT_THROW(parse_control_command(""), PreconditionError);
  EXPECT_THROW(parse_control_command("\n"), PreconditionError);
  EXPECT_THROW(parse_control_command("RELOADX placement /p\n"),
               PreconditionError);
  EXPECT_THROW(parse_control_command("RELOAD placement\n"),
               PreconditionError);
  EXPECT_THROW(parse_control_command("RELOAD everything /p\n"),
               PreconditionError);
  EXPECT_THROW(parse_control_command("RELOAD placement /p extra\n"),
               PreconditionError);
  EXPECT_THROW(parse_control_command("STATUS please\n"), PreconditionError);
  EXPECT_THROW(parse_control_command("DRAIN now\n"), PreconditionError);
  EXPECT_THROW(
      parse_control_command(std::string(kMaxControlLine + 1, 'a')),
      PreconditionError);
}

// ---------------------------------------------------------------------------
// Shared fixture (same topology as redirectd_integration_test.cpp): from
// server 0, site 0's candidate ranking is [server 1 (cost 1), server 2
// (cost 2), origin (cost 6)].

struct Fixture {
  test::TestSystem t;
  placement::PlacementResult placement;

  Fixture()
      : t(test::TestSystem::make(4, 6, 2, 100, 0.9)),
        placement(placement::pure_caching(*t.system)) {
    placement.placement.add(1, 0);
    placement.placement.add(2, 0);
    placement.nearest.rebuild(placement.placement);
  }
};

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

net::Fd connect_client(std::uint16_t port) {
  net::ConnectStart conn = net::start_connect("127.0.0.1", port);
  EXPECT_TRUE(conn.fd.valid());
  return std::move(conn.fd);
}

std::optional<RedirectAnswer> rpc(int fd, std::uint32_t server,
                                  std::uint32_t site, std::uint64_t object,
                                  int timeout_ms = 5000) {
  const std::string req = format_request({server, site, object});
  if (!net::write_all(fd, req.data(), req.size(), timeout_ms)) {
    return std::nullopt;
  }
  const auto line = net::read_line(fd, timeout_ms);
  if (!line.has_value()) return std::nullopt;
  return parse_answer(*line);
}

/// One control-line exchange with a hard timeout.
std::optional<std::string> control_rpc(int fd, const std::string& command,
                                       int timeout_ms = 5000) {
  const std::string line = command + "\n";
  if (!net::write_all(fd, line.data(), line.size(), timeout_ms)) {
    return std::nullopt;
  }
  auto reply = net::read_line(fd, timeout_ms);
  if (reply.has_value()) {
    while (!reply->empty() &&
           (reply->back() == '\n' || reply->back() == '\r')) {
      reply->pop_back();
    }
  }
  return reply;
}

DaemonConfig base_config(Fixture& fx) {
  DaemonConfig config;
  config.system = fx.t.system.get();
  config.placement = &fx.placement;
  config.top_k = 3;
  config.control = true;  // ephemeral control port
  // Keep the prober's up/down masks out of the way; EWMA tests re-tune.
  config.health.down_after = 1000;
  return config;
}

std::filesystem::path temp_path(const char* tag) {
  return std::filesystem::temp_directory_path() /
         ("hybridcdn_ctl_" + std::string(tag) + "_" +
          std::to_string(::getpid()) + ".txt");
}

void write_file(const std::filesystem::path& path,
                const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Extracts `key=<value>` from a STATUS reply.
std::string status_field(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto end = line.find(' ', pos + needle.size());
  return line.substr(pos + needle.size(),
                     end == std::string::npos ? std::string::npos
                                              : end - (pos + needle.size()));
}

// ---------------------------------------------------------------------------
// STATUS / RELOAD / DRAIN against a live daemon.

TEST(ControlServer, StatusReportsGenerationAndDigests) {
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);
  ASSERT_NE(daemon.control_port(), 0);

  net::Fd ctl = connect_client(daemon.control_port());
  const auto reply = control_rpc(ctl.get(), "STATUS");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("OK ", 0), 0u) << *reply;
  EXPECT_EQ(status_field(*reply, "generation"), "1");
  EXPECT_EQ(status_field(*reply, "placement_digest"),
            hex16(placement::placement_digest(fx.placement.placement)));
  EXPECT_EQ(status_field(*reply, "draining"), "0");
}

TEST(ControlServer, ReloadPlacementSwapsTheServingGeneration) {
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  net::Fd client = connect_client(daemon.port());
  const auto before = rpc(client.get(), 0, 0, 1);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->server, 1u);  // generation 1: replica at server 1

  // New plan: site 0's only replica moves to server 3 (cost 3 from
  // server 0, still cheaper than the cost-6 origin).
  const auto plan = temp_path("swap");
  write_file(plan, "placement 4 8\nreplica 3 0\n");

  net::Fd ctl = connect_client(daemon.control_port());
  const auto reply =
      control_rpc(ctl.get(), "RELOAD placement " + plan.string());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("OK ", 0), 0u) << *reply;
  EXPECT_NE(reply->find("generation=2"), std::string::npos) << *reply;

  sys::ReplicaPlacement expected(fx.t.system->server_storage(),
                                 fx.t.system->site_bytes());
  expected.add(3, 0);
  EXPECT_NE(reply->find("digest=" +
                        hex16(placement::placement_digest(expected))),
            std::string::npos)
      << *reply;

  // The already-open data session sees the new generation.
  const auto after = rpc(client.get(), 0, 0, 1);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->kind, AnswerKind::kReplica);
  EXPECT_EQ(after->server, 3u);
  EXPECT_DOUBLE_EQ(after->cost, 3.0);

  runner.stop();
  EXPECT_EQ(daemon.stats().reloads_applied, 1u);
  EXPECT_EQ(daemon.generation(), 2u);
}

TEST(ControlServer, MalformedReloadLeavesThePreviousGenerationServing) {
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  const std::string bad = std::string(HYBRIDCDN_TEST_DATA_DIR) +
                          "/corpus/rc_placement_truncated.txt";
  net::Fd ctl = connect_client(daemon.control_port());
  const auto reply = control_rpc(ctl.get(), "RELOAD placement " + bad);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR", 0), 0u) << *reply;
  EXPECT_NE(reply->find("line 2"), std::string::npos) << *reply;

  // Same connection, same daemon: generation 1 still serving, digest
  // untouched.
  const auto status = control_rpc(ctl.get(), "STATUS");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status_field(*status, "generation"), "1");
  EXPECT_EQ(status_field(*status, "placement_digest"),
            hex16(placement::placement_digest(fx.placement.placement)));
  EXPECT_EQ(status_field(*status, "reload_failures"), "1");

  net::Fd client = connect_client(daemon.port());
  const auto a = rpc(client.get(), 0, 0, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->server, 1u);

  runner.stop();
  EXPECT_EQ(daemon.stats().reloads_failed, 1u);
  EXPECT_EQ(daemon.stats().reloads_applied, 0u);
  EXPECT_EQ(daemon.generation(), 1u);
}

TEST(ControlServer, ReloadEndpointsUpgradesModelModeToRacing) {
  Fixture fx;
  test::MockReplica live(test::MockReplica::Mode::kNormal);

  DaemonConfig config = base_config(fx);  // model mode: no endpoints
  config.race.stagger = 20ms;
  config.race.attempt_timeout = 500ms;
  config.race.overall_deadline = 3000ms;
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  net::Fd client = connect_client(daemon.port());
  const auto model = rpc(client.get(), 0, 0, 1);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->attempts, 0u);  // model mode: no sockets were raced

  const auto eps = temp_path("eps");
  write_file(eps, "replica 1 127.0.0.1 " + std::to_string(live.port()) +
                      "\n");
  net::Fd ctl = connect_client(daemon.control_port());
  const auto reply =
      control_rpc(ctl.get(), "RELOAD endpoints " + eps.string());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("OK ", 0), 0u) << *reply;
  EXPECT_NE(reply->find("generation=2"), std::string::npos) << *reply;

  // Same daemon now races real sockets and reports the attempt.
  const auto raced = rpc(client.get(), 0, 0, 1);
  ASSERT_TRUE(raced.has_value());
  EXPECT_EQ(raced->kind, AnswerKind::kReplica);
  EXPECT_EQ(raced->server, 1u);
  EXPECT_GE(raced->attempts, 1u);

  runner.stop();
  EXPECT_GE(daemon.stats().races, 1u);
}

TEST(ControlServer, DrainViaControlStopsTheDaemon) {
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);

  daemon.start();
  std::thread loop([&daemon] { daemon.run(); });

  net::Fd ctl = connect_client(daemon.control_port());
  const auto reply = control_rpc(ctl.get(), "DRAIN");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "OK draining");

  // run() returns on its own — no request_stop() from this thread.
  loop.join();
  EXPECT_TRUE(daemon.draining());
}

TEST(ControlServer, OversizedControlLineGetsErrAndTheSessionCloses) {
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  net::Fd ctl = connect_client(daemon.control_port());
  const std::string flood(kMaxControlLine + 64, 'a');  // no newline at all
  ASSERT_TRUE(net::write_all(ctl.get(), flood.data(), flood.size(), 3000));
  const auto line = net::read_line(ctl.get(), 5000);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("ERR", 0), 0u);
  EXPECT_FALSE(net::read_line(ctl.get(), 2000).has_value());

  // A fresh control session still works.
  net::Fd fresh = connect_client(daemon.control_port());
  const auto status = control_rpc(fresh.get(), "STATUS");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->rfind("OK ", 0), 0u);
}

TEST(ControlServer, SighupPathReloadsTheConfiguredPlacementFile) {
  Fixture fx;
  const auto plan = temp_path("sighup");
  write_file(plan, "placement 4 8\nreplica 3 0\n");

  DaemonConfig config = base_config(fx);
  config.reload_placement_path = plan.string();
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  // request_reload() is the SIGHUP handler's body; calling it from
  // another thread exercises the same async-signal-safe path.
  daemon.request_reload();

  // Poll the data plane until the new generation answers.
  net::Fd client = connect_client(daemon.port());
  const auto deadline = Clock::now() + 5s;
  std::optional<RedirectAnswer> a;
  while (Clock::now() < deadline) {
    a = rpc(client.get(), 0, 0, 1);
    ASSERT_TRUE(a.has_value());
    if (a->kind == AnswerKind::kReplica && a->server == 3u) break;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->server, 3u);

  runner.stop();
  EXPECT_EQ(daemon.stats().reloads_applied, 1u);
  EXPECT_EQ(daemon.generation(), 2u);
}

// ---------------------------------------------------------------------------
// The reload-under-load mini-drill: placements swap while a client
// hammers the data plane.  Zero dropped or hung requests, every answer
// consistent with *some* applied generation, generations strictly
// monotone.  scripts/reload_drill.sh runs the same drill against the real
// binaries.

TEST(ControlServer, ReloadUnderLoadDropsNothingAndStaysMonotone) {
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  // Plan A keeps the fixture's replicas {1, 2}; plan B moves site 0's
  // only replica to server 3.  From server 0 every answer is therefore a
  // REPLICA at server 1 (A) or server 3 (B) — anything else is a torn
  // generation.
  const auto plan_a = temp_path("drill_a");
  const auto plan_b = temp_path("drill_b");
  write_file(plan_a, "placement 4 8\nreplica 1 0\nreplica 2 0\n");
  write_file(plan_b, "placement 4 8\nreplica 3 0\n");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> torn{0};
  std::thread load([&] {
    net::Fd client = connect_client(daemon.port());
    while (!stop.load(std::memory_order_relaxed)) {
      const auto a = rpc(client.get(), 0, 0, 1);
      if (!a.has_value()) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      answered.fetch_add(1, std::memory_order_relaxed);
      const bool consistent = a->kind == AnswerKind::kReplica &&
                              (a->server == 1u || a->server == 3u);
      if (!consistent) torn.fetch_add(1, std::memory_order_relaxed);
    }
  });

  net::Fd ctl = connect_client(daemon.control_port());
  std::uint64_t last_generation = 1;
  for (int swap = 0; swap < 6; ++swap) {
    const auto& plan = (swap % 2 == 0) ? plan_b : plan_a;
    const auto reply =
        control_rpc(ctl.get(), "RELOAD placement " + plan.string(), 10000);
    ASSERT_TRUE(reply.has_value()) << "swap " << swap;
    ASSERT_EQ(reply->rfind("OK ", 0), 0u) << *reply;
    const auto status = control_rpc(ctl.get(), "STATUS");
    ASSERT_TRUE(status.has_value());
    const std::uint64_t generation =
        std::stoull(status_field(*status, "generation"));
    EXPECT_GT(generation, last_generation) << *status;
    last_generation = generation;
    std::this_thread::sleep_for(20ms);  // let requests land mid-generation
  }

  stop.store(true, std::memory_order_relaxed);
  load.join();
  runner.stop();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(last_generation, 7u);
  EXPECT_EQ(daemon.stats().reloads_applied, 6u);
}

// ---------------------------------------------------------------------------
// Adaptive health: a slow/refusing replica's EWMA makes it an outlier and
// the race ranking demotes it — won-by-rank shifts from rank 2 back to
// rank 1 without any fault schedule or prober down-mask.

TEST(ControlServer, EwmaOutlierEjectionShiftsWinsBackToRankOne) {
  Fixture fx;
  // Rank 1 (server 1) refuses connects for a minute; rank 2 (server 2)
  // and site 0's origin are healthy — a 3-endpoint fleet, the EWMA
  // minimum.
  test::MockReplica refusing(test::MockReplica::Mode::kListenDelay, 60s);
  test::MockReplica live(test::MockReplica::Mode::kNormal);
  test::MockReplica origin(test::MockReplica::Mode::kNormal);

  EndpointMap endpoints;
  endpoints.replicas.resize(3);
  endpoints.replicas[1] = Endpoint{"127.0.0.1", refusing.port()};
  endpoints.replicas[2] = Endpoint{"127.0.0.1", live.port()};
  endpoints.origins.resize(1);
  endpoints.origins[0] = Endpoint{"127.0.0.1", origin.port()};

  DaemonConfig config = base_config(fx);
  config.endpoints = &endpoints;
  config.race.stagger = 30ms;
  config.race.attempt_timeout = 100ms;
  config.race.overall_deadline = 2000ms;
  config.race.max_retry_rounds = 1;
  // Fast probes feed the EWMA; the up/down mask stays neutered
  // (down_after=1000 from base_config), so any routing shift is the
  // EWMA's doing alone.
  config.health.probe_interval = 40ms;
  config.health.probe_timeout = 100ms;
  config.health.up_after = 1;
  config.adaptive = true;
  config.ewma.alpha = 0.5;
  config.ewma.eject_multiplier = 2.0;
  config.ewma.min_samples = 3;
  config.ewma.min_fleet = 3;
  config.ewma.eject_cooldown = 10s;  // no half-open flap inside the test
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  net::Fd client = connect_client(daemon.port());
  // Before ejection the refusing rank-1 endpoint loses each race the slow
  // way; after ejection server 2 *is* rank 1.  Require three consecutive
  // rank-1 wins so a single lucky race cannot pass the test.
  const auto deadline = Clock::now() + 15s;
  int consecutive = 0;
  while (Clock::now() < deadline && consecutive < 3) {
    const auto a = rpc(client.get(), 0, 0, 1);
    ASSERT_TRUE(a.has_value());
    if (a->kind == AnswerKind::kReplica && a->server == 2u &&
        a->winner_rank == 1u) {
      ++consecutive;
    } else {
      consecutive = 0;
    }
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(consecutive, 3) << "EWMA never demoted the refusing replica";

  runner.stop();
  ASSERT_NE(daemon.latency_ewma(), nullptr);
  EXPECT_GE(daemon.latency_ewma()->ejections(), 1u);
  EXPECT_EQ(daemon.latency_ewma()->circuit(LatencyEwma::Kind::kReplica, 1),
            LatencyEwma::Circuit::kEjected);
}

// ---------------------------------------------------------------------------
// Slow readers: a client that pipelines thousands of requests but never
// reads must be disconnected once its backlog exceeds max_session_outbuf —
// the daemon's memory stays bounded.

TEST(RedirectorDaemon, SlowReaderIsDisconnectedAtTheOutbufCap) {
  Fixture fx;
  DaemonConfig config = base_config(fx);
  config.max_session_outbuf = 8 * 1024;
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  net::Fd ctl = connect_client(daemon.control_port());
  net::Fd client = connect_client(daemon.port());
  // Shrink the client's receive window so the kernel absorbs little and
  // the daemon's userspace outbuf takes the backlog.
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(client.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);

  // Never read a reply.  Replies pile into the daemon's kernel send buffer
  // (tcp_wmem-bounded) and then its userspace outbuf; past the 8 KiB cap
  // the session is closed.  The end condition is the daemon's own view:
  // STATUS, answered on its loop thread, reports no open data session
  // after it has served requests.  Writes are short and time-bounded, so a
  // full or reset socket only ends a block early.
  const std::string req = format_request({0, 0, 1});
  std::string block;
  for (int i = 0; i < 1000; ++i) block += req;
  bool closed = false;
  const auto give_up = Clock::now() + 30s;
  while (!closed && Clock::now() < give_up) {
    (void)net::write_all(client.get(), block.data(), block.size(), 100);
    const auto status = control_rpc(ctl.get(), "STATUS");
    ASSERT_TRUE(status.has_value()) << "control socket stopped answering";
    closed = status_field(*status, "sessions") == "0" &&
             status_field(*status, "requests") != "0";
  }
  EXPECT_TRUE(closed) << "daemon never disconnected the slow reader";

  runner.stop();
  EXPECT_GE(daemon.stats().slow_reader_closes, 1u);
}

}  // namespace
}  // namespace cdn::redirectd
