// Live-reconfiguration suite for the redirector daemon: the control
// socket (RELOAD/STATUS/DRAIN), SIGHUP-path reloads, generation-counted
// state swaps under load, EWMA outlier ejection shifting real race
// outcomes, the slow-reader disconnect, and a table of hostile clients
// run against both the data and the control socket.  Mirrors the
// discipline of redirectd_integration_test.cpp: every read has a timeout and
// daemon.stats()/latency_ewma() are only touched after the loop thread
// has been joined.

#include "src/redirectd/control.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "mock_replica.h"
#include "src/obs/registry.h"
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

  // Each input's ERR reply names `expect`.  A directory must fail as a
  // read error naming it, never parse as an empty file.
  const std::string corpus = std::string(HYBRIDCDN_TEST_DATA_DIR) + "/corpus";
  const struct {
    std::string command;
    std::string expect;
  } inputs[] = {
      {"RELOAD placement " + corpus + "/rc_placement_truncated.txt", "line 2"},
      {"RELOAD placement " + corpus, corpus + ": Is a directory"},
      {"RELOAD endpoints " + corpus, corpus + ": Is a directory"},
  };
  net::Fd ctl = connect_client(daemon.control_port());
  std::uint64_t failures = 0;
  for (const auto& input : inputs) {
    const auto reply = control_rpc(ctl.get(), input.command);
    ASSERT_TRUE(reply.has_value()) << input.command;
    EXPECT_EQ(reply->rfind("ERR", 0), 0u) << *reply;
    EXPECT_NE(reply->find(input.expect), std::string::npos) << *reply;

    // Same connection, same daemon: generation 1 still serving, digest
    // untouched.
    const auto status = control_rpc(ctl.get(), "STATUS");
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status_field(*status, "generation"), "1") << input.command;
    EXPECT_EQ(status_field(*status, "placement_digest"),
              hex16(placement::placement_digest(fx.placement.placement)));
    EXPECT_EQ(status_field(*status, "reload_failures"),
              std::to_string(++failures));
  }

  net::Fd client = connect_client(daemon.port());
  const auto a = rpc(client.get(), 0, 0, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->server, 1u);

  runner.stop();
  EXPECT_EQ(daemon.stats().reloads_failed, failures);
  EXPECT_EQ(daemon.stats().reloads_applied, 0u);
  EXPECT_EQ(daemon.generation(), 1u);
}

TEST(ControlServer, ReloadEndpointsRejectsAnIndexOutsideTheFleet) {
  // The index would size a 20M-slot vector; it is refused with its line
  // and column before anything is allocated.
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  const std::string bad = std::string(HYBRIDCDN_TEST_DATA_DIR) +
                          "/corpus/rd_index_huge.txt";
  net::Fd ctl = connect_client(daemon.control_port());
  const auto reply = control_rpc(ctl.get(), "RELOAD endpoints " + bad);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("ERR reload endpoints: ", 0), 0u) << *reply;
  EXPECT_NE(reply->find("endpoint map line 1, col 9: server index 20000000 "
                        "is out of range (fleet has 4 servers)"),
            std::string::npos)
      << *reply;

  const auto status = control_rpc(ctl.get(), "STATUS");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status_field(*status, "generation"), "1");

  runner.stop();
  EXPECT_EQ(daemon.stats().reloads_failed, 1u);
  EXPECT_EQ(daemon.generation(), 1u);
}

TEST(ControlServer, ErrRepliesCarryOnlyTheDiagnostic) {
  // A client reads what was wrong with its input: no "precondition
  // failed" prefix, no C++ expression and no source path.
  Fixture fx;
  DaemonConfig config = base_config(fx);
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);

  const std::string bad = std::string(HYBRIDCDN_TEST_DATA_DIR) +
                          "/corpus/rd_index_huge.txt";
  net::Fd ctl = connect_client(daemon.control_port());
  const auto reload = control_rpc(ctl.get(), "RELOAD endpoints " + bad);
  ASSERT_TRUE(reload.has_value());
  EXPECT_EQ(*reload,
            "ERR reload endpoints: endpoint map line 1, col 9: server index "
            "20000000 is out of range (fleet has 4 servers)");

  net::Fd client = connect_client(daemon.port());
  const auto get = control_rpc(client.get(), "GET 1 x 3");
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(*get,
            "ERR redirect request line 1, col 7: expected an unsigned "
            "integer (got 'x')");
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


// ---------------------------------------------------------------------------
// Hostile clients, one table run against both sockets.  Both are served by
// the same net::LineServer, so every row must hold on each.  As in the
// happy-eyeballs tables of SNIPPETS.md, a row names what the client does,
// what the daemon must show for it, and a bound on how long that takes.

enum class Socket : std::uint8_t { kData, kControl };

enum class Client : std::uint8_t {
  kNeverReads,         // pipelines valid lines, 4 KiB SO_RCVBUF, never reads
  kOverlongLine,       // a partial line past the socket's cap, no newline
  kOverlongThenReset,  // the same, then an RST instead of reading
  kHalfCloses,         // kHalfCloseLines lines, then shutdown(SHUT_WR)
  kPipelinesWhileHeld, // 256 KiB of lines behind a line the daemon holds
};

/// What the daemon must show.  Every field is compared exactly.
struct HostileExpected {
  std::uint64_t slow_reader_closes;  // the socket's counter after the run
  bool one_err_line;                 // one ERR naming the line cap
  bool every_line_answered_in_order;
  bool eof;                          // then a clean close
  bool fresh_session_served;         // a new session still gets answers
  int max_ms;                        // bound on the whole exchange
};

struct HostileCase {
  const char* name;
  Client client;
  HostileExpected expected;
};

const HostileCase kHostileCases[] = {
    {"never_reads", Client::kNeverReads,
     {.slow_reader_closes = 1, .one_err_line = false,
      .every_line_answered_in_order = false, .eof = false,
      .fresh_session_served = false, .max_ms = 10000}},
    {"overlong_line", Client::kOverlongLine,
     {.slow_reader_closes = 0, .one_err_line = true,
      .every_line_answered_in_order = false, .eof = true,
      .fresh_session_served = false, .max_ms = 5000}},
    {"overlong_line_then_rst", Client::kOverlongThenReset,
     {.slow_reader_closes = 0, .one_err_line = false,
      .every_line_answered_in_order = false, .eof = false,
      .fresh_session_served = true, .max_ms = 5000}},
    {"half_close", Client::kHalfCloses,
     {.slow_reader_closes = 0, .one_err_line = false,
      .every_line_answered_in_order = true, .eof = true,
      .fresh_session_served = false, .max_ms = 5000}},
    {"pipelines_while_held", Client::kPipelinesWhileHeld,
     {.slow_reader_closes = 0, .one_err_line = false,
      .every_line_answered_in_order = true, .eof = false,
      .fresh_session_served = false, .max_ms = 30000}},
};

void PrintTo(const HostileCase& row, std::ostream* os) { *os << row.name; }
void PrintTo(Socket socket, std::ostream* os) {
  *os << (socket == Socket::kData ? "data" : "control");
}

constexpr std::size_t kHalfCloseLines = 64;
constexpr std::size_t kHeldPipelineBytes = 256 * 1024;

struct Observed {
  std::uint64_t slow_reader_closes = 0;
  bool one_err_line = false;
  bool every_line_answered_in_order = false;
  bool eof = false;
  bool fresh_session_served = false;
};

std::size_t line_cap(Socket socket) {
  return socket == Socket::kData ? kMaxRequestLine : kMaxControlLine;
}

/// The k-th line a client sends.  Data lines cycle through the sites no
/// server replicates, so each ORIGIN answer names its line's site; control
/// lines alternate STATUS with an unknown verb carrying k, so each ERR
/// names its line.
std::string hostile_line(Socket socket, std::size_t k) {
  if (socket == Socket::kData) {
    return format_request({0, static_cast<std::uint32_t>(1 + k % 7), k});
  }
  return k % 2 == 0 ? std::string("STATUS\n")
                    : "V" + std::to_string(k) + "\n";
}

bool answers_line(Socket socket, std::size_t k, const std::string& answer) {
  if (socket == Socket::kData) {
    try {
      const RedirectAnswer a = parse_answer(answer);
      return a.kind == AnswerKind::kOrigin && a.site == 1 + k % 7;
    } catch (const PreconditionError&) {
      return false;
    }
  }
  if (k % 2 == 0) return answer.rfind("OK generation=", 0) == 0;
  return answer.rfind("ERR ", 0) == 0 &&
         answer.find("'V" + std::to_string(k) + "'") != std::string::npos;
}

/// Buffered reader of answer lines with one deadline (net::read_line
/// reads a byte per call, too slow for megabytes of answers).
class LineReader {
 public:
  LineReader(int fd, Clock::time_point deadline)
      : fd_(fd), deadline_(deadline) {}

  /// The next line with its '\n'; nullopt at EOF, on an error or at the
  /// deadline.
  std::optional<std::string> next() {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl + 1 - pos_);
        pos_ = nl + 1;
        return line;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const net::IoResult r = net::read_some(fd_, chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        buf_.append(chunk, r.bytes);
        continue;
      }
      if (r.status == net::IoStatus::kClosed) {
        eof_ = buf_.empty();
        return std::nullopt;
      }
      if (r.status == net::IoStatus::kError) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline_ - Clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        return std::nullopt;
      }
    }
  }

  /// True once next() has seen a clean EOF with nothing left over.
  bool eof() const { return eof_; }

 private:
  int fd_;
  Clock::time_point deadline_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool eof_ = false;
};

int ms_left(Clock::time_point deadline) {
  return static_cast<int>(std::max<std::int64_t>(
      1, std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - Clock::now())
             .count()));
}

/// True once the daemon has reset the connection: what a client that never
/// reads sees of the daemon closing its session.
bool was_reset(int fd) {
  pollfd p{fd, POLLOUT, 0};
  return ::poll(&p, 1, 0) == 1 && (p.revents & (POLLERR | POLLHUP)) != 0;
}

void reset_now(net::Fd& fd) {
  const linger abort{1, 0};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
  fd.reset();
}

/// Keeps a RELOAD in flight: the reload worker blocks opening this FIFO
/// until feed() opens its write end.  The destructor feeds it an empty
/// file if the test never did, so the worker cannot outlive the daemon.
class HeldReloadFile {
 public:
  HeldReloadFile() : path_(temp_path("held_fifo")) {
    std::filesystem::remove(path_);
    EXPECT_EQ(::mkfifo(path_.c_str(), 0600), 0) << path_;
  }
  ~HeldReloadFile() {
    if (!fed_) feed("", 5s);
    std::filesystem::remove(path_);
  }
  HeldReloadFile(const HeldReloadFile&) = delete;
  HeldReloadFile& operator=(const HeldReloadFile&) = delete;

  const std::filesystem::path& path() const { return path_; }

  /// Writes `text` once the worker holds the read end; false when it never
  /// did within `timeout`.
  bool feed(const std::string& text, std::chrono::milliseconds timeout) {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      net::Fd fd(::open(path_.c_str(), O_WRONLY | O_NONBLOCK));
      if (fd.valid()) {
        fed_ = true;
        return ::write(fd.get(), text.data(), text.size()) ==
               static_cast<ssize_t>(text.size());
      }
      if (errno != ENXIO || Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(5ms);
    }
  }

 private:
  std::filesystem::path path_;
  bool fed_ = false;
};

/// A client with a 4 KiB receive buffer from the handshake on.  Shrunk
/// after connect, the buffer is smaller than the window already advertised:
/// the kernel drops what the daemon sends into it, and on loopback's 64 KiB
/// segments both directions can stall in retransmission backoff for
/// seconds, so the flood would stop reaching the daemon.
net::Fd connect_small_window(std::uint16_t port) {
  net::Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  const int rcvbuf = 4096;
  EXPECT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_TRUE(net::set_nonblocking_cloexec(fd.get()));
  return fd;
}

void never_reads(std::uint16_t port, Socket socket,
                 Clock::time_point deadline) {
  net::Fd fd = connect_small_window(port);
  std::string block;
  for (int i = 0; i < 1000; ++i) block += hostile_line(socket, 0);
  // Writes are short and time-bounded, so a full or reset socket only ends
  // a block early; the daemon's close shows up as a reset.
  while (!was_reset(fd.get()) && Clock::now() < deadline) {
    (void)net::write_all(fd.get(), block.data(), block.size(), 100);
  }
}

void overlong_line(std::uint16_t port, Socket socket,
                   Clock::time_point deadline, Observed& seen) {
  net::Fd fd = connect_client(port);
  const std::string flood(line_cap(socket) + 64, 'a');  // no newline
  ASSERT_TRUE(net::write_all(fd.get(), flood.data(), flood.size(),
                             ms_left(deadline)));
  LineReader reader(fd.get(), deadline);
  const auto err = reader.next();
  seen.one_err_line =
      err.has_value() && err->rfind("ERR ", 0) == 0 &&
      err->find("exceeds " + std::to_string(line_cap(socket)) + " bytes") !=
          std::string::npos;
  seen.eof = !reader.next().has_value() && reader.eof();
}

void overlong_then_reset(std::uint16_t port, Socket socket,
                         Clock::time_point deadline, Observed& seen) {
  {
    net::Fd fd = connect_client(port);
    const std::string flood(line_cap(socket) + 64, 'a');
    ASSERT_TRUE(net::write_all(fd.get(), flood.data(), flood.size(),
                               ms_left(deadline)));
    reset_now(fd);
  }
  net::Fd fresh = connect_client(port);
  const std::string line = hostile_line(socket, 0);
  ASSERT_TRUE(net::write_all(fresh.get(), line.data(), line.size(),
                             ms_left(deadline)));
  LineReader reader(fresh.get(), deadline);
  const auto answer = reader.next();
  seen.fresh_session_served =
      answer.has_value() && answers_line(socket, 0, *answer);
}

void half_closes(std::uint16_t port, Socket socket,
                 Clock::time_point deadline, Observed& seen) {
  net::Fd fd = connect_client(port);
  std::string lines;
  for (std::size_t k = 0; k < kHalfCloseLines; ++k) {
    lines += hostile_line(socket, k);
  }
  ASSERT_TRUE(net::write_all(fd.get(), lines.data(), lines.size(),
                             ms_left(deadline)));
  ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);
  LineReader reader(fd.get(), deadline);
  std::size_t k = 0;
  while (k < kHalfCloseLines) {
    const auto answer = reader.next();
    if (!answer.has_value() || !answers_line(socket, k, *answer)) break;
    ++k;
  }
  seen.every_line_answered_in_order = k == kHalfCloseLines;
  seen.eof = !reader.next().has_value() && reader.eof();
}

/// The first line is held — a race against a black-holed replica on the
/// data socket, a RELOAD of a FIFO nobody writes yet on the control socket
/// — while a writer pipelines 256 KiB more behind it.
void pipelines_while_held(std::uint16_t port, Socket socket,
                          HeldReloadFile* reload, Clock::time_point deadline,
                          Observed& seen) {
  net::Fd fd = connect_client(port);
  std::string payload = socket == Socket::kData
                            ? format_request({0, 0, 1})
                            : "RELOAD placement " + reload->path().string() +
                                  "\n";
  std::size_t lines = 0;
  while (payload.size() < kHeldPipelineBytes) {
    payload += hostile_line(socket, lines++);
  }
  std::atomic<bool> written{false};
  std::thread writer([&] {
    written = net::write_all(fd.get(), payload.data(), payload.size(),
                             ms_left(deadline));
  });
  if (socket == Socket::kControl) {
    // Let the pipeline pile up behind the held RELOAD, then release it.
    std::this_thread::sleep_for(200ms);
    EXPECT_TRUE(reload->feed("placement 4 8\nreplica 1 0\nreplica 2 0\n",
                             std::chrono::milliseconds(ms_left(deadline))));
  }
  LineReader reader(fd.get(), deadline);
  const auto held = reader.next();
  bool held_ok = false;
  if (held.has_value()) {
    if (socket == Socket::kData) {
      const RedirectAnswer a = parse_answer(*held);
      held_ok = a.kind == AnswerKind::kUnavailable &&
                a.reason == UnavailableReason::kDeadline;
    } else {
      held_ok = held->rfind("OK generation=2 ", 0) == 0;
    }
  }
  EXPECT_TRUE(held_ok) << (held ? *held : std::string("no answer"));
  std::size_t k = 0;
  while (held_ok && k < lines) {
    const auto answer = reader.next();
    if (!answer.has_value() || !answers_line(socket, k, *answer)) {
      ADD_FAILURE() << "line " << k << " of " << lines << " answered "
                    << (answer ? *answer : std::string("nothing"));
      break;
    }
    ++k;
  }
  writer.join();
  EXPECT_TRUE(written.load());
  seen.every_line_answered_in_order = held_ok && k == lines;
}

class HostileClientTable
    : public ::testing::TestWithParam<std::tuple<HostileCase, Socket>> {};

TEST_P(HostileClientTable, DaemonOutcomeMatchesTheRow) {
  const auto& [row, socket] = GetParam();
  Fixture fx;
  obs::Registry registry;
  DaemonConfig config = base_config(fx);
  config.metrics = &registry;
  if (row.client == Client::kNeverReads) {
    config.max_session_outbuf = 8 * 1024;
  }
  // A data line held by a race: rank 1 (server 1) is a black hole and the
  // only mapped endpoint, so the race lasts one attempt timeout and ends in
  // UNAVAILABLE deadline.  Lines for the other sites have no mapped
  // candidate and are answered from the model at once.
  std::optional<test::MockReplica> hole;
  EndpointMap endpoints;
  if (row.client == Client::kPipelinesWhileHeld && socket == Socket::kData) {
    hole.emplace(test::MockReplica::Mode::kBlackHole);
    endpoints.replicas.resize(2);
    endpoints.replicas[1] = Endpoint{"127.0.0.1", hole->port()};
    config.endpoints = &endpoints;
    config.race.attempt_timeout = 300ms;
    config.race.overall_deadline = 1000ms;
    config.race.max_retry_rounds = 0;
  }
  RedirectorDaemon daemon(config);
  DaemonRunner runner(daemon);
  std::optional<HeldReloadFile> reload;
  if (row.client == Client::kPipelinesWhileHeld &&
      socket == Socket::kControl) {
    reload.emplace();
  }
  const std::uint16_t port =
      socket == Socket::kData ? daemon.port() : daemon.control_port();

  Observed seen;
  const auto started = Clock::now();
  const auto deadline =
      started + std::chrono::milliseconds(row.expected.max_ms);
  switch (row.client) {
    case Client::kNeverReads:
      never_reads(port, socket, deadline);
      break;
    case Client::kOverlongLine:
      overlong_line(port, socket, deadline, seen);
      break;
    case Client::kOverlongThenReset:
      overlong_then_reset(port, socket, deadline, seen);
      break;
    case Client::kHalfCloses:
      half_closes(port, socket, deadline, seen);
      break;
    case Client::kPipelinesWhileHeld:
      pipelines_while_held(port, socket, reload ? &*reload : nullptr,
                           deadline, seen);
      break;
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            started)
          .count();
  reload.reset();
  runner.stop();
  seen.slow_reader_closes =
      socket == Socket::kData
          ? daemon.stats().slow_reader_closes
          : registry.counter("redirect/control/slow_reader_closes").value();

  const HostileExpected& want = row.expected;
  EXPECT_EQ(seen.slow_reader_closes, want.slow_reader_closes);
  EXPECT_EQ(seen.one_err_line, want.one_err_line);
  EXPECT_EQ(seen.every_line_answered_in_order,
            want.every_line_answered_in_order);
  EXPECT_EQ(seen.eof, want.eof);
  EXPECT_EQ(seen.fresh_session_served, want.fresh_session_served);
  EXPECT_LE(elapsed_ms, want.max_ms);
}

std::string hostile_name(
    const ::testing::TestParamInfo<std::tuple<HostileCase, Socket>>& info) {
  return std::string(std::get<0>(info.param).name) +
         (std::get<1>(info.param) == Socket::kData ? "_data" : "_control");
}

INSTANTIATE_TEST_SUITE_P(
    Rows, HostileClientTable,
    ::testing::Combine(::testing::ValuesIn(kHostileCases),
                       ::testing::Values(Socket::kData, Socket::kControl)),
    hostile_name);

}  // namespace
}  // namespace cdn::redirectd
