// redirectd — the live redirector daemon (docs/REDIRECTOR.md).
//
// Builds a scenario + placement, binds a TCP listener and answers
// `GET <client_server> <site> <object>` requests with the best live
// replica, while an optional fault schedule plays out on the wall clock
// and (with --endpoints) real connection races pick the winner.
//
// Examples:
//   redirectd --port 9700                          # paper scenario, model mode
//   redirectd --servers 8 --low 4 --medium 8 --high 4 --port 0
//   redirectd --faults sched.txt --fault-rate 1000 --metrics-out m.json
//   redirectd --endpoints endpoints.txt            # probe + race real sockets
//   redirectd --control-port 0                     # + RELOAD/STATUS/DRAIN
//   redirectd --placement plan.txt                 # serve a saved placement
//   redirectd --dump-placement plan.txt            # save the computed one
//
// Prints exactly one line `LISTENING <port>` on stdout once the socket is
// bound (tests and redirect_load wait for it) — plus `CONTROL <port>` when
// the control socket is enabled — then serves until SIGINT/SIGTERM, drains
// in-flight requests and exits 0.  SIGHUP re-reads --placement and
// --endpoints through the validate-then-swap reload pipeline.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>

#include "src/core/hybridcdn.h"
#include "src/fault/wall_clock.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/obs/span.h"
#include "src/placement/placement_io.h"
#include "src/redirectd/daemon.h"
#include "src/util/cli.h"

namespace {

using namespace cdn;

redirectd::RedirectorDaemon* g_daemon = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

extern "C" void handle_reload_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_reload();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "redirectd — live replica-redirector daemon over the hybrid "
      "placement (see docs/REDIRECTOR.md)");
  cli.add_flag("host", "127.0.0.1", "listen address");
  cli.add_flag("port", "0", "listen port (0 = ephemeral, printed on stdout)");
  cli.add_flag("servers", "50", "number of CDN servers (N)");
  cli.add_flag("low", "50", "low-popularity sites");
  cli.add_flag("medium", "100", "medium-popularity sites");
  cli.add_flag("high", "50", "high-popularity sites");
  cli.add_flag("objects", "1000", "objects per site (L)");
  cli.add_flag("storage", "0.05",
               "per-server storage as a fraction of total site bytes");
  cli.add_flag("seed", "2005", "scenario seed");
  cli.add_flag("mechanism", "hybrid",
               "placement mechanism: hybrid|replication|caching");
  cli.add_flag("top-k", "3", "replica candidates raced per request");
  cli.add_flag("stagger-ms", "25", "race stagger between candidates");
  cli.add_flag("attempt-timeout-ms", "150",
               "per-connection-attempt timeout");
  cli.add_flag("deadline-ms", "1000", "overall per-request race deadline");
  cli.add_flag("retries", "2", "retry rounds after the first");
  cli.add_flag("backoff-base-ms", "20", "initial retry backoff");
  cli.add_flag("backoff-cap-ms", "500", "maximum retry backoff");
  cli.add_flag("max-inflight", "256",
               "in-flight race limit before requests are shed");
  cli.add_flag("drain-timeout-ms", "2000",
               "grace period for in-flight requests on shutdown");
  cli.add_flag("endpoints", "",
               "endpoint map file (replica/origin host:port lines); "
               "enables health probing and connection racing");
  cli.add_flag("placement", "",
               "serve a saved placement file instead of computing one "
               "(also the file SIGHUP re-reads)");
  cli.add_flag("dump-placement", "",
               "write the serving placement to this file at startup");
  cli.add_flag("control-port", "",
               "enable the RELOAD/STATUS/DRAIN control socket on this "
               "port (0 = ephemeral, printed as CONTROL <port>)");
  cli.add_flag("control-host", "127.0.0.1", "control socket address");
  cli.add_flag("no-adaptive", "false",
               "disable EWMA latency tracking and outlier ejection");
  cli.add_flag("probe-interval-ms", "250", "health probe sweep interval");
  cli.add_flag("probe-timeout-ms", "100", "health probe timeout");
  cli.add_flag("faults", "", "fault schedule file (request-time units)");
  cli.add_flag("fault-rate", "1000",
               "requests/second mapping wall time onto the fault "
               "schedule's request-time axis");
  cli.add_flag("metrics-out", "",
               "write the metrics registry to this JSON file on exit");
  cli.add_flag("spans-out", "",
               "write spans as Chrome trace-event JSON on exit");
  if (!cli.parse(argc, argv)) return 2;

  try {
    core::ScenarioConfig cfg;
    cfg.server_count = static_cast<std::size_t>(cli.get_int("servers"));
    cfg.classes = {
        {static_cast<std::size_t>(cli.get_int("low")), 1.0, "low"},
        {static_cast<std::size_t>(cli.get_int("medium")), 4.0, "medium"},
        {static_cast<std::size_t>(cli.get_int("high")), 16.0, "high"}};
    cfg.surge.objects_per_site =
        static_cast<std::size_t>(cli.get_int("objects"));
    cfg.storage_fraction = cli.get_double("storage");
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    core::Scenario scenario(cfg);

    obs::Registry metrics;
    obs::SpanTracer spans;
    const bool want_metrics = !cli.get_string("metrics-out").empty();
    const bool want_spans = !cli.get_string("spans-out").empty();

    const std::string mechanism = cli.get_string("mechanism");
    core::MechanismSpec spec;
    if (mechanism == "hybrid") {
      spec = core::hybrid_mechanism();
    } else if (mechanism == "replication") {
      spec = core::replication_mechanism();
    } else if (mechanism == "caching") {
      spec = core::caching_mechanism();
    } else {
      CDN_EXPECT(false, "unknown mechanism: " + mechanism);
    }
    const std::string placement_file = cli.get_string("placement");
    placement::PlacementResult placement =
        placement_file.empty()
            ? spec.build(scenario.system())
            : placement::load_placement_result(placement_file,
                                               scenario.system());
    const std::string dump_file = cli.get_string("dump-placement");
    if (!dump_file.empty()) {
      placement::save_placement(placement.placement, dump_file);
    }

    std::optional<fault::WallClockTimeline> timeline;
    fault::FaultSchedule schedule;
    const std::string fault_file = cli.get_string("faults");
    if (!fault_file.empty()) {
      schedule = fault::FaultSchedule::load(fault_file);
      schedule.validate(scenario.system().server_count(),
                        scenario.system().site_count());
      timeline.emplace(schedule, scenario.system().server_count(),
                       scenario.system().site_count(),
                       cli.get_double("fault-rate"));
    }

    redirectd::EndpointMap endpoints;
    const std::string endpoints_file = cli.get_string("endpoints");
    if (!endpoints_file.empty()) {
      endpoints = redirectd::EndpointMap::load(
          endpoints_file, scenario.system().server_count(),
          scenario.system().site_count());
    }

    redirectd::DaemonConfig dc;
    dc.host = cli.get_string("host");
    dc.port = static_cast<std::uint16_t>(cli.get_int("port"));
    dc.top_k = static_cast<std::size_t>(cli.get_int("top-k"));
    dc.race.stagger = std::chrono::milliseconds(cli.get_int("stagger-ms"));
    dc.race.attempt_timeout =
        std::chrono::milliseconds(cli.get_int("attempt-timeout-ms"));
    dc.race.overall_deadline =
        std::chrono::milliseconds(cli.get_int("deadline-ms"));
    dc.race.max_retry_rounds =
        static_cast<std::uint32_t>(cli.get_int("retries"));
    dc.race.backoff.base =
        std::chrono::milliseconds(cli.get_int("backoff-base-ms"));
    dc.race.backoff.cap =
        std::chrono::milliseconds(cli.get_int("backoff-cap-ms"));
    dc.health.probe_interval =
        std::chrono::milliseconds(cli.get_int("probe-interval-ms"));
    dc.health.probe_timeout =
        std::chrono::milliseconds(cli.get_int("probe-timeout-ms"));
    dc.max_inflight_races =
        static_cast<std::size_t>(cli.get_int("max-inflight"));
    dc.drain_timeout =
        std::chrono::milliseconds(cli.get_int("drain-timeout-ms"));
    dc.seed = cfg.seed;
    dc.adaptive = !cli.get_bool("no-adaptive");
    const std::string control_port = cli.get_string("control-port");
    if (!control_port.empty()) {
      dc.control = true;
      dc.control_host = cli.get_string("control-host");
      dc.control_port =
          static_cast<std::uint16_t>(std::stoul(control_port));
    }
    dc.reload_placement_path = placement_file;
    dc.reload_endpoints_path = endpoints_file;
    dc.system = &scenario.system();
    dc.placement = &placement;
    dc.endpoints = endpoints.empty() ? nullptr : &endpoints;
    dc.timeline = timeline.has_value() ? &*timeline : nullptr;
    dc.metrics = want_metrics ? &metrics : nullptr;
    dc.spans = want_spans ? &spans : nullptr;

    redirectd::RedirectorDaemon daemon(dc);
    daemon.start();
    g_daemon = &daemon;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGHUP, handle_reload_signal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("LISTENING %u\n", static_cast<unsigned>(daemon.port()));
    if (dc.control) {
      std::printf("CONTROL %u\n",
                  static_cast<unsigned>(daemon.control_port()));
    }
    std::fflush(stdout);

    const std::uint64_t served = daemon.run();
    g_daemon = nullptr;

    if (want_metrics) {
      obs::RunManifest manifest = obs::make_run_manifest("redirectd");
      obs::write_json_file(metrics, cli.get_string("metrics-out"),
                           &manifest);
    }
    if (want_spans) {
      spans.write_json_file(cli.get_string("spans-out"));
    }

    const auto& st = daemon.stats();
    std::fprintf(stderr,
                 "redirectd: served %llu requests "
                 "(replica %llu, origin %llu, unavailable %llu, "
                 "shed %llu, parse errors %llu)\n",
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(st.replica_answers),
                 static_cast<unsigned long long>(st.origin_answers),
                 static_cast<unsigned long long>(
                     st.unavailable_no_live_copy + st.unavailable_shed +
                     st.unavailable_deadline),
                 static_cast<unsigned long long>(st.unavailable_shed),
                 static_cast<unsigned long long>(st.parse_errors));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "redirectd: %s\n", e.what());
    return 1;
  }
}
