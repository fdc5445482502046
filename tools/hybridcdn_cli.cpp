// hybridcdn_cli — run a full scenario comparison from the command line.
//
// Examples:
//   hybridcdn_cli                                    # paper defaults
//   hybridcdn_cli --storage 0.10 --lambda 0.1
//   hybridcdn_cli --mechanisms hybrid,caching,cache20 --requests 1000000
//   hybridcdn_cli --servers 16 --low 12 --medium 24 --high 12 --csv
//   hybridcdn_cli --theta 0.8 --policy lfu --cdf
//   hybridcdn_cli --metrics-out m.json --trace-out t.csv --trace-sample 0.01

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "src/core/hybridcdn.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/recover/checkpoint.h"
#include "src/sim/sim_checkpoint.h"
#include "src/util/cli.h"

namespace {

using namespace cdn;

/// Graceful-shutdown flag set by SIGINT/SIGTERM (see docs/RECOVERY.md).
/// The engines poll it at their probe points, flush a final checkpoint and
/// throw recover::Interrupted; main() exits with kInterruptedExitCode (75).
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

/// Parses "hybrid,caching,cache20,..." into mechanism specs.
std::vector<core::MechanismSpec> parse_mechanisms(
    const std::string& csv, std::uint64_t seed, obs::Registry* metrics,
    obs::SpanTracer* spans, placement::PlacementModel placement_model) {
  std::vector<core::MechanismSpec> specs;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item == "replication") {
      specs.push_back(
          core::replication_mechanism(metrics, spans, placement_model));
    } else if (item == "caching") {
      specs.push_back(core::caching_mechanism());
    } else if (item == "hybrid") {
      specs.push_back(core::hybrid_mechanism(metrics, spans, placement_model));
    } else if (item == "popularity") {
      specs.push_back(core::popularity_mechanism());
    } else if (item == "random") {
      specs.push_back(core::random_mechanism(seed));
    } else if (item.rfind("cache", 0) == 0) {
      const double pct = std::atof(item.c_str() + 5);
      CDN_EXPECT(pct > 0.0 && pct < 100.0,
                 "cacheNN must carry a percentage in (0, 100)");
      specs.push_back(core::fixed_split_mechanism(pct / 100.0));
    } else {
      CDN_EXPECT(false, "unknown mechanism: " + item);
    }
  }
  CDN_EXPECT(!specs.empty(), "no mechanisms requested");
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "hybridcdn_cli — compare CDN content-delivery mechanisms "
      "(Bakiras & Loukopoulos, IPDPS 2005)");
  cli.add_flag("servers", "50", "number of CDN servers (N)");
  cli.add_flag("low", "50", "low-popularity sites");
  cli.add_flag("medium", "100", "medium-popularity sites");
  cli.add_flag("high", "50", "high-popularity sites");
  cli.add_flag("objects", "1000", "objects per site (L)");
  cli.add_flag("theta", "1.0", "Zipf exponent of object popularity");
  cli.add_flag("storage", "0.05",
               "per-server storage as a fraction of total site bytes");
  cli.add_flag("lambda", "0.0", "uncacheable/stale request fraction");
  cli.add_flag("mechanisms", "replication,caching,hybrid",
               "comma list: replication|caching|hybrid|popularity|random|"
               "cacheNN (fixed split with NN% cache)");
  cli.add_flag("requests", "5000000", "simulated requests");
  cli.add_flag("policy", "lru",
               "cache policy: lru|fifo|lfu|clock|delayed-lru");
  cli.add_flag("seed", "2005", "scenario seed");
  cli.add_flag("sim-seed", "99", "request-stream seed");
  cli.add_flag("cdf", "false", "also print the response-time CDF table");
  cli.add_flag("csv", "false", "emit the summary as CSV instead of a table");
  cli.add_flag("metrics-out", "",
               "write the metrics registry to this JSON file");
  cli.add_flag("spans-out", "",
               "write phase/iteration spans as Chrome trace-event JSON "
               "(load in https://ui.perfetto.dev; docs/OBSERVABILITY.md)");
  cli.add_flag("manifest-out", "",
               "write the run-provenance manifest (seed, fingerprints, "
               "build info, resource usage) to this JSON file");
  cli.add_flag("trace-out", "",
               "write the sampled per-request event trace to this CSV file");
  cli.add_flag("trace-sample", "0.01",
               "trace sampling rate in [0, 1] (1 = every measured request)");
  cli.add_flag("trace-max", "1000000",
               "cap on recorded trace events (excess is counted as dropped)");
  cli.add_flag("windows", "50",
               "per-window time-series buckets in the metrics output");
  cli.add_flag("engine", "event",
               "evaluation engine: event (per-request simulation) | flow "
               "(analytical steady-state fast path, milliseconds instead of "
               "seconds; docs/PERFORMANCE.md)");
  cli.add_flag("hit-model", "empirical",
               "hit-ratio model tier of the flow engine: "
               "empirical|closed-form|che (ignored by --engine=event)");
  cli.add_flag("placement-model", "exact",
               "model tier pricing placement candidates during the hybrid/"
               "replication placement stage: exact|closed-form|che "
               "(docs/PERFORMANCE.md)");
  cli.add_flag("threads", "1",
               "simulation threads: 1 = one-shard reference run, "
               "0 = all hardware threads, N = N workers over the shards");
  cli.add_flag("shards", "0",
               "first-hop shards of a multi-threaded run (0 = auto); the "
               "result is deterministic in (sim-seed, shards)");
  cli.add_flag("progress", "false",
               "print simulation progress to stderr");
  cli.add_flag("fault-schedule", "",
               "fault schedule file (docs/FAULTS.md); overrides --mtbf");
  cli.add_flag("mtbf", "0",
               "mean requests between server failures (0 = no random faults)");
  cli.add_flag("mttr", "0",
               "mean requests to repair a down server (0 = mtbf / 10)");
  cli.add_flag("fault-seed", "7", "seed of the random fault schedule");
  cli.add_flag("slo-ms", "0",
               "response-time SLO in ms; failed or slower requests count as "
               "violations (0 = off)");
  cli.add_flag("checkpoint-out", "",
               "write crash-safe checkpoints to this file; also enables "
               "graceful SIGINT/SIGTERM shutdown (docs/RECOVERY.md)");
  cli.add_flag("checkpoint-every-requests", "0",
               "checkpoint cadence in requests (requires --checkpoint-out)");
  cli.add_flag("checkpoint-every-seconds", "0",
               "checkpoint cadence in wall-clock seconds (requires "
               "--checkpoint-out)");
  cli.add_flag("resume", "",
               "resume from this checkpoint file; the configuration must "
               "match the one that wrote it exactly");
  cli.add_flag("report-digest", "false",
               "print each mechanism's report digest (byte-identity id)");

  const auto parse_start = std::chrono::steady_clock::now();
  if (!cli.parse(argc, argv)) return 1;
  const auto parse_end = std::chrono::steady_clock::now();

  try {
    const std::string spans_out = cli.get_string("spans-out");
    std::optional<obs::SpanTracer> tracer;
    if (!spans_out.empty()) tracer.emplace();
    obs::SpanTracer* const spans = tracer ? &*tracer : nullptr;
    if (spans != nullptr) {
      spans->set_thread_name("main");
      spans->instant("cli/parse", "cli", "ms",
                     std::chrono::duration<double, std::milli>(parse_end -
                                                               parse_start)
                         .count());
    }

    core::ScenarioConfig cfg;
    cfg.server_count = static_cast<std::size_t>(cli.get_int("servers"));
    cfg.classes = {
        {static_cast<std::size_t>(cli.get_int("low")), 1.0, "low"},
        {static_cast<std::size_t>(cli.get_int("medium")), 4.0, "medium"},
        {static_cast<std::size_t>(cli.get_int("high")), 16.0, "high"}};
    cfg.surge.objects_per_site =
        static_cast<std::size_t>(cli.get_int("objects"));
    cfg.surge.zipf_theta = cli.get_double("theta");
    cfg.storage_fraction = cli.get_double("storage");
    cfg.uncacheable_fraction = cli.get_double("lambda");
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    obs::ScopedSpan build_span(spans, "cli/build_scenario", "cli");
    core::Scenario scenario(cfg);
    build_span.stop();

    sim::SimulationConfig sim;
    sim.total_requests = static_cast<std::uint64_t>(cli.get_int("requests"));
    sim.policy = cache::parse_policy(cli.get_string("policy"));
    sim.seed = static_cast<std::uint64_t>(cli.get_int("sim-seed"));
    sim.metrics_windows = static_cast<std::size_t>(cli.get_int("windows"));
    sim.threads = static_cast<std::size_t>(cli.get_int("threads"));
    sim.shards = static_cast<std::size_t>(cli.get_int("shards"));
    const std::string engine_name = cli.get_string("engine");
    if (engine_name == "flow") {
      sim.engine = sim::SimEngine::kFlow;
    } else {
      CDN_EXPECT(engine_name == "event",
                 "unknown --engine: " + engine_name + " (expected event|flow)");
    }
    const std::string hit_model_name = cli.get_string("hit-model");
    if (hit_model_name == "closed-form") {
      sim.hit_model = sim::HitModel::kClosedForm;
    } else if (hit_model_name == "che") {
      sim.hit_model = sim::HitModel::kChe;
    } else {
      CDN_EXPECT(hit_model_name == "empirical",
                 "unknown --hit-model: " + hit_model_name +
                     " (expected empirical|closed-form|che)");
    }
    const std::string placement_model_name =
        cli.get_string("placement-model");
    const placement::PlacementModel placement_model =
        placement::parse_placement_model(placement_model_name);
    const std::string tier_note =
        core::model_tier_mismatch_note(hit_model_name, placement_model_name);
    if (!tier_note.empty()) std::cerr << tier_note << '\n';
    if (cli.get_bool("progress")) {
      sim.progress_every = std::max<std::uint64_t>(1, sim.total_requests / 20);
      sim.progress = [](const sim::SimulationProgress& p) {
        std::ostringstream line;
        line << "sim: " << p.completed << "/" << p.total << " requests ("
             << static_cast<int>(100.0 * static_cast<double>(p.completed) /
                                 static_cast<double>(p.total))
             << "%)";
        if (p.requests_per_sec > 0.0) {
          line << ", " << static_cast<std::uint64_t>(p.requests_per_sec)
               << " req/s, eta " << util::format_double(p.eta_seconds, 1)
               << "s";
        }
        if (p.hit_ratio_known) {
          line << ", hit_ratio=" << std::to_string(p.hit_ratio);
        } else if (p.warming_up) {
          line << ", warming up";
        }
        if (p.checkpoints_written > 0) {
          line << ", ckpt@" << p.last_checkpoint_request;
        }
        std::cerr << line.str() << '\n';
      };
    }
    sim.slo_ms = cli.get_double("slo-ms");

    fault::FaultSchedule schedule;
    const std::string fault_file = cli.get_string("fault-schedule");
    const double mtbf = cli.get_double("mtbf");
    if (!fault_file.empty()) {
      schedule = fault::FaultSchedule::load(fault_file);
    } else if (mtbf > 0.0) {
      fault::RandomFaultParams fp;
      fp.mtbf_requests = mtbf;
      const double mttr = cli.get_double("mttr");
      fp.mttr_requests = mttr > 0.0 ? mttr : mtbf / 10.0;
      fp.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed"));
      schedule =
          fault::FaultSchedule::random(scenario.system().server_count(),
                                       scenario.system().site_count(),
                                       sim.total_requests, fp);
    }
    if (!schedule.empty()) {
      schedule.validate(scenario.system().server_count(),
                        scenario.system().site_count());
      sim.faults = &schedule;
    }

    // --- Crash safety (docs/RECOVERY.md) ---
    sim.checkpoint_path = cli.get_string("checkpoint-out");
    CDN_EXPECT(!cli.is_set("checkpoint-every-requests") ||
                   cli.get_int("checkpoint-every-requests") > 0,
               "--checkpoint-every-requests must be a positive request "
               "count; drop the flag to disable the request cadence");
    sim.checkpoint_every_requests =
        static_cast<std::uint64_t>(cli.get_int("checkpoint-every-requests"));
    sim.checkpoint_every_seconds = cli.get_double("checkpoint-every-seconds");
    sim.resume_path = cli.get_string("resume");
    CDN_EXPECT(sim.checkpoint_path.empty() ||
                   sim.checkpoint_path != sim.resume_path,
               "--checkpoint-out and --resume must name different files "
               "(a failed resume would otherwise overwrite its own source)");
    const bool recovery =
        !sim.checkpoint_path.empty() || !sim.resume_path.empty();
    if (recovery) {
      // A checkpoint captures ONE simulation's state, so restrict the run
      // to a single mechanism — resume could not tell mechanisms apart.
      CDN_EXPECT(cli.get_string("mechanisms").find(',') == std::string::npos,
                 "--checkpoint-out/--resume require exactly one mechanism "
                 "(got --mechanisms " + cli.get_string("mechanisms") + ")");
    }
    if (!sim.checkpoint_path.empty()) {
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);
      sim.stop = &g_stop;
    }
    sim.validate();

    const std::string metrics_out = cli.get_string("metrics-out");
    const std::string trace_out = cli.get_string("trace-out");
    const std::string manifest_out = cli.get_string("manifest-out");
    obs::Registry registry;
    obs::Registry* const metrics = metrics_out.empty() ? nullptr : &registry;
    std::optional<obs::TraceSink> sink;
    if (!trace_out.empty()) {
      sink.emplace(cli.get_double("trace-sample"), sim.seed,
                   static_cast<std::size_t>(cli.get_int("trace-max")));
    }

    obs::RunManifest manifest = obs::make_run_manifest("hybridcdn_cli");
    manifest.seed = sim.seed;
    manifest.threads = sim.threads;
    manifest.shards = sim.shards;

    const auto flush_exports = [&] {
      obs::ScopedSpan export_span(spans, "cli/export", "cli");
      manifest.finalize();
      if (metrics != nullptr) {
        obs::write_json_file(registry, metrics_out, &manifest);
        std::cerr << "metrics: " << metrics_out << " ("
                  << registry.metric_count() << " metrics)\n";
      }
      if (sink) {
        sink->write_csv(trace_out);
        std::cerr << "trace: " << trace_out << " (" << sink->recorded()
                  << " events, " << sink->dropped() << " dropped)\n";
      }
      if (!manifest_out.empty()) {
        manifest.write_json_file(manifest_out);
        std::cerr << "manifest: " << manifest_out << '\n';
      }
      export_span.stop();
      if (spans != nullptr) {
        spans->write_json_file(spans_out);
        std::cerr << "spans: " << spans_out << " (" << spans->recorded()
                  << " events, " << spans->dropped() << " dropped)\n";
      }
    };

    std::vector<core::MechanismRun> runs;
    try {
      runs = core::run_mechanisms(
          scenario,
          parse_mechanisms(cli.get_string("mechanisms"), cfg.seed, metrics,
                           spans, placement_model),
          sim, metrics, sink ? &*sink : nullptr, spans);
    } catch (const recover::Interrupted& e) {
      // Graceful shutdown: the engine already flushed its checkpoint; flush
      // the observability exports too and exit with the documented code so
      // wrappers know the run is resumable, not failed.
      flush_exports();
      std::cerr << "interrupted: " << e.what() << "\n"
                << "resume with --resume "
                << (e.checkpoint_path().empty() ? "<checkpoint>"
                                                : e.checkpoint_path())
                << '\n';
      return recover::kInterruptedExitCode;
    }

    // Provenance: the same fingerprint sections checkpoint/resume validates
    // against, so a manifest identifies a run as precisely as a checkpoint
    // does.  The placement section differs per mechanism; the rest are
    // shared (add_fingerprint dedupes identical sections).
    for (const auto& run : runs) {
      for (const auto& section : sim::detail::checkpoint_fingerprint(
               scenario.system(), run.placement, sim)) {
        if (section.first == "placement") {
          manifest.add_fingerprint("placement/" + run.name, section.second);
        } else {
          manifest.add_fingerprint(section.first, section.second);
        }
      }
    }

    const auto table = core::summary_table(runs);
    std::cout << (cli.get_bool("csv") ? table.csv() : table.str());
    if (sim.faults != nullptr || sim.slo_ms > 0.0) {
      util::TextTable fault_table({"mechanism", "availability", "failed",
                                   "failover", "retries", "cold_restarts",
                                   "slo_violation"});
      for (const auto& run : runs) {
        const auto& r = run.report;
        fault_table.add_row(
            {run.name, util::format_double(r.availability, 6),
             std::to_string(r.failed_requests),
             std::to_string(r.failover_requests),
             std::to_string(r.retry_attempts),
             std::to_string(r.cold_restarts),
             util::format_double(r.slo_violation_fraction, 6)});
      }
      std::cout << "\nDegraded-mode report:\n"
                << (cli.get_bool("csv") ? fault_table.csv()
                                        : fault_table.str());
    }
    if (cli.get_bool("cdf")) {
      std::cout << "\nResponse-time CDF:\n" << core::cdf_table(runs);
    }
    if (cli.get_bool("report-digest")) {
      for (const auto& run : runs) {
        std::cout << "digest " << run.name << " " << std::hex
                  << std::setfill('0') << std::setw(16)
                  << sim::report_digest(run.report) << std::dec << '\n';
      }
    }
    flush_exports();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
