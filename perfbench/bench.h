// Shared pieces of the perfbench driver (perfbench/README.md): the run
// arguments, the result record a workload fills, and the timing and
// quantile helpers the workloads share.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/scenario.h"
#include "src/obs/span.h"
#include "src/util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured wall-clock budget; set-up runs before it and is not counted.
  double seconds = 10.0;
  /// A traced run measures the per-layer metrics: half the budget untraced
  /// (the reference for the tracing overhead), then a fixed amount of work
  /// with span tracers and metric registries attached, then the layer
  /// replays.
  bool trace = false;
  /// Where the trace and the reload plan files are written.
  std::string out_dir;
  /// Threads plus connections the load generator may use: the machine's
  /// hardware threads.
  std::size_t budget = 4;
};

/// One reported number with its unit and the samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

/// What one workload run reports.
struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> failures;  // one diagnostic per failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string trace_file;
  /// Units of work in the traced run (passes, or closed-loop blocks of
  /// redirects); the per-module self times are reported per unit.
  double trace_units = 0.0;

  void set(const std::string& name, double value, const char* unit,
           std::uint64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.emplace_back(name, ok);
    if (!ok) failures.push_back(name + ": " + detail);
  }
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline void set_median(Result& result, const std::string& name,
                       const std::vector<double>& values, const char* unit) {
  result.set(name, median(values), unit, values.size());
}

/// Peak resident memory of the process so far.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Independent seed of one generated input of the run.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return cdn::util::splitmix64(state);
}

/// Draws the workload's popularity mix from its seed: each class's volume
/// weight within +-5% of the configured one.  The network, the site
/// catalog and the per-server demand shares stay those of `config.seed`
/// (the weights draw no random numbers there), so every workload seed
/// gives a different demand at the same scale of work -- set-up and
/// placement times differ between seeds by measurement noise, not by how
/// many replicas a random network happens to need.
inline cdn::core::ScenarioConfig with_demand_mix(
    cdn::core::ScenarioConfig config, std::uint64_t seed) {
  cdn::util::Rng rng(derive_seed(seed, 0x6d6978ULL));
  for (auto& popularity : config.classes) {
    popularity.volume_weight *= rng.uniform(0.95, 1.05);
  }
  return config;
}

/// The paper's Section 5.1 scenario (N = 50 servers, M = 200 sites,
/// L = 1000 objects per site, theta = 1.0, 5% storage, lambda = 0) on the
/// instance the paper-figure benches use, with the seed's demand mix.
inline cdn::core::ScenarioConfig paper_config(std::uint64_t seed) {
  cdn::core::ScenarioConfig config;
  config.storage_fraction = 0.05;
  config.uncacheable_fraction = 0.0;
  config.seed = 2005;
  return with_demand_mix(config, seed);
}

/// Writes the traced run's Chrome trace-event file, which holds `units`
/// units of work.  Every span must be in it, or the self times derived from
/// it would cover only the newest ones.
inline void finish_trace(const cdn::obs::SpanTracer& tracer, const Args& args,
                         double units, Result& result) {
  result.trace_file = args.out_dir + "/trace.json";
  result.trace_units = units;
  tracer.write_json_file(result.trace_file);
  result.set("obs.spans_dropped", static_cast<double>(tracer.dropped()),
             "count", tracer.recorded() + tracer.dropped());
  result.check("trace_holds_every_span", tracer.dropped() == 0,
               std::to_string(tracer.dropped()) + " spans lost to ring overflow");
}

void run_paper_e2e(const Args& args, Result& result);
void run_plan_large(const Args& args, Result& result);
void run_redirect(const Args& args, bool churn, Result& result);

}  // namespace perfbench
