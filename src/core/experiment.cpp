#include "src/core/experiment.h"

#include <algorithm>

#include "src/obs/scoped_timer.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/util/error.h"

namespace cdn::core {

MechanismSpec replication_mechanism(obs::Registry* metrics,
                                    obs::SpanTracer* spans) {
  return {"replication", [metrics, spans](const sys::CdnSystem& s) {
            placement::GreedyGlobalOptions options;
            options.metrics = metrics;
            options.metrics_prefix = "placement/replication/";
            options.spans = spans;
            return placement::greedy_global(s, options);
          }};
}

MechanismSpec caching_mechanism() {
  return {"caching",
          [](const sys::CdnSystem& s) { return placement::pure_caching(s); }};
}

MechanismSpec hybrid_mechanism(obs::Registry* metrics,
                               obs::SpanTracer* spans) {
  return {"hybrid", [metrics, spans](const sys::CdnSystem& s) {
            placement::HybridGreedyOptions options;
            options.metrics = metrics;
            options.metrics_prefix = "placement/hybrid/";
            options.spans = spans;
            return placement::hybrid_greedy(s, options);
          }};
}

std::string model_tier_mismatch_note(const std::string& hit_model) {
  if (hit_model == "empirical") return "";
  return "note: --hit-model=" + hit_model + " simulates hit ratios with a "
         "different model tier than the exact model hybrid placement ranks "
         "candidates with; results are well-defined but the "
         "predicted-vs-measured comparison mixes tiers";
}

MechanismSpec fixed_split_mechanism(double cache_fraction) {
  return {"cache" + util::format_double(100.0 * cache_fraction, 0) + "%",
          [cache_fraction](const sys::CdnSystem& s) {
            return placement::fixed_split(s, cache_fraction);
          }};
}

std::vector<MechanismRun> run_mechanisms(
    const Scenario& scenario, const std::vector<MechanismSpec>& mechanisms,
    const sim::SimulationConfig& sim_config, obs::Registry* metrics,
    obs::TraceSink* trace, obs::SpanTracer* spans) {
  CDN_EXPECT(!mechanisms.empty(), "no mechanisms to run");
  std::vector<MechanismRun> runs;
  runs.reserve(mechanisms.size());
  for (const auto& spec : mechanisms) {
    sim::SimulationConfig cfg = sim_config;
    obs::TimerStat* t_build = nullptr;
    obs::TimerStat* t_simulate = nullptr;
    if (metrics != nullptr) {
      cfg.metrics = metrics;
      cfg.metrics_prefix = "sim/" + spec.name + "/";
      t_build = &metrics->timer("experiment/" + spec.name + "/build");
      t_simulate = &metrics->timer("experiment/" + spec.name + "/simulate");
    }
    const char* sp_build = nullptr;
    const char* sp_simulate = nullptr;
    if (spans != nullptr) {
      cfg.spans = spans;
      sp_build = spans->intern("experiment/" + spec.name + "/build");
      sp_simulate = spans->intern("experiment/" + spec.name + "/simulate");
    }
    if (trace != nullptr) {
      cfg.trace_sink = trace;
      trace->begin_context(spec.name);
    }
    obs::ScopedTimer build_timer(t_build);
    obs::ScopedSpan build_span(spans, sp_build, "experiment");
    MechanismRun run{.name = spec.name,
                     .placement = spec.build(scenario.system()),
                     .report = {}};
    build_span.stop();
    build_timer.stop();
    obs::ScopedTimer simulate_timer(t_simulate);
    obs::ScopedSpan simulate_span(spans, sp_simulate, "experiment");
    run.report = sim::simulate(scenario.system(), run.placement, cfg);
    simulate_span.stop();
    simulate_timer.stop();
    runs.push_back(std::move(run));
  }
  return runs;
}

util::TextTable summary_table(const std::vector<MechanismRun>& runs) {
  util::TextTable table({"mechanism", "mean_ms", "p50_ms", "p90_ms", "p99_ms",
                         "local%", "hops/req", "pred_hops/req", "replicas"});
  for (const auto& run : runs) {
    const auto& cdf = run.report.latency_cdf;
    table.add_row({run.name, util::format_double(run.report.mean_latency_ms, 2),
                   util::format_double(cdf.quantile(0.50), 2),
                   util::format_double(cdf.quantile(0.90), 2),
                   util::format_double(cdf.quantile(0.99), 2),
                   util::format_double(100.0 * run.report.local_ratio, 1),
                   util::format_double(run.report.mean_cost_hops, 3),
                   util::format_double(
                       run.placement.predicted_cost_per_request, 3),
                   std::to_string(run.placement.replicas_created)});
  }
  return table;
}

std::string cdf_table(const std::vector<MechanismRun>& runs,
                      std::size_t grid_points) {
  CDN_EXPECT(!runs.empty(), "no runs to tabulate");
  // Shared grid spanning the union of all latency ranges.
  double lo = runs.front().report.latency_cdf.min();
  double hi = runs.front().report.latency_cdf.max();
  for (const auto& run : runs) {
    lo = std::min(lo, run.report.latency_cdf.min());
    hi = std::max(hi, run.report.latency_cdf.max());
  }
  std::vector<double> grid(grid_points);
  for (std::size_t g = 0; g < grid_points; ++g) {
    grid[g] = lo + (hi - lo) * static_cast<double>(g) /
                       static_cast<double>(grid_points - 1);
  }
  std::vector<std::string> names;
  std::vector<std::vector<util::CdfPoint>> curves;
  for (const auto& run : runs) {
    names.push_back(run.name);
    curves.push_back(run.report.latency_cdf.at(grid));
  }
  return util::format_cdf_table(names, curves);
}

double mean_latency_gain_percent(const MechanismRun& baseline,
                                 const MechanismRun& candidate) {
  CDN_EXPECT(baseline.report.mean_latency_ms > 0.0,
             "baseline latency must be positive");
  return 100.0 *
         (baseline.report.mean_latency_ms - candidate.report.mean_latency_ms) /
         baseline.report.mean_latency_ms;
}

}  // namespace cdn::core
