// The end-of-run summary metrics the event engine (shard_engine.cpp) and
// the flow engine (flow_engine.cpp) both publish.  Not part of the public
// sim API.

#pragma once

#include <string>

#include "src/obs/registry.h"
#include "src/sim/simulator.h"

namespace cdn::sim::detail {

/// End-of-run summary metrics, shared verbatim by the event and flow
/// engines so their snapshots have the same layout.
inline void publish_summary_metrics(obs::Registry& metrics,
                                    const std::string& prefix,
                                    const SimulationConfig& config,
                                    const SimulationReport& report,
                                    bool slo_active, bool faults_active) {
  metrics.counter(prefix + "requests_total").add(report.total_requests);
  metrics.counter(prefix + "requests_measured").add(report.measured_requests);
  metrics.gauge(prefix + "cache_hit_ratio").set(report.cache_hit_ratio);
  metrics.gauge(prefix + "local_ratio").set(report.local_ratio);
  metrics.gauge(prefix + "mean_cost_hops").set(report.mean_cost_hops);
  metrics.gauge(prefix + "mean_latency_ms").set(report.mean_latency_ms);
  metrics.counter(prefix + "cache/hits").add(report.cache_totals.hits());
  metrics.counter(prefix + "cache/misses").add(report.cache_totals.misses());
  metrics.counter(prefix + "cache/admissions")
      .add(report.cache_totals.admissions());
  metrics.counter(prefix + "cache/evictions")
      .add(report.cache_totals.evictions());
  metrics.counter(prefix + "cache/bytes_churned")
      .add(report.cache_totals.bytes_churned());
  if (slo_active) {
    metrics.gauge(prefix + "slo_violation_fraction")
        .set(report.slo_violation_fraction);
  }
  if (faults_active) {
    metrics.gauge(prefix + "availability").set(report.availability);
    metrics.counter(prefix + "fault/failed").add(report.failed_requests);
    metrics.counter(prefix + "fault/failover").add(report.failover_requests);
    metrics.counter(prefix + "fault/cold_restarts").add(report.cold_restarts);
    metrics.counter(prefix + "fault/transitions")
        .add(report.fault_transitions);
  }
  if (config.per_server_metrics) {
    for (std::size_t i = 0; i < report.server_cache_stats.size(); ++i) {
      metrics.gauge(prefix + "server/" + std::to_string(i) + "/hit_ratio")
          .set(report.server_cache_stats[i].hit_ratio());
    }
  }
}

}  // namespace cdn::sim::detail
