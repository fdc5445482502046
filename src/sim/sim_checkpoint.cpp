#include "src/sim/sim_checkpoint.h"

#include <string>

#include "src/cdn/system.h"
#include "src/fault/fault_schedule.h"
#include "src/sim/shard_engine.h"
#include "src/sim/sim_internal.h"
#include "src/workload/trace_io.h"

namespace cdn::sim {

std::vector<std::uint8_t> serialize_report(const SimulationReport& report) {
  util::ByteWriter w;
  report.latency_cdf.save_state(w);
  w.f64(report.mean_latency_ms);
  w.f64(report.mean_cost_hops);
  w.f64(report.local_ratio);
  w.f64(report.cache_hit_ratio);
  w.u64(report.measured_requests);
  w.u64(report.total_requests);
  w.u64(report.shards_used);
  w.u64(report.failed_requests);
  w.u64(report.failover_requests);
  w.u64(report.retry_attempts);
  w.u64(report.cold_restarts);
  w.u64(report.fault_transitions);
  w.f64(report.availability);
  w.f64(report.slo_violation_fraction);
  w.u64(report.server_cache_stats.size());
  for (const cache::CacheStats& stats : report.server_cache_stats) {
    stats.save_state(w);
  }
  report.cache_totals.save_state(w);
  // Only the kTtl and kInvalidation modes set these, so every other run
  // keeps the bytes (and the pinned digests) it had before they existed.
  if (report.stale_served != 0 || report.validations != 0 ||
      report.invalidation_misses != 0) {
    w.u64(report.stale_served);
    w.u64(report.validations);
    w.u64(report.invalidation_misses);
  }
  return w.buffer();
}

std::uint64_t report_digest(const SimulationReport& report) {
  const std::vector<std::uint8_t> bytes = serialize_report(report);
  return util::fnv1a(bytes.data(), bytes.size());
}

namespace detail {

namespace {

std::uint64_t hash_of(const util::ByteWriter& w) {
  return util::fnv1a(w.buffer().data(), w.size());
}

std::uint64_t config_hash(const SimulationConfig& config) {
  util::ByteWriter w;
  if (config.trace != nullptr) {
    w.u8(1);
    w.u64(config.trace->size());
    for (std::size_t i = 0; i < config.trace->size(); ++i) {
      const workload::Request& req = (*config.trace)[i];
      w.u32(req.server);
      w.u32(req.site);
      w.u32(req.rank);
    }
  } else {
    w.u8(0);
    w.u64(config.total_requests);
  }
  w.f64(config.warmup_fraction);
  w.u8(static_cast<std::uint8_t>(config.policy));
  w.u8(static_cast<std::uint8_t>(config.staleness));
  w.f64(config.latency.ms_per_hop);
  w.f64(config.latency.first_hop_ms);
  w.f64(config.latency.retry_timeout_ms);
  w.f64(config.latency.retry_backoff_ms);
  w.u64(config.seed);
  w.f64(config.slo_ms);
  w.f64(kLatencySketchError);  // a new bound must refuse old checkpoints
  w.u64(config.metrics_windows);
  w.u8(config.per_server_metrics ? 1 : 0);
  // Observability shape matters to the payload layout: a checkpoint taken
  // with metrics (or a trace sink) holds window/cause/histogram (or sink)
  // state the resuming run must also expect.
  w.u8(config.metrics != nullptr ? 1 : 0);
  w.u8(config.trace_sink != nullptr ? 1 : 0);
  return hash_of(w);
}

std::uint64_t system_hash(const sys::CdnSystem& system) {
  util::ByteWriter w;
  const auto& catalog = system.catalog();
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const std::size_t l = catalog.objects_per_site();
  w.u64(n);
  w.u64(m);
  w.u64(l);
  w.f64(catalog.object_popularity().theta());
  for (std::size_t j = 0; j < m; ++j) {
    const auto site = static_cast<workload::SiteId>(j);
    w.f64(catalog.uncacheable_fraction(site));
    for (std::size_t k = 1; k <= l; ++k) {
      w.u64(catalog.object_bytes(site, k));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.u64(system.server_storage(static_cast<sys::ServerIndex>(i)));
    for (const double d :
         system.demand().row(static_cast<workload::ServerId>(i))) {
      w.f64(d);
    }
  }
  return hash_of(w);
}

std::uint64_t placement_hash(const sys::CdnSystem& system,
                             const placement::PlacementResult& result) {
  util::ByteWriter w;
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  w.str(result.algorithm);
  w.u8(result.caching_enabled ? 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    w.u64(result.cache_bytes(server));
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<sys::SiteIndex>(j);
      w.u8(result.placement.is_replicated(server, site) ? 1 : 0);
      const sys::NearestCopy& copy = result.nearest.nearest(server, site);
      w.u8(copy.at_primary ? 1 : 0);
      w.u32(static_cast<std::uint32_t>(copy.server));
      w.f64(copy.cost);
    }
  }
  return hash_of(w);
}

std::uint64_t faults_hash(const SimulationConfig& config) {
  const std::string text =
      config.faults != nullptr ? config.faults->serialize() : std::string();
  return util::fnv1a(text.data(), text.size());
}

std::uint64_t engine_hash(const sys::CdnSystem& system,
                          const SimulationConfig& config) {
  const EventShape shape = event_shape(config, system.server_count());
  util::ByteWriter w;
  w.u8(shape.reference ? 0 : 1);
  w.u64(shape.shards);
  return hash_of(w);
}

}  // namespace

std::vector<recover::FingerprintSection> checkpoint_fingerprint(
    const sys::CdnSystem& system, const placement::PlacementResult& result,
    const SimulationConfig& config) {
  return {
      {"config", config_hash(config)},
      {"system", system_hash(system)},
      {"placement", placement_hash(system, result)},
      {"faults", faults_hash(config)},
      {"engine", engine_hash(system, config)},
  };
}

}  // namespace detail
}  // namespace cdn::sim
