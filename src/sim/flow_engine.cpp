#include "src/sim/flow_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/model/steady_state.h"
#include "src/obs/scoped_timer.h"
#include "src/sim/sim_internal.h"
#include "src/util/error.h"

namespace cdn::sim {

namespace {

// The flow engine builds its H(z)/N(z) tables per run (the tier may differ
// from the placement's), so the grid is kept small: 512 log-spaced points
// hold the interpolation error well below the model-vs-simulation gap while
// costing ~0.5M exp() calls at the paper's L=1000 — the dominant share of a
// flow run's setup.
constexpr std::size_t kCurveGridPoints = 512;

model::SteadyStateModel tier_of(HitModel hit_model) {
  switch (hit_model) {
    case HitModel::kEmpirical:
      return model::SteadyStateModel::kEmpirical;
    case HitModel::kClosedForm:
      return model::SteadyStateModel::kClosedForm;
    case HitModel::kChe:
      return model::SteadyStateModel::kChe;
  }
  return model::SteadyStateModel::kEmpirical;
}

}  // namespace

SimulationReport simulate_flow(const sys::CdnSystem& system,
                               const placement::PlacementResult& result,
                               const SimulationConfig& config) {
  const auto& catalog = system.catalog();
  const auto& demand = system.demand();
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();

  obs::Registry* const metrics = config.metrics;
  const std::string& prefix = config.metrics_prefix;
  obs::TimerStat* const t_setup =
      metrics ? &metrics->timer(prefix + "phase/setup") : nullptr;
  obs::TimerStat* const t_run =
      metrics ? &metrics->timer(prefix + "phase/run") : nullptr;
  obs::TimerStat* const t_report =
      metrics ? &metrics->timer(prefix + "phase/report") : nullptr;

  obs::SpanTracer* const spans = config.spans;
  const char* sp_setup = nullptr;
  const char* sp_run = nullptr;
  const char* sp_report = nullptr;
  if (spans != nullptr) {
    sp_setup = spans->intern(prefix + "setup");
    sp_run = spans->intern(prefix + "run");
    sp_report = spans->intern(prefix + "report");
  }

  obs::ScopedTimer setup_timer(t_setup);
  obs::ScopedSpan setup_span(spans, sp_setup, "sim");
  const auto run_start = std::chrono::steady_clock::now();

  // --- Hit-ratio model tier: an N x M matrix, (1 - lambda)-scaled. ---
  const model::SteadyStateModel tier = tier_of(config.hit_model);
  std::vector<double> hits;
  std::uint64_t curve_clamped = 0;
  if (tier == model::SteadyStateModel::kEmpirical) {
    hits = result.modeled_hit;
    CDN_EXPECT(hits.size() == n * m,
               "placement hit matrix does not match the system dimensions");
  } else {
    const util::ZipfDistribution& zipf = catalog.object_popularity();
    const model::HitRatioCurve curve(zipf, kCurveGridPoints);
    std::optional<model::OccupancyCurve> occupancy;
    if (tier == model::SteadyStateModel::kChe) {
      occupancy.emplace(zipf, kCurveGridPoints);
    }
    hits.assign(n * m, 0.0);
    const double mean_bytes = catalog.mean_object_bytes();
    std::vector<double> popularity(m, 0.0);
    std::vector<std::uint8_t> replicated(m, 0);
    std::vector<double> lambdas(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      lambdas[j] =
          catalog.uncacheable_fraction(static_cast<workload::SiteId>(j));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const double row_total =
          demand.server_total(static_cast<workload::ServerId>(i));
      for (std::size_t j = 0; j < m; ++j) {
        popularity[j] =
            row_total > 0.0
                ? demand.requests(static_cast<workload::ServerId>(i),
                                  static_cast<workload::SiteId>(j)) /
                      row_total
                : 0.0;
        replicated[j] = result.placement.is_replicated(
                            server, static_cast<sys::SiteIndex>(j))
                            ? 1
                            : 0;
      }
      const auto slots = static_cast<std::uint64_t>(
          static_cast<double>(result.cache_bytes(server)) / mean_bytes);
      const std::vector<double> row = model::steady_state_hit_ratios(
          tier, popularity, replicated, lambdas, zipf, curve,
          occupancy ? &*occupancy : nullptr, slots);
      std::copy(row.begin(), row.end(), hits.begin() + i * m);
    }
    curve_clamped = curve.clamped_evaluations() +
                    (occupancy ? occupancy->clamped_evaluations() : 0);
  }

  setup_timer.stop();
  setup_span.stop();
  obs::ScopedTimer run_timer(t_run);
  obs::ScopedSpan run_span(spans, sp_run, "sim");

  const std::uint64_t total = config.total_requests;
  const double total_demand = demand.total();
  CDN_EXPECT(total_demand > 0.0, "demand matrix has no request mass");
  const double lat_local = config.latency.latency_ms(0.0);
  const bool slo_active = config.slo_ms > 0.0;

  SimulationReport report;
  report.latency_cdf.use_sketch(detail::kLatencySketchError);

  // --- Split every demand cell's flow mass analytically. ---
  double mass = 0.0;                  // total processed flow (sums to ~1)
  double local_mass = 0.0;            // served at the first-hop server
  double replica_local_mass = 0.0;    //   of which: local replica
  double hit_mass = 0.0;              //   of which: modelled cache hit
  double eligible_mass = 0.0;         // unreplicated * (1 - lambda)
  double flagged_mass = 0.0;          // unreplicated * lambda
  double origin_mass = 0.0;           // redirected to the primary origin
  double replica_redirect_mass = 0.0; // redirected to a replica holder
  double hop_mass = 0.0;              // sum f * (1 - mh) * C(i, SN)
  double lat_sum = 0.0;               // mass-weighted latency
  double slo_mass = 0.0;              // mass with latency > slo_ms
  std::vector<double> served_share(n, 0.0);
  std::uint64_t cells = 0;

  // Weighted CDF insertion: one O(1) sketch add per latency value, with
  // flow mass converted to (rounded) request counts.
  const auto add_weighted = [&](double latency_ms, double flow) {
    const auto count = static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::llround(flow * static_cast<double>(total))));
    report.latency_cdf.add(latency_ms, count);
  };
  double local_lat_mass = 0.0;  // everything at lat_local, added once below

  for (std::size_t i = 0; i < n; ++i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    for (std::size_t j = 0; j < m; ++j) {
      const double d = demand.requests(static_cast<workload::ServerId>(i),
                                       static_cast<workload::SiteId>(j));
      if (d <= 0.0) continue;
      ++cells;
      const double f = d / total_demand;
      mass += f;
      const auto site = static_cast<sys::SiteIndex>(j);
      if (result.placement.is_replicated(server, site)) {
        local_mass += f;
        replica_local_mass += f;
        served_share[i] += f;
        local_lat_mass += f;
        lat_sum += f * lat_local;
        if (slo_active && lat_local > config.slo_ms) slo_mass += f;
        continue;
      }
      const double lambda =
          catalog.uncacheable_fraction(static_cast<workload::SiteId>(j));
      // Already (1 - lambda)-scaled; clamp against model round-off so the
      // redirected remainder can never go negative.
      const double mh = std::clamp(hits[i * m + j], 0.0, 1.0 - lambda);
      const double hit = f * mh;
      const double redirect = f - hit;  // flagged mass + cache misses
      eligible_mass += f * (1.0 - lambda);
      flagged_mass += f * lambda;
      hit_mass += hit;
      local_mass += hit;
      served_share[i] += hit;
      local_lat_mass += hit;
      lat_sum += hit * lat_local;
      if (slo_active && lat_local > config.slo_ms) slo_mass += hit;
      const sys::NearestCopy& copy = result.nearest.nearest(server, site);
      const double lat_redirect = config.latency.latency_ms(copy.cost);
      hop_mass += redirect * copy.cost;
      lat_sum += redirect * lat_redirect;
      if (slo_active && lat_redirect > config.slo_ms) slo_mass += redirect;
      if (copy.at_primary) {
        origin_mass += redirect;
      } else {
        replica_redirect_mass += redirect;
        served_share[copy.server] += redirect;
      }
      add_weighted(lat_redirect, redirect);
    }
  }
  add_weighted(lat_local, local_lat_mass);
  CDN_CHECK(mass > 0.0, "no demand cell carries positive mass");
  // Tiny runs can round every weight to zero; keep the CDF queryable.
  if (report.latency_cdf.empty()) report.latency_cdf.add(lat_sum / mass, 1);

  run_timer.stop();
  run_span.stop();
  obs::ScopedTimer report_timer(t_report);
  obs::ScopedSpan report_span(spans, sp_report, "sim");

  // Steady state has no warm-up: the whole run is measured.
  report.total_requests = total;
  report.measured_requests = total;
  report.shards_used = 1;
  report.mean_latency_ms = lat_sum / mass;
  report.mean_cost_hops = hop_mass / mass;
  report.local_ratio = local_mass / mass;
  report.cache_hit_ratio =
      eligible_mass > 0.0 ? hit_mass / eligible_mass : 0.0;
  report.slo_violation_fraction = slo_active ? slo_mass / mass : 0.0;

  if (metrics != nullptr) {
    detail::publish_summary_metrics(*metrics, prefix, config, report,
                                    slo_active, /*faults_active=*/false);
    // Expected per-cause request counts, mirroring the event engine's
    // cause/* counters (rounded from flow mass).
    const auto expected = [&](double flow) {
      return static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, std::llround(flow / mass * static_cast<double>(total))));
    };
    metrics->counter(prefix + "cause/" + obs::to_string(obs::EventCause::kReplica))
        .add(expected(replica_local_mass));
    metrics->counter(prefix + "cause/" + obs::to_string(obs::EventCause::kCacheHit))
        .add(expected(hit_mass));
    metrics->counter(prefix + "cause/" + obs::to_string(obs::EventCause::kCacheMiss))
        .add(expected(eligible_mass - hit_mass));
    const auto flagged_cause = config.staleness == StalenessMode::kUncacheable
                                   ? obs::EventCause::kUncacheable
                                   : obs::EventCause::kStaleRefresh;
    metrics->counter(prefix + "cause/" + obs::to_string(flagged_cause))
        .add(expected(flagged_mass));
    // Flow-split gauges (all normalised shares of the total request mass).
    metrics->gauge(prefix + "flow/local_replica_share")
        .set(replica_local_mass / mass);
    metrics->gauge(prefix + "flow/cache_hit_share").set(hit_mass / mass);
    metrics->gauge(prefix + "flow/origin_share").set(origin_mass / mass);
    metrics->gauge(prefix + "flow/replica_redirect_share")
        .set(replica_redirect_mass / mass);
    metrics->gauge(prefix + "flow/uncacheable_share")
        .set(flagged_mass / mass);
    metrics->gauge(prefix + "flow/hit_model")
        .set(static_cast<double>(static_cast<int>(config.hit_model)));
    metrics->gauge(prefix + "flow/cells").set(static_cast<double>(cells));
    metrics->counter(prefix + "model/curve_clamped").add(curve_clamped);
    if (config.per_server_metrics) {
      for (std::size_t i = 0; i < n; ++i) {
        metrics->gauge(prefix + "server/" + std::to_string(i) + "/load_share")
            .set(served_share[i] / mass);
      }
      metrics->gauge(prefix + "flow/origin_load_share")
          .set(origin_mass / mass);
    }
  }

  if (config.progress_every > 0 && config.progress) {
    // One terminal snapshot: a flow run has no meaningful intermediate
    // progress (it completes in milliseconds).
    SimulationProgress p;
    p.completed = total;
    p.total = total;
    p.hit_ratio = report.cache_hit_ratio;
    p.hit_ratio_known = eligible_mass > 0.0;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - run_start)
                               .count();
    if (elapsed > 0.0) {
      p.requests_per_sec = static_cast<double>(total) / elapsed;
    }
    config.progress(p);
  }
  return report;
}

}  // namespace cdn::sim
