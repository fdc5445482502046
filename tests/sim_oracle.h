// Test-only oracle for the event engine: the per-request loop whose events
// the engine's three-pass blocks must reproduce one for one
// (sim_batch_parity_test).
//
// One request at a time on public APIs, with no shards, blocks, metrics or
// checkpoints.  Each request advances the fault timeline, is drawn from the
// trace or the stream (thinned by rejection against the surge RNG while a
// surge is on) and is served by its first-hop cache before the next one is
// drawn.  Faults, the lambda modes and the consistency modes are branches
// of that one step; fetch times are a plain map per server that is never
// pruned, and an object's last modification is read only when a cache hit
// needs it.  The RNGs are seeded the way the engine's one-shard reference
// run seeds its own (src/sim/sim_internal.h).

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/cache/cache_factory.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/trace.h"
#include "src/sim/consistency.h"
#include "src/sim/sim_internal.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/request_stream.h"

namespace cdn::test {

struct SimOracleRun {
  /// One event per request, warm-up included.
  std::vector<obs::TraceEvent> events;
  /// Measured requests only, as in SimulationReport; cold_restarts counts
  /// the whole run.
  std::uint64_t failed = 0;
  std::uint64_t failover = 0;
  std::uint64_t retries = 0;
  std::uint64_t cold_restarts = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t validations = 0;
  std::uint64_t invalidation_misses = 0;
  /// Final per-server cache statistics (measured window only).
  std::vector<cache::CacheStats> server_cache_stats;
};

/// Simulates `config` (one shard, no metrics) request by request.
inline SimOracleRun oracle_simulate(const sys::CdnSystem& system,
                                    const placement::PlacementResult& result,
                                    const sim::SimulationConfig& config) {
  using obs::EventCause;
  const workload::SiteCatalog& catalog = system.catalog();
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const std::uint64_t total =
      config.trace != nullptr ? config.trace->size() : config.total_requests;
  const auto warmup = static_cast<std::uint64_t>(config.warmup_fraction *
                                                 static_cast<double>(total));
  workload::RequestStream stream(catalog, system.demand(), config.seed);
  util::Rng lambda_rng(config.seed ^ sim::detail::kLambdaMix);
  util::Rng surge_rng(config.seed ^ sim::detail::kSurgeMix);
  std::vector<std::unique_ptr<cache::CachePolicy>> caches;
  for (std::size_t i = 0; i < n; ++i) {
    caches.push_back(cache::make_cache(
        config.policy, result.cache_bytes(static_cast<sys::ServerIndex>(i))));
  }
  std::optional<fault::FaultTimeline> timeline;
  std::vector<std::vector<sys::ServerIndex>> holders(m);
  if (config.faults != nullptr && !config.faults->empty()) {
    timeline.emplace(*config.faults, n, m);
    for (std::size_t j = 0; j < m; ++j) {
      holders[j] =
          result.placement.replicators(static_cast<sys::SiteIndex>(j));
    }
  }
  const bool ttl = config.staleness == sim::StalenessMode::kTtl;
  const bool invalidation =
      config.staleness == sim::StalenessMode::kInvalidation;
  std::optional<sim::ModificationProcess> updates;
  if (ttl || invalidation) {
    updates.emplace(config.consistency.min_mean_update_interval,
                    config.consistency.max_mean_update_interval,
                    config.seed ^ sim::detail::kUpdateMix,
                    catalog.object_count());
  }
  std::vector<std::unordered_map<workload::ObjectId, double>> fetched(n);
  const sim::LatencyModel& latency = config.latency;

  SimOracleRun run;
  run.events.reserve(total);
  for (std::uint64_t t = 0; t < total; ++t) {
    if (t == warmup) {
      for (auto& c : caches) c->reset_stats();
    }
    if (timeline && timeline->advance(t)) {
      // A recovered server restarts with a cold cache.
      for (const std::uint32_t s : timeline->just_recovered()) {
        caches[s]->clear();
        ++run.cold_restarts;
      }
    }
    workload::Request req =
        config.trace != nullptr ? (*config.trace)[t] : stream.next();
    if (timeline && config.trace == nullptr &&
        timeline->any_surge_active()) {
      while (surge_rng.uniform() * timeline->max_demand_multiplier() >
             timeline->demand_multiplier(req.site)) {
        req = stream.next();
      }
    }
    const bool measured = t >= warmup;
    const sys::ServerIndex server = req.server;
    const sys::SiteIndex site = req.site;
    cache::CachePolicy& cache = *caches[server];
    const workload::ObjectId key = catalog.object_id(site, req.rank);
    const std::uint64_t bytes = catalog.object_bytes(site, req.rank);

    obs::TraceEvent e;
    e.t = t;
    e.server = server;
    e.site = site;
    e.rank = req.rank;
    e.measured = measured;
    e.cause = EventCause::kReplica;
    e.served_by = static_cast<std::int32_t>(server);
    std::uint32_t attempts = 0;
    bool failed = false;
    const auto copy_id = [](const sys::NearestCopy& copy) {
      return copy.at_primary ? -1 : static_cast<std::int32_t>(copy.server);
    };
    // Nearest live copy, or nowhere: the request fails.
    const auto fail_over = [&] {
      const auto live = result.nearest.nearest_live_candidates(
          server, site, holders[site], timeline->server_up_mask(),
          timeline->origin_up(site), 1);
      if (live.empty()) {
        failed = true;
        e.cause = EventCause::kFailed;
        e.served_by = -2;
        return false;
      }
      e.hops = live.front().cost;
      e.cause = EventCause::kFailover;
      e.served_by = copy_id(live.front());
      return true;
    };
    // The precomputed nearest copy when it is up, else the nearest live
    // copy after one failed attempt on it.  True when a copy answered.
    const auto redirect = [&](EventCause cause) {
      const sys::NearestCopy& pre = result.nearest.nearest(server, site);
      const bool up = !timeline || (pre.at_primary
                                        ? timeline->origin_up(site)
                                        : timeline->server_up(pre.server));
      if (up) {
        e.hops = pre.cost;
        e.cause = cause;
        e.served_by = copy_id(pre);
        return true;
      }
      ++attempts;
      return fail_over();
    };
    const auto local_hit = [&] {
      e.cause = EventCause::kCacheHit;
      e.served_by = static_cast<std::int32_t>(server);
    };

    if (timeline && !timeline->server_up(server)) {
      attempts = 1;  // the dead first hop's connection timed out
      fail_over();
    } else if (result.placement.is_replicated(server, site)) {
      // Replicas are push-updated and always fresh: served locally.
    } else if (updates) {
      auto& fresh = fetched[server];
      const double now = static_cast<double>(t) * sim::kSecondsPerRequest;
      const auto fetch_time = [&] {
        const auto it = fresh.find(key);
        return it == fresh.end() ? -std::numeric_limits<double>::infinity()
                                 : it->second;
      };
      bool hit = cache.lookup(key);
      if (hit && invalidation &&
          updates->last_modification(key, now) > fetch_time()) {
        cache.erase(key);
        fresh.erase(key);
        hit = false;
        if (measured) ++run.invalidation_misses;
      }
      if (hit && ttl && now - fetch_time() > config.consistency.ttl) {
        fresh[key] = now;
        redirect(EventCause::kStaleRefresh);
        if (measured) ++run.validations;
      } else if (hit) {
        if (ttl && measured &&
            updates->last_modification(key, now) > fetch_time()) {
          ++run.stale_served;
        }
        local_hit();
      } else {
        cache.admit(key, bytes);
        if (cache.contains(key)) fresh[key] = now;
        redirect(EventCause::kCacheMiss);
      }
    } else if (!lambda_rng.bernoulli(catalog.uncacheable_fraction(site))) {
      // A miss is admitted only when a copy answered to fetch it from.
      if (cache.access_no_admit(key, bytes)) {
        local_hit();
      } else if (redirect(EventCause::kCacheMiss)) {
        cache.admit(key, bytes);
      }
    } else if (config.staleness == sim::StalenessMode::kUncacheable) {
      redirect(EventCause::kUncacheable);
    } else if (redirect(EventCause::kStaleRefresh)) {
      cache.access(key, bytes);  // the refreshed copy stays cached
    }

    if (failed) {
      e.latency_ms = latency.retry_penalty_ms(attempts);
    } else if (timeline) {
      e.latency_ms = latency.failover_latency_ms(
          e.hops * timeline->latency_multiplier(server), attempts);
    } else {
      e.latency_ms = latency.latency_ms(e.hops);
    }
    if (measured) {
      if (failed) ++run.failed;
      if (attempts > 0 && !failed) ++run.failover;
      run.retries += attempts;
    }
    run.events.push_back(e);
  }
  for (const auto& c : caches) run.server_cache_stats.push_back(c->stats());
  return run;
}

}  // namespace cdn::test
