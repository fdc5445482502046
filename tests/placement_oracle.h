// Test-only oracle for the placement engines: the plain greedy loops that
// hybrid_greedy and greedy_global must reproduce bit for bit
// (placement_engine_equivalence_test).
//
// Serial and exact-only, with no metrics, spans, tiers or thread pool.  Each
// iteration rebuilds the nearest-replica index and the modelled hit matrix
// from scratch and prices every feasible candidate; the row-major scan with
// a strict `>` keeps the first maximum, which is the engines' tie-break
// (largest benefit, then lowest server, then lowest site).  Log rows follow
// the column order of the engines' registry tables; "candidates" is the
// oracle's own per-iteration count and "eval_ms" is 0.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/cdn/cost.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"

namespace cdn::test {

struct OracleRun {
  placement::PlacementResult result;
  std::vector<std::vector<double>> log_rows;  // one per commit
  std::uint64_t evaluations = 0;  // candidates priced
};

namespace oracle_detail {

using sys::ServerIndex;
using sys::SiteIndex;

/// D from a freshly built nearest-replica index; `states` adds the modelled
/// cache hits (null = pure replication).
inline double fresh_cost(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const std::vector<model::ServerCacheState>* states = nullptr) {
  const sys::NearestReplicaIndex nearest(system.distances(), placement);
  if (states == nullptr) {
    return sys::total_remote_cost(system.demand(), nearest);
  }
  const std::vector<double> hit = placement::modeled_hit_matrix(*states);
  return sys::total_remote_cost(system.demand(), nearest,
                                placement::hit_fn(hit, system.site_count()));
}

template <typename... T>
std::vector<double> row(T... values) {
  return {static_cast<double>(values)...};
}

struct Pick {
  double benefit = 0.0;
  ServerIndex server = 0;
  SiteIndex site = 0;
  std::uint64_t candidates = 0;  // 0 = nothing fits
};

/// Prices every feasible candidate row-major; a strict `>` keeps the first
/// maximum.
template <typename Price>
Pick best_candidate(const sys::ReplicaPlacement& placement,
                    const Price& price) {
  Pick pick;
  for (ServerIndex i = 0; i < placement.server_count(); ++i) {
    for (SiteIndex j = 0; j < placement.site_count(); ++j) {
      if (!placement.can_add(i, j)) continue;
      ++pick.candidates;
      const double b = price(i, j);
      if (pick.candidates == 1 || b > pick.benefit) {
        pick = {b, i, j, pick.candidates};
      }
    }
  }
  return pick;
}

/// The greedy-global benefit straight from its definition (greedy_global.h):
/// local term first, then the relative terms in ascending server order.
inline double replication_benefit(const sys::CdnSystem& system,
                                  const sys::ReplicaPlacement& placement,
                                  const sys::NearestReplicaIndex& nearest,
                                  ServerIndex i, SiteIndex j) {
  const auto& demand = system.demand();
  double b = demand.requests(i, j) * nearest.cost(i, j);
  for (ServerIndex k = 0; k < system.server_count(); ++k) {
    if (k == i || placement.is_replicated(k, j)) continue;
    const double delta =
        nearest.cost(k, j) - system.distances().server_to_server(k, i);
    if (delta > 0.0) b += delta * demand.requests(k, j);
  }
  return b;
}

}  // namespace oracle_detail

/// Figure 2 with every candidate priced by the public
/// hybrid_candidate_benefit.  Honours pb_mode, max_replicas, seed and
/// add_cost_per_byte; the tier, metrics and spans are ignored.
inline OracleRun oracle_hybrid_greedy(
    const sys::CdnSystem& system,
    const placement::HybridGreedyOptions& options = {}) {
  using namespace oracle_detail;
  const placement::ModelContext context(system, options.pb_mode);
  std::vector<model::ServerCacheState> states = context.make_states();
  sys::ReplicaPlacement placement(system.server_storage(),
                                  system.site_bytes());
  for (ServerIndex i = 0; options.seed != nullptr && i < states.size(); ++i) {
    for (SiteIndex j = 0; j < system.site_count(); ++j) {
      if (!options.seed->is_replicated(i, j)) continue;
      placement.add(i, j);
      states[i].replicate(j);
    }
  }
  std::vector<std::vector<double>> rows;
  std::uint64_t evaluations = 0;
  std::vector<double> trajectory{fresh_cost(system, placement, &states)};
  const std::size_t seeded = placement.replica_count();
  for (std::size_t iteration = 0;; ++iteration) {
    if (options.max_replicas != 0 &&
        placement.replica_count() >= seeded + options.max_replicas) {
      break;
    }
    const sys::NearestReplicaIndex nearest(system.distances(), placement);
    const std::vector<double> hit = placement::modeled_hit_matrix(states);
    const Pick pick = best_candidate(placement, [&](auto i, auto j) {
      return placement::hybrid_candidate_benefit(system, placement, nearest,
                                                 states[i], hit, i, j) -
             options.add_cost_per_byte *
                 static_cast<double>(system.site_bytes()[j]);
    });
    evaluations += pick.candidates;
    if (pick.candidates == 0 || pick.benefit <= 0.0) break;
    const auto parts = placement::hybrid_candidate_benefit_parts(
        system, placement, nearest, states[pick.server], hit, pick.server,
        pick.site);
    placement.add(pick.server, pick.site);
    states[pick.server].replicate(pick.site);
    trajectory.push_back(fresh_cost(system, placement, &states));
    rows.push_back(row(iteration, pick.server, pick.site, pick.candidates,
                       pick.benefit, parts.local_gain, parts.relative_gain,
                       parts.cache_penalty, system.site_bytes()[pick.site],
                       trajectory.back(), 0.0));
  }
  sys::NearestReplicaIndex nearest(system.distances(), placement);
  placement::PlacementResult result{.algorithm = "hybrid-greedy",
                                    .placement = std::move(placement),
                                    .nearest = std::move(nearest),
                                    .cost_trajectory = std::move(trajectory)};
  placement::finalize_result(system, states, result);
  return {std::move(result), std::move(rows), evaluations};
}

/// Greedy-global on each server's full storage, every candidate priced
/// from the benefit's definition.
inline OracleRun oracle_greedy_global(const sys::CdnSystem& system,
                                      std::size_t max_replicas = 0) {
  using namespace oracle_detail;
  sys::ReplicaPlacement placement(system.server_storage(),
                                  system.site_bytes());
  std::vector<std::vector<double>> rows;
  std::uint64_t evaluations = 0;
  std::vector<double> trajectory{fresh_cost(system, placement)};
  for (std::size_t iteration = 0;; ++iteration) {
    if (max_replicas != 0 && placement.replica_count() >= max_replicas) break;
    const sys::NearestReplicaIndex nearest(system.distances(), placement);
    const Pick pick = best_candidate(placement, [&](auto i, auto j) {
      return replication_benefit(system, placement, nearest, i, j);
    });
    evaluations += pick.candidates;
    if (pick.candidates == 0 || pick.benefit <= 0.0) break;
    placement.add(pick.server, pick.site);
    trajectory.push_back(fresh_cost(system, placement));
    rows.push_back(row(iteration, pick.server, pick.site, pick.candidates,
                       pick.benefit, system.site_bytes()[pick.site],
                       trajectory.back(), 0.0));
  }
  sys::NearestReplicaIndex nearest(system.distances(), placement);
  placement::PlacementResult result{.algorithm = "greedy-global",
                                    .placement = std::move(placement),
                                    .nearest = std::move(nearest),
                                    .cost_trajectory = std::move(trajectory),
                                    .caching_enabled = false};
  result.modeled_hit.assign(system.server_count() * system.site_count(), 0.0);
  result.predicted_total_cost = result.cost_trajectory.back();
  result.predicted_cost_per_request =
      result.predicted_total_cost / system.demand().total();
  result.replicas_created = result.placement.replica_count();
  return {std::move(result), std::move(rows), evaluations};
}

}  // namespace cdn::test
