// Common output contract of every placement algorithm.  The greedy
// algorithms each run one engine; the plain loops they must match bit for
// bit (largest benefit, then lowest server, then lowest site) live in
// tests/placement_oracle.h.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cdn/nearest_replica.h"
#include "src/cdn/replication.h"

namespace cdn::placement {

/// What an algorithm hands to the simulator and the reporting layer: the
/// replica placement, the consistent nearest-replica index, the modelled
/// cache hit ratios (zero for pure replication), and the predicted cost.
struct PlacementResult {
  std::string algorithm;
  sys::ReplicaPlacement placement;
  sys::NearestReplicaIndex nearest;

  /// Modelled h_j^(i), N x M row-major; already scaled by (1 - lambda_j).
  std::vector<double> modeled_hit;

  /// Predicted aggregate cost D under the model.
  double predicted_total_cost = 0.0;
  /// D / total requests — comparable to the simulator's measured hops.
  double predicted_cost_per_request = 0.0;

  /// D after each replica creation (index 0 = before any replica).
  std::vector<double> cost_trajectory;

  std::size_t replicas_created = 0;

  /// Whether the mechanism runs a proxy cache in the storage left over by
  /// replicas.  Pure replication (the paper's stand-alone baseline) leaves
  /// its slack space unused; every other mechanism caches in it.
  bool caching_enabled = true;

  /// Modelled hit ratio accessor.
  double hit(sys::ServerIndex server, sys::SiteIndex site) const {
    return modeled_hit[static_cast<std::size_t>(server) *
                           placement.site_count() +
                       site];
  }

  /// Bytes available to the server's cache: the storage replicas did not
  /// consume, or 0 when the mechanism does not cache.
  std::uint64_t cache_bytes(sys::ServerIndex server) const {
    return caching_enabled ? placement.free_bytes(server) : 0;
  }
};

}  // namespace cdn::placement
