// Greedy-global replica placement at cluster granularity, via an
// accelerated ("lazy") greedy.
//
// For pure replication the candidate benefit is non-increasing as replicas
// appear (new replicas only lower nearest-copy costs and never raise
// anyone's marginal gain), so the CELF-style lazy evaluation is *exact*:
// keep candidates in a max-heap keyed by a possibly stale benefit; pop,
// re-evaluate, and accept iff the fresh value still dominates the heap.
// This is what makes cluster-granularity (M x C units) tractable — the
// exhaustive per-iteration sweep of greedy_global would cost
// O(R * N * MC * N).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cdn/nearest_replica.h"
#include "src/cdn/system.h"
#include "src/cdn/replication.h"
#include "src/cluster/cluster_scheme.h"
#include "src/workload/demand.h"

namespace cdn::cluster {

/// Output of the cluster-granularity placement.  Owns the expanded
/// (cluster-axis) distance oracle that `nearest` points into, so the struct
/// is safely movable but the oracle's heap address never changes.
struct ClusterPlacementResult {
  ClusterScheme scheme;
  std::unique_ptr<sys::DistanceOracle> cluster_distances;
  sys::ReplicaPlacement placement;   // over cluster units
  sys::NearestReplicaIndex nearest;  // over cluster units
  double predicted_total_cost = 0.0;
  double predicted_cost_per_request = 0.0;
  std::size_t replicas_created = 0;
};

/// Generic lazy greedy over arbitrary replication units.
///
/// `unit_demand` is N x U (expected requests per server and unit),
/// `unit_distances` an oracle whose "site" axis is the unit axis, and
/// `unit_bytes` the per-unit sizes.  Returns the placement, the consistent
/// nearest index and the cost trajectory.  Exact for the pure-replication
/// objective (see file comment).  `unit_distances` must outlive the
/// returned value (the nearest index points into it).
struct LazyGreedyOutput {
  sys::ReplicaPlacement placement;
  sys::NearestReplicaIndex nearest;
  std::vector<double> cost_trajectory;
};
LazyGreedyOutput lazy_greedy_replication(
    const workload::DemandMatrix& unit_demand,
    const sys::DistanceOracle& unit_distances,
    const std::vector<std::uint64_t>& server_budgets,
    const std::vector<std::uint64_t>& unit_bytes);

/// `demand` (N x M, per server and site) expanded to N x U over the cluster
/// units of `scheme`: each site's requests split by its clusters' masses.
/// Under an i.i.d. request stream a cluster placement has no caches, so
/// its expected cost per request is exactly
/// sys::cost_per_request(cluster_demand(demand, scheme), nearest).
workload::DemandMatrix cluster_demand(const workload::DemandMatrix& demand,
                                      const ClusterScheme& scheme);

/// Per-cluster greedy-global on a CDN system: splits every site into
/// `clusters_per_site` popularity clusters and places cluster replicas.
/// Pure replication — no caching (the comparator of [6]).
ClusterPlacementResult cluster_greedy_global(const sys::CdnSystem& system,
                                             std::uint32_t clusters_per_site);

}  // namespace cdn::cluster
