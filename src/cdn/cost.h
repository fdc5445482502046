// The aggregate transfer cost D of Section 3.1:
//
//   D = sum_i sum_j R_j^(i),  R_j^(i) = [r_j^(i) - l_j^(i)] * C(i, SN_j^(i)),
//
// where l_j^(i) is the locally satisfied share — all of r when the site is
// replicated at i, or the modelled cache hits h_j^(i) * r_j^(i) otherwise.

#pragma once

#include <functional>

#include "src/cdn/nearest_replica.h"
#include "src/workload/demand.h"

namespace cdn::sys {

/// Provider of the modelled cache hit ratio h_j^(i) (0 for a pure
/// replication scheme).
using HitRatioFn = std::function<double(ServerIndex, SiteIndex)>;

/// Total predicted cost D.  `hit_ratio` may be empty (treated as all-zero).
double total_remote_cost(const workload::DemandMatrix& demand,
                         const NearestReplicaIndex& nearest,
                         const HitRatioFn& hit_ratio = {});

/// D normalised by the total number of requests — the "average cost per
/// request (hops)" metric of Figure 6.
double cost_per_request(const workload::DemandMatrix& demand,
                        const NearestReplicaIndex& nearest,
                        const HitRatioFn& hit_ratio = {});

/// Drop in D from replicating `site` at `server` under pure replication:
/// the server's own redirected traffic plus every other server's saving
/// from a closer copy.  Reads only column `site` of `placement` and
/// `nearest`, so a commit to one site leaves other sites' benefits valid.
double replication_benefit(const workload::DemandMatrix& demand,
                           const DistanceOracle& distances,
                           const ReplicaPlacement& placement,
                           const NearestReplicaIndex& nearest,
                           ServerIndex server, SiteIndex site);

}  // namespace cdn::sys
