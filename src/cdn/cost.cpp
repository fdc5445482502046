#include "src/cdn/cost.h"

#include "src/util/error.h"

namespace cdn::sys {

double total_remote_cost(const workload::DemandMatrix& demand,
                         const NearestReplicaIndex& nearest,
                         const HitRatioFn& hit_ratio) {
  CDN_EXPECT(demand.server_count() == nearest.server_count() &&
                 demand.site_count() == nearest.site_count(),
             "demand and nearest-replica index disagree on dimensions");
  double d = 0.0;
  for (std::size_t i = 0; i < demand.server_count(); ++i) {
    for (std::size_t j = 0; j < demand.site_count(); ++j) {
      const auto server = static_cast<ServerIndex>(i);
      const auto site = static_cast<SiteIndex>(j);
      const double c = nearest.cost(server, site);
      if (c == 0.0) continue;  // replicated locally
      const double h = hit_ratio ? hit_ratio(server, site) : 0.0;
      d += (1.0 - h) * demand.requests(server, site) * c;
    }
  }
  return d;
}

double cost_per_request(const workload::DemandMatrix& demand,
                        const NearestReplicaIndex& nearest,
                        const HitRatioFn& hit_ratio) {
  const double total = demand.total();
  CDN_EXPECT(total > 0.0, "demand matrix has no requests");
  return total_remote_cost(demand, nearest, hit_ratio) / total;
}

double replication_benefit(const workload::DemandMatrix& demand,
                           const DistanceOracle& distances,
                           const ReplicaPlacement& placement,
                           const NearestReplicaIndex& nearest,
                           ServerIndex server, SiteIndex site) {
  double b = demand.requests(server, site) * nearest.cost(server, site);
  for (std::size_t k = 0; k < demand.server_count(); ++k) {
    const auto other = static_cast<ServerIndex>(k);
    if (other == server || placement.is_replicated(other, site)) continue;
    const double delta =
        nearest.cost(other, site) - distances.server_to_server(other, server);
    if (delta > 0.0) b += delta * demand.requests(other, site);
  }
  return b;
}

}  // namespace cdn::sys
