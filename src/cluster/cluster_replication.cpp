#include "src/cluster/cluster_replication.h"

#include <queue>

#include "src/cdn/cost.h"
#include "src/cdn/system.h"
#include "src/util/error.h"

namespace cdn::cluster {

namespace {

struct HeapEntry {
  double benefit;
  sys::ServerIndex server;
  sys::SiteIndex unit;
  bool operator<(const HeapEntry& o) const { return benefit < o.benefit; }
};

}  // namespace

LazyGreedyOutput lazy_greedy_replication(
    const workload::DemandMatrix& unit_demand,
    const sys::DistanceOracle& unit_distances,
    const std::vector<std::uint64_t>& server_budgets,
    const std::vector<std::uint64_t>& unit_bytes) {
  const std::size_t n = unit_demand.server_count();
  const std::size_t u = unit_demand.site_count();
  CDN_EXPECT(unit_distances.server_count() == n &&
                 unit_distances.site_count() == u,
             "demand and distances disagree on dimensions");
  CDN_EXPECT(server_budgets.size() == n, "one budget per server required");
  CDN_EXPECT(unit_bytes.size() == u, "one size per unit required");

  sys::ReplicaPlacement placement(server_budgets, unit_bytes);
  sys::NearestReplicaIndex nearest(unit_distances, placement);
  LazyGreedyOutput out{.placement = std::move(placement),
                       .nearest = std::move(nearest),
                       .cost_trajectory = {}};
  out.cost_trajectory.push_back(
      sys::total_remote_cost(unit_demand, out.nearest));

  // Seed the heap with every candidate's initial (upper-bound) benefit.
  std::priority_queue<HeapEntry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < u; ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto unit = static_cast<sys::SiteIndex>(j);
      if (!out.placement.can_add(server, unit)) continue;
      const double b = sys::replication_benefit(
          unit_demand, unit_distances, out.placement, out.nearest, server,
          unit);
      if (b > 0.0) heap.push({b, server, unit});
    }
  }

  double running_cost = out.cost_trajectory.front();
  while (!heap.empty()) {
    HeapEntry top = heap.top();
    heap.pop();
    if (!out.placement.can_add(top.server, top.unit)) continue;
    // Benefits only shrink over time, so a fresh value that still beats the
    // next-best stale bound is globally maximal.
    const double fresh = sys::replication_benefit(
        unit_demand, unit_distances, out.placement, out.nearest, top.server,
        top.unit);
    if (fresh <= 0.0) continue;
    if (!heap.empty() && fresh < heap.top().benefit) {
      top.benefit = fresh;
      heap.push(top);
      continue;
    }
    out.placement.add(top.server, top.unit);
    out.nearest.on_replica_added(top.server, top.unit);
    running_cost -= fresh;
    out.cost_trajectory.push_back(running_cost);
  }
  // Replace the incrementally tracked tail with an exact recomputation
  // (guards against floating-point drift over thousands of replicas).
  out.cost_trajectory.back() =
      sys::total_remote_cost(unit_demand, out.nearest);
  return out;
}

workload::DemandMatrix cluster_demand(const workload::DemandMatrix& demand,
                                      const ClusterScheme& scheme) {
  CDN_EXPECT(demand.site_count() * scheme.clusters_per_site() ==
                 scheme.cluster_count(),
             "demand matrix and cluster scheme disagree on the site count");
  const std::size_t n = demand.server_count();
  const std::size_t total = scheme.cluster_count();
  std::vector<double> values;
  values.reserve(n * total);
  for (std::size_t i = 0; i < n; ++i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    for (ClusterId c = 0; c < total; ++c) {
      const Cluster& cl = scheme.cluster(c);
      values.push_back(demand.requests(server, cl.site) * cl.mass);
    }
  }
  return workload::DemandMatrix::from_values(n, total, values);
}

ClusterPlacementResult cluster_greedy_global(
    const sys::CdnSystem& system, std::uint32_t clusters_per_site) {
  ClusterScheme scheme(system.catalog(), clusters_per_site);
  const std::size_t n = system.server_count();
  const std::size_t total = scheme.cluster_count();

  // Expand demand and distances from sites to clusters.
  const workload::DemandMatrix unit_demand =
      cluster_demand(system.demand(), scheme);
  std::vector<double> ss(n * n);
  std::vector<double> sp(n * total);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      ss[i * n + k] = system.distances().server_to_server(
          static_cast<sys::ServerIndex>(i), static_cast<sys::ServerIndex>(k));
    }
    for (ClusterId c = 0; c < total; ++c) {
      sp[i * total + c] = system.distances().server_to_primary(
          static_cast<sys::ServerIndex>(i), scheme.cluster(c).site);
    }
  }
  auto cluster_distances = std::make_unique<sys::DistanceOracle>(
      n, total, std::move(ss), std::move(sp));

  auto greedy = lazy_greedy_replication(unit_demand, *cluster_distances,
                                        system.server_storage(),
                                        scheme.cluster_bytes());

  ClusterPlacementResult result{.scheme = std::move(scheme),
                                .cluster_distances =
                                    std::move(cluster_distances),
                                .placement = std::move(greedy.placement),
                                .nearest = std::move(greedy.nearest)};
  result.predicted_total_cost = greedy.cost_trajectory.back();
  result.predicted_cost_per_request =
      result.predicted_total_cost / system.demand().total();
  result.replicas_created = result.placement.replica_count();
  return result;
}

}  // namespace cdn::cluster
