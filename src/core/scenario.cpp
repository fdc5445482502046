#include "src/core/scenario.h"

#include "src/topology/shortest_paths.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace cdn::core {

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  CDN_EXPECT(config_.server_count >= 1, "need at least one server");

  util::Rng rng(config_.seed);
  std::size_t num_sites = 0;
  for (const auto& c : config_.classes) num_sites += c.site_count;

  // 1 + 2. Transit-stub network substrate, then server and primary
  //    placement inside random stub domains (the paper's rule).  Servers
  //    get distinct nodes; a single draw covers both sets so servers and
  //    primaries stay distinct.
  util::Rng topo_rng = rng.fork(1);
  util::Rng place_rng = rng.fork(2);
  topo_ = std::make_unique<topology::TransitStubTopology>(
      topology::generate_transit_stub(config_.topology, topo_rng));
  const std::vector<topology::NodeId> nodes = topology::place_in_stub_domains(
      *topo_, config_.server_count + num_sites, place_rng,
      /*distinct_nodes=*/true);
  server_nodes_.assign(nodes.begin(),
                       nodes.begin() + static_cast<std::ptrdiff_t>(
                                           config_.server_count));
  primary_nodes_.assign(
      nodes.begin() + static_cast<std::ptrdiff_t>(config_.server_count),
      nodes.end());

  // 3. Hop costs from every server to all nodes (BFS, parallel).
  const topology::HopMatrix hops(topo_->graph, server_nodes_);
  distances_ = std::make_unique<sys::DistanceOracle>(
      sys::DistanceOracle::from_topology(hops, primary_nodes_));

  // 4. Sites and demand: each site's volume splits over servers by a
  //    truncated normal N(1/N, 1/4N) on mu +/- 3 sigma (the paper's model).
  util::Rng workload_rng = rng.fork(3);
  catalog_ = std::make_unique<workload::SiteCatalog>(
      workload::SiteCatalog::generate(config_.surge, config_.classes,
                                      workload_rng));
  catalog_->set_uncacheable_fraction(config_.uncacheable_fraction);

  util::Rng demand_rng = rng.fork(4);
  demand_ = std::make_unique<workload::DemandMatrix>(
      workload::DemandMatrix::generate(*catalog_, config_.server_count,
                                       config_.demand_total, demand_rng));

  // 5. The assembled system.
  system_ = std::make_unique<sys::CdnSystem>(
      *catalog_, *demand_, *distances_, config_.storage_fraction);
}

}  // namespace cdn::core
