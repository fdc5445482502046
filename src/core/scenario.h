// End-to-end scenario construction: topology + placement of servers and
// primaries + workload + demand, bundled into a sys::CdnSystem.  This is the
// programmatic equivalent of the paper's Section 5.1 simulation setup.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cdn/system.h"
#include "src/topology/transit_stub.h"
#include "src/workload/demand.h"
#include "src/workload/site_catalog.h"
#include "src/workload/surge.h"

namespace cdn::core {

/// Every knob of one experimental scenario.  Defaults reconstruct the
/// paper's setup: 1560-node transit-stub graph, N = 50 servers, M = 200
/// sites in three popularity classes, theta = 1.0, homogeneous capacity as
/// a fraction of the total site bytes.
struct ScenarioConfig {
  topology::TransitStubParams topology{};
  std::size_t server_count = 50;
  workload::SurgeParams surge{};
  std::vector<workload::PopularityClass> classes =
      workload::default_popularity_classes();
  /// s(i) as a fraction of sum_j o_j (the paper sweeps 5%–20%).
  double storage_fraction = 0.05;
  /// lambda applied to every site (the paper uses 0 and 0.1).
  double uncacheable_fraction = 0.0;
  /// Total expected requests distributed by the demand matrix.  This only
  /// sets the scale of r_j^(i); the simulator draws its own stream length.
  double demand_total = 1e7;
  std::uint64_t seed = 1;
};

/// Owns all scenario components; the contained CdnSystem points into them,
/// so a Scenario is immovable once constructed.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const ScenarioConfig& config() const noexcept { return config_; }

  /// The generated network graph.
  const topology::Graph& graph() const noexcept { return topo_->graph; }

  /// Transit-stub details (domains, stub membership) of the graph.
  const topology::TransitStubTopology& topology() const noexcept {
    return *topo_;
  }

  const workload::SiteCatalog& catalog() const noexcept { return *catalog_; }
  const workload::DemandMatrix& demand() const noexcept { return *demand_; }
  const sys::DistanceOracle& distances() const noexcept {
    return *distances_;
  }
  const sys::CdnSystem& system() const noexcept { return *system_; }

  /// Graph nodes hosting the CDN servers (index = ServerIndex).
  const std::vector<topology::NodeId>& server_nodes() const noexcept {
    return server_nodes_;
  }
  /// Graph nodes hosting the primary origins (index = SiteIndex).
  const std::vector<topology::NodeId>& primary_nodes() const noexcept {
    return primary_nodes_;
  }

 private:
  ScenarioConfig config_;
  std::unique_ptr<topology::TransitStubTopology> topo_;
  std::vector<topology::NodeId> server_nodes_;
  std::vector<topology::NodeId> primary_nodes_;
  std::unique_ptr<sys::DistanceOracle> distances_;
  std::unique_ptr<workload::SiteCatalog> catalog_;
  std::unique_ptr<workload::DemandMatrix> demand_;
  std::unique_ptr<sys::CdnSystem> system_;
};

}  // namespace cdn::core
