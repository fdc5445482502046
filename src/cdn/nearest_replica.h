// The nearest-replica index SN_j^(i) of Section 3.
//
// For every (server, site) pair this tracks the cheapest holder of a copy —
// the server itself if it replicates the site, another replicator, or the
// primary origin — and the corresponding redirection cost C(i, SN_j^(i)).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/cdn/distance_oracle.h"
#include "src/cdn/replication.h"

namespace cdn::sys {

/// Where a request is redirected on a local miss.
struct NearestCopy {
  /// True when the nearest copy is the site's primary origin node.
  bool at_primary = true;
  /// Holder server index (valid when !at_primary).
  ServerIndex server = 0;
  /// C(i, SN_j^(i)); 0 when the local server replicates the site.
  double cost = 0.0;
};

/// The one nearest-copy order: lower cost first; at equal cost a replica
/// before the origin (a replica win spares the origin); then the lowest
/// server index.  It is a total order over a site's copies, so the cheapest
/// copy of any set does not depend on the order the copies are visited in —
/// the index, the event engine's failover, server selection and the live
/// redirector all pick the same copy.
inline bool closer(const NearestCopy& a, const NearestCopy& b) noexcept {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.at_primary != b.at_primary) return !a.at_primary;
  return a.server < b.server;
}

/// Incrementally maintained SN matrix: each cell holds the closer()-minimum
/// of the site's copies.  Construction assumes the placement's current
/// replicas; on_replica_added() keeps it consistent as a greedy algorithm
/// grows the placement (O(N) per replica), and because closer() is a total
/// order the result does not depend on the order replicas were added in.
class NearestReplicaIndex {
 public:
  NearestReplicaIndex(const DistanceOracle& distances,
                      const ReplicaPlacement& placement);

  /// Redirection cost C(i, SN_j^(i)) (0 if replicated locally).
  double cost(ServerIndex server, SiteIndex site) const;

  /// Full nearest-copy record.
  const NearestCopy& nearest(ServerIndex server, SiteIndex site) const;

  /// The up-to-`max_candidates` cheapest LIVE copies of `site` as seen
  /// from `server` (holders + the primary origin), ranked by closer().
  /// `holders` is the site's replicator list; holders with server_up[h] == 0
  /// are skipped, and the origin only counts when `origin_up`.  The live
  /// redirector races connections across this list in rank order; the
  /// event engine's failover and server selection take rank 1
  /// (max_candidates = 1, one linear pass).  Returns an empty vector —
  /// never a partial guess — when every holder and the origin are down.
  std::vector<NearestCopy> nearest_live_candidates(
      ServerIndex server, SiteIndex site,
      std::span<const ServerIndex> holders,
      const std::vector<std::uint8_t>& server_up, bool origin_up,
      std::size_t max_candidates) const;

  /// Updates column `site` after `holder` gained a replica of it: every
  /// cell whose copy the new replica is closer() than now points at it.
  /// Returns the ascending list of servers whose redirection cost fell,
  /// plus `holder` itself; a cell that only changed holder (an equal-cost
  /// tie the new replica now wins) is updated but not listed, because its
  /// cost did not move.  Incremental placement engines use this to patch
  /// exactly the candidates whose redirection costs changed; callers that
  /// maintain no caches may ignore the result.
  std::vector<ServerIndex> on_replica_added(ServerIndex holder,
                                            SiteIndex site);

  /// Rebuilds everything from `placement` (validation / after removals).
  void rebuild(const ReplicaPlacement& placement);

  std::size_t server_count() const noexcept { return servers_; }
  std::size_t site_count() const noexcept { return sites_; }

 private:
  const DistanceOracle* distances_;
  std::size_t servers_;
  std::size_t sites_;
  std::vector<NearestCopy> table_;  // N x M row-major
};

}  // namespace cdn::sys
