#include "src/cdn/nearest_replica.h"

#include <algorithm>

#include "src/util/error.h"

namespace cdn::sys {

NearestReplicaIndex::NearestReplicaIndex(const DistanceOracle& distances,
                                         const ReplicaPlacement& placement)
    : distances_(&distances),
      servers_(distances.server_count()),
      sites_(distances.site_count()) {
  CDN_EXPECT(placement.server_count() == servers_ &&
                 placement.site_count() == sites_,
             "placement and distances disagree on dimensions");
  rebuild(placement);
}

void NearestReplicaIndex::rebuild(const ReplicaPlacement& placement) {
  CDN_EXPECT(placement.server_count() == servers_ &&
                 placement.site_count() == sites_,
             "placement and distances disagree on dimensions");
  table_.assign(servers_ * sites_, NearestCopy{});
  for (std::size_t j = 0; j < sites_; ++j) {
    const auto site = static_cast<SiteIndex>(j);
    const auto holders = placement.replicators(site);
    for (std::size_t i = 0; i < servers_; ++i) {
      const auto server = static_cast<ServerIndex>(i);
      NearestCopy best{true, 0, distances_->server_to_primary(server, site)};
      for (const ServerIndex holder : holders) {
        const NearestCopy copy{false, holder,
                               distances_->server_to_server(server, holder)};
        if (closer(copy, best)) best = copy;
      }
      table_[i * sites_ + j] = best;
    }
  }
}

double NearestReplicaIndex::cost(ServerIndex server, SiteIndex site) const {
  return nearest(server, site).cost;
}

const NearestCopy& NearestReplicaIndex::nearest(ServerIndex server,
                                                SiteIndex site) const {
  CDN_EXPECT(server < servers_ && site < sites_, "index out of range");
  return table_[static_cast<std::size_t>(server) * sites_ + site];
}

std::vector<NearestCopy> NearestReplicaIndex::nearest_live_candidates(
    ServerIndex server, SiteIndex site, std::span<const ServerIndex> holders,
    const std::vector<std::uint8_t>& server_up, bool origin_up,
    std::size_t max_candidates) const {
  CDN_EXPECT(server < servers_ && site < sites_, "index out of range");
  CDN_EXPECT(server_up.size() == servers_,
             "health mask length must equal the server count");
  std::vector<NearestCopy> live;
  if (max_candidates == 0) return live;
  live.reserve(holders.size() + 1);
  for (const ServerIndex holder : holders) {
    // A holder outside the mask would be an out-of-bounds read — with all
    // copies down that garbage could fabricate a live answer, so a corrupt
    // holder list must fail loudly instead of non-deterministically.
    CDN_EXPECT(holder < servers_,
               "holder list references an out-of-range server");
    if (!server_up[holder]) continue;
    live.push_back(
        {false, holder, distances_->server_to_server(server, holder)});
  }
  if (origin_up) {
    live.push_back({true, 0, distances_->server_to_primary(server, site)});
  }
  const std::size_t k = std::min(max_candidates, live.size());
  const auto ranked_end = live.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(live.begin(), ranked_end, live.end(),
                    [](const NearestCopy& a, const NearestCopy& b) {
                      return closer(a, b);
                    });
  live.erase(ranked_end, live.end());
  return live;
}

std::vector<ServerIndex> NearestReplicaIndex::on_replica_added(
    ServerIndex holder, SiteIndex site) {
  CDN_EXPECT(holder < servers_ && site < sites_, "index out of range");
  std::vector<ServerIndex> changed;
  for (std::size_t i = 0; i < servers_; ++i) {
    const NearestCopy copy{
        false, holder,
        distances_->server_to_server(static_cast<ServerIndex>(i), holder)};
    NearestCopy& cell = table_[i * sites_ + site];
    if (copy.cost < cell.cost || i == holder) {
      changed.push_back(static_cast<ServerIndex>(i));
    }
    if (closer(copy, cell)) cell = copy;
  }
  return changed;
}

}  // namespace cdn::sys
