#include "src/redirect/server_selection.h"

#include <algorithm>
#include <optional>

#include "src/util/error.h"

namespace cdn::redirect {

namespace {

struct Flow {
  sys::ServerIndex source;
  sys::SiteIndex site;
  double volume;
  // Current holder: server index, or kPrimary for the site's origin.
  static constexpr std::uint32_t kPrimary = 0xffffffffu;
  std::uint32_t holder = kPrimary;
};

double queue_penalty(double load, double capacity, double weight) {
  if (capacity <= 0.0) return 0.0;
  const double rho = std::min(load / capacity, 0.99);
  return weight * rho / (1.0 - rho);
}

}  // namespace

SelectionResult assign_miss_traffic(const sys::CdnSystem& system,
                                    const placement::PlacementResult& result,
                                    const SelectionParams& params) {
  CDN_EXPECT(params.queue_weight >= 0.0,
             "queue weight must be non-negative");
  CDN_EXPECT(params.iterations >= 1, "need at least one assignment pass");
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const auto& dist = system.distances();
  CDN_EXPECT(params.server_up == nullptr || params.server_up->size() == n,
             "server health mask length must equal the server count");
  CDN_EXPECT(params.origin_up == nullptr || params.origin_up->size() == m,
             "origin health mask length must equal the site count");
  const auto server_ok = [&](sys::ServerIndex i) {
    return params.server_up == nullptr || (*params.server_up)[i] != 0;
  };
  const auto origin_ok = [&](sys::SiteIndex j) {
    return params.origin_up == nullptr || (*params.origin_up)[j] != 0;
  };

  SelectionResult out;
  out.server_flow.assign(n, 0.0);
  out.primary_flow.assign(m, 0.0);

  // Collect miss flows and per-site LIVE holder lists.
  std::vector<Flow> flows;
  std::vector<std::vector<sys::ServerIndex>> holders(m);
  for (std::size_t j = 0; j < m; ++j) {
    for (const sys::ServerIndex h :
         result.placement.replicators(static_cast<sys::SiteIndex>(j))) {
      if (server_ok(h)) holders[j].push_back(h);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto site = static_cast<sys::SiteIndex>(j);
      double volume;
      const bool source_dead = !server_ok(server);
      if (source_dead) {
        // Dead first-hop: its replicas and warm cache are unreachable, so
        // the site's FULL demand at this server spills to other holders.
        volume = system.demand().requests(server, site);
      } else {
        if (result.placement.is_replicated(server, site)) continue;
        volume = system.demand().requests(server, site) *
                 (1.0 - result.hit(server, site));
      }
      if (volume <= 0.0) continue;
      if (holders[j].empty() && !origin_ok(site)) {
        out.unserved_flow += volume;  // no live copy anywhere
        continue;
      }
      if (source_dead) out.failed_over_flow += volume;
      flows.push_back({server, site, volume});
    }
  }

  auto holder_cost = [&](const Flow& f, std::uint32_t holder) {
    return holder == Flow::kPrimary
               ? dist.server_to_primary(f.source, f.site)
               : dist.server_to_server(f.source,
                                       static_cast<sys::ServerIndex>(holder));
  };
  // The flow already assigned to a holder: its server's or the origin's.
  auto assigned = [&](const Flow& f, std::uint32_t holder) -> double& {
    return holder == Flow::kPrimary ? out.primary_flow[f.site]
                                    : out.server_flow[holder];
  };
  auto holder_of = [](const sys::NearestCopy& copy) {
    return copy.at_primary ? Flow::kPrimary : copy.server;
  };

  // Pass 0: nearest-LIVE-copy assignment (the paper's rule under a health
  // mask, ranked by the selector the simulator and redirectd use) — also
  // the baseline from which auto-capacities are derived.
  const std::vector<std::uint8_t> all_up(n, 1);
  const std::vector<std::uint8_t>& up =
      params.server_up != nullptr ? *params.server_up : all_up;
  for (Flow& f : flows) {
    // The unserved check above guarantees at least one candidate exists.
    f.holder = holder_of(
        result.nearest
            .nearest_live_candidates(f.source, f.site, holders[f.site], up,
                                     origin_ok(f.site), 1)
            .front());
    assigned(f, f.holder) += f.volume;
  }

  // Auto capacity is clamped to a positive floor: a placement whose
  // nearest-copy rule puts zero load on every server (or every primary)
  // must not produce capacity 0 and rho = 0/0 below.
  constexpr double kAutoCapacityFloor = 1.0;
  double server_capacity = params.server_capacity;
  double primary_capacity = params.primary_capacity;
  if (server_capacity <= 0.0) {
    const double peak =
        *std::max_element(out.server_flow.begin(), out.server_flow.end());
    server_capacity = std::max(1.5 * peak, kAutoCapacityFloor);
  }
  if (primary_capacity <= 0.0) {
    const double peak =
        *std::max_element(out.primary_flow.begin(), out.primary_flow.end());
    primary_capacity = std::max(1.5 * peak, kAutoCapacityFloor);
  }
  CDN_CHECK(server_capacity > 0.0 && primary_capacity > 0.0,
            "selection capacities must be positive");
  auto capacity = [&](std::uint32_t holder) {
    return holder == Flow::kPrimary ? primary_capacity : server_capacity;
  };

  if (params.policy == SelectionPolicy::kLoadAware) {
    for (std::size_t pass = 0; pass < params.iterations; ++pass) {
      bool moved = false;
      for (Flow& f : flows) {
        assigned(f, f.holder) -= f.volume;  // detach
        // Choose the live holder minimising network + queueing after
        // adding, ranked by the nearest-copy order on that adjusted cost.
        // A dead origin is no candidate.
        auto copy_at = [&](std::uint32_t holder) {
          const double cost =
              holder_cost(f, holder) +
              queue_penalty(assigned(f, holder) + f.volume, capacity(holder),
                            params.queue_weight);
          return holder == Flow::kPrimary
                     ? sys::NearestCopy{true, 0, cost}
                     : sys::NearestCopy{false, holder, cost};
        };
        std::optional<sys::NearestCopy> best;
        if (origin_ok(f.site)) best = copy_at(Flow::kPrimary);
        for (const sys::ServerIndex h : holders[f.site]) {
          const sys::NearestCopy copy = copy_at(h);
          if (!best || sys::closer(copy, *best)) best = copy;
        }
        const std::uint32_t holder = holder_of(*best);
        if (holder != f.holder) moved = true;
        f.holder = holder;
        assigned(f, holder) += f.volume;
      }
      if (!moved) break;
    }
  }

  // Aggregate the report.
  double volume_total = 0.0, cost_total = 0.0, net_total = 0.0;
  for (const Flow& f : flows) {
    const double net = holder_cost(f, f.holder);
    volume_total += f.volume;
    net_total += f.volume * net;
    cost_total += f.volume * (net + queue_penalty(assigned(f, f.holder),
                                                  capacity(f.holder),
                                                  params.queue_weight));
  }
  if (volume_total > 0.0) {
    out.mean_response_cost = cost_total / volume_total;
    out.mean_network_hops = net_total / volume_total;
  }
  double util_sum = 0.0;
  for (double flow : out.server_flow) {
    const double rho = flow / server_capacity;
    out.max_server_utilization = std::max(out.max_server_utilization, rho);
    util_sum += rho;
  }
  out.mean_server_utilization = util_sum / static_cast<double>(n);
  return out;
}

}  // namespace cdn::redirect
