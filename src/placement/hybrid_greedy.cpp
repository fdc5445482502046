#include "src/placement/hybrid_greedy.h"

namespace cdn::placement {

std::vector<double> miss_flow_matrix(const sys::CdnSystem& system,
                                     const std::vector<double>& hit) {
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  std::vector<double> flow(n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    refresh_miss_flow_row(system, hit, static_cast<sys::ServerIndex>(i), flow);
  }
  return flow;
}

void refresh_miss_flow_row(const sys::CdnSystem& system,
                           const std::vector<double>& hit,
                           sys::ServerIndex server,
                           std::vector<double>& flow) {
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const std::size_t i = server;
  for (std::size_t j = 0; j < m; ++j) {
    // Must stay the elementwise twin of the miss_flow == nullptr fallback in
    // hybrid_candidate_benefit_parts: the engine and the public overloads
    // rely on the two producing bit-identical doubles.
    flow[i * m + j] = (1.0 - hit[i * m + j]) *
                      demand.requests(server, static_cast<sys::SiteIndex>(j));
  }
}

namespace {

// The cache-penalty term of the canonical benefit (lines 10-13).
double cache_penalty(const sys::CdnSystem& system,
                     const sys::NearestReplicaIndex& nearest,
                     const model::ServerCacheState& state,
                     const std::vector<double>& hit, sys::ServerIndex server,
                     sys::SiteIndex site) {
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const std::size_t i = server;
  const std::size_t j = site;

  // Cache penalty (lines 10-13): smaller buffer for everyone else.  The
  // engine's penalty patch forms a term the same way, (dh * r) * c.
  double penalty = 0.0;
  const auto what_if = state.what_if_replicate(static_cast<std::uint32_t>(j));
  for (std::size_t k = 0; k < m; ++k) {
    if (k == j || state.is_replicated(static_cast<std::uint32_t>(k))) continue;
    const double c = nearest.cost(server, static_cast<sys::SiteIndex>(k));
    if (c == 0.0) continue;
    const double dh =
        hit[i * m + k] - what_if.hit_ratio(static_cast<std::uint32_t>(k));
    penalty += dh * demand.requests(server, static_cast<sys::SiteIndex>(k)) * c;
  }
  return penalty;
}

// The relative-gain term (lines 14-17).  `miss_flow` may be null
// (elementwise fallback).
double relative_gain(const sys::CdnSystem& system,
                     const sys::ReplicaPlacement& placement,
                     const sys::NearestReplicaIndex& nearest,
                     const std::vector<double>& hit, const double* miss_flow,
                     sys::ServerIndex server, sys::SiteIndex site) {
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const auto& dist = system.distances();
  const std::size_t j = site;

  // Relative benefit (lines 14-17): other servers' misses for j.  The
  // engine's relative patch forms a term the same way, delta * f.
  double gain = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto other = static_cast<sys::ServerIndex>(k);
    if (other == server || placement.is_replicated(other, site)) continue;
    const double delta =
        nearest.cost(other, site) - dist.server_to_server(other, server);
    if (delta > 0.0) {
      const double f =
          miss_flow != nullptr
              ? miss_flow[k * m + j]
              : (1.0 - hit[k * m + j]) * demand.requests(other, site);
      gain += delta * f;
    }
  }
  return gain;
}

}  // namespace

HybridBenefitParts hybrid_candidate_benefit_parts(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const sys::NearestReplicaIndex& nearest,
    const model::ServerCacheState& state, const std::vector<double>& hit,
    const double* miss_flow, sys::ServerIndex server, sys::SiteIndex site) {
  const std::size_t m = system.site_count();
  const std::size_t i = server;
  const std::size_t j = site;

  HybridBenefitParts parts;

  // Local benefit (line 9): former misses for j become local.
  const double local_flow =
      miss_flow != nullptr
          ? miss_flow[i * m + j]
          : (1.0 - hit[i * m + j]) * system.demand().requests(server, site);
  parts.local_gain = local_flow * nearest.cost(server, site);

  parts.cache_penalty =
      cache_penalty(system, nearest, state, hit, server, site);
  parts.relative_gain = relative_gain(system, placement, nearest, hit,
                                      miss_flow, server, site);
  return parts;
}

HybridBenefitParts hybrid_candidate_benefit_parts(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const sys::NearestReplicaIndex& nearest,
    const model::ServerCacheState& state, const std::vector<double>& hit,
    sys::ServerIndex server, sys::SiteIndex site) {
  return hybrid_candidate_benefit_parts(system, placement, nearest, state, hit,
                                        nullptr, server, site);
}

double hybrid_candidate_benefit(const sys::CdnSystem& system,
                                const sys::ReplicaPlacement& placement,
                                const sys::NearestReplicaIndex& nearest,
                                const model::ServerCacheState& state,
                                const std::vector<double>& hit,
                                const double* miss_flow,
                                sys::ServerIndex server, sys::SiteIndex site) {
  return hybrid_candidate_benefit_parts(system, placement, nearest, state, hit,
                                        miss_flow, server, site)
      .total();
}

double hybrid_candidate_benefit(const sys::CdnSystem& system,
                                const sys::ReplicaPlacement& placement,
                                const sys::NearestReplicaIndex& nearest,
                                const model::ServerCacheState& state,
                                const std::vector<double>& hit,
                                sys::ServerIndex server,
                                sys::SiteIndex site) {
  return hybrid_candidate_benefit(system, placement, nearest, state, hit,
                                  nullptr, server, site);
}

}  // namespace cdn::placement
