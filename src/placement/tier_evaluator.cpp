#include "src/placement/tier_evaluator.h"

#include <algorithm>
#include <cmath>

namespace cdn::placement {

TierEvaluator::TierEvaluator(const sys::CdnSystem& system,
                             const std::vector<model::ServerCacheState>& states,
                             const sys::NearestReplicaIndex& nearest,
                             const model::HitRatioCurve& curve)
    : system_(&system),
      states_(&states),
      nearest_(&nearest),
      curve_(&curve),
      tables_(system.server_count()) {}

double TierEvaluator::grid_x(const Table& t, std::size_t point) const {
  return std::exp(t.log_x_lo + t.log_step * static_cast<double>(point));
}

double TierEvaluator::interpolate(const std::vector<double>& values,
                                  const Table& t, double x) const {
  if (x <= t.x_lo) return values.front();
  const double pos = (std::log(x) - t.log_x_lo) / t.log_step;
  if (pos >= static_cast<double>(values.size() - 1)) return values.back();
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

void TierEvaluator::rebuild(std::size_t server) const {
  Table& t = tables_[server];
  const model::ServerCacheState& state = (*states_)[server];
  const std::size_t m = system_->site_count();
  if (!t.built) {
    t.g.assign(m, 0.0);
    t.phi.assign(kGridPoints, 0.0);
    t.kappa_new.assign(m, 0.0);
    t.kappa_epoch.assign(m, 0);
    t.built = true;
  }
  t.epoch = state.mutation_epoch();

  const auto pops = state.popularities();
  const auto lambdas = state.site_lambdas();
  const auto repl = state.replicated_flags();
  const auto row = system_->demand().row(
      static_cast<sys::ServerIndex>(server));
  const double w = state.unreplicated_mass();

  for (std::size_t j = 0; j < m; ++j) {
    double g = 0.0;
    if (repl[j] == 0) {
      const double c = nearest_->cost(static_cast<sys::ServerIndex>(server),
                                      static_cast<sys::SiteIndex>(j));
      if (c != 0.0) g = (1.0 - lambdas[j]) * row[j] * c;
    }
    t.g[j] = g;
  }

  const double k = state.characteristic_time();
  t.kappa = (w > 0.0 && k > 0.0) ? k / w : 0.0;
  t.degenerate = !(t.kappa > 0.0);
  if (t.degenerate) return;

  t.x_lo = t.kappa * kSpanLo;
  t.log_x_lo = std::log(t.x_lo);
  t.log_step = std::log(kSpanHi / kSpanLo) /
               static_cast<double>(kGridPoints - 1);
  for (std::size_t p = 0; p < kGridPoints; ++p) {
    const double x = grid_x(t, p);
    double phi = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (t.g[j] != 0.0) phi += t.g[j] * curve_->evaluate_z(pops[j] * x);
    }
    t.phi[p] = phi;
  }
  double a = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    if (t.g[j] != 0.0) a += t.g[j] * curve_->evaluate_z(pops[j] * t.kappa);
  }
  t.a_at_kappa = a;
}

double TierEvaluator::candidate_scale(Table& t, std::size_t server,
                                      std::size_t site) const {
  if (t.kappa_epoch[site] == t.epoch) return t.kappa_new[site];
  double scale = 0.0;
  const model::ServerCacheState& state = (*states_)[server];
  const double w_new =
      std::max(0.0, state.unreplicated_mass() - state.popularities()[site]);
  if (w_new > 0.0) {
    const double k_new =
        state.what_if_replicate(static_cast<std::uint32_t>(site))
            .characteristic_time();
    if (k_new > 0.0) scale = k_new / w_new;
  }
  t.kappa_new[site] = scale;
  t.kappa_epoch[site] = t.epoch;
  return scale;
}

double TierEvaluator::penalty(sys::ServerIndex server,
                              sys::SiteIndex site) const {
  Table& t = tables_[server];
  const model::ServerCacheState& state = (*states_)[server];
  if (!t.built || t.epoch != state.mutation_epoch()) rebuild(server);
  ++t.evaluations;
  if (t.degenerate) return 0.0;
  const std::size_t j = site;
  const double pj = state.popularities()[j];
  const double gj = t.g[j];
  const double now =
      t.a_at_kappa -
      (gj != 0.0 ? gj * curve_->evaluate_z(pj * t.kappa) : 0.0);
  const double scale = candidate_scale(t, server, j);
  double after = 0.0;
  if (scale > 0.0) {
    after = interpolate(t.phi, t, scale) -
            (gj != 0.0 ? gj * curve_->evaluate_z(pj * scale) : 0.0);
  }
  return now - after;
}

void TierEvaluator::on_cost_changed(sys::ServerIndex server,
                                    sys::SiteIndex site) {
  Table& t = tables_[server];
  const model::ServerCacheState& state = (*states_)[server];
  // A stale table re-reads the fresh costs at its next rebuild anyway.
  if (!t.built || t.epoch != state.mutation_epoch()) return;
  const std::size_t j = site;
  double g = 0.0;
  if (state.replicated_flags()[j] == 0) {
    const double c = nearest_->cost(server, site);
    if (c != 0.0) {
      g = (1.0 - state.site_lambdas()[j]) *
          system_->demand().row(server)[j] * c;
    }
  }
  const double dg = g - t.g[j];
  if (dg == 0.0) return;
  t.g[j] = g;
  if (t.degenerate) return;
  const double pj = state.popularities()[j];
  for (std::size_t p = 0; p < kGridPoints; ++p) {
    t.phi[p] += dg * curve_->evaluate_z(pj * grid_x(t, p));
  }
  t.a_at_kappa += dg * curve_->evaluate_z(pj * t.kappa);
  // kappa'_j memo entries stay valid: costs never enter the scale solves.
}

std::uint64_t TierEvaluator::evaluations() const noexcept {
  std::uint64_t total = 0;
  for (const Table& t : tables_) total += t.evaluations;
  return total;
}

void RelativeColumns::build(const sys::CdnSystem& system,
                            const sys::ReplicaPlacement& placement,
                            const sys::NearestReplicaIndex& nearest,
                            const std::vector<double>& miss_flow) {
  n = system.server_count();
  m = system.site_count();
  cost.assign(m * n, 0.0);
  flow.assign(m * n, 0.0);
  repl.assign(m * n, 0);
  dist_to.assign(n * n, 0.0);
  const auto& dist = system.distances();
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      const auto server = static_cast<sys::ServerIndex>(k);
      const auto site = static_cast<sys::SiteIndex>(j);
      cost[j * n + k] = nearest.cost(server, site);
      flow[j * n + k] = miss_flow[k * m + j];
      repl[j * n + k] = placement.is_replicated(server, site) ? 1 : 0;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      dist_to[i * n + k] = dist.server_to_server(
          static_cast<sys::ServerIndex>(k), static_cast<sys::ServerIndex>(i));
    }
  }
}

void RelativeColumns::on_commit(
    const sys::NearestReplicaIndex& nearest,
    const std::vector<double>& miss_flow, sys::ServerIndex server,
    sys::SiteIndex site, const std::vector<sys::ServerIndex>& changed_servers) {
  const std::size_t js = site;
  const std::size_t ws = server;
  for (const sys::ServerIndex k : changed_servers) {
    cost[js * n + k] = nearest.cost(k, site);
  }
  cost[js * n + ws] = nearest.cost(server, site);
  repl[js * n + ws] = 1;
  for (std::size_t j = 0; j < m; ++j) {
    flow[j * n + ws] = miss_flow[ws * m + j];
  }
}

double RelativeColumns::relative_gain(sys::ServerIndex server,
                                      sys::SiteIndex site) const {
  const double* const c = &cost[static_cast<std::size_t>(site) * n];
  const double* const f = &flow[static_cast<std::size_t>(site) * n];
  const std::uint8_t* const r = &repl[static_cast<std::size_t>(site) * n];
  const double* const d = &dist_to[static_cast<std::size_t>(server) * n];
  const std::size_t self = server;
  double gain = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k == self || r[k] != 0) continue;
    const double delta = c[k] - d[k];
    if (delta > 0.0) gain += delta * f[k];
  }
  return gain;
}

}  // namespace cdn::placement
