#include "src/placement/model_support.h"

#include "src/util/error.h"

namespace cdn::placement {

ModelContext::ModelContext(const sys::CdnSystem& system,
                           model::PbMode pb_mode)
    : system_(&system),
      curve_(system.catalog().object_popularity()),
      pb_mode_(pb_mode),
      lambdas_(system.uncacheable_fractions()) {}

std::vector<model::ServerCacheState> ModelContext::make_states(
    const sys::ReplicaPlacement* existing) const {
  std::vector<model::ServerCacheState> states;
  states.reserve(system_->server_count());
  for (std::size_t i = 0; i < system_->server_count(); ++i) {
    states.push_back(make_state(static_cast<sys::ServerIndex>(i), existing));
  }
  return states;
}

model::ServerCacheState ModelContext::make_state(
    sys::ServerIndex server, const sys::ReplicaPlacement* existing) const {
  const auto& sys_ref = *system_;
  model::ServerCacheState state(
      sys_ref.demand().row(server), sys_ref.site_bytes(), lambdas_,
      sys_ref.server_storage(server), sys_ref.catalog().mean_object_bytes(),
      sys_ref.catalog().object_popularity(), curve_, pb_mode_);
  if (existing != nullptr) {
    for (std::size_t j = 0; j < sys_ref.site_count(); ++j) {
      if (existing->is_replicated(server, static_cast<sys::SiteIndex>(j))) {
        state.replicate(static_cast<std::uint32_t>(j));
      }
    }
  }
  return state;
}

std::vector<double> modeled_hit_matrix(
    const std::vector<model::ServerCacheState>& states) {
  CDN_EXPECT(!states.empty(), "no server states");
  const std::size_t m = states.front().site_count();
  std::vector<double> hit(states.size() * m, 0.0);
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      hit[i * m + j] = states[i].hit_ratio(static_cast<std::uint32_t>(j));
    }
  }
  return hit;
}

sys::HitRatioFn hit_fn(const std::vector<double>& hit_matrix,
                       std::size_t site_count) {
  return [&hit_matrix, site_count](sys::ServerIndex i, sys::SiteIndex j) {
    return hit_matrix[static_cast<std::size_t>(i) * site_count + j];
  };
}

void finalize_result(const sys::CdnSystem& system,
                     const std::vector<model::ServerCacheState>& states,
                     PlacementResult& result) {
  result.modeled_hit = modeled_hit_matrix(states);
  result.predicted_total_cost =
      sys::total_remote_cost(system.demand(), result.nearest,
                             hit_fn(result.modeled_hit, system.site_count()));
  result.predicted_cost_per_request =
      result.predicted_total_cost / system.demand().total();
  result.replicas_created = result.placement.replica_count();
}

}  // namespace cdn::placement
