// Shared glue between the CDN system, the analytical LRU model, and the
// placement algorithms: building per-server ServerCacheState objects and
// deriving modelled hit-ratio matrices and predicted costs.

#pragma once

#include <vector>

#include "src/cdn/cost.h"
#include "src/cdn/system.h"
#include "src/model/hit_ratio_curve.h"
#include "src/model/server_cache_state.h"
#include "src/placement/placement_result.h"

namespace cdn::placement {

/// Owns the model machinery shared by all servers of one system: the H(z)
/// table (one per (theta, L)) and the model configuration.
class ModelContext {
 public:
  explicit ModelContext(const sys::CdnSystem& system,
                        model::PbMode pb_mode = model::PbMode::kAtInit);

  const sys::CdnSystem& system() const noexcept { return *system_; }
  const model::HitRatioCurve& curve() const noexcept { return curve_; }
  model::PbMode pb_mode() const noexcept { return pb_mode_; }

  /// Builds make_state(i, existing) for every server i.
  std::vector<model::ServerCacheState> make_states(
      const sys::ReplicaPlacement* existing = nullptr) const;

  /// Builds the state of one server.  When `existing` is non-null its
  /// replicas at that server are applied (replicate() per entry, in site
  /// order), so the state describes the cache left over by that placement.
  model::ServerCacheState make_state(
      sys::ServerIndex server,
      const sys::ReplicaPlacement* existing = nullptr) const;

 private:
  const sys::CdnSystem* system_;
  model::HitRatioCurve curve_;
  model::PbMode pb_mode_;
  std::vector<double> lambdas_;
};

/// Extracts the N x M modelled hit-ratio matrix from per-server states
/// (0 for replicated sites).
std::vector<double> modeled_hit_matrix(
    const std::vector<model::ServerCacheState>& states);

/// Adapts a hit matrix to the cost layer's HitRatioFn.
sys::HitRatioFn hit_fn(const std::vector<double>& hit_matrix,
                       std::size_t site_count);

/// Fills the result's modelled hits and predicted costs from `states`.
void finalize_result(const sys::CdnSystem& system,
                     const std::vector<model::ServerCacheState>& states,
                     PlacementResult& result);

}  // namespace cdn::placement
