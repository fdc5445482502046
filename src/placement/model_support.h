// Shared glue between the CDN system, the analytical LRU model, and the
// placement algorithms: building per-server ServerCacheState objects and
// deriving modelled hit-ratio matrices and predicted costs.

#pragma once

#include <string>
#include <vector>

#include "src/cdn/cost.h"
#include "src/cdn/system.h"
#include "src/model/hit_ratio_curve.h"
#include "src/model/server_cache_state.h"
#include "src/placement/placement_result.h"

namespace cdn::placement {

/// Which model tier prices per-candidate *hybrid placement* evaluations
/// (the simulation-side twin is sim::... --hit-model / SteadyStateModel).
///
///   * kExact      — every candidate runs the full Eq. 1/Eq. 2 what-if
///     (byte-identical to the pre-tier engine);
///   * kClosedForm — candidates are priced from per-server tabulated
///     penalty tables anchored to the O(1) closed-form characteristic time
///     (Laoutaris), with an error-gated exact fallback near the commit
///     threshold.
///
/// In both tiers the hit matrix, miss flows, cost trajectory and final
/// model states stay EXACT — the tier only prices the candidate *ranking*,
/// and near-threshold winners are re-verified with the exact model before
/// commit.
enum class PlacementModel {
  kExact,
  kClosedForm,
};

/// Parses "exact" / "closed-form" (the --placement-model CLI values);
/// throws PreconditionError on anything else.
PlacementModel parse_placement_model(const std::string& name);

/// The CLI name of a tier (inverse of parse_placement_model).
const char* placement_model_name(PlacementModel model);

/// Owns the model machinery shared by all servers of one system: the H(z)
/// table (one per (theta, L)) and the model configuration.
class ModelContext {
 public:
  explicit ModelContext(const sys::CdnSystem& system,
                        model::PbMode pb_mode = model::PbMode::kAtInit);

  const sys::CdnSystem& system() const noexcept { return *system_; }
  const model::HitRatioCurve& curve() const noexcept { return curve_; }
  model::PbMode pb_mode() const noexcept { return pb_mode_; }

  /// Builds one ServerCacheState per server.  When `existing` is non-null
  /// its replicas are applied (replicate() per entry), so the states
  /// describe the caches left over by that placement.
  std::vector<model::ServerCacheState> make_states(
      const sys::ReplicaPlacement* existing = nullptr) const;

  /// Builds the state of one server only (adaptive keep/drop evaluation).
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
