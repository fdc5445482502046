// Steady-state hit-ratio model tiers for the flow-level engine.
//
// The flow engine replaces the per-request simulation loop with
// demand x placement x hit-ratio arithmetic, so the only modelling choice
// left is WHERE the per-(server, site) hit ratios come from:
//
//   * kEmpirical   — reuse the hit matrix the placement algorithm already
//     computed (PlacementResult::modeled_hit).  Zero extra work; p_B was
//     frozen at placement initialisation (the paper's default, PbMode::
//     kAtInit).
//   * kClosedForm  — recompute per server from the FINAL placement using the
//     paper's Eq. 1/Eq. 2 pipeline (Laoutaris closed-form characteristic
//     time via digamma, tabulated H(z)), with p_B refreshed over the final
//     cacheable set.
//   * kChe         — the Che/TTL approximation (Jiang/Nain/Towsley prove
//     its convergence): solve the occupancy fixed point
//     sum_j N(K * p_j) = B for the characteristic time K, where
//     N(z) = sum_k (1 - e^{-z q_k}) is a site's expected number of resident
//     objects, then read hit ratios off the same H(z) table.
//
// All tiers mirror ServerCacheState's semantics exactly: popularities are
// renormalised by the unreplicated mass, results are scaled by
// (1 - lambda_j), and replicated sites contribute 0.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/model/hit_ratio_curve.h"
#include "src/util/zipf.h"

namespace cdn::model {

/// Which steady-state model produces the per-(server, site) hit ratios.
enum class SteadyStateModel {
  kEmpirical,
  kClosedForm,
  kChe,
};

/// Tabulated expected per-site cache occupancy under the Che approximation:
///   N(z) = sum_{k=1..L} (1 - exp(-z * q_k)),   z = K * p,
/// i.e. the expected number of site objects resident in an LRU cache with
/// characteristic time K when the site's renormalised popularity is p.
/// Same log-grid / interpolation / clamp-diagnostic design as HitRatioCurve;
/// N ranges over [0, L] instead of [0, 1].
class OccupancyCurve {
 public:
  explicit OccupancyCurve(const util::ZipfDistribution& zipf,
                          std::size_t grid_points = 512, double z_min = 1e-4,
                          double z_max = 1e8);

  // Copies share the table but reset the clamp counter (diagnostic state).
  OccupancyCurve(const OccupancyCurve& other);
  OccupancyCurve& operator=(const OccupancyCurve& other);

  /// N(K * p): expected resident objects of a site with popularity p.
  double evaluate(double p, double K) const { return evaluate_z(p * K); }

  /// N(z) by log-linear interpolation.
  double evaluate_z(double z) const;

  std::size_t grid_points() const noexcept { return values_.size(); }
  double z_min() const noexcept { return z_min_; }
  double z_max() const noexcept { return z_max_; }
  /// Objects per site L = lim_{z->inf} N(z).
  double objects_per_site() const noexcept { return objects_; }

  /// evaluate_z() calls clamped above z_max (flat extrapolation at ~L);
  /// exported as "model/curve_clamped" next to HitRatioCurve's counter.
  std::uint64_t clamped_evaluations() const noexcept {
    return clamped_.load(std::memory_order_relaxed);
  }

 private:
  double z_min_, z_max_;
  double log_z_min_, inv_log_step_;
  double objects_ = 0.0;
  std::vector<double> values_;
  mutable std::atomic<std::uint64_t> clamped_{0};
};

/// Exact (untabulated) occupancy sum — the reference for OccupancyCurve.
double lru_occupancy_exponential(const util::ZipfDistribution& zipf, double z);

/// Solves the Che fixed point sum_j N(K * w_j) = min(slots, cacheable
/// objects) for the characteristic time K by bracketing + bisection (the
/// left side is strictly increasing in K).  `site_weights[j]` is the
/// renormalised probability that a cacheable request targets site j; zero
/// weights are skipped.  Returns 0 when the cache has no slots or no site
/// has positive weight; returns occupancy.z_max() (the saturated regime —
/// every object resident) when the cache fits the whole cacheable set.
double che_characteristic_time(std::span<const double> site_weights,
                               const OccupancyCurve& occupancy,
                               std::uint64_t slots);

/// Per-site steady-state hit ratios of one server's cache under the chosen
/// model tier (kClosedForm or kChe; kEmpirical has no computation — callers
/// read PlacementResult::modeled_hit directly).
///
/// `popularity[j]`  — p_j^(i) over ALL requests at the server (sums to 1);
/// `replicated[j]`  — nonzero when site j is replicated at the server
///                    (its requests bypass the cache: hit ratio 0);
/// `lambdas[j]`     — uncacheable fraction; results are (1-lambda)-scaled;
/// `slots`          — LRU buffer slot count B = cache_bytes / o-bar;
/// `curve`          — shared H(z) table;
/// `occupancy`      — shared N(z) table, required for kChe (may be null
///                    for kClosedForm).
std::vector<double> steady_state_hit_ratios(
    SteadyStateModel tier, std::span<const double> popularity,
    std::span<const std::uint8_t> replicated, std::span<const double> lambdas,
    const util::ZipfDistribution& zipf, const HitRatioCurve& curve,
    const OccupancyCurve* occupancy, std::uint64_t slots);

}  // namespace cdn::model
