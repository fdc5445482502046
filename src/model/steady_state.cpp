#include "src/model/steady_state.h"

#include <algorithm>
#include <cmath>

#include "src/model/characteristic_time.h"
#include "src/util/error.h"

namespace cdn::model {

double lru_occupancy_exponential(const util::ZipfDistribution& zipf,
                                 double z) {
  CDN_EXPECT(z >= 0.0, "z must be non-negative");
  double n = 0.0;
  for (const double qk : zipf.probabilities()) {
    n += 1.0 - std::exp(-z * qk);
  }
  return n;
}

OccupancyCurve::OccupancyCurve(const util::ZipfDistribution& zipf,
                               std::size_t grid_points, double z_min,
                               double z_max)
    : z_min_(z_min),
      z_max_(z_max),
      objects_(static_cast<double>(zipf.size())) {
  CDN_EXPECT(grid_points >= 2, "grid needs at least 2 points");
  CDN_EXPECT(z_min > 0.0 && z_min < z_max, "need 0 < z_min < z_max");
  values_.resize(grid_points);
  log_z_min_ = std::log(z_min);
  const double log_step =
      (std::log(z_max) - log_z_min_) / static_cast<double>(grid_points - 1);
  inv_log_step_ = 1.0 / log_step;
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double z = std::exp(log_z_min_ + log_step * static_cast<double>(i));
    values_[i] = lru_occupancy_exponential(zipf, z);
  }
}

OccupancyCurve::OccupancyCurve(const OccupancyCurve& other)
    : z_min_(other.z_min_),
      z_max_(other.z_max_),
      log_z_min_(other.log_z_min_),
      inv_log_step_(other.inv_log_step_),
      objects_(other.objects_),
      values_(other.values_) {}

OccupancyCurve& OccupancyCurve::operator=(const OccupancyCurve& other) {
  if (this != &other) {
    z_min_ = other.z_min_;
    z_max_ = other.z_max_;
    log_z_min_ = other.log_z_min_;
    inv_log_step_ = other.inv_log_step_;
    objects_ = other.objects_;
    values_ = other.values_;
    clamped_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

double OccupancyCurve::evaluate_z(double z) const {
  CDN_DCHECK(z >= 0.0, "z must be non-negative");
  if (z <= 0.0) return 0.0;
  if (z <= z_min_) {
    // N(z) ~ z * L near 0; interpolate through the origin.
    return values_.front() * (z / z_min_);
  }
  if (z >= z_max_) {
    clamped_.fetch_add(1, std::memory_order_relaxed);
    return values_.back();
  }
  const double pos = (std::log(z) - log_z_min_) * inv_log_step_;
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < values_.size() ? lo + 1 : lo;
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

double che_characteristic_time(std::span<const double> site_weights,
                               const OccupancyCurve& occupancy,
                               std::uint64_t slots) {
  if (slots == 0) return 0.0;
  double max_w = 0.0;
  std::size_t cacheable_sites = 0;
  for (const double w : site_weights) {
    CDN_EXPECT(w >= 0.0, "site weights must be non-negative");
    if (w > 0.0) {
      ++cacheable_sites;
      max_w = std::max(max_w, w);
    }
  }
  if (cacheable_sites == 0) return 0.0;
  const double cacheable_objects =
      static_cast<double>(cacheable_sites) * occupancy.objects_per_site();
  const double target =
      std::min(static_cast<double>(slots), cacheable_objects);
  if (static_cast<double>(slots) >= cacheable_objects) {
    // The cache fits every cacheable object: no eviction pressure, K is
    // unbounded.  Return a K that pushes every site into the table's
    // saturated tail (evaluations there clamp and bump the diagnostic
    // counter, which is exactly what "the grid cannot represent this
    // regime" should look like).
    double min_w = max_w;
    for (const double w : site_weights) {
      if (w > 0.0) min_w = std::min(min_w, w);
    }
    return occupancy.z_max() / min_w;
  }
  const auto occupied = [&](double k) {
    double n = 0.0;
    for (const double w : site_weights) {
      if (w > 0.0) n += occupancy.evaluate(w, k);
    }
    return n;
  };
  // The total occupancy is strictly increasing in K: bracket by doubling
  // (capped where the most popular site reaches the table's edge), then
  // bisect.  ~60 halvings take the bracket below double precision.
  const double k_cap = occupancy.z_max() / max_w;
  double hi = 1.0;
  while (hi < k_cap && occupied(hi) < target) hi *= 2.0;
  hi = std::min(hi, k_cap);
  if (occupied(hi) < target) return hi;  // table saturated below the target
  double lo = 0.0;
  for (int iter = 0; iter < 64; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (occupied(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<double> steady_state_hit_ratios(
    SteadyStateModel tier, std::span<const double> popularity,
    std::span<const std::uint8_t> replicated, std::span<const double> lambdas,
    const util::ZipfDistribution& zipf, const HitRatioCurve& curve,
    const OccupancyCurve* occupancy, std::uint64_t slots) {
  CDN_EXPECT(tier != SteadyStateModel::kEmpirical,
             "the empirical tier reads PlacementResult::modeled_hit; nothing "
             "to compute here");
  CDN_EXPECT(replicated.size() == popularity.size() &&
                 lambdas.size() == popularity.size(),
             "site arrays must have equal length");
  std::vector<double> h(popularity.size(), 0.0);
  double w = 0.0;
  for (std::size_t j = 0; j < popularity.size(); ++j) {
    if (replicated[j] == 0) w += popularity[j];
  }
  if (w <= 0.0 || slots == 0) return h;
  // Renormalise by the unreplicated mass — the cache only ever serves
  // requests for sites without a local replica (ServerCacheState's w_).
  std::vector<double> weights(popularity.size(), 0.0);
  for (std::size_t j = 0; j < popularity.size(); ++j) {
    if (replicated[j] == 0) weights[j] = popularity[j] / w;
  }
  double k = 0.0;
  if (tier == SteadyStateModel::kClosedForm) {
    double p_b = top_b_cumulative_probability(weights, zipf, slots);
    if (p_b >= 1.0) p_b = 1.0 - 1e-12;
    k = characteristic_time_closed_form(slots, p_b);
  } else {
    CDN_EXPECT(occupancy != nullptr,
               "the Che tier needs an OccupancyCurve");
    k = che_characteristic_time(weights, *occupancy, slots);
  }
  if (k <= 0.0) return h;
  for (std::size_t j = 0; j < popularity.size(); ++j) {
    if (replicated[j] != 0 || weights[j] <= 0.0) continue;
    h[j] = (1.0 - lambdas[j]) * curve.evaluate(std::min(weights[j], 1.0), k);
  }
  return h;
}

}  // namespace cdn::model
