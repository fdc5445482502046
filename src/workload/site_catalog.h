// The catalogue of hosted web sites: object sizes, per-site totals,
// within-site Zipf popularity, uncacheable fractions, and relative request
// volumes.  This is the M-site universe {O_1 .. O_M} of Section 3.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/rng.h"
#include "src/util/zipf.h"
#include "src/workload/surge.h"

namespace cdn::workload {

using SiteId = std::uint32_t;

/// Globally unique object identifier: site * L + (rank - 1).
using ObjectId = std::uint64_t;

/// Immutable catalogue of all hosted sites.  All sites share one
/// ZipfDistribution (same theta and L everywhere, as in the paper);
/// object sizes and total bytes differ per site.
class SiteCatalog {
 public:
  /// Generates `classes` worth of sites with SURGE-like object sizes.
  /// Sites are laid out class-by-class in id order.
  static SiteCatalog generate(const SurgeParams& params,
                              std::span<const PopularityClass> classes,
                              util::Rng& rng);

  std::size_t site_count() const noexcept { return site_bytes_.size(); }
  std::size_t objects_per_site() const noexcept { return zipf_.size(); }
  /// Objects in the catalogue; object ids are dense in [0, object_count()).
  std::size_t object_count() const noexcept {
    return site_count() * objects_per_site();
  }

  /// Within-site popularity law (rank 1 most popular).
  const util::ZipfDistribution& object_popularity() const noexcept {
    return zipf_;
  }

  /// Size in bytes of the object with `rank` (1-based) at `site`.
  std::uint64_t object_bytes(SiteId site, std::size_t rank) const;

  /// Total bytes of a site (the o_j of the paper).
  std::uint64_t site_bytes(SiteId site) const;

  /// Sum of all site sizes; server capacities are quoted as a % of this.
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  /// Mean object size across the whole catalogue (the o-bar used to convert
  /// cache bytes into the LRU slot count B = c / o-bar).
  double mean_object_bytes() const noexcept { return mean_object_bytes_; }

  /// Relative request volume of a site (class weight; absolute request
  /// counts are assigned by DemandMatrix).
  double volume_weight(SiteId site) const;

  /// Class label of the site ("low" / "medium" / "high" by default).
  const char* class_label(SiteId site) const;

  /// Fraction lambda_j of the site's requests returning uncacheable
  /// documents (Section 3.3).  Defaults to 0.
  double uncacheable_fraction(SiteId site) const;

  /// Sets lambda for every site.
  void set_uncacheable_fraction(double lambda);

  /// Sets lambda for one site.
  void set_uncacheable_fraction(SiteId site, double lambda);

  /// Globally unique object id.
  ObjectId object_id(SiteId site, std::size_t rank) const;

 private:
  SiteCatalog(util::ZipfDistribution zipf) : zipf_(std::move(zipf)) {}

  void check_site(SiteId site) const;

  util::ZipfDistribution zipf_;
  std::vector<std::uint64_t> object_bytes_;  // site-major, rank-minor
  std::vector<std::uint64_t> site_bytes_;
  std::vector<double> volume_weights_;
  std::vector<double> uncacheable_;
  std::vector<const char*> class_labels_;
  std::uint64_t total_bytes_ = 0;
  double mean_object_bytes_ = 0.0;
};

}  // namespace cdn::workload
