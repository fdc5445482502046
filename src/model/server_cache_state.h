// Per-server analytical cache state for the hybrid greedy algorithm.
//
// Wraps Eqs. 1 and 2 for one CDN server: which sites are replicated locally,
// how many bytes remain for caching, the resulting LRU slot count B, the
// characteristic time K, and the modelled per-site hit ratios — including
// the "what if site j were replicated here" evaluation at the core of
// Figure 2's benefit computation (lines 10–13).
//
// The LRU cache only serves requests for *non-replicated* sites, so site
// popularities are renormalised by the unreplicated probability mass, and
// creating a replica both shrinks B (cache loses o_j bytes) and boosts the
// renormalised popularity of the remaining sites.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/model/characteristic_time.h"
#include "src/model/hit_ratio_curve.h"
#include "src/util/zipf.h"

namespace cdn::model {

/// When the top-B cumulative probability p_B feeding Eq. 2 is recomputed.
/// The paper computes it once at initialisation and reports that per-
/// iteration recomputation "produced the same result" — both are available
/// (ablation bench A1).
enum class PbMode {
  kAtInit,        // paper default: p_B frozen after construction
  kPerIteration,  // refreshed by refresh_pb() after every replica creation
};

class ServerCacheState {
 public:
  /// `site_rates[j]`   — r_j^(i), this server's request counts per site;
  /// `site_bytes[j]`   — o_j;
  /// `lambdas[j]`      — uncacheable fraction per site;
  /// `storage_bytes`   — s^(i), all of which is initially cache space;
  /// `mean_object_bytes` — o-bar, converting bytes to LRU slots B;
  /// `zipf` / `curve`  — shared within-site popularity law and H(z) table.
  ServerCacheState(std::span<const double> site_rates,
                   std::span<const std::uint64_t> site_bytes,
                   std::span<const double> lambdas,
                   std::uint64_t storage_bytes, double mean_object_bytes,
                   const util::ZipfDistribution& zipf,
                   const HitRatioCurve& curve, PbMode pb_mode = PbMode::kAtInit);

  /// Modelled LRU hit ratio of site j at this server, already scaled by
  /// (1 - lambda_j).  0 for replicated sites (their requests bypass the
  /// cache) and when the cache has no slots.
  double hit_ratio(std::uint32_t site) const;

  bool is_replicated(std::uint32_t site) const;

  /// True if a replica of site j fits in the remaining cache space.
  bool can_fit(std::uint32_t site) const;

  /// Bytes currently available to the LRU cache.
  std::uint64_t cache_bytes() const noexcept { return cache_bytes_; }

  /// LRU slot count B = cache_bytes / o-bar.
  std::uint64_t buffer_slots() const noexcept { return slots_; }

  /// Characteristic time K currently in effect (Eq. 2 closed form).
  double characteristic_time() const noexcept { return k_; }

  /// The p_B currently feeding Eq. 2.
  double top_b_probability() const noexcept { return p_b_; }

  /// Renormalised popularity of site j among cacheable requests.
  double renormalized_popularity(std::uint32_t site) const;

  std::size_t site_count() const noexcept { return rates_.size(); }

  /// Lightweight view answering "what would site k's hit ratio be if site
  /// `replicating` were given a replica here".  Valid until the parent
  /// mutates.
  class WhatIf {
   public:
    /// Hit ratio of site k after the hypothetical replication (k must not
    /// be the replicating site).
    double hit_ratio(std::uint32_t site) const;

    double characteristic_time() const noexcept { return k_new_; }

   private:
    friend class ServerCacheState;
    const ServerCacheState* parent_;
    std::uint32_t replicating_;
    double w_new_;  // unreplicated mass after removal
    double k_new_;
  };

  /// Requires !is_replicated(site) and can_fit(site).
  ///
  /// The characteristic-time solve behind each WhatIf is memoized in a
  /// per-state scratch arena keyed on the replicated-set signature (an
  /// epoch bumped by replicate()/refresh_pb()), so re-evaluating the same
  /// candidate between commits that did not touch this server is a table
  /// lookup instead of a digamma solve.  A call writes only the memo slot
  /// of its own `site`, so concurrent calls on DISTINCT sites of one state
  /// are safe (the placement engine prices the candidates of one server in
  /// parallel over sites); concurrent calls on the same site, or with a
  /// mutation, are not.
  WhatIf what_if_replicate(std::uint32_t site) const;

  /// Materialises the replica: shrinks the cache by o_j, removes site j
  /// from the cacheable set, updates B and K (and p_B in kPerIteration).
  void replicate(std::uint32_t site);

  /// Recomputes p_B from the current cacheable set; no-op in kAtInit mode.
  void refresh_pb();

 private:
  double popularity_mass() const noexcept { return w_; }
  void recompute_k();
  double hit_ratio_internal(std::uint32_t site, double w, double k) const;

  std::vector<double> rates_;           // r_j^(i)
  std::vector<std::uint64_t> bytes_;    // o_j
  std::vector<double> lambdas_;
  std::vector<std::uint8_t> replicated_;  // 1 = site has a replica here
  std::vector<double> popularity_;      // p_j over ALL requests at server
  const util::ZipfDistribution* zipf_;
  const HitRatioCurve* curve_;
  PbMode pb_mode_;
  double mean_object_bytes_;
  std::uint64_t cache_bytes_;
  std::uint64_t slots_ = 0;
  double w_ = 1.0;   // unreplicated popularity mass
  double p_b_ = 0.0;
  double k_ = 0.0;

  // WhatIf scratch arena: per-site memo of the hypothetical K, valid while
  // memo_epoch_[site] == epoch_.  Mutable because what_if_replicate() is
  // logically const; see its thread-safety note.
  std::uint64_t epoch_ = 1;
  mutable std::vector<double> whatif_k_memo_;
  mutable std::vector<std::uint64_t> whatif_memo_epoch_;
};

}  // namespace cdn::model
