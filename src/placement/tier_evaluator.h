// Tiered candidate pricing for the hybrid placement fast path.
//
// The exact cache-penalty term of a Figure-2 candidate (i, j) costs O(M)
// H(z) evaluations — one what-if hit ratio per other site — and dominates
// candidate-evaluation wall time.  The closed-form tier collapses it to O(1)
// per candidate by factoring the penalty through per-server tables shared
// by every candidate of the server:
//
//   penalty(i, j) = [A_i(kappa)     - g_j H(p_j kappa)]
//                 - [Phi_i(kappa'_j) - g_j H(p_j kappa'_j)]
//
// where g_k = (1 - lambda_k) r_k^(i) C(i, SN_k^(i)) (0 for replicated or
// zero-cost sites), kappa = K/w is the server's current characteristic
// scale, kappa'_j = K'_j/w'_j the scale after hypothetically replicating j,
// A_i(kappa) = sum_k g_k H(p_k kappa) an exact cached scalar, and Phi_i a
// log-grid tabulation of x -> sum_k g_k H(p_k x) around kappa.  Each
// candidate then needs one grid interpolation plus two H evaluations.
// kappa'_j comes from the state's memoized Eq. 2 digamma solve (exact K'),
// so the tier error is purely Phi interpolation plus the dropped
// min(p/w, 1) clamp of the exact path (only reachable when one site carries
// more than the whole unreplicated mass — a p -> 1 edge).
//
// Tier prices are used for candidate *ranking only*; near-threshold winners
// are re-verified with the exact model before commit (the engine owns that
// logic), and the hit matrix / cost trajectory stay exact.
//
// Thread safety: tables are per-server and lazily rebuilt from mutable
// state, so the evaluator is non-reentrant for the SAME server — exactly
// the ServerCacheState::WhatIf contract the engine already honours by
// partitioning candidate batches by server.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cdn/nearest_replica.h"
#include "src/cdn/replication.h"
#include "src/cdn/system.h"
#include "src/model/hit_ratio_curve.h"
#include "src/model/server_cache_state.h"

namespace cdn::placement {

class TierEvaluator {
 public:
  TierEvaluator(const sys::CdnSystem& system,
                const std::vector<model::ServerCacheState>& states,
                const sys::NearestReplicaIndex& nearest,
                const model::HitRatioCurve& curve);

  /// Tier-priced cache penalty of replicating `site` at `server` (the
  /// drop-in replacement for detail::hybrid_cache_penalty in the fast
  /// path).  Requires can_fit; rebuilds the server's tables lazily when its
  /// state epoch moved.
  double penalty(sys::ServerIndex server, sys::SiteIndex site) const;

  /// Notifies the evaluator that C(server, SN_site) changed because of a
  /// commit elsewhere (the changed_servers list of on_replica_added): the
  /// affected g term is patched into A and Phi in O(grid) instead of a full
  /// O(M * grid) rebuild.  Must be called before the server's candidates
  /// are re-priced, from the (serial) commit path.
  void on_cost_changed(sys::ServerIndex server, sys::SiteIndex site);

  /// Tier-priced penalty evaluations across all servers.
  std::uint64_t evaluations() const noexcept;

 private:
  static constexpr std::size_t kGridPoints = 64;
  // The grid spans kappa * [2^-6, 2^6]: a replica removes at most one
  // site's bytes and mass, so the post-commit scale stays well inside two
  // orders of magnitude of the current one; outside the span the tables
  // clamp flat and the margin fallback re-verifies exactly.
  static constexpr double kSpanLo = 1.0 / 64.0;
  static constexpr double kSpanHi = 64.0;

  struct Table {
    std::uint64_t epoch = 0;  // states[i].mutation_epoch() it was built at
    bool built = false;
    bool degenerate = false;  // no mass or no characteristic time: penalty 0
    double kappa = 0.0;       // current K/w
    double a_at_kappa = 0.0;  // exact A(kappa)
    double x_lo = 0.0;
    double log_x_lo = 0.0;
    double log_step = 0.0;
    std::vector<double> g;    // per-site penalty weights
    std::vector<double> phi;  // sum_k g_k H(p_k x) on the grid
    std::vector<double> kappa_new;           // per-site kappa'_j memo
    std::vector<std::uint64_t> kappa_epoch;  // memo validity (== epoch)
    std::uint64_t evaluations = 0;
  };

  void rebuild(std::size_t server) const;
  double grid_x(const Table& t, std::size_t point) const;
  double interpolate(const std::vector<double>& values, const Table& t,
                     double x) const;
  double candidate_scale(Table& t, std::size_t server, std::size_t site) const;

  const sys::CdnSystem* system_;
  const std::vector<model::ServerCacheState>* states_;
  const sys::NearestReplicaIndex* nearest_;
  const model::HitRatioCurve* curve_;
  mutable std::vector<Table> tables_;
};

/// Transposed (site-major) copies of the relative-gain inputs.  The exact
/// relative loop strides by M through four row-major matrices; these
/// site-major columns make it a contiguous, vectorisable sweep over k — the
/// other half of the per-candidate budget once the penalty is O(1).
/// Maintained incrementally per commit: a commit of (ws, js) moves column
/// js of the nearest costs (changed_servers rows only), row ws of the miss
/// flows (one scatter across columns), and one replication bit.
struct RelativeColumns {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<double> cost;        // [j*n + k] = C(k, SN_j^(k))
  std::vector<double> flow;        // [j*n + k] = miss_flow[k*m + j]
  std::vector<std::uint8_t> repl;  // [j*n + k] = is_replicated(k, j)
  std::vector<double> dist_to;     // [i*n + k] = C(k, i)

  void build(const sys::CdnSystem& system,
             const sys::ReplicaPlacement& placement,
             const sys::NearestReplicaIndex& nearest,
             const std::vector<double>& miss_flow);

  /// Applies one commit of (server, site); `changed_servers` is
  /// on_replica_added's list and `miss_flow` the already-refreshed matrix.
  void on_commit(const sys::NearestReplicaIndex& nearest,
                 const std::vector<double>& miss_flow,
                 sys::ServerIndex server, sys::SiteIndex site,
                 const std::vector<sys::ServerIndex>& changed_servers);

  /// The relative-gain term (lines 14-17) of candidate (server, site):
  /// sum over k != server, unreplicated, of
  /// max(0, C(k, SN_j) - C(k, server)) * flow.  Equals
  /// detail::hybrid_relative_gain up to floating-point summation order
  /// (columns accumulate in the same ascending-k order, so it is in fact
  /// bitwise identical).
  double relative_gain(sys::ServerIndex server, sys::SiteIndex site) const;
};

}  // namespace cdn::placement
