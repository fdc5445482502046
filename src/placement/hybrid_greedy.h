// The hybrid replica-placement + cache-allocation algorithm — Figure 2 of
// the paper, the primary contribution being reproduced.
//
// Starting from a network where only primary copies exist (all CDN storage
// is cache), each iteration evaluates every (server, site) candidate
// replica.  A candidate's benefit combines:
//
//   * the local gain     (1 - h_j^(i)) * r_j^(i) * C(i, SN_j^(i))
//     — the site's former cache misses now served locally (lines 9);
//   * the cache penalty  sum_k [h_k^(i) - h_k,new^(i)] * r_k^(i) *
//     C(i, SN_k^(i)) — every other site's hit ratio drops because the LRU
//     buffer shrinks by o_j bytes (lines 10-13), partially offset by the
//     renormalised popularity boost of removing site j from the cacheable
//     mix;
//   * the relative gain  sum_{k != i} max(0, C(k, SN_j^(k)) - C(k, i)) *
//     (1 - h_j^(k)) * r_j^(k) — other servers' cache-missed requests for
//     site j now travel to a closer replica (lines 14-17).
//
// The best positive candidate is materialised (lines 18-25) and the model
// state is updated; the algorithm stops when no candidate has positive
// benefit or nothing fits.
//
// hybrid_greedy runs one engine with one pricing path, the lazy heap of
// hybrid_incremental.cpp: every candidate keeps its exact benefit or a
// certified upper bound on it, a commit re-prices its server's row exactly
// and patches the one moved term of the other invalidated candidates, and a
// bound that reaches the top is re-priced with the exact model before
// anything commits.  The plain loop that re-prices every candidate every
// iteration is the test oracle in tests/placement_oracle.h, which the
// engine matches bit for bit.

#pragma once

#include "src/cdn/system.h"
#include "src/model/server_cache_state.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/placement/model_support.h"
#include "src/placement/placement_result.h"

namespace cdn::placement {

struct HybridGreedyOptions {
  /// When the top-B probability p_B of Eq. 2 is recomputed (paper default:
  /// once at initialisation; see DESIGN.md ablation A1).
  model::PbMode pb_mode = model::PbMode::kAtInit;

  /// Optional cap on replicas (0 = unlimited).
  std::size_t max_replicas = 0;

  /// Optional starting placement whose replicas are materialised for free
  /// before the greedy loop (adaptive replanning).  Must match the system's
  /// dimensions; replicas that exceed the system's budgets are rejected.
  const sys::ReplicaPlacement* seed = nullptr;

  /// Benefit threshold per byte of a NEW replica: a candidate is accepted
  /// only when benefit > add_cost_per_byte * o_j (models the transfer cost
  /// of replica creation; 0 reproduces Figure 2 exactly).
  double add_cost_per_byte = 0.0;

  /// Metric sink (non-owning; null = no instrumentation).  When set, the
  /// run emits "<metrics_prefix>iterations" (one row per committed replica
  /// with its benefit decomposition), the "<metrics_prefix>cost" series
  /// (D after each replica), per-phase timers, and summary gauges.
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "placement/hybrid/";

  /// Span tracer (non-owning; null = no spans).  Each committed replica
  /// gets an iteration span, next to heap re-evaluation/repair spans,
  /// invalidation instants and a heap-size counter track (see
  /// docs/OBSERVABILITY.md).
  obs::SpanTracer* spans = nullptr;
};

/// The three terms of a Figure-2 candidate benefit (see the header comment).
/// total() reproduces hybrid_candidate_benefit exactly.
struct HybridBenefitParts {
  double local_gain = 0.0;     // line 9
  double cache_penalty = 0.0;  // lines 10-13, as a positive magnitude
  double relative_gain = 0.0;  // lines 14-17
  double total() const noexcept {
    return local_gain + relative_gain - cache_penalty;
  }
};

/// The N x M miss-flow matrix F[i][j] = (1 - h_j^(i)) * r_j^(i): the demand
/// a server still sends upstream for a site after its modelled cache hits.
/// Local and relative gains are linear in these products, so the engine
/// precomputes the matrix once and refreshes only the committed server's row
/// per iteration (the row is the only one whose hit ratios move) instead of
/// re-deriving every product inside each of the O(N*M) candidate
/// evaluations.  Values are elementwise functions of (hit, demand), so a
/// full rebuild and a row refresh are bitwise interchangeable.
std::vector<double> miss_flow_matrix(const sys::CdnSystem& system,
                                     const std::vector<double>& hit);

/// Recomputes row `server` of `flow` from the current hit matrix.
void refresh_miss_flow_row(const sys::CdnSystem& system,
                           const std::vector<double>& hit,
                           sys::ServerIndex server,
                           std::vector<double>& flow);

/// The canonical Figure-2 candidate evaluation (lines 9-17) with the three
/// terms kept apart — the single source of truth every variant below is
/// computed from.  `state` must be `server`'s model state, `hit` the N x M
/// modelled hit matrix consistent with all servers' states, and `miss_flow`
/// either null or miss_flow_matrix(system, hit) (the two are bitwise
/// equivalent; the matrix just amortises the products across candidates).
HybridBenefitParts hybrid_candidate_benefit_parts(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const sys::NearestReplicaIndex& nearest,
    const model::ServerCacheState& state, const std::vector<double>& hit,
    const double* miss_flow, sys::ServerIndex server, sys::SiteIndex site);

/// Convenience overload without a miss-flow matrix.
HybridBenefitParts hybrid_candidate_benefit_parts(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const sys::NearestReplicaIndex& nearest,
    const model::ServerCacheState& state, const std::vector<double>& hit,
    sys::ServerIndex server, sys::SiteIndex site);

/// Benefit of creating a replica of `site` at `server`: local gain +
/// other-server relative gains - cache shrink penalty.  Computed from
/// hybrid_candidate_benefit_parts (it IS parts.total()), so the scalar and
/// the decomposition cannot diverge.  Exposed for the adaptive replanner's
/// keep/drop evaluation.
double hybrid_candidate_benefit(const sys::CdnSystem& system,
                                const sys::ReplicaPlacement& placement,
                                const sys::NearestReplicaIndex& nearest,
                                const model::ServerCacheState& state,
                                const std::vector<double>& hit,
                                sys::ServerIndex server, sys::SiteIndex site);

/// Hot-path variant taking the precomputed miss-flow matrix.
double hybrid_candidate_benefit(const sys::CdnSystem& system,
                                const sys::ReplicaPlacement& placement,
                                const sys::NearestReplicaIndex& nearest,
                                const model::ServerCacheState& state,
                                const std::vector<double>& hit,
                                const double* miss_flow,
                                sys::ServerIndex server, sys::SiteIndex site);

/// Runs the hybrid algorithm on the system.  The result's modelled hit
/// matrix describes the final cache allocation; predicted costs come from
/// the same model the algorithm optimised.
PlacementResult hybrid_greedy(const sys::CdnSystem& system,
                              const HybridGreedyOptions& options = {});

}  // namespace cdn::placement
