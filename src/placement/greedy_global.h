// Greedy-global replica placement — the stand-alone "Replication" baseline
// ([13, 15, 23]; the paper's Section 5.2 mechanism #1).
//
// Each iteration evaluates every (server, site) candidate replica and
// materialises the one with the largest positive benefit:
//
//   benefit(i, j) = r_j^(i) * C(i, SN_j^(i))                      (local)
//                 + sum_{k != i, X_kj = 0} max(0, C(k, SN_j^(k)) - C(k, i))
//                   * r_j^(k)                                     (relative)
//
// It terminates when every server is full or no candidate improves the cost.
// The engine keeps cached benefits in a lazy heap and re-prices only the
// committed site's column per commit; tests/placement_oracle.h holds the
// plain loop it matches bit for bit.

#pragma once

#include "src/cdn/system.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/placement/placement_result.h"

namespace cdn::placement {

struct GreedyGlobalOptions {
  /// Optional cap on replicas per run (0 = unlimited); used by tests and
  /// by the fixed-split scheme indirectly through storage budgets.
  std::size_t max_replicas = 0;

  /// Metric sink (non-owning; null = no instrumentation).  Emits
  /// "<metrics_prefix>iterations" (one row per committed replica), the
  /// "<metrics_prefix>cost" series, and phase timers.
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "placement/greedy_global/";

  /// Span tracer (non-owning; null = no spans).  Emits a total span plus
  /// one span per committed replica.
  obs::SpanTracer* spans = nullptr;
};

/// Runs greedy-global with each server's full storage budget available for
/// replicas.  The returned result has all-zero modelled hit ratios (pure
/// replication serves only from replicas).
PlacementResult greedy_global(const sys::CdnSystem& system,
                              const GreedyGlobalOptions& options = {});

/// Variant with explicit per-server replica budgets (bytes).  Used by the
/// ad-hoc fixed-split scheme, which reserves part of each server's storage
/// for caching before running greedy-global on the rest.
PlacementResult greedy_global_with_budgets(
    const sys::CdnSystem& system,
    const std::vector<std::uint64_t>& replica_budgets,
    const GreedyGlobalOptions& options = {});

}  // namespace cdn::placement
