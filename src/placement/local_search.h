// Local-search refinement of replica placements.
//
// Section 2.2 cites [12] (Jamin et al.): among the k-median-style
// heuristics, "a greedy one that performs back tracking offers the better
// results".  This module implements that refinement: starting from any
// placement, repeatedly apply the best cost-reducing *swap* (drop one
// replica, add another that fits) until no swap helps.  It applies to the
// pure-replication objective and is used (a) as a stronger replication
// baseline and (b) to quantify how far greedy-global is from a local
// optimum.  Trial swaps are priced from an incrementally maintained
// redirection-cost matrix, bit-identical to rebuilding the nearest-replica
// index per trial (the test oracle in tests/placement_oracle.h).

#pragma once

#include <cstdint>

#include "src/cdn/system.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/placement/placement_result.h"

namespace cdn::placement {

struct LocalSearchOptions {
  /// Stop after this many applied swaps (0 = until convergence).
  std::size_t max_swaps = 0;
  /// A swap must improve the cost by more than this relative margin to be
  /// applied (guards against floating-point ping-pong).
  double min_relative_gain = 1e-9;

  /// Metric sink (non-owning; null = no instrumentation).  Emits
  /// "<metrics_prefix>swaps" (one row per applied swap) and a total timer.
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "placement/local_search/";

  /// Span tracer (non-owning; null = no spans).  Emits a total span.
  obs::SpanTracer* spans = nullptr;
};

struct LocalSearchStats {
  std::size_t swaps_applied = 0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
};

/// Refines `result` in place with best-improvement swaps under the pure
/// replication objective (modelled cache hits are ignored during the
/// search; the result's predictions are recomputed afterwards only for
/// replication-style results).  Returns the applied-swap statistics.
LocalSearchStats local_search_refine(const sys::CdnSystem& system,
                                     PlacementResult& result,
                                     const LocalSearchOptions& options = {});

/// Greedy-global followed by local-search refinement — the "greedy with
/// backtracking" baseline of [12].
PlacementResult greedy_with_backtracking(
    const sys::CdnSystem& system, const LocalSearchOptions& options = {});

/// Topology-informed placement of [25] (Radoslavov et al.): replicate the
/// most-demanded sites at the best-connected servers (highest-degree /
/// lowest total distance first), ignoring per-site geography.
PlacementResult topology_informed_placement(const sys::CdnSystem& system);

}  // namespace cdn::placement
