// Internal glue between hybrid_greedy's public benefit functions and its
// lazy-heap engine.  Not part of the public placement API.

#pragma once

#include <vector>

#include "src/model/server_cache_state.h"
#include "src/placement/hybrid_greedy.h"

namespace cdn::placement::detail {

/// Lazy-heap engine: candidates keep their cached benefits until a commit
/// changes one of their inputs; only the invalidated set is re-evaluated.
/// Under kExact it is byte-identical in placement, cost trajectory and
/// commit order to re-evaluating every candidate every iteration
/// (tests/placement_oracle.h).
PlacementResult hybrid_greedy_incremental(const sys::CdnSystem& system,
                                          const HybridGreedyOptions& options);

/// The cache-penalty term of the canonical benefit (lines 10-13), exactly
/// as hybrid_candidate_benefit_parts accumulates it.  When `terms` is
/// non-null it receives the per-site contributions (length M, zero for
/// skipped sites), letting the incremental engine repair a single changed
/// term and re-sum instead of re-deriving every what-if hit ratio.
double hybrid_cache_penalty(const sys::CdnSystem& system,
                            const sys::NearestReplicaIndex& nearest,
                            const model::ServerCacheState& state,
                            const std::vector<double>& hit,
                            sys::ServerIndex server, sys::SiteIndex site,
                            double* terms);

/// The relative-gain term (lines 14-17), exactly as the canonical function
/// accumulates it.  `miss_flow` may be null (elementwise fallback).
double hybrid_relative_gain(const sys::CdnSystem& system,
                            const sys::ReplicaPlacement& placement,
                            const sys::NearestReplicaIndex& nearest,
                            const std::vector<double>& hit,
                            const double* miss_flow, sys::ServerIndex server,
                            sys::SiteIndex site);

/// hybrid_candidate_benefit_parts with the penalty terms captured (see
/// hybrid_cache_penalty).  The public overloads forward here with
/// `penalty_terms == nullptr`, so there is exactly one benefit definition.
HybridBenefitParts hybrid_benefit_parts_capture(
    const sys::CdnSystem& system, const sys::ReplicaPlacement& placement,
    const sys::NearestReplicaIndex& nearest,
    const model::ServerCacheState& state, const std::vector<double>& hit,
    const double* miss_flow, sys::ServerIndex server, sys::SiteIndex site,
    double* penalty_terms);

}  // namespace cdn::placement::detail
