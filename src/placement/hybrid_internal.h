// Internal glue between hybrid_greedy and its lazy-heap engine.  Not part
// of the public placement API.

#pragma once

#include "src/placement/hybrid_greedy.h"

namespace cdn::placement::detail {

/// Lazy-heap engine (hybrid_incremental.cpp): every candidate keeps a heap
/// key that is its exact benefit or a certified upper bound on it; a commit
/// re-prices its server's row exactly, patches the moved term of the other
/// invalidated candidates in O(1), and a bound that reaches the top is
/// re-priced exactly before anything commits.  Byte-identical in placement,
/// cost trajectory and commit order to re-evaluating every candidate every
/// iteration (tests/placement_oracle.h).
PlacementResult hybrid_greedy_incremental(const sys::CdnSystem& system,
                                          const HybridGreedyOptions& options);

}  // namespace cdn::placement::detail
