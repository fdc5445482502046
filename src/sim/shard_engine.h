// The event engine: every per-request simulation runs here.
//
// The reference stream is i.i.d. (Section 3.2), so it decomposes exactly by
// first-hop server: partition the servers into S shards, split the total
// request count multinomially over the shards' demand masses, and run each
// shard's conditional stream against shard-local state (caches, window
// accumulators, cause counters, latency sketch) on a thread pool.  Shard
// results merge in fixed shard-index order, so the report is a
// deterministic function of (seed, shards) — the thread count only changes
// the execution schedule, never a result bit.
//
// The one-shard case is the reference run.  One shard owns every server and
// the whole stream, runs on the calling thread, is seeded from the plain
// config seed and keeps exact latency samples; a multi-shard run is
// statistically equivalent to it.  Runs with one thread take it, and so do
// fault schedules, trace replay, trace sinks and the kTtl and kInvalidation
// staleness modes, which need the global request clock.

#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/simulator.h"
#include "src/workload/demand.h"

namespace cdn::sim {

/// First-hop partition of one sharded run.
struct ShardPlan {
  /// servers[s] = ascending global ids owned by shard s (round-robin:
  /// server i belongs to shard i % S, so the local index is i / S).
  std::vector<std::vector<workload::ServerId>> servers;
  /// requests[s] = synthetic requests shard s generates; sums to the run's
  /// total.  An exact multinomial sample over the shards' demand masses.
  std::vector<std::uint64_t> requests;
};

/// Splits `total` requests over `shards` first-hop shards of the demand
/// matrix.  Deterministic in (seed, shards).
ShardPlan plan_shards(const workload::DemandMatrix& demand,
                      std::uint64_t total, std::size_t shards,
                      std::uint64_t seed);

/// Shard count of a run: the configured value, or 4 shards per thread when
/// auto (0) — enough slack for even static load balance — capped at the
/// server count (a shard needs at least one first-hop server).
std::size_t resolve_shard_count(std::size_t configured, std::size_t threads,
                                std::size_t server_count);

/// How simulate() splits an event run.
struct EventShape {
  /// The one-shard reference run (see the file comment).
  bool reference = true;
  /// Resolved worker threads (0 in the config = one per hardware thread).
  std::size_t threads = 1;
  std::size_t shards = 1;
};

/// The shape of `config`'s event run over `server_count` servers.
EventShape event_shape(const SimulationConfig& config,
                       std::size_t server_count);

/// Runs the event engine.  Called by simulate() for SimEngine::kEvent; not
/// part of the public API.
SimulationReport simulate_events(const sys::CdnSystem& system,
                                 const placement::PlacementResult& result,
                                 const SimulationConfig& config);

}  // namespace cdn::sim
