// Cache-consistency substrate (Section 3.3).
//
// The paper's experiments reduce consistency to a flat lambda: a fixed
// fraction of requests must touch the remote copy.  Section 3.3, however,
// discusses the real mechanisms — strong consistency via server-based
// invalidation [18] and weak consistency via TTLs — and cites [22] for
// object modification intervals between one and 24 hours.  This module
// holds that machinery; the event engine runs it as the staleness modes
// StalenessMode::kTtl and StalenessMode::kInvalidation (simulator.h).
//
// Modification times are a deterministic pseudo-random renewal process per
// object (exponential inter-update times), so runs are reproducible and no
// per-object history needs storing: the process is evaluated lazily.

#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/cache/cache_policy.h"
#include "src/util/rng.h"
#include "src/workload/site_catalog.h"

namespace cdn::sim {

/// Virtual seconds between consecutive requests of a kTtl or kInvalidation
/// run: request t (the global request index) arrives at
/// t * kSecondsPerRequest.
inline constexpr double kSecondsPerRequest = 0.01;

/// Deterministic per-object modification process: exponential inter-update
/// times with a mean drawn per object from [min_interval, max_interval]
/// (uniformly in log space, matching the 1h..24h spread of [22]).
class ModificationProcess {
 public:
  /// Intervals are in the simulator's virtual-time unit (requests are
  /// assigned virtual timestamps by the caller).
  ModificationProcess(double min_mean_interval, double max_mean_interval,
                      std::uint64_t seed);

  /// Time of the last modification of `object` at or before `now`.
  /// O(expected number of updates in [0, now]) via per-object replay with
  /// a cached cursor — amortised O(1) for monotone `now` queries.
  double last_modification(workload::ObjectId object, double now);

  /// Mean inter-update interval of this object (deterministic per object).
  double mean_interval(workload::ObjectId object) const;

 private:
  struct Cursor {
    double last = 0.0;  // latest update time <= the last queried `now`
    double next = 0.0;  // first update time > `last`
    double mean = 0.0;  // mean_interval(object), set when the cursor starts
    util::Rng rng{0};
    bool initialised = false;
  };

  double min_mean_, max_mean_;
  std::uint64_t seed_;
  std::unordered_map<workload::ObjectId, Cursor> cursors_;
};

/// Per-server record of when each cached object was fetched/validated.
/// Kept beside the cache policy (which stores no metadata).
class FreshnessTable {
 public:
  void on_fetch(workload::ObjectId object, double now) {
    fetched_[object] = now;
  }
  /// Fetch time, or -infinity when unknown (treat as maximally stale).
  double fetch_time(workload::ObjectId object) const;
  void erase(workload::ObjectId object) { fetched_.erase(object); }
  std::size_t size() const noexcept { return fetched_.size(); }

  /// Drops the entries of objects `cache` no longer holds once the table
  /// has grown past twice the cache's object count (and kPruneFloor).
  /// Exact: an entry is read only on a cache hit, and the admission that
  /// makes an object resident again rewrites its entry first.
  void prune(const cache::CachePolicy& cache);

 private:
  /// Table size below which prune() never sweeps, so a small cache does
  /// not sweep its table on every miss.
  static constexpr std::size_t kPruneFloor = 256;

  std::unordered_map<workload::ObjectId, double> fetched_;
};

/// Parameters of the kTtl and kInvalidation staleness modes, in virtual
/// seconds.  The modification process is seeded from the run seed.
struct ConsistencyConfig {
  /// TTL of a cached copy under kTtl.
  double ttl = 3600.0;
  /// Object modification process parameters, defaults spanning 1h..24h as
  /// reported by [22].
  double min_mean_update_interval = 3600.0;
  double max_mean_update_interval = 86400.0;
};

}  // namespace cdn::sim
