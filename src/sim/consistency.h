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
// per-object history needs storing: the process is evaluated lazily, and
// last_modification() is a pure function of (object, time).

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/cache/cache_policy.h"
#include "src/cache/probe_table.h"
#include "src/util/error.h"
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
  /// assigned virtual timestamps by the caller).  Object ids are dense in
  /// [0, object_count), so the replay cursors are one flat array.
  ModificationProcess(double min_mean_interval, double max_mean_interval,
                      std::uint64_t seed, std::size_t object_count);

  /// Time of the last modification of `object` at or before `now`.
  /// O(expected number of updates in [0, now]) via per-object replay with
  /// a cached cursor — amortised O(1) for monotone `now` queries.
  double last_modification(workload::ObjectId object, double now);

  /// Mean inter-update interval of this object (deterministic per object).
  double mean_interval(workload::ObjectId object) const;

 private:
  struct Cursor {
    double last = -1.0;  // latest update time <= the last queried `now`;
                         // -1 until the cursor starts
    double next = 0.0;   // first update time > `last`
    util::Rng rng{0};
  };

  double min_mean_, max_mean_;
  std::uint64_t seed_;
  std::vector<Cursor> cursors_;  // by object id
};

/// Per-server record of when each cached object was fetched/validated.
/// Kept beside the cache policy (which stores no metadata), in an
/// open-addressed table of 32-bit object ids and fetch times.
class FreshnessTable {
 public:
  void on_fetch(workload::ObjectId object, double now) {
    fetched_.insert_or_assign(key(object), now);
  }
  /// Fetch time, or -infinity when unknown (treat as maximally stale).
  double fetch_time(workload::ObjectId object) const {
    return fetched_.find(key(object));
  }
  void erase(workload::ObjectId object) { fetched_.erase(key(object)); }
  std::size_t size() const noexcept { return fetched_.size(); }

  /// Drops the entries of objects `cache` no longer holds once the next
  /// new entry would grow the table, which then grows only if more than
  /// half of it is still taken.  Exact: an entry is read only on a cache
  /// hit, and the admission that makes an object resident again rewrites
  /// its entry first.
  void prune(const cache::CachePolicy& cache) {
    if (!fetched_.full()) return;
    fetched_.erase_if(
        [&](std::uint32_t object) { return !cache.contains(object); });
  }

 private:
  struct NeverFetched {
    static constexpr double value = -std::numeric_limits<double>::infinity();
  };

  static std::uint32_t key(workload::ObjectId object) {
    CDN_EXPECT(object <= std::numeric_limits<std::uint32_t>::max(),
               "freshness tables hold 32-bit object ids");
    return static_cast<std::uint32_t>(object);
  }

  cache::BasicProbeTable<std::uint32_t, double, NeverFetched> fetched_;
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
