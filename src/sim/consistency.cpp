#include "src/sim/consistency.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.h"

namespace cdn::sim {

ModificationProcess::ModificationProcess(double min_mean_interval,
                                         double max_mean_interval,
                                         std::uint64_t seed)
    : min_mean_(min_mean_interval), max_mean_(max_mean_interval), seed_(seed) {
  CDN_EXPECT(min_mean_interval > 0.0 &&
                 min_mean_interval <= max_mean_interval,
             "update intervals must satisfy 0 < min <= max");
}

double ModificationProcess::mean_interval(workload::ObjectId object) const {
  // Uniform in log space over [min, max], deterministic per object.
  std::uint64_t h = seed_ ^ (object * 0x9e3779b97f4a7c15ULL);
  const double u = static_cast<double>(util::splitmix64(h) >> 11) * 0x1.0p-53;
  return min_mean_ * std::exp(u * std::log(max_mean_ / min_mean_));
}

double ModificationProcess::last_modification(workload::ObjectId object,
                                              double now) {
  Cursor& cur = cursors_[object];
  if (!cur.initialised) {
    cur.rng = util::Rng(seed_ ^ (object * 0xbf58476d1ce4e5b9ULL));
    cur.last = 0.0;  // every object "born" at time 0
    cur.mean = mean_interval(object);
    cur.next = -cur.mean * std::log(1.0 - cur.rng.uniform());
    cur.initialised = true;
  }
  if (now < cur.last) {
    // Non-monotone query: restart the replay (rare; tests only).
    cursors_.erase(object);
    return last_modification(object, now);
  }
  while (cur.next <= now) {
    cur.last = cur.next;
    cur.next += -cur.mean * std::log(1.0 - cur.rng.uniform());
  }
  return cur.last;
}

double FreshnessTable::fetch_time(workload::ObjectId object) const {
  const auto it = fetched_.find(object);
  return it == fetched_.end()
             ? -std::numeric_limits<double>::infinity()
             : it->second;
}

void FreshnessTable::prune(const cache::CachePolicy& cache) {
  if (fetched_.size() <= std::max(2 * cache.object_count(), kPruneFloor)) {
    return;
  }
  std::erase_if(fetched_, [&](const auto& entry) {
    return !cache.contains(entry.first);
  });
}

}  // namespace cdn::sim
