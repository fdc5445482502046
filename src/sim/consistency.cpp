#include "src/sim/consistency.h"

#include <cmath>

#include "src/util/error.h"

namespace cdn::sim {

ModificationProcess::ModificationProcess(double min_mean_interval,
                                         double max_mean_interval,
                                         std::uint64_t seed,
                                         std::size_t object_count)
    : min_mean_(min_mean_interval),
      max_mean_(max_mean_interval),
      seed_(seed),
      cursors_(object_count) {
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
  CDN_EXPECT(object < cursors_.size(),
             "object id outside the modification process's catalogue");
  Cursor& cur = cursors_[object];
  if (cur.last < 0.0 || now < cur.last) {
    // First query, or a non-monotone one (rare; tests only): start the
    // replay from time 0, where every object is "born".
    cur.rng = util::Rng(seed_ ^ (object * 0xbf58476d1ce4e5b9ULL));
    cur.last = 0.0;
    cur.next = -mean_interval(object) * std::log(1.0 - cur.rng.uniform());
  }
  if (cur.next <= now) {
    const double mean = mean_interval(object);
    do {
      cur.last = cur.next;
      cur.next += -mean * std::log(1.0 - cur.rng.uniform());
    } while (cur.next <= now);
  }
  return cur.last;
}

}  // namespace cdn::sim
