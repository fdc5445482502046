// Metric primitives of the observability layer.
//
// Five shapes cover everything the simulator, the placement engines, and
// the cache policies need to report:
//
//   Counter    monotonic event count (requests served, evictions, ...)
//   Gauge      last-written scalar (final hit ratio, replicas created, ...)
//   Histogram  fixed-boundary distribution + streaming moments (latency)
//   Series     append-only numeric time series (per-window hit ratio,
//              cost after each greedy iteration, ...)
//   Table      named columns x rows of doubles — structured iteration logs
//              (one row per committed replica with its benefit breakdown)
//
// plus TimerStat, the accumulation target of obs::ScopedTimer.  None of
// the types lock: a metric instance belongs to one thread.  A histogram
// and its streaming moments merge exactly (RunningStats-style parallel
// reduction), which is how a sharded run folds each shard's per-server
// latency histogram into the one registry after its merge.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/serial.h"
#include "src/util/stats.h"

namespace cdn::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written scalar.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-boundary histogram with exact streaming moments.
///
/// Ascending boundaries b_0 < ... < b_{K-1} define K+1 buckets:
/// (-inf, b_0], (b_0, b_1], ..., (b_{K-1}, +inf).  Bucket counts answer
/// "how many observations were <= b_i"; the embedded RunningStats keeps
/// exact mean / variance / min / max regardless of bucket resolution.
class Histogram {
 public:
  /// Boundaries must be strictly ascending and non-empty.
  explicit Histogram(std::vector<double> boundaries);

  void observe(double v) noexcept;

  /// Exact merge; both histograms must share identical boundaries.
  void merge(const Histogram& other);

  const std::vector<double>& boundaries() const noexcept {
    return boundaries_;
  }
  /// boundaries().size() + 1 entries; last bucket is the overflow.
  const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  std::uint64_t count() const noexcept { return moments_.count(); }
  const util::RunningStats& moments() const noexcept { return moments_; }

  /// Checkpointing.  Boundaries travel with the state so restore works on
  /// a histogram constructed with any (matching-length or not) boundaries.
  void save_state(util::ByteWriter& w) const {
    w.u64(boundaries_.size());
    for (double b : boundaries_) w.f64(b);
    for (std::uint64_t c : buckets_) w.u64(c);
    w.u64(moments_.count());
    w.f64(moments_.mean());
    w.f64(moments_.m2());
    w.f64(moments_.min());
    w.f64(moments_.max());
  }
  void restore_state(util::ByteReader& r) {
    const std::uint64_t k = r.u64();
    r.need(k * 16 + 8, "histogram buckets");
    boundaries_.clear();
    boundaries_.reserve(static_cast<std::size_t>(k));
    for (std::uint64_t i = 0; i < k; ++i) boundaries_.push_back(r.f64());
    buckets_.assign(static_cast<std::size_t>(k) + 1, 0);
    for (auto& c : buckets_) c = r.u64();
    const std::uint64_t n = r.u64();
    const double mean = r.f64();
    const double m2 = r.f64();
    const double mn = r.f64();
    const double mx = r.f64();
    moments_.restore(n, mean, m2, mn, mx);
  }

 private:
  std::vector<double> boundaries_;
  std::vector<std::uint64_t> buckets_;
  util::RunningStats moments_;
};

/// Append-only numeric time series.
class Series {
 public:
  void push(double v) { values_.push_back(v); }
  const std::vector<double>& values() const noexcept { return values_; }
  std::size_t size() const noexcept { return values_.size(); }
  double sum() const noexcept;

 private:
  std::vector<double> values_;
};

/// Structured numeric log: fixed columns, one row per event.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Row length must match the column count.
  void add_row(std::vector<double> row);

  const std::vector<std::string>& columns() const noexcept { return columns_; }
  const std::vector<std::vector<double>>& rows() const noexcept {
    return rows_;
  }
  std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

/// Accumulated wall-clock of one named code region (see obs::ScopedTimer).
class TimerStat {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    total_ns_ += ns;
    per_call_ms_.add(static_cast<double>(ns) * 1e-6);
  }

  std::uint64_t count() const noexcept { return per_call_ms_.count(); }
  std::uint64_t total_ns() const noexcept { return total_ns_; }
  double total_seconds() const noexcept {
    return static_cast<double>(total_ns_) * 1e-9;
  }
  /// Per-invocation latency moments in milliseconds.
  const util::RunningStats& per_call_ms() const noexcept {
    return per_call_ms_;
  }

 private:
  std::uint64_t total_ns_ = 0;
  util::RunningStats per_call_ms_;
};

/// Default latency-histogram boundaries (ms) matching the simulator's
/// 2 ms/hop model: first-hop hits land in the leftmost bucket, long
/// redirects in the tail.
std::vector<double> default_latency_bounds_ms();

}  // namespace cdn::obs
