#include "src/obs/metrics.h"

#include <algorithm>

#include "src/util/error.h"

namespace cdn::obs {

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(boundaries_.size() + 1, 0) {
  CDN_EXPECT(!boundaries_.empty(), "histogram needs at least one boundary");
  CDN_EXPECT(std::is_sorted(boundaries_.begin(), boundaries_.end()) &&
                 std::adjacent_find(boundaries_.begin(), boundaries_.end()) ==
                     boundaries_.end(),
             "histogram boundaries must be strictly ascending");
}

void Histogram::observe(double v) noexcept {
  // First boundary >= v: bucket i covers (b_{i-1}, b_i].
  const auto it = std::lower_bound(boundaries_.begin(), boundaries_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - boundaries_.begin())];
  moments_.add(v);
}

void Histogram::merge(const Histogram& other) {
  CDN_EXPECT(boundaries_ == other.boundaries_,
             "cannot merge histograms with different boundaries");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  moments_.merge(other.moments_);
}

double Series::sum() const noexcept {
  double acc = 0.0;
  for (const double v : values_) acc += v;
  return acc;
}

Table::Table(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  CDN_EXPECT(!columns_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<double> row) {
  CDN_EXPECT(row.size() == columns_.size(),
             "table row width must match the column count");
  rows_.push_back(std::move(row));
}

std::vector<double> default_latency_bounds_ms() {
  return {2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0, 30.0, 45.0, 65.0, 100.0};
}

}  // namespace cdn::obs
