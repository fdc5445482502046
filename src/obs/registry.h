// The metric registry: named metrics + JSON snapshot export.
//
// A Registry is the single handle instrumented code receives (always as a
// nullable pointer: `obs::Registry* metrics`).  The contract that keeps the
// hot paths free:
//
//   * a null registry disables everything — instrumented code guards its
//     entire metric block behind one `if (metrics)` pointer check;
//   * metric lookup (`counter("x")`) is a map access and may allocate, so
//     callers resolve their metrics ONCE before a loop and keep pointers;
//   * recording on a resolved metric is a few arithmetic ops, no locks.
//
// The registry is not thread-safe.  A sharded simulation keeps its
// per-shard tallies in its own accumulators and writes them into the one
// registry after the shards have merged, on the calling thread.
//
// Naming convention: '/'-separated paths, subsystem first —
// "sim/window/hit_ratio", "placement/hybrid/iterations",
// "cache/evictions".  The JSON snapshot groups metrics by kind and sorts
// by name, so snapshots diff cleanly across runs.

#pragma once

#include <map>
#include <string>

#include "src/obs/metrics.h"

namespace cdn::obs {

struct RunManifest;

/// Natural metric-name ordering: digit runs compare numerically, so
/// "server/2/..." sorts before "server/10/...".  Equal-valued runs with
/// different zero padding fall back to plain lexicographic order, keeping
/// the ordering strict and deterministic across platforms.
bool natural_metric_name_less(const std::string& a,
                              const std::string& b) noexcept;

/// Comparator form of natural_metric_name_less for ordered containers.
struct MetricNameLess {
  bool operator()(const std::string& a, const std::string& b) const noexcept {
    return natural_metric_name_less(a, b);
  }
};

class Registry {
 public:
  /// Finds or creates the named metric.  References stay valid for the
  /// registry's lifetime (node-based storage).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `boundaries` is used on first creation only; a later call with
  /// different boundaries throws.
  Histogram& histogram(const std::string& name,
                       std::vector<double> boundaries);
  Series& series(const std::string& name);
  /// `columns` is used on first creation only; a later call with different
  /// columns throws.
  Table& table(const std::string& name, std::vector<std::string> columns);
  TimerStat& timer(const std::string& name);

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;
  const Series* find_series(const std::string& name) const;
  const Table* find_table(const std::string& name) const;
  const TimerStat* find_timer(const std::string& name) const;

  std::size_t metric_count() const noexcept;

  /// Serialises every metric into one JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{...},
  ///    "series":{...},"tables":{...},"timers":{...}}
  /// Histograms carry boundaries, bucket counts and moments; tables carry
  /// their column names and rows.  When `manifest` is non-null the run
  /// provenance is embedded first under a "manifest" key.
  std::string to_json(const RunManifest* manifest = nullptr) const;

 private:
  // Ordered map: deterministic export order (natural-numeric, so snapshots
  // diff cleanly across runs and platforms) + stable references.
  template <typename T>
  using MetricMap = std::map<std::string, T, MetricNameLess>;
  MetricMap<Counter> counters_;
  MetricMap<Gauge> gauges_;
  MetricMap<Histogram> histograms_;
  MetricMap<Series> series_;
  MetricMap<Table> tables_;
  MetricMap<TimerStat> timers_;
};

/// Writes `registry.to_json(manifest)` to `path` (truncating).  Throws on
/// I/O error.
void write_json_file(const Registry& registry, const std::string& path,
                     const RunManifest* manifest = nullptr);

}  // namespace cdn::obs
