// Schema-versioned bench artifacts (BENCH_*.json) with embedded run
// provenance — the file format the CI regression gate consumes (see
// docs/PERFORMANCE.md and scripts/check_bench_regression.py).
//
// Layout (schema_version 1):
//
//   {
//     "schema_version": 1,
//     "bench": "throughput",
//     "metrics": {
//       "seq_requests_per_sec": {
//         "value": 3.1e6, "unit": "req/s",
//         "higher_is_better": true, "threshold_pct": 65.0
//       }, ...
//     },
//     "manifest": { ...obs::RunManifest... }
//   }
//
// `threshold_pct` is the allowed regression (percent, in the bad direction
// given `higher_is_better`) before the gate fails; 0 demands an exact match
// in BOTH directions — use it for deterministic counts, where any drift
// means the algorithms changed, not the machine.

#pragma once

#include <map>
#include <string>
#include <utility>

#include "src/obs/json_writer.h"
#include "src/obs/run_manifest.h"
#include "src/util/serial.h"

namespace cdn::bench {

struct BenchMetric {
  double value = 0.0;
  std::string unit;
  bool higher_is_better = false;
  /// Allowed regression in percent; 0 = exact match required.
  double threshold_pct = 5.0;
};

class BenchArtifact {
 public:
  static constexpr std::uint64_t kSchemaVersion = 1;

  explicit BenchArtifact(std::string bench_name)
      : name_(std::move(bench_name)) {}

  void set(const std::string& metric, double value, const std::string& unit,
           bool higher_is_better, double threshold_pct) {
    metrics_[metric] = {value, unit, higher_is_better, threshold_pct};
  }

  /// Renders the artifact; finalizes `manifest` (wall/cpu/RSS) first so the
  /// embedded provenance covers the whole bench run.
  std::string to_json(obs::RunManifest& manifest) const {
    manifest.finalize();
    obs::JsonWriter w;
    w.begin_object();
    w.key("schema_version");
    w.value(kSchemaVersion);
    w.key("bench");
    w.value(name_);
    w.key("metrics");
    w.begin_object();
    for (const auto& entry : metrics_) {
      w.key(entry.first);
      w.begin_object();
      w.key("value");
      w.value(entry.second.value);
      w.key("unit");
      w.value(entry.second.unit);
      w.key("higher_is_better");
      w.value(entry.second.higher_is_better);
      w.key("threshold_pct");
      w.value(entry.second.threshold_pct);
      w.end_object();
    }
    w.end_object();
    w.key("manifest");
    manifest.write_value(w);
    w.end_object();
    return w.str();
  }

  void write_json_file(const std::string& path,
                       obs::RunManifest& manifest) const {
    util::write_file(path, to_json(manifest) + '\n', "bench artifact file");
  }

 private:
  std::string name_;
  std::map<std::string, BenchMetric> metrics_;
};

}  // namespace cdn::bench
