#include "src/obs/registry.h"

#include "src/obs/json_writer.h"
#include "src/obs/run_manifest.h"
#include "src/util/error.h"
#include "src/util/serial.h"

namespace cdn::obs {

bool natural_metric_name_less(const std::string& a,
                              const std::string& b) noexcept {
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (is_digit(a[i]) && is_digit(b[j])) {
      // Compare the two digit runs numerically: strip leading zeros, then
      // a longer run is larger, then lexicographic on equal lengths.
      std::size_t ea = i;
      std::size_t eb = j;
      while (ea < a.size() && is_digit(a[ea])) ++ea;
      while (eb < b.size() && is_digit(b[eb])) ++eb;
      std::size_t sa = i;
      std::size_t sb = j;
      while (sa + 1 < ea && a[sa] == '0') ++sa;
      while (sb + 1 < eb && b[sb] == '0') ++sb;
      const std::size_t la = ea - sa;
      const std::size_t lb = eb - sb;
      if (la != lb) return la < lb;
      for (std::size_t k = 0; k < la; ++k) {
        if (a[sa + k] != b[sb + k]) return a[sa + k] < b[sb + k];
      }
      i = ea;
      j = eb;
      continue;
    }
    if (a[i] != b[j]) return a[i] < b[j];
    ++i;
    ++j;
  }
  const bool a_done = i >= a.size();
  const bool b_done = j >= b.size();
  if (a_done != b_done) return a_done;  // the exhausted prefix sorts first
  // Token-equal strings (e.g. "x01" vs "x1"): plain lexicographic
  // tie-break keeps the ordering strict.
  return a < b;
}

Counter& Registry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> boundaries) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    CDN_EXPECT(it->second.boundaries() == boundaries,
               "histogram re-registered with different boundaries: " + name);
    return it->second;
  }
  return histograms_.emplace(name, Histogram(std::move(boundaries)))
      .first->second;
}

Series& Registry::series(const std::string& name) { return series_[name]; }

Table& Registry::table(const std::string& name,
                       std::vector<std::string> columns) {
  const auto it = tables_.find(name);
  if (it != tables_.end()) {
    CDN_EXPECT(it->second.columns() == columns,
               "table re-registered with different columns: " + name);
    return it->second;
  }
  return tables_.emplace(name, Table(std::move(columns))).first->second;
}

TimerStat& Registry::timer(const std::string& name) { return timers_[name]; }

const Counter* Registry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const Series* Registry::find_series(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

const Table* Registry::find_table(const std::string& name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const TimerStat* Registry::find_timer(const std::string& name) const {
  const auto it = timers_.find(name);
  return it == timers_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (const auto& [name, g] : other.gauges_) gauges_[name].set(g.value());
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
  for (const auto& [name, s] : other.series_) series_[name].merge(s);
  for (const auto& [name, t] : other.tables_) {
    const auto it = tables_.find(name);
    if (it == tables_.end()) {
      tables_.emplace(name, t);
    } else {
      it->second.merge(t);
    }
  }
  for (const auto& [name, t] : other.timers_) timers_[name].merge(t);
}

std::size_t Registry::metric_count() const noexcept {
  return counters_.size() + gauges_.size() + histograms_.size() +
         series_.size() + tables_.size() + timers_.size();
}

namespace {

void write_moments(JsonWriter& w, const util::RunningStats& m) {
  w.begin_object();
  w.key("count");
  w.value(m.count());
  w.key("mean");
  w.value(m.mean());
  w.key("stddev");
  w.value(m.stddev());
  w.key("min");
  w.value(m.min());
  w.key("max");
  w.value(m.max());
  w.end_object();
}

}  // namespace

std::string Registry::to_json(const RunManifest* manifest) const {
  JsonWriter w;
  w.begin_object();

  if (manifest != nullptr) {
    w.key("manifest");
    manifest->write_value(w);
  }

  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name);
    w.value(c.value());
  }
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name);
    w.value(g.value());
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.key("boundaries");
    w.begin_array();
    for (const double b : h.boundaries()) w.value(b);
    w.end_array();
    w.key("buckets");
    w.begin_array();
    for (const std::uint64_t c : h.buckets()) w.value(c);
    w.end_array();
    w.key("moments");
    write_moments(w, h.moments());
    w.end_object();
  }
  w.end_object();

  w.key("series");
  w.begin_object();
  for (const auto& [name, s] : series_) {
    w.key(name);
    w.begin_array();
    for (const double v : s.values()) w.value(v);
    w.end_array();
  }
  w.end_object();

  w.key("tables");
  w.begin_object();
  for (const auto& [name, t] : tables_) {
    w.key(name);
    w.begin_object();
    w.key("columns");
    w.begin_array();
    for (const auto& c : t.columns()) w.value(c);
    w.end_array();
    w.key("rows");
    w.begin_array();
    for (const auto& row : t.rows()) {
      w.begin_array();
      for (const double v : row) w.value(v);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("timers");
  w.begin_object();
  for (const auto& [name, t] : timers_) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(t.count());
    w.key("total_seconds");
    w.value(t.total_seconds());
    w.key("per_call_ms");
    write_moments(w, t.per_call_ms());
    w.end_object();
  }
  w.end_object();

  w.end_object();
  return w.str();
}

void write_json_file(const Registry& registry, const std::string& path,
                     const RunManifest* manifest) {
  util::write_file(path, registry.to_json(manifest) + '\n',
                   "metrics output file");
}

}  // namespace cdn::obs
