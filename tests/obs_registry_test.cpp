// Unit tests for the observability metric primitives and registry.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/registry.h"
#include "src/util/error.h"

namespace {

using cdn::obs::Histogram;
using cdn::obs::Registry;
using cdn::obs::write_json_file;

TEST(CounterTest, AddsAndMerges) {
  Registry r;
  r.counter("a").add();
  r.counter("a").add(4);
  EXPECT_EQ(r.counter("a").value(), 5u);
  r.counter("a").reset();
  EXPECT_EQ(r.counter("a").value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Registry r;
  r.gauge("g").set(1.5);
  r.gauge("g").set(-2.5);
  EXPECT_DOUBLE_EQ(r.gauge("g").value(), -2.5);
}

TEST(HistogramTest, BucketsAreRightClosed) {
  // Boundaries {1, 2} => buckets (-inf,1], (1,2], (2,inf).
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(1.0);  // boundary: belongs to the first bucket
  h.observe(1.5);
  h.observe(2.0);  // boundary: second bucket
  h.observe(99.0);
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.moments().min(), 0.5);
  EXPECT_DOUBLE_EQ(h.moments().max(), 99.0);
}

TEST(HistogramTest, RejectsBadBoundaries) {
  EXPECT_THROW(Histogram({}), cdn::PreconditionError);
  EXPECT_THROW(Histogram({1.0, 1.0}), cdn::PreconditionError);
  EXPECT_THROW(Histogram({2.0, 1.0}), cdn::PreconditionError);
}

TEST(HistogramTest, MergeIsExact) {
  Histogram a({10.0, 20.0});
  Histogram b({10.0, 20.0});
  a.observe(5.0);
  b.observe(15.0);
  b.observe(25.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 1u);
  EXPECT_DOUBLE_EQ(a.moments().mean(), 15.0);

  Histogram mismatched({1.0});
  EXPECT_THROW(a.merge(mismatched), cdn::PreconditionError);
}

TEST(RegistryTest, HistogramReregistrationChecksBoundaries) {
  Registry r;
  r.histogram("h", {1.0, 2.0}).observe(0.5);
  // Same boundaries: same instance.
  EXPECT_EQ(r.histogram("h", {1.0, 2.0}).count(), 1u);
  EXPECT_THROW(r.histogram("h", {3.0}), cdn::PreconditionError);
}

TEST(SeriesTest, AppendsAndConcatenatesOnMerge) {
  Registry r;
  r.series("s").push(1.0);
  r.series("s").push(2.0);
  EXPECT_DOUBLE_EQ(r.series("s").sum(), 3.0);
  ASSERT_EQ(r.series("s").size(), 2u);
  EXPECT_DOUBLE_EQ(r.series("s").values().back(), 2.0);
}

TEST(TableTest, ValidatesRowWidthAndMergeColumns) {
  Registry r;
  auto& t = r.table("t", {"x", "y"});
  t.add_row({1.0, 2.0});
  EXPECT_THROW(t.add_row({1.0}), cdn::PreconditionError);
  EXPECT_THROW(r.table("t", {"x"}), cdn::PreconditionError);
  ASSERT_EQ(r.table("t", {"x", "y"}).row_count(), 1u);
}

TEST(TimerStatTest, AccumulatesAndMerges) {
  Registry r;
  auto& t = r.timer("t");
  t.record_ns(1'000'000);  // 1 ms
  t.record_ns(3'000'000);  // 3 ms
  EXPECT_EQ(t.count(), 2u);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 0.004);
  EXPECT_DOUBLE_EQ(t.per_call_ms().mean(), 2.0);
}

TEST(RegistryTest, FindDoesNotCreate) {
  Registry r;
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  EXPECT_EQ(r.find_gauge("missing"), nullptr);
  EXPECT_EQ(r.find_histogram("missing"), nullptr);
  EXPECT_EQ(r.find_series("missing"), nullptr);
  EXPECT_EQ(r.find_table("missing"), nullptr);
  EXPECT_EQ(r.find_timer("missing"), nullptr);
  EXPECT_EQ(r.metric_count(), 0u);
  r.counter("c");
  r.gauge("g");
  EXPECT_EQ(r.metric_count(), 2u);
  EXPECT_NE(r.find_counter("c"), nullptr);
}

TEST(RegistryTest, JsonSnapshotContainsEveryKind) {
  Registry r;
  r.counter("req/total").add(42);
  r.gauge("hit_ratio").set(0.25);
  r.histogram("lat", {1.0, 2.0}).observe(1.5);
  r.series("cost").push(3.5);
  r.table("iter", {"i", "benefit"}).add_row({0.0, 12.5});
  r.timer("run").record_ns(2'000'000);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"req/total\":42"), std::string::npos);
  EXPECT_NE(json.find("\"hit_ratio\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"boundaries\":[1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"cost\":[3.5]"), std::string::npos);
  EXPECT_NE(json.find("\"columns\":[\"i\",\"benefit\"]"), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
}

TEST(RegistryTest, WriteJsonFileRoundTrips) {
  Registry r;
  r.counter("c").add(7);
  const std::string path = ::testing::TempDir() + "obs_registry_test.json";
  write_json_file(r, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), r.to_json() + "\n");
  std::remove(path.c_str());
}

}  // namespace
