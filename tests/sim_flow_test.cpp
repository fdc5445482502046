// Tests of the flow-level analytical engine: agreement with the event
// engine, determinism, the validate() rejections of per-request features,
// the flow-split gauges, and the SLO accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/fixed_split.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "src/workload/request_stream.h"
#include "src/workload/trace_io.h"
#include "tests/test_support.h"

namespace {

using cdn::placement::hybrid_greedy;
using cdn::placement::pure_caching;
using cdn::sim::HitModel;
using cdn::sim::report_digest;
using cdn::sim::SimEngine;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::sim::StalenessMode;
using cdn::test::TestSystem;

SimulationConfig flow_config() {
  SimulationConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.total_requests = 1'000'000;
  cfg.seed = 17;
  return cfg;
}

TEST(FlowEngineTest, WholeRunIsMeasuredOnOneShard) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  const auto report = simulate(*t.system, placement, flow_config());
  EXPECT_EQ(report.total_requests, 1'000'000u);
  EXPECT_EQ(report.measured_requests, 1'000'000u);
  EXPECT_EQ(report.shards_used, 1u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_DOUBLE_EQ(report.availability, 1.0);
}

TEST(FlowEngineTest, AgreesWithTheEventEngine) {
  const auto t = TestSystem::make();
  const auto placement = hybrid_greedy(*t.system);

  SimulationConfig event_cfg;
  event_cfg.total_requests = 2'000'000;
  event_cfg.warmup_fraction = 0.3;
  event_cfg.seed = 17;
  const auto event = simulate(*t.system, placement, event_cfg);

  const auto flow = simulate(*t.system, placement, flow_config());

  // The flow engine is a model, not a replay: allow the model-vs-simulation
  // gap (the Figure 6 experiments land within ~10%).
  EXPECT_NEAR(flow.local_ratio, event.local_ratio, 0.08);
  EXPECT_NEAR(flow.cache_hit_ratio, event.cache_hit_ratio, 0.10);
  EXPECT_NEAR(flow.mean_cost_hops / event.mean_cost_hops, 1.0, 0.15);
  EXPECT_NEAR(flow.mean_latency_ms / event.mean_latency_ms, 1.0, 0.15);
}

TEST(FlowEngineTest, DeterministicAcrossRuns) {
  const auto t = TestSystem::make();
  const auto placement = hybrid_greedy(*t.system);
  for (const auto model :
       {HitModel::kEmpirical, HitModel::kClosedForm, HitModel::kChe}) {
    auto cfg = flow_config();
    cfg.hit_model = model;
    const auto a = simulate(*t.system, placement, cfg);
    const auto b = simulate(*t.system, placement, cfg);
    EXPECT_EQ(report_digest(a), report_digest(b))
        << "hit model " << static_cast<int>(model);
  }
}

TEST(FlowEngineTest, ModelTiersStayCloseToEmpirical) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  auto cfg = flow_config();
  const auto empirical = simulate(*t.system, placement, cfg);
  for (const auto model : {HitModel::kClosedForm, HitModel::kChe}) {
    cfg.hit_model = model;
    const auto tiered = simulate(*t.system, placement, cfg);
    EXPECT_GE(tiered.cache_hit_ratio, 0.0);
    EXPECT_LE(tiered.cache_hit_ratio, 1.0);
    EXPECT_GE(tiered.local_ratio, 0.0);
    EXPECT_LE(tiered.local_ratio, 1.0);
    // All three tiers approximate the same steady state.
    EXPECT_NEAR(tiered.local_ratio, empirical.local_ratio, 0.15)
        << "hit model " << static_cast<int>(model);
  }
}

TEST(FlowEngineTest, SloFractionComplementsTheLocalRatio) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  auto cfg = flow_config();
  // Every redirected request pays at least one extra hop, so an SLO just
  // above the first-hop latency is violated by exactly the non-local mass.
  cfg.slo_ms = cfg.latency.latency_ms(0.0) + 1e-6;
  const auto report = simulate(*t.system, placement, cfg);
  EXPECT_GT(report.slo_violation_fraction, 0.0);
  EXPECT_NEAR(report.slo_violation_fraction, 1.0 - report.local_ratio, 1e-9);
}

TEST(FlowEngineTest, PublishesFlowSplitGauges) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  cdn::obs::Registry metrics;
  auto cfg = flow_config();
  cfg.metrics = &metrics;
  (void)simulate(*t.system, placement, cfg);

  const auto gauge = [&](const char* name) {
    const auto* g = metrics.find_gauge(std::string("sim/") + name);
    EXPECT_NE(g, nullptr) << name;
    return g != nullptr ? g->value() : -1.0;
  };
  const double replica = gauge("flow/local_replica_share");
  const double hit = gauge("flow/cache_hit_share");
  const double origin = gauge("flow/origin_share");
  const double redirect = gauge("flow/replica_redirect_share");
  // The four ways a request can be served partition the flow mass.
  EXPECT_NEAR(replica + hit + origin + redirect, 1.0, 1e-9);
  // pure_caching replicates nothing and the catalogue is fully cacheable.
  EXPECT_DOUBLE_EQ(replica, 0.0);
  EXPECT_DOUBLE_EQ(gauge("flow/uncacheable_share"), 0.0);
  EXPECT_GT(gauge("flow/cells"), 0.0);
  EXPECT_NE(metrics.find_gauge("sim/flow/hit_model"), nullptr);
}

TEST(FlowEngineTest, ClampCounterIsPublishedForModelTiers) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  cdn::obs::Registry metrics;
  auto cfg = flow_config();
  cfg.hit_model = HitModel::kClosedForm;
  cfg.metrics = &metrics;
  (void)simulate(*t.system, placement, cfg);
  EXPECT_NE(metrics.find_counter("sim/model/curve_clamped"), nullptr);
}

TEST(FlowEngineTest, UncacheableFractionShiftsMassToRedirects) {
  auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  // The empirical tier reuses the placement's hit matrix, so the lambda
  // change must flow through a recomputing tier.
  auto cfg = flow_config();
  cfg.hit_model = HitModel::kClosedForm;
  const auto clean = simulate(*t.system, placement, cfg);
  t.catalog->set_uncacheable_fraction(0.2);
  const auto flagged = simulate(*t.system, placement, cfg);
  t.catalog->set_uncacheable_fraction(0.0);
  EXPECT_LT(flagged.local_ratio, clean.local_ratio);
  EXPECT_GT(flagged.mean_cost_hops, clean.mean_cost_hops);
}

TEST(FlowEngineTest, RejectsPerRequestFeatures) {
  const auto t = TestSystem::make();

  {
    auto cfg = flow_config();
    cdn::workload::RequestStream stream(*t.catalog, *t.demand, 17);
    const auto trace = cdn::workload::RecordedTrace::record(stream, 100);
    cfg.trace = &trace;
    EXPECT_THROW(cfg.validate(), cdn::PreconditionError);
  }
  {
    auto cfg = flow_config();
    cdn::fault::FaultSchedule faults;
    faults.add_server_outage(0, 1'000, 2'000);
    cfg.faults = &faults;
    EXPECT_THROW(cfg.validate(), cdn::PreconditionError);
    // An attached-but-empty schedule is fine (matches the event engine's
    // "empty == healthy" contract).
    cdn::fault::FaultSchedule empty;
    cfg.faults = &empty;
    EXPECT_NO_THROW(cfg.validate());
  }
  {
    auto cfg = flow_config();
    cdn::obs::TraceSink sink(1.0);
    cfg.trace_sink = &sink;
    EXPECT_THROW(cfg.validate(), cdn::PreconditionError);
  }
  {
    auto cfg = flow_config();
    cfg.checkpoint_path = "flow.ckpt";
    cfg.checkpoint_every_requests = 1'000;
    EXPECT_THROW(cfg.validate(), cdn::PreconditionError);
  }
  {
    auto cfg = flow_config();
    const std::atomic<bool> stop{false};
    cfg.checkpoint_path = "flow.ckpt";
    cfg.stop = &stop;
    EXPECT_THROW(cfg.validate(), cdn::PreconditionError);
  }
  {
    auto cfg = flow_config();
    cfg.resume_path = "flow.ckpt";
    EXPECT_THROW(cfg.validate(), cdn::PreconditionError);
  }
}

}  // namespace
