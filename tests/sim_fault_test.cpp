// Fault-injection simulator tests: bit-identity of the healthy path,
// failover routing, availability accounting, cold restarts, and the
// degraded-mode metrics.

#include <gtest/gtest.h>

#include <cmath>

#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/placement_io.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using cdn::fault::FaultSchedule;
using cdn::placement::greedy_global;
using cdn::placement::hybrid_greedy;
using cdn::placement::pure_caching;
using cdn::sim::simulate;
using cdn::sim::SimulationConfig;
using cdn::sim::SimulationReport;
using cdn::test::TestSystem;

SimulationConfig quick_sim(std::uint64_t requests = 200'000) {
  SimulationConfig sc;
  sc.total_requests = requests;
  sc.warmup_fraction = 0.3;
  sc.seed = 17;
  return sc;
}

/// Every field two identically-configured runs must agree on.
void expect_identical(const SimulationReport& a, const SimulationReport& b) {
  EXPECT_EQ(a.measured_requests, b.measured_requests);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.mean_cost_hops, b.mean_cost_hops);
  EXPECT_EQ(a.local_ratio, b.local_ratio);
  EXPECT_EQ(a.cache_hit_ratio, b.cache_hit_ratio);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.failover_requests, b.failover_requests);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.cold_restarts, b.cold_restarts);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.slo_violation_fraction, b.slo_violation_fraction);
  ASSERT_EQ(a.latency_cdf.count(), b.latency_cdf.count());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.latency_cdf.quantile(q), b.latency_cdf.quantile(q));
  }
  EXPECT_EQ(a.cache_totals.hits(), b.cache_totals.hits());
  EXPECT_EQ(a.cache_totals.misses(), b.cache_totals.misses());
  EXPECT_EQ(a.cache_totals.admissions(), b.cache_totals.admissions());
  EXPECT_EQ(a.cache_totals.evictions(), b.cache_totals.evictions());
}

TEST(SimFaultTest, EmptyScheduleIsBitIdenticalToHealthyRun) {
  const auto t = TestSystem::make();
  const auto placement = hybrid_greedy(*t.system);

  const auto healthy = simulate(*t.system, placement, quick_sim());

  FaultSchedule empty;
  auto cfg = quick_sim();
  cfg.faults = &empty;  // non-null but empty must change NOTHING
  const auto with_empty = simulate(*t.system, placement, cfg);

  expect_identical(healthy, with_empty);
  EXPECT_EQ(with_empty.availability, 1.0);
  EXPECT_EQ(with_empty.failed_requests, 0u);
  EXPECT_EQ(with_empty.fault_transitions, 0u);
}

TEST(SimFaultTest, SameSeedAndScheduleIsDeterministic) {
  const auto t = TestSystem::make();
  const auto placement = hybrid_greedy(*t.system);
  FaultSchedule faults;
  faults.add_server_outage(1, 40'000, 120'000);
  faults.add_origin_outage(0, 60'000, 90'000);
  faults.add_link_degradation(2, 50'000, 150'000, 4.0);
  faults.add_demand_surge(7, 80'000, 160'000, 10.0);

  auto cfg = quick_sim();
  cfg.faults = &faults;
  cfg.slo_ms = 30.0;
  const auto a = simulate(*t.system, placement, cfg);
  const auto b = simulate(*t.system, placement, cfg);
  expect_identical(a, b);
  EXPECT_EQ(a.fault_transitions, b.fault_transitions);
}

TEST(SimFaultTest, OutageTriggersFailoverNotFailure) {
  // One server down for the whole measured window; the origins stay up,
  // so every request still completes — via failover, at a retry penalty.
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  FaultSchedule faults;
  faults.add_server_outage(0, 0, 200'000);

  auto cfg = quick_sim();
  cfg.faults = &faults;
  const auto report = simulate(*t.system, placement, cfg);

  EXPECT_GT(report.failover_requests, 0u);
  EXPECT_GE(report.retry_attempts, report.failover_requests);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.availability, 1.0);

  const auto healthy = simulate(*t.system, placement, quick_sim());
  EXPECT_GT(report.mean_latency_ms, healthy.mean_latency_ms);
}

TEST(SimFaultTest, AllCopiesDownMeansFailure) {
  // Pure caching: the origin is the only durable copy.  Server 0 AND every
  // origin down => server 0's requests cannot be served at all.
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  FaultSchedule faults;
  faults.add_server_outage(0, 100'000, 200'000);
  for (std::uint32_t j = 0; j < t.system->site_count(); ++j) {
    faults.add_origin_outage(j, 100'000, 200'000);
  }

  auto cfg = quick_sim();
  cfg.faults = &faults;
  const auto report = simulate(*t.system, placement, cfg);

  EXPECT_GT(report.failed_requests, 0u);
  EXPECT_LT(report.availability, 1.0);
  EXPECT_NEAR(report.availability,
              1.0 - static_cast<double>(report.failed_requests) /
                        static_cast<double>(report.measured_requests),
              1e-12);
  // Failed requests never land in the latency CDF.
  EXPECT_EQ(report.latency_cdf.count(),
            report.measured_requests - report.failed_requests);
}

TEST(SimFaultTest, ReplicasKeepServiceUpWhenOriginDies) {
  // Same outage, but with replicas: greedy-global keeps live copies on
  // the surviving servers, so far fewer requests are lost.
  const auto t = TestSystem::make();
  FaultSchedule faults;
  faults.add_server_outage(0, 100'000, 200'000);
  for (std::uint32_t j = 0; j < t.system->site_count(); ++j) {
    faults.add_origin_outage(j, 100'000, 200'000);
  }
  auto cfg = quick_sim();
  cfg.faults = &faults;

  const auto cach = simulate(*t.system, pure_caching(*t.system), cfg);
  const auto repl = simulate(*t.system, greedy_global(*t.system), cfg);
  EXPECT_GT(repl.availability, cach.availability);
}

TEST(SimFaultTest, NoRequestServedByDownServer) {
  const auto t = TestSystem::make();
  const auto placement = hybrid_greedy(*t.system);
  FaultSchedule faults;
  faults.add_server_outage(1, 30'000, 170'000);
  faults.add_server_outage(3, 90'000, 140'000);

  auto cfg = quick_sim();
  cfg.faults = &faults;
  cdn::obs::TraceSink sink(1.0);  // record EVERY request
  cfg.trace_sink = &sink;
  (void)simulate(*t.system, placement, cfg);

  ASSERT_GT(sink.recorded(), 0u);
  auto down = [&](std::uint64_t when, std::int32_t server) {
    for (const auto& o : faults.server_outages()) {
      if (static_cast<std::int32_t>(o.target) == server && when >= o.begin &&
          when < o.end) {
        return true;
      }
    }
    return false;
  };
  for (const auto& e : sink.events()) {
    if (e.served_by < 0) continue;  // primary (-1) or failed (-2)
    EXPECT_FALSE(down(e.t, e.served_by))
        << "request " << e.t << " served by down server " << e.served_by;
  }
}

TEST(SimFaultTest, RecoveryRestartsWithColdCache) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  FaultSchedule faults;
  faults.add_server_outage(2, 80'000, 100'000);
  faults.add_server_outage(2, 120'000, 140'000);

  auto cfg = quick_sim();
  cfg.warmup_fraction = 0.1;  // measure across both recoveries
  cfg.faults = &faults;
  const auto report = simulate(*t.system, placement, cfg);
  EXPECT_EQ(report.cold_restarts, 2u);

  // The cold restarts cost hits: the same stream with no faults hits more.
  auto healthy_cfg = quick_sim();
  healthy_cfg.warmup_fraction = 0.1;
  const auto healthy = simulate(*t.system, placement, healthy_cfg);
  EXPECT_LT(report.cache_hit_ratio, healthy.cache_hit_ratio);
}

TEST(SimFaultTest, SloViolationFractionTracksLatency) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);

  // Healthy run, SLO far above every latency: zero violations.
  auto cfg = quick_sim();
  cfg.slo_ms = 1e9;
  auto report = simulate(*t.system, placement, cfg);
  EXPECT_EQ(report.slo_violation_fraction, 0.0);

  // SLO below every latency: everything violates.
  cfg.slo_ms = 1e-9;
  report = simulate(*t.system, placement, cfg);
  EXPECT_EQ(report.slo_violation_fraction, 1.0);

  // Disabled by default.
  report = simulate(*t.system, placement, quick_sim());
  EXPECT_EQ(report.slo_violation_fraction, 0.0);
}

TEST(SimFaultTest, LinkDegradationStretchesRedirectLatency) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  FaultSchedule faults;
  // Slow every server's uplink 8x for the whole run; misses pay it.
  for (std::uint32_t s = 0; s < t.system->server_count(); ++s) {
    faults.add_link_degradation(s, 0, 200'000, 8.0);
  }
  auto cfg = quick_sim();
  cfg.faults = &faults;
  const auto degraded = simulate(*t.system, placement, cfg);
  const auto healthy = simulate(*t.system, placement, quick_sim());
  EXPECT_GT(degraded.mean_latency_ms, healthy.mean_latency_ms);
  EXPECT_EQ(degraded.failed_requests, 0u);
}

TEST(SimFaultTest, DemandSurgeShiftsTheRequestMix) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);
  const std::uint32_t hot = 0;  // a low-popularity site
  FaultSchedule faults;
  faults.add_demand_surge(hot, 0, 200'000, 50.0);

  auto count_site = [&](const SimulationConfig& cfg) {
    cdn::obs::TraceSink sink(1.0);
    auto c = cfg;
    c.trace_sink = &sink;
    (void)simulate(*t.system, placement, c);
    std::uint64_t n = 0;
    for (const auto& e : sink.events()) n += e.site == hot;
    return std::make_pair(n, sink.recorded());
  };

  auto cfg = quick_sim();
  cfg.faults = &faults;
  const auto [surged, surged_total] = count_site(cfg);
  const auto [base, base_total] = count_site(quick_sim());
  const double surged_share =
      static_cast<double>(surged) / static_cast<double>(surged_total);
  const double base_share =
      static_cast<double>(base) / static_cast<double>(base_total);
  EXPECT_GT(surged_share, 2.0 * base_share);
}

TEST(SimFaultTest, FaultMetricsLandInTheRegistry) {
  const auto t = TestSystem::make();
  const auto placement = hybrid_greedy(*t.system);
  FaultSchedule faults;
  faults.add_server_outage(0, 50'000, 150'000);

  auto cfg = quick_sim();
  cfg.faults = &faults;
  cfg.slo_ms = 30.0;
  cdn::obs::Registry registry;
  cfg.metrics = &registry;
  const auto report = simulate(*t.system, placement, cfg);

  EXPECT_EQ(registry.gauge("sim/availability").value(), report.availability);
  EXPECT_EQ(registry.counter("sim/fault/failover").value(),
            report.failover_requests);
  EXPECT_EQ(registry.counter("sim/fault/cold_restarts").value(),
            report.cold_restarts);
  EXPECT_EQ(registry.gauge("sim/slo_violation_fraction").value(),
            report.slo_violation_fraction);
}

TEST(SimFaultTest, SavedPlanReplaysAFaultRunIdentically) {
  // A plan that goes through placement_io comes back with a rebuilt
  // nearest-copy index, while the in-memory plan keeps the one the greedy
  // grew commit by commit.  Primaries 3 hops out on a 12-server line make
  // holder-holder and replica-origin ties common, and random server and
  // origin outages send requests to those tie cells' copies, so any
  // commit-order dependence in the index shows up in the fault run.
  const auto t = TestSystem::make(12, 8, 4, 100, 0.15, 3.0);
  const auto plan = hybrid_greedy(*t.system);
  const auto reloaded = cdn::placement::parse_placement_result(
      cdn::placement::serialize_placement(plan.placement), *t.system);
  cdn::fault::RandomFaultParams params;
  params.mtbf_requests = 40'000;
  params.mttr_requests = 10'000;
  params.seed = 7;
  params.origin_mtbf_scale = 1.0;
  const FaultSchedule faults = FaultSchedule::random(
      t.system->server_count(), t.system->site_count(), 200'000, params);
  auto sc = quick_sim();
  EXPECT_EQ(cdn::sim::report_digest(simulate(*t.system, plan, sc)),
            cdn::sim::report_digest(simulate(*t.system, reloaded, sc)));
  sc.faults = &faults;
  const SimulationReport a = simulate(*t.system, plan, sc);
  const SimulationReport b = simulate(*t.system, reloaded, sc);
  EXPECT_GT(a.failover_requests, 0u);
  EXPECT_GT(a.failed_requests, 0u);
  EXPECT_EQ(cdn::sim::report_digest(a), cdn::sim::report_digest(b));
  expect_identical(a, b);
}

// --- SimulationConfig::validate (satellite) ---

TEST(SimFaultTest, ValidateRejectsBadConfigs) {
  const auto t = TestSystem::make();
  const auto placement = pure_caching(*t.system);

  auto cfg = quick_sim();
  cfg.warmup_fraction = -0.1;
  EXPECT_THROW(simulate(*t.system, placement, cfg), cdn::PreconditionError);

  cfg = quick_sim();
  cfg.warmup_fraction = 1.0;
  EXPECT_THROW(simulate(*t.system, placement, cfg), cdn::PreconditionError);

  cfg = quick_sim();
  cfg.metrics_windows = 0;
  EXPECT_THROW(simulate(*t.system, placement, cfg), cdn::PreconditionError);

  cfg = quick_sim();
  cfg.total_requests = 0;
  EXPECT_THROW(simulate(*t.system, placement, cfg), cdn::PreconditionError);

  cfg = quick_sim();
  cfg.slo_ms = -1.0;
  EXPECT_THROW(simulate(*t.system, placement, cfg), cdn::PreconditionError);

  cfg = quick_sim();
  cfg.latency.retry_timeout_ms = -5.0;
  EXPECT_THROW(simulate(*t.system, placement, cfg), cdn::PreconditionError);

  // A recorded trace must be non-empty.
  cfg = quick_sim();
  cdn::workload::RecordedTrace empty_trace;
  cfg.trace = &empty_trace;
  EXPECT_THROW(simulate(*t.system, placement, cfg), cdn::PreconditionError);
}

}  // namespace
