// Unit tests for adaptive hybrid replanning under demand drift.

#include <gtest/gtest.h>

#include <vector>

#include "src/placement/adaptive.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::test::TestSystem;

/// New system with site `hot` scaled by `factor`, sharing t's components.
workload::DemandMatrix spike_demand(const TestSystem& t, workload::SiteId hot,
                                    double factor) {
  std::vector<double> values;
  const auto& demand = *t.demand;
  values.reserve(demand.server_count() * demand.site_count());
  for (std::size_t i = 0; i < demand.server_count(); ++i) {
    const auto row = demand.row(static_cast<workload::ServerId>(i));
    for (std::size_t j = 0; j < row.size(); ++j) {
      values.push_back(j == hot ? row[j] * factor : row[j]);
    }
  }
  return workload::DemandMatrix::from_values(demand.server_count(),
                                             demand.site_count(), values);
}

TEST(AdaptiveTest, NoDriftKeepsEverything) {
  const auto t = TestSystem::make();
  const auto previous = placement::hybrid_greedy(*t.system);
  const auto outcome =
      placement::adaptive_hybrid_replan(*t.system, previous, {});
  EXPECT_EQ(outcome.replicas_dropped, 0u);
  // Replanning on identical demand cannot do worse than the original.
  EXPECT_LE(outcome.result.predicted_total_cost,
            previous.predicted_total_cost * 1.001);
}

TEST(AdaptiveTest, SpikeTriggersNewReplicas) {
  const auto t = TestSystem::make();
  const auto previous = placement::hybrid_greedy(*t.system);
  const workload::SiteId hot = 0;  // a low-popularity site goes viral
  const auto spiked = spike_demand(t, hot, 80.0);
  const sys::CdnSystem new_system(*t.catalog, spiked, *t.distances, 0.15);

  const auto outcome =
      placement::adaptive_hybrid_replan(new_system, previous, {});
  EXPECT_GT(outcome.replicas_added, 0u);
  // The viral site must gain at least one replica somewhere.
  std::size_t viral_replicas = 0;
  for (std::size_t i = 0; i < new_system.server_count(); ++i) {
    viral_replicas += outcome.result.placement.is_replicated(
        static_cast<sys::ServerIndex>(i), hot);
  }
  EXPECT_GT(viral_replicas,
            previous.placement.replicas_of_site(hot));
}

TEST(AdaptiveTest, ReplanBeatsStalePlacement) {
  const auto t = TestSystem::make();
  const auto previous = placement::hybrid_greedy(*t.system);
  const auto spiked = spike_demand(t, 0, 80.0);
  const sys::CdnSystem new_system(*t.catalog, spiked, *t.distances, 0.15);
  const auto outcome =
      placement::adaptive_hybrid_replan(new_system, previous, {});

  sim::SimulationConfig cfg;
  cfg.total_requests = 600'000;
  cfg.seed = 31;
  const auto stale = sim::simulate(new_system, previous, cfg);
  const auto replanned = sim::simulate(new_system, outcome.result, cfg);
  EXPECT_LT(replanned.mean_latency_ms, stale.mean_latency_ms);
}

TEST(AdaptiveTest, TransferCostSuppressesMarginalMoves) {
  const auto t = TestSystem::make();
  const auto previous = placement::hybrid_greedy(*t.system);
  const auto spiked = spike_demand(t, 0, 80.0);
  const sys::CdnSystem new_system(*t.catalog, spiked, *t.distances, 0.15);

  const auto free =
      placement::adaptive_hybrid_replan(new_system, previous, {});
  placement::AdaptiveOptions expensive;
  expensive.transfer_cost_per_byte = 1.0;  // prohibitive
  const auto constrained =
      placement::adaptive_hybrid_replan(new_system, previous, expensive);
  EXPECT_LE(constrained.replicas_added, free.replicas_added);
  EXPECT_LE(constrained.bytes_transferred, free.bytes_transferred);
}

TEST(AdaptiveTest, CollapsedDemandDropsReplicas) {
  const auto t = TestSystem::make();
  const auto previous = placement::hybrid_greedy(*t.system);
  ASSERT_GT(previous.replicas_created, 0u);
  // Find a site that actually got replicas, then kill its demand.
  workload::SiteId victim = 0;
  for (std::size_t j = 0; j < t.system->site_count(); ++j) {
    if (previous.placement.replicas_of_site(
            static_cast<sys::SiteIndex>(j)) > 0) {
      victim = static_cast<workload::SiteId>(j);
      break;
    }
  }
  const auto collapsed = spike_demand(t, victim, 1e-6);
  const sys::CdnSystem new_system(*t.catalog, collapsed, *t.distances, 0.15);
  const auto outcome =
      placement::adaptive_hybrid_replan(new_system, previous, {});
  EXPECT_GT(outcome.replicas_dropped, 0u);
  EXPECT_EQ(outcome.result.placement.replicas_of_site(victim), 0u);
}

TEST(AdaptiveTest, AccountingIsConsistent) {
  const auto t = TestSystem::make();
  const auto previous = placement::hybrid_greedy(*t.system);
  const auto spiked = spike_demand(t, 1, 40.0);
  const sys::CdnSystem new_system(*t.catalog, spiked, *t.distances, 0.15);
  const auto outcome =
      placement::adaptive_hybrid_replan(new_system, previous, {});
  EXPECT_EQ(outcome.replicas_kept + outcome.replicas_dropped,
            previous.placement.replica_count());
  EXPECT_EQ(outcome.result.placement.replica_count(),
            outcome.replicas_kept + outcome.replicas_added);
}

TEST(AdaptiveTest, RejectsInvalidOptions) {
  const auto t = TestSystem::make();
  const auto previous = placement::hybrid_greedy(*t.system);
  placement::AdaptiveOptions bad;
  bad.transfer_cost_per_byte = -1.0;
  EXPECT_THROW(placement::adaptive_hybrid_replan(*t.system, previous, bad),
               cdn::PreconditionError);
}

}  // namespace
