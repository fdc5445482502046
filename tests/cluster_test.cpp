// Unit and property tests for per-cluster replication (the paper's future
// work) and the lazy greedy it relies on.

#include <gtest/gtest.h>

#include "src/cdn/cost.h"
#include "src/cluster/cluster_replication.h"
#include "src/cluster/cluster_scheme.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::test::TestSystem;

/// Exact mean latency of a cluster placement over the i.i.d. stream: it has
/// no caches, and latency is affine in hops.
double cluster_mean_ms(const TestSystem& t,
                       const cluster::ClusterPlacementResult& p) {
  return sim::LatencyModel{}.latency_ms(sys::cost_per_request(
      cluster::cluster_demand(*t.demand, p.scheme), p.nearest));
}

TEST(ClusterSchemeTest, PartitionCoversAllRanks) {
  const auto t = TestSystem::make();
  const cluster::ClusterScheme scheme(*t.catalog, 4);
  EXPECT_EQ(scheme.cluster_count(), t.catalog->site_count() * 4);
  for (workload::SiteId j = 0; j < t.catalog->site_count(); ++j) {
    std::uint32_t expected_next = 1;
    for (std::uint32_t c = 0; c < 4; ++c) {
      const auto& cl = scheme.cluster(
          static_cast<cluster::ClusterId>(j * 4 + c));
      EXPECT_EQ(cl.site, j);
      EXPECT_EQ(cl.first_rank, expected_next);
      expected_next = cl.last_rank + 1;
    }
    EXPECT_EQ(expected_next, t.catalog->objects_per_site() + 1);
  }
}

TEST(ClusterSchemeTest, MassesSumToOnePerSite) {
  const auto t = TestSystem::make();
  const cluster::ClusterScheme scheme(*t.catalog, 5);
  for (workload::SiteId j = 0; j < t.catalog->site_count(); ++j) {
    double mass = 0.0;
    std::uint64_t bytes = 0;
    for (std::uint32_t c = 0; c < 5; ++c) {
      const auto& cl =
          scheme.cluster(static_cast<cluster::ClusterId>(j * 5 + c));
      mass += cl.mass;
      bytes += cl.bytes;
    }
    EXPECT_NEAR(mass, 1.0, 1e-9);
    EXPECT_EQ(bytes, t.catalog->site_bytes(j));
  }
}

TEST(ClusterSchemeTest, HeadClusterCarriesMostMass) {
  const auto t = TestSystem::make();
  const cluster::ClusterScheme scheme(*t.catalog, 4);
  // Zipf: the first rank-quarter holds far more probability mass than the
  // last.
  const auto& head = scheme.cluster(0);
  const auto& tail = scheme.cluster(3);
  EXPECT_GT(head.mass, 3.0 * tail.mass);
}

TEST(ClusterSchemeTest, ClusterOfInvertsPartition) {
  const auto t = TestSystem::make();
  for (std::uint32_t c : {1u, 3u, 7u, 100u}) {
    if (c > t.catalog->objects_per_site()) continue;
    const cluster::ClusterScheme scheme(*t.catalog, c);
    for (workload::SiteId j : {workload::SiteId{0}, workload::SiteId{5}}) {
      for (std::uint32_t rank = 1; rank <= t.catalog->objects_per_site();
           ++rank) {
        const auto id = scheme.cluster_of(j, rank);
        const auto& cl = scheme.cluster(id);
        EXPECT_EQ(cl.site, j);
        EXPECT_GE(rank, cl.first_rank);
        EXPECT_LE(rank, cl.last_rank);
      }
    }
  }
}

TEST(ClusterSchemeTest, OneClusterPerSiteIsWholeSite) {
  const auto t = TestSystem::make();
  const cluster::ClusterScheme scheme(*t.catalog, 1);
  EXPECT_EQ(scheme.cluster_count(), t.catalog->site_count());
  for (workload::SiteId j = 0; j < t.catalog->site_count(); ++j) {
    const auto& cl = scheme.cluster(j);
    EXPECT_EQ(cl.bytes, t.catalog->site_bytes(j));
    EXPECT_NEAR(cl.mass, 1.0, 1e-9);
  }
}

TEST(ClusterSchemeTest, RejectsBadClusterCounts) {
  const auto t = TestSystem::make();
  EXPECT_THROW(cluster::ClusterScheme(*t.catalog, 0), cdn::PreconditionError);
  EXPECT_THROW(
      cluster::ClusterScheme(
          *t.catalog,
          static_cast<std::uint32_t>(t.catalog->objects_per_site() + 1)),
      cdn::PreconditionError);
}

TEST(LazyGreedyTest, MatchesExhaustiveGreedyGlobal) {
  // At 1 cluster per site the lazy greedy solves exactly the same problem
  // as greedy_global: final costs must agree (replica sets may differ only
  // through benefit ties).
  const auto t = TestSystem::make();
  const auto exhaustive = placement::greedy_global(*t.system);
  const auto clustered = cluster::cluster_greedy_global(*t.system, 1);
  EXPECT_NEAR(clustered.predicted_total_cost,
              exhaustive.predicted_total_cost,
              1e-6 * exhaustive.predicted_total_cost);
  EXPECT_EQ(clustered.replicas_created, exhaustive.replicas_created);
}

TEST(LazyGreedyTest, RespectsBudgets) {
  const auto t = TestSystem::make();
  const auto result = cluster::cluster_greedy_global(*t.system, 8);
  for (std::size_t i = 0; i < t.system->server_count(); ++i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    EXPECT_LE(result.placement.used_bytes(server),
              t.system->server_storage(server));
  }
}

TEST(LazyGreedyTest, CostTrajectoryDecreases) {
  const auto t = TestSystem::make();
  const auto out = cluster::lazy_greedy_replication(
      *t.demand, *t.distances, t.system->server_storage(),
      t.system->site_bytes());
  for (std::size_t i = 1; i < out.cost_trajectory.size(); ++i) {
    EXPECT_LE(out.cost_trajectory[i], out.cost_trajectory[i - 1] + 1e-6);
  }
}

TEST(ClusterReplicationTest, FinerGranularityNeverWorsensPredictedCost) {
  // Splitting sites strictly enlarges the feasible placement set, so the
  // greedy should do at least as well (up to greedy suboptimality — allow
  // a tiny tolerance).
  const auto t = TestSystem::make();
  const auto per_site = cluster::cluster_greedy_global(*t.system, 1);
  const auto per_cluster = cluster::cluster_greedy_global(*t.system, 8);
  EXPECT_LE(per_cluster.predicted_total_cost,
            per_site.predicted_total_cost * 1.02);
}

TEST(ClusterReplicationTest, ExactCostMatchesPrediction) {
  // The expected cost per request over the expanded demand is the greedy's
  // own prediction, up to summation order.
  const auto t = TestSystem::make();
  const auto result = cluster::cluster_greedy_global(*t.system, 4);
  const double expected = sys::cost_per_request(
      cluster::cluster_demand(*t.demand, result.scheme), result.nearest);
  EXPECT_NEAR(expected / result.predicted_cost_per_request, 1.0, 1e-9);
}

TEST(ClusterReplicationTest, ClusterDemandRejectsAnotherCatalogsScheme) {
  const auto t = TestSystem::make();             // 8 sites
  const auto other = TestSystem::make(4, 3, 1);  // 4 sites
  const cluster::ClusterScheme scheme(*t.catalog, 2);
  EXPECT_EQ(cluster::cluster_demand(*t.demand, scheme).site_count(),
            scheme.cluster_count());
  EXPECT_THROW(cluster::cluster_demand(*other.demand, scheme),
               cdn::PreconditionError);
}

TEST(ClusterReplicationTest, FutureWorkOrderingRobustParts) {
  // Section 5.3 conjectures the hybrid beats per-cluster replication.  The
  // robust half of that ordering — both cluster replication and the hybrid
  // beat per-SITE replication — must always hold.  Whether the hybrid also
  // beats fine-grained cluster replication depends on granularity and
  // demand stationarity (bench_cluster investigates the full conjecture;
  // under perfectly stationary i.i.d. demand a fine enough static cluster
  // placement approaches the per-object optimum and can win).
  const auto t = TestSystem::make();
  sim::SimulationConfig cfg;
  cfg.total_requests = 1'000'000;
  cfg.seed = 7;

  const auto site_repl = placement::greedy_global(*t.system);
  const auto site_report = sim::simulate(*t.system, site_repl, cfg);

  const auto clusters = cluster::cluster_greedy_global(*t.system, 8);

  const auto hybrid = placement::hybrid_greedy(*t.system);
  const auto hybrid_report = sim::simulate(*t.system, hybrid, cfg);

  EXPECT_LT(cluster_mean_ms(t, clusters), site_report.mean_latency_ms);
  EXPECT_LT(hybrid_report.mean_latency_ms, site_report.mean_latency_ms);
}

TEST(ClusterReplicationTest, CoarseClustersLoseToHybrid) {
  // With per-site granularity (1 cluster/site) the cluster scheme IS pure
  // replication, which the hybrid beats — the paper's headline result.
  const auto t = TestSystem::make();
  sim::SimulationConfig cfg;
  cfg.total_requests = 1'000'000;
  cfg.seed = 9;
  const auto coarse = cluster::cluster_greedy_global(*t.system, 1);
  const auto hybrid = placement::hybrid_greedy(*t.system);
  const auto hybrid_report = sim::simulate(*t.system, hybrid, cfg);
  EXPECT_LT(hybrid_report.mean_latency_ms, cluster_mean_ms(t, coarse));
}

}  // namespace
