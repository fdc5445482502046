// Unit tests for the fixed-split and pure-caching baselines.

#include <gtest/gtest.h>

#include "src/cdn/cost.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using cdn::placement::fixed_split;
using cdn::placement::greedy_global;
using cdn::placement::hybrid_greedy;
using cdn::placement::pure_caching;
using cdn::test::TestSystem;

TEST(PureCachingTest, NoReplicasFullCache) {
  const auto t = TestSystem::make();
  const auto result = pure_caching(*t.system);
  EXPECT_EQ(result.replicas_created, 0u);
  for (std::size_t i = 0; i < t.system->server_count(); ++i) {
    const auto server = static_cast<cdn::sys::ServerIndex>(i);
    EXPECT_EQ(result.cache_bytes(server), t.system->server_storage(server));
  }
  // Every unreplicated site has a positive modelled hit ratio.
  for (double h : result.modeled_hit) {
    EXPECT_GT(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
}

TEST(PureCachingTest, CostBelowNoCacheAtAll) {
  const auto t = TestSystem::make();
  const auto result = pure_caching(*t.system);
  // Without caches every request pays the primary distance.
  cdn::sys::ReplicaPlacement empty(t.system->server_storage(),
                                   t.system->site_bytes());
  cdn::sys::NearestReplicaIndex sn(t.system->distances(), empty);
  const double bare = cdn::sys::total_remote_cost(t.system->demand(), sn);
  EXPECT_LT(result.predicted_total_cost, bare);
}

TEST(FixedSplitTest, ZeroCacheFractionMatchesGreedyReplicaSet) {
  const auto t = TestSystem::make();
  const auto split = fixed_split(*t.system, 0.0);
  const auto greedy = greedy_global(*t.system);
  EXPECT_EQ(split.replicas_created, greedy.replicas_created);
  // But fixed-split still caches in the slack space.
  EXPECT_TRUE(split.caching_enabled);
}

TEST(FixedSplitTest, FullCacheFractionMatchesPureCaching) {
  const auto t = TestSystem::make();
  const auto split = fixed_split(*t.system, 1.0);
  EXPECT_EQ(split.replicas_created, 0u);
  const auto cache = pure_caching(*t.system);
  EXPECT_NEAR(split.predicted_total_cost, cache.predicted_total_cost,
              0.02 * cache.predicted_total_cost);
}

TEST(FixedSplitTest, CacheShareIsRespected) {
  const auto t = TestSystem::make();
  const double f = 0.5;
  const auto split = fixed_split(*t.system, f);
  for (std::size_t i = 0; i < t.system->server_count(); ++i) {
    const auto server = static_cast<cdn::sys::ServerIndex>(i);
    // Replicas were limited to (1-f) of storage, so at least f remains.
    EXPECT_GE(split.cache_bytes(server),
              static_cast<std::uint64_t>(
                  f * static_cast<double>(t.system->server_storage(server))));
  }
}

TEST(FixedSplitTest, HybridBeatsAdHocSplits) {
  // Figure 5's claim at model level: the hybrid's predicted cost is at
  // least as good as any fixed split.
  const auto t = TestSystem::make();
  const auto hybrid = hybrid_greedy(*t.system);
  for (double f : {0.2, 0.4, 0.6, 0.8}) {
    const auto split = fixed_split(*t.system, f);
    EXPECT_LE(hybrid.predicted_total_cost,
              split.predicted_total_cost * 1.001)
        << "cache fraction " << f;
  }
}

TEST(FixedSplitTest, RejectsOutOfRangeFraction) {
  const auto t = TestSystem::make();
  EXPECT_THROW(fixed_split(*t.system, -0.1), cdn::PreconditionError);
  EXPECT_THROW(fixed_split(*t.system, 1.1), cdn::PreconditionError);
}

}  // namespace
