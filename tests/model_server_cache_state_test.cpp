// Unit tests for the per-server model state driving the hybrid greedy.

#include <gtest/gtest.h>

#include <vector>

#include "src/model/server_cache_state.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace {

using cdn::model::HitRatioCurve;
using cdn::model::PbMode;
using cdn::model::ServerCacheState;
using cdn::util::ZipfDistribution;

struct Fixture {
  // L = 1000 objects per site so the 500-slot cache never fits the whole
  // 4000-object universe (otherwise every hit ratio saturates at 1).
  ZipfDistribution zipf{1000, 1.0};
  HitRatioCurve curve{zipf};
  std::vector<double> rates{1000.0, 500.0, 250.0, 250.0};
  std::vector<std::uint64_t> bytes{4000, 3000, 2000, 1000};
  std::vector<double> lambdas{0.0, 0.0, 0.0, 0.0};
  double mean_object = 10.0;

  ServerCacheState make(std::uint64_t storage,
                        PbMode mode = PbMode::kAtInit) {
    return ServerCacheState(rates, bytes, lambdas, storage, mean_object,
                            zipf, curve, mode);
  }
};

TEST(ServerCacheStateTest, InitialStateAllCache) {
  Fixture f;
  auto state = f.make(5000);
  EXPECT_EQ(state.cache_bytes(), 5000u);
  EXPECT_EQ(state.buffer_slots(), 500u);
  EXPECT_GT(state.characteristic_time(), 0.0);
  for (std::uint32_t j = 0; j < 4; ++j) {
    EXPECT_FALSE(state.is_replicated(j));
    EXPECT_GT(state.hit_ratio(j), 0.0);
    EXPECT_LE(state.hit_ratio(j), 1.0);
  }
}

TEST(ServerCacheStateTest, PopularityNormalised) {
  Fixture f;
  auto state = f.make(5000);
  EXPECT_DOUBLE_EQ(state.renormalized_popularity(0), 0.5);
  EXPECT_DOUBLE_EQ(state.renormalized_popularity(1), 0.25);
  double sum = 0.0;
  for (std::uint32_t j = 0; j < 4; ++j) {
    sum += state.renormalized_popularity(j);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ServerCacheStateTest, MorePopularSiteHasHigherHitRatio) {
  Fixture f;
  auto state = f.make(5000);
  EXPECT_GT(state.hit_ratio(0), state.hit_ratio(1));
  EXPECT_GT(state.hit_ratio(1), state.hit_ratio(2));
  // Sites 2 and 3 have equal rates -> equal hit ratios.
  EXPECT_DOUBLE_EQ(state.hit_ratio(2), state.hit_ratio(3));
}

TEST(ServerCacheStateTest, ReplicateShrinksCacheAndRenormalises) {
  Fixture f;
  auto state = f.make(5000);
  state.replicate(0);
  EXPECT_TRUE(state.is_replicated(0));
  EXPECT_EQ(state.cache_bytes(), 1000u);
  EXPECT_EQ(state.buffer_slots(), 100u);
  EXPECT_DOUBLE_EQ(state.hit_ratio(0), 0.0);
  // Remaining mass is 0.5; site 1's renormalised popularity doubles.
  EXPECT_DOUBLE_EQ(state.renormalized_popularity(1), 0.5);
}

TEST(ServerCacheStateTest, WhatIfMatchesActualReplication) {
  Fixture f;
  auto state = f.make(5000);
  const auto what_if = state.what_if_replicate(1);
  const double predicted_h0 = what_if.hit_ratio(0);
  const double predicted_h2 = what_if.hit_ratio(2);
  state.replicate(1);
  EXPECT_DOUBLE_EQ(state.hit_ratio(0), predicted_h0);
  EXPECT_DOUBLE_EQ(state.hit_ratio(2), predicted_h2);
  EXPECT_DOUBLE_EQ(state.characteristic_time(),
                   what_if.characteristic_time());
}

TEST(ServerCacheStateTest, WhatIfDoesNotMutate) {
  Fixture f;
  auto state = f.make(5000);
  const double h0 = state.hit_ratio(0);
  const auto bytes = state.cache_bytes();
  (void)state.what_if_replicate(2);
  EXPECT_DOUBLE_EQ(state.hit_ratio(0), h0);
  EXPECT_EQ(state.cache_bytes(), bytes);
}

TEST(ServerCacheStateTest, SmallerBufferLowersHitRatios) {
  // Replicating a site shrinks B; the OTHER sites' hit ratios must drop
  // when the lost slots outweigh the renormalisation boost.  Use a big
  // replica (site 0: 4000 of 5000 bytes) to force the drop.
  Fixture f;
  auto state = f.make(5000);
  const double h2_before = state.hit_ratio(2);
  state.replicate(0);
  EXPECT_LT(state.hit_ratio(2), h2_before);
}

TEST(ServerCacheStateTest, RenormalisationCanRaiseHitRatios) {
  // Conversely, replicating a *small but popular* site frees the cache from
  // its traffic: tiny byte loss, big popularity renormalisation.
  Fixture f;
  f.bytes = {50, 3000, 2000, 1000};  // site 0: high demand, tiny footprint
  auto state = f.make(5000);
  const double h1_before = state.hit_ratio(1);
  state.replicate(0);
  EXPECT_GT(state.hit_ratio(1), h1_before);
}

TEST(ServerCacheStateTest, LambdaScalesHitRatio) {
  Fixture plain;
  Fixture flagged;
  flagged.lambdas = {0.5, 0.0, 0.0, 0.0};
  auto a = plain.make(5000);
  auto b = flagged.make(5000);
  EXPECT_NEAR(b.hit_ratio(0), 0.5 * a.hit_ratio(0), 1e-12);
  EXPECT_DOUBLE_EQ(b.hit_ratio(1), a.hit_ratio(1));
}

TEST(ServerCacheStateTest, CanFitTracksCacheBytes) {
  Fixture f;
  auto state = f.make(5000);
  EXPECT_TRUE(state.can_fit(0));   // 4000 <= 5000
  state.replicate(0);
  EXPECT_FALSE(state.can_fit(1));  // 3000 > 1000 left
  EXPECT_TRUE(state.can_fit(3));   // 1000 <= 1000
}

TEST(ServerCacheStateTest, ZeroCacheMeansZeroHits) {
  Fixture f;
  f.bytes = {5000, 3000, 2000, 1000};
  auto state = f.make(5000);
  state.replicate(0);  // consumes everything
  EXPECT_EQ(state.cache_bytes(), 0u);
  EXPECT_EQ(state.buffer_slots(), 0u);
  for (std::uint32_t j = 1; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(state.hit_ratio(j), 0.0);
  }
}

TEST(ServerCacheStateTest, PerIterationModeRefreshesPb) {
  Fixture f;
  auto at_init = f.make(5000, PbMode::kAtInit);
  auto per_iter = f.make(5000, PbMode::kPerIteration);
  EXPECT_DOUBLE_EQ(at_init.top_b_probability(),
                   per_iter.top_b_probability());
  at_init.replicate(0);
  per_iter.replicate(0);
  // kAtInit froze p_B; kPerIteration recomputed it for the smaller buffer
  // and renormalised popularity set.  They should generally differ.
  EXPECT_NE(at_init.top_b_probability(), per_iter.top_b_probability());
  // The paper's claim: the difference is small (renormalisation roughly
  // cancels the shrink).  Allow a loose band.
  EXPECT_NEAR(at_init.top_b_probability(), per_iter.top_b_probability(),
              0.25);
}

TEST(ServerCacheStateTest, GuardsAgainstMisuse) {
  Fixture f;
  auto state = f.make(5000);
  EXPECT_THROW(state.hit_ratio(4), cdn::PreconditionError);
  state.replicate(0);
  EXPECT_THROW(state.replicate(0), cdn::PreconditionError);
  EXPECT_THROW(state.what_if_replicate(0), cdn::PreconditionError);
  EXPECT_THROW(state.what_if_replicate(1), cdn::PreconditionError);  // no fit
}

TEST(ServerCacheStateTest, WhatIfOnDistinctSitesIsSafeInParallel) {
  // The placement engine calls what_if_replicate on distinct sites of one
  // state from the shared pool; each call writes only its own memo slot.
  // Parallel passes (memo misses, then memo hits, then misses again after a
  // mutation) must equal a serial pass on a twin state bit for bit.
  constexpr std::uint32_t kSites = 256;
  const ZipfDistribution zipf(1000, 1.0);
  const HitRatioCurve curve(zipf);
  std::vector<double> rates(kSites);
  std::vector<std::uint64_t> bytes(kSites);
  for (std::uint32_t j = 0; j < kSites; ++j) {
    rates[j] = 1000.0 / (1.0 + j);
    bytes[j] = 1000 + 37 * j;
  }
  const std::vector<double> lambdas(kSites, 0.0);
  const auto make = [&] {
    return ServerCacheState(rates, bytes, lambdas, 2'000'000, 10.0, zipf,
                            curve);
  };
  struct Pass {
    std::vector<double> k = std::vector<double>(kSites, -1.0);
    std::vector<double> h = std::vector<double>(kSites, -1.0);
  };
  const auto price = [](const ServerCacheState& s, std::uint32_t j,
                        Pass& out) {
    if (s.is_replicated(j)) return;
    const auto what_if = s.what_if_replicate(j);
    out.k[j] = what_if.characteristic_time();
    out.h[j] = what_if.hit_ratio((j + 1) % kSites);
  };
  const auto expect_same = [](const Pass& a, const Pass& b) {
    for (std::uint32_t j = 0; j < kSites; ++j) {
      EXPECT_EQ(a.k[j], b.k[j]) << "site " << j;
      EXPECT_EQ(a.h[j], b.h[j]) << "site " << j;
    }
  };

  ServerCacheState shared = make();
  ServerCacheState serial = make();
  for (int round = 0; round < 2; ++round) {
    Pass serial_pass;
    for (std::uint32_t j = 0; j < kSites; ++j) price(serial, j, serial_pass);
    for (int repeat = 0; repeat < 2; ++repeat) {  // memo misses, then hits
      Pass parallel_pass;
      cdn::util::parallel_for(0, kSites, [&](std::size_t j) {
        price(shared, static_cast<std::uint32_t>(j), parallel_pass);
      });
      expect_same(serial_pass, parallel_pass);
    }
    // New epoch: every memo slot is stale again.
    shared.replicate(static_cast<std::uint32_t>(round));
    serial.replicate(static_cast<std::uint32_t>(round));
  }
}

TEST(ServerCacheStateTest, RejectsInvalidConstruction) {
  Fixture f;
  const std::vector<double> short_rates{1.0};
  EXPECT_THROW(ServerCacheState(short_rates, f.bytes, f.lambdas, 1000, 10.0,
                                f.zipf, f.curve),
               cdn::PreconditionError);
  EXPECT_THROW(ServerCacheState(f.rates, f.bytes, f.lambdas, 1000, 0.0,
                                f.zipf, f.curve),
               cdn::PreconditionError);
}

}  // namespace
