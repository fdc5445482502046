// Unit tests for the SN_j^(i) nearest-replica index.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cdn/nearest_replica.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace {

using cdn::sys::DistanceOracle;
using cdn::sys::NearestReplicaIndex;
using cdn::sys::ReplicaPlacement;

// 3 servers in a line (0 -1- 1 -1- 2, so C(0,2) = 2); one site whose
// primary is 5 hops from server 0, 4 from server 1, 3 from server 2.
struct Fixture {
  DistanceOracle distances{3,
                           1,
                           {0, 1, 2,
                            1, 0, 1,
                            2, 1, 0},
                           {5, 4, 3}};
  ReplicaPlacement placement{std::vector<std::uint64_t>{100, 100, 100},
                             std::vector<std::uint64_t>{10}};
};

TEST(NearestReplicaTest, InitialSnIsPrimary) {
  Fixture f;
  const NearestReplicaIndex sn(f.distances, f.placement);
  for (cdn::sys::ServerIndex i = 0; i < 3; ++i) {
    EXPECT_TRUE(sn.nearest(i, 0).at_primary);
  }
  EXPECT_DOUBLE_EQ(sn.cost(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sn.cost(2, 0), 3.0);
}

TEST(NearestReplicaTest, ReplicaBeatsPrimaryWhenCloser) {
  Fixture f;
  f.placement.add(1, 0);
  const NearestReplicaIndex sn(f.distances, f.placement);
  // Server 0: replica at server 1 costs 1 < primary 5.
  EXPECT_FALSE(sn.nearest(0, 0).at_primary);
  EXPECT_EQ(sn.nearest(0, 0).server, 1u);
  EXPECT_DOUBLE_EQ(sn.cost(0, 0), 1.0);
  // Holder itself: zero.
  EXPECT_DOUBLE_EQ(sn.cost(1, 0), 0.0);
  // Server 2: replica costs 1 < primary 3.
  EXPECT_DOUBLE_EQ(sn.cost(2, 0), 1.0);
}

TEST(NearestReplicaTest, PrimaryRetainedWhenCloserThanReplica) {
  Fixture f;
  f.placement.add(0, 0);
  const NearestReplicaIndex sn(f.distances, f.placement);
  // Server 2: replica at 0 costs 2, primary costs 3 -> replica wins; but
  // for a primary at distance 1 it would win.  Rebuild with closer primary.
  EXPECT_DOUBLE_EQ(sn.cost(2, 0), 2.0);

  const DistanceOracle close_primary(3, 1,
                                     {0, 1, 2, 1, 0, 1, 2, 1, 0},
                                     {5, 4, 1});
  const NearestReplicaIndex sn2(close_primary, f.placement);
  EXPECT_TRUE(sn2.nearest(2, 0).at_primary);
  EXPECT_DOUBLE_EQ(sn2.cost(2, 0), 1.0);
}

TEST(NearestReplicaTest, OnReplicaAddedMatchesRebuild) {
  Fixture f;
  NearestReplicaIndex incremental(f.distances, f.placement);
  f.placement.add(2, 0);
  incremental.on_replica_added(2, 0);
  const NearestReplicaIndex rebuilt(f.distances, f.placement);
  for (cdn::sys::ServerIndex i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(incremental.cost(i, 0), rebuilt.cost(i, 0)) << i;
    EXPECT_EQ(incremental.nearest(i, 0).at_primary,
              rebuilt.nearest(i, 0).at_primary)
        << i;
  }
}

TEST(NearestReplicaTest, HolderAlwaysCostsZero) {
  Fixture f;
  NearestReplicaIndex sn(f.distances, f.placement);
  f.placement.add(0, 0);
  sn.on_replica_added(0, 0);
  EXPECT_DOUBLE_EQ(sn.cost(0, 0), 0.0);
  EXPECT_FALSE(sn.nearest(0, 0).at_primary);
  EXPECT_EQ(sn.nearest(0, 0).server, 0u);
}

TEST(NearestReplicaTest, SecondFartherReplicaChangesNothing) {
  Fixture f;
  NearestReplicaIndex sn(f.distances, f.placement);
  f.placement.add(1, 0);
  sn.on_replica_added(1, 0);
  const double before = sn.cost(0, 0);
  f.placement.add(2, 0);  // farther from server 0 than server 1 is
  sn.on_replica_added(2, 0);
  EXPECT_DOUBLE_EQ(sn.cost(0, 0), before);
  EXPECT_EQ(sn.nearest(0, 0).server, 1u);
}

TEST(NearestReplicaTest, OnReplicaAddedReturnsChangedServers) {
  Fixture f;
  NearestReplicaIndex sn(f.distances, f.placement);
  // First replica at server 1: beats the primary everywhere (costs 1, 0, 1
  // vs 5, 4, 3) — every server's cell changes.
  f.placement.add(1, 0);
  EXPECT_EQ(sn.on_replica_added(1, 0),
            (std::vector<cdn::sys::ServerIndex>{0, 1, 2}));
  // Second replica at server 2: server 2's cell drops 1 -> 0; server 1 is
  // closer to itself, server 0 is closer to server 1.  The holder is always
  // in the list.
  f.placement.add(2, 0);
  EXPECT_EQ(sn.on_replica_added(2, 0),
            (std::vector<cdn::sys::ServerIndex>{2}));
}

TEST(NearestReplicaTest, ChangedListMatchesCellDeltas) {
  // Property: the returned list is exactly the set of servers whose cost or
  // holder changed, compared against a before-snapshot, ascending.
  Fixture f;
  NearestReplicaIndex sn(f.distances, f.placement);
  for (const cdn::sys::ServerIndex holder : {2u, 0u, 1u}) {
    std::vector<double> before;
    for (cdn::sys::ServerIndex i = 0; i < 3; ++i) {
      before.push_back(sn.cost(i, 0));
    }
    f.placement.add(holder, 0);
    const auto changed = sn.on_replica_added(holder, 0);
    std::vector<cdn::sys::ServerIndex> expected;
    for (cdn::sys::ServerIndex i = 0; i < 3; ++i) {
      const bool now_holder =
          !sn.nearest(i, 0).at_primary && sn.nearest(i, 0).server == holder;
      if (sn.cost(i, 0) != before[i] || (i == holder && now_holder)) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(changed, expected) << "holder " << holder;
    EXPECT_TRUE(std::find(changed.begin(), changed.end(), holder) !=
                changed.end())
        << "holder must always be reported";
    EXPECT_TRUE(std::is_sorted(changed.begin(), changed.end()));
  }
}

TEST(NearestReplicaTest, CostsNeverIncreaseAsReplicasAppear) {
  Fixture f;
  NearestReplicaIndex sn(f.distances, f.placement);
  std::vector<double> prev;
  for (cdn::sys::ServerIndex i = 0; i < 3; ++i) prev.push_back(sn.cost(i, 0));
  for (cdn::sys::ServerIndex holder = 0; holder < 3; ++holder) {
    f.placement.add(holder, 0);
    sn.on_replica_added(holder, 0);
    for (cdn::sys::ServerIndex i = 0; i < 3; ++i) {
      EXPECT_LE(sn.cost(i, 0), prev[i]);
      prev[i] = sn.cost(i, 0);
    }
  }
  // Everyone replicates: all costs zero.
  for (cdn::sys::ServerIndex i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(sn.cost(i, 0), 0.0);
  }
}

TEST(NearestReplicaTest, RejectsDimensionMismatch) {
  Fixture f;
  const ReplicaPlacement other{std::vector<std::uint64_t>{100},
                               std::vector<std::uint64_t>{10}};
  EXPECT_THROW(NearestReplicaIndex(f.distances, other),
               cdn::PreconditionError);
}

/// One rank-1 query (max_candidates = 1) from `from` to site 0 under a
/// health state, and the copy it must return; `live = false` expects the
/// empty list (no live copy at all).
struct Rank1Row {
  const char* name;
  cdn::sys::ServerIndex from;
  std::vector<std::uint8_t> up;
  bool origin_up;
  bool live;
  bool at_primary;
  cdn::sys::ServerIndex server;
  double cost;
};

void expect_rank1(const NearestReplicaIndex& sn,
                  const std::vector<cdn::sys::ServerIndex>& holders,
                  const Rank1Row& row) {
  const auto ranked = sn.nearest_live_candidates(row.from, 0, holders, row.up,
                                                 row.origin_up, 1);
  ASSERT_EQ(ranked.size(), row.live ? 1u : 0u) << row.name;
  if (!row.live) return;
  EXPECT_EQ(ranked[0].at_primary, row.at_primary) << row.name;
  if (!row.at_primary) {
    EXPECT_EQ(ranked[0].server, row.server) << row.name;
  }
  EXPECT_DOUBLE_EQ(ranked[0].cost, row.cost) << row.name;
}

TEST(NearestReplicaTest, NearestLiveSkipsDeadHolders) {
  Fixture f;
  f.placement.add(1, 0);
  f.placement.add(2, 0);
  NearestReplicaIndex sn(f.distances, f.placement);
  const auto holders = f.placement.replicators(0);
  // From server 0: holder 1 costs 1, holder 2 costs 2, the primary 5.
  const Rank1Row rows[] = {
      {"all up: holder 1", 0, {1, 1, 1}, true, true, false, 1, 1.0},
      {"holder 1 dead: holder 2", 0, {1, 0, 1}, true, true, false, 2, 2.0},
      {"both holders dead: primary", 0, {1, 0, 0}, true, true, true, 0, 5.0},
      {"origin down too: nothing", 0, {1, 0, 0}, false, false, false, 0, 0.0},
  };
  for (const Rank1Row& row : rows) expect_rank1(sn, holders, row);
}

TEST(NearestReplicaTest, NearestLiveAllDownIsNulloptDeterministically) {
  // Regression: total outage (every holder AND the origin down) must come
  // back empty-handed on every call — never a stale or partial answer, and
  // never an out-of-bounds read of the holder list.
  Fixture f;
  f.placement.add(0, 0);
  f.placement.add(1, 0);
  f.placement.add(2, 0);
  NearestReplicaIndex sn(f.distances, f.placement);
  const auto holders = f.placement.replicators(0);
  const std::vector<std::uint8_t> all_down{0, 0, 0};
  for (cdn::sys::ServerIndex i = 0; i < 3; ++i) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      expect_rank1(sn, holders,
                   {"all down", i, all_down, false, false, false, 0, 0.0});
      EXPECT_TRUE(sn.nearest_live_candidates(i, 0, holders, all_down, false, 3)
                      .empty())
          << "server " << i;
    }
  }
}

TEST(NearestReplicaTest, NearestLiveRejectsOutOfRangeHolder) {
  // The holder list comes from the placement; a corrupted or mismatched
  // list must trip the precondition instead of reading past the mask.
  Fixture f;
  const NearestReplicaIndex sn(f.distances, f.placement);
  const std::vector<cdn::sys::ServerIndex> bogus{7};
  const std::vector<std::uint8_t> up{1, 1, 1};
  EXPECT_THROW((void)sn.nearest_live_candidates(0, 0, bogus, up, true, 1),
               cdn::PreconditionError);
  EXPECT_THROW((void)sn.nearest_live_candidates(0, 0, bogus, up, true, 3),
               cdn::PreconditionError);
}

TEST(NearestReplicaTest, CandidatesRankedByCostWithDeterministicTieBreaks) {
  Fixture f;
  f.placement.add(1, 0);
  f.placement.add(2, 0);
  NearestReplicaIndex sn(f.distances, f.placement);
  const auto holders = f.placement.replicators(0);
  const std::vector<std::uint8_t> up{1, 1, 1};

  // From server 0: holder 1 (cost 1), holder 2 (cost 2), primary (cost 5).
  const auto ranked = sn.nearest_live_candidates(0, 0, holders, up, true, 8);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].server, 1u);
  EXPECT_DOUBLE_EQ(ranked[0].cost, 1.0);
  EXPECT_EQ(ranked[1].server, 2u);
  EXPECT_TRUE(ranked[2].at_primary);
  EXPECT_DOUBLE_EQ(ranked[2].cost, 5.0);

  // Equal cost: the replica outranks the primary.  Server 2 sees the
  // replica at holder 0 and a primary both at some cost; craft a matrix
  // where they tie at 3 hops.
  const DistanceOracle tie(3, 1, {0, 1, 3, 1, 0, 1, 3, 1, 0}, {5, 4, 3});
  ReplicaPlacement p2{std::vector<std::uint64_t>{100, 100, 100},
                      std::vector<std::uint64_t>{10}};
  p2.add(0, 0);
  const NearestReplicaIndex sn2(tie, p2);
  const auto tied =
      sn2.nearest_live_candidates(2, 0, p2.replicators(0), up, true, 8);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_FALSE(tied[0].at_primary);  // replica first at equal cost 3
  EXPECT_TRUE(tied[1].at_primary);
  EXPECT_DOUBLE_EQ(tied[0].cost, tied[1].cost);
}

TEST(NearestReplicaTest, CandidatesTruncateToMaxAndSkipDead) {
  Fixture f;
  f.placement.add(1, 0);
  f.placement.add(2, 0);
  NearestReplicaIndex sn(f.distances, f.placement);
  const auto holders = f.placement.replicators(0);

  std::vector<std::uint8_t> up{1, 1, 1};
  EXPECT_EQ(sn.nearest_live_candidates(0, 0, holders, up, true, 2).size(), 2u);
  EXPECT_TRUE(sn.nearest_live_candidates(0, 0, holders, up, true, 0).empty());

  // Dead rank-1 holder: the list re-ranks instead of leaving a hole.
  up = {1, 0, 1};
  const auto ranked = sn.nearest_live_candidates(0, 0, holders, up, true, 8);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].server, 2u);
  EXPECT_TRUE(ranked[1].at_primary);
}

TEST(NearestReplicaTest, NearestLivePrefersPrimaryWhenCheaper) {
  Fixture f;
  f.placement.add(0, 0);
  NearestReplicaIndex sn(f.distances, f.placement);
  const auto holders = f.placement.replicators(0);
  // Server 2: primary costs 3, the replica at server 0 costs 2 — but with
  // that holder dead the primary wins again.
  const Rank1Row rows[] = {
      {"all up: replica", 2, {1, 1, 1}, true, true, false, 0, 2.0},
      {"holder 0 dead: primary", 2, {0, 1, 1}, true, true, true, 0, 3.0},
  };
  for (const Rank1Row& row : rows) expect_rank1(sn, holders, row);
}

TEST(NearestReplicaTest, RankOneBreaksTiesByTheNearestCopyOrder) {
  // Line 0 - 1 - 2 - 3 - 4 with every primary 2 hops away.  Site 0 is
  // replicated at servers 0 and 4, so server 2 sees both holders and the
  // primary at cost 2: the lower holder wins, a replica beats the origin.
  const DistanceOracle line(5, 1,
                            {0, 1, 2, 3, 4,
                             1, 0, 1, 2, 3,
                             2, 1, 0, 1, 2,
                             3, 2, 1, 0, 1,
                             4, 3, 2, 1, 0},
                            {2, 2, 2, 2, 2});
  ReplicaPlacement p{std::vector<std::uint64_t>(5, 100),
                     std::vector<std::uint64_t>{10}};
  p.add(4, 0);
  p.add(0, 0);
  const NearestReplicaIndex sn(line, p);
  const auto holders = p.replicators(0);
  const Rank1Row rows[] = {
      {"three-way tie: lowest holder", 2, {1, 1, 1, 1, 1}, true, true, false,
       0, 2.0},
      {"holder 0 dead: holder 4", 2, {0, 1, 1, 1, 1}, true, true, false, 4,
       2.0},
      {"both dead: primary", 2, {0, 1, 1, 1, 0}, true, true, true, 0, 2.0},
      {"origin down: holder 0", 2, {1, 1, 1, 1, 1}, false, true, false, 0,
       2.0},
  };
  for (const Rank1Row& row : rows) expect_rank1(sn, holders, row);
  // The index holds the same copy as rank 1 of the all-up query.
  EXPECT_FALSE(sn.nearest(2, 0).at_primary);
  EXPECT_EQ(sn.nearest(2, 0).server, 0u);
}

TEST(NearestReplicaTest, CloserIsATotalOrder) {
  using cdn::sys::closer;
  using cdn::sys::NearestCopy;
  const NearestCopy cheap{true, 0, 1.0};
  const NearestCopy replica_low{false, 1, 2.0};
  const NearestCopy replica_high{false, 3, 2.0};
  const NearestCopy origin{true, 0, 2.0};
  EXPECT_TRUE(closer(cheap, replica_low));        // cost first
  EXPECT_TRUE(closer(replica_high, origin));      // replica before origin
  EXPECT_TRUE(closer(replica_low, replica_high));  // then lowest server
  EXPECT_FALSE(closer(replica_high, replica_low));
  EXPECT_FALSE(closer(origin, origin));
}

/// Property: for random commit orders of a fixed replica set on a line
/// (C(i, k) = |i - k|, every primary 3 hops away, so holder-holder and
/// replica-origin ties are common), the incrementally built index equals a
/// rebuilt one cell for cell, holder included, and each on_replica_added
/// lists exactly the servers whose cost fell plus the holder.
TEST(NearestReplicaTest, IncrementalIndexIsIndependentOfCommitOrder) {
  const cdn::test::TestSystem t = cdn::test::TestSystem::make(
      8, 6, 2, 100, 0.15, 3.0);
  const DistanceOracle& dist = t.system->distances();
  const std::size_t n = dist.server_count();
  const std::size_t m = dist.site_count();
  const std::vector<std::uint64_t> roomy(n, std::uint64_t{1} << 40);
  std::uint64_t holder_ties = 0;
  std::uint64_t origin_ties = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    cdn::util::Rng rng(seed);
    std::vector<std::pair<cdn::sys::ServerIndex, cdn::sys::SiteIndex>> set;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        if (rng.bernoulli(0.3)) {
          set.emplace_back(static_cast<cdn::sys::ServerIndex>(i),
                           static_cast<cdn::sys::SiteIndex>(j));
        }
      }
    }
    ReplicaPlacement full(roomy, t.system->site_bytes());
    for (const auto& [i, j] : set) full.add(i, j);
    const NearestReplicaIndex rebuilt(dist, full);

    for (int order = 0; order < 3; ++order) {
      for (std::size_t k = set.size(); k > 1; --k) {
        std::swap(set[k - 1], set[rng.uniform_index(k)]);
      }
      ReplicaPlacement grown(roomy, t.system->site_bytes());
      NearestReplicaIndex incremental(dist, grown);
      for (const auto& [holder, site] : set) {
        std::vector<double> before(n);
        for (std::size_t i = 0; i < n; ++i) {
          before[i] =
              incremental.cost(static_cast<cdn::sys::ServerIndex>(i), site);
        }
        grown.add(holder, site);
        const auto changed = incremental.on_replica_added(holder, site);
        std::vector<cdn::sys::ServerIndex> fell;
        for (std::size_t i = 0; i < n; ++i) {
          const auto server = static_cast<cdn::sys::ServerIndex>(i);
          if (incremental.cost(server, site) < before[i] || server == holder) {
            fell.push_back(server);
          }
        }
        ASSERT_EQ(changed, fell) << "seed " << seed << " holder " << holder;
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          const auto server = static_cast<cdn::sys::ServerIndex>(i);
          const auto site = static_cast<cdn::sys::SiteIndex>(j);
          const auto& a = incremental.nearest(server, site);
          const auto& b = rebuilt.nearest(server, site);
          ASSERT_EQ(a.at_primary, b.at_primary)
              << "seed " << seed << " cell " << i << "," << j;
          ASSERT_EQ(a.server, b.server)
              << "seed " << seed << " cell " << i << "," << j;
          ASSERT_EQ(a.cost, b.cost)
              << "seed " << seed << " cell " << i << "," << j;
        }
      }
    }
    // Count the tie cells the orders had to agree on.
    const std::vector<std::uint8_t> up(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const auto server = static_cast<cdn::sys::ServerIndex>(i);
        const auto site = static_cast<cdn::sys::SiteIndex>(j);
        if (full.is_replicated(server, site)) continue;
        const auto ranked = rebuilt.nearest_live_candidates(
            server, site, full.replicators(site), up, true, 2);
        if (ranked.size() < 2 || ranked[0].cost != ranked[1].cost) continue;
        ++(ranked[1].at_primary ? origin_ties : holder_ties);
      }
    }
  }
  EXPECT_GT(holder_ties, 0u);
  EXPECT_GT(origin_ties, 0u);
}

}  // namespace
