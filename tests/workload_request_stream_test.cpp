// Unit tests for the synthetic request stream.

#include <gtest/gtest.h>

#include <map>

#include "src/util/error.h"
#include "src/workload/request_stream.h"

namespace {

using cdn::util::Rng;
using cdn::workload::DemandMatrix;
using cdn::workload::PopularityClass;
using cdn::workload::Request;
using cdn::workload::RequestStream;
using cdn::workload::SiteCatalog;
using cdn::workload::SurgeParams;

struct Fixture {
  SiteCatalog catalog;
  DemandMatrix demand;

  static Fixture make() {
    SurgeParams params;
    params.objects_per_site = 30;
    const std::vector<PopularityClass> classes{{3, 1.0, "x"}};
    Rng rng(1);
    auto catalog = SiteCatalog::generate(params, classes, rng);
    // Skewed hand-built demand: server 0 dominates, site 2 dominates.
    const std::vector<double> values{10.0, 20.0, 70.0,   // server 0
                                     2.0,  3.0,  5.0};   // server 1
    auto demand = DemandMatrix::from_values(2, 3, values);
    return {std::move(catalog), std::move(demand)};
  }
};

TEST(RequestStreamTest, DeterministicForSameSeed) {
  const auto f = Fixture::make();
  RequestStream a(f.catalog, f.demand, 99);
  RequestStream b(f.catalog, f.demand, 99);
  for (int i = 0; i < 1000; ++i) {
    const Request ra = a.next();
    const Request rb = b.next();
    EXPECT_EQ(ra.server, rb.server);
    EXPECT_EQ(ra.site, rb.site);
    EXPECT_EQ(ra.rank, rb.rank);
  }
}

TEST(RequestStreamTest, CellFrequenciesMatchDemand) {
  const auto f = Fixture::make();
  RequestStream stream(f.catalog, f.demand, 7);
  std::map<std::pair<int, int>, int> counts;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    const Request r = stream.next();
    ++counts[{r.server, r.site}];
  }
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      const double expected =
          f.demand.requests(static_cast<cdn::workload::ServerId>(i),
                            static_cast<cdn::workload::SiteId>(j)) /
          f.demand.total();
      EXPECT_NEAR(static_cast<double>(counts[{i, j}]) / n, expected, 0.01)
          << "cell " << i << "," << j;
    }
  }
}

TEST(RequestStreamTest, RanksFollowZipf) {
  const auto f = Fixture::make();
  RequestStream stream(f.catalog, f.demand, 8);
  std::vector<int> rank_counts(31, 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++rank_counts[stream.next().rank];
  const auto& zipf = f.catalog.object_popularity();
  EXPECT_NEAR(static_cast<double>(rank_counts[1]) / n, zipf.pmf(1), 0.01);
  EXPECT_NEAR(static_cast<double>(rank_counts[2]) / n, zipf.pmf(2), 0.01);
  // Ranks in range.
  for (int i = 0; i < 100; ++i) {
    const Request r = stream.next();
    EXPECT_GE(r.rank, 1u);
    EXPECT_LE(r.rank, 30u);
  }
}

TEST(RequestStreamTest, BatchDrawsExactlyTheScalarSequence) {
  // next_batch() is the data-oriented hot-loop entry; it must consume the
  // RNG exactly as repeated next() calls do, or the batched simulator
  // diverges from the reference loop.
  const auto f = Fixture::make();
  RequestStream scalar(f.catalog, f.demand, 55);
  RequestStream batched(f.catalog, f.demand, 55);
  cdn::workload::RequestBatch batch;
  // Uneven batch sizes cross internal boundaries on purpose.
  for (const std::size_t count :
       std::vector<std::size_t>{1, 7, 256, 1000, 3}) {
    batched.next_batch(batch, count);
    ASSERT_EQ(batch.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const Request r = scalar.next();
      ASSERT_EQ(batch.server[i], r.server);
      ASSERT_EQ(batch.site[i], r.site);
      ASSERT_EQ(batch.rank[i], r.rank);
    }
  }
}

TEST(RequestStreamTest, SubsetStreamSamplesConditionalDistribution) {
  // A stream restricted to server 0 must reproduce server 0's demand row,
  // renormalised — the decomposition the sharded simulator relies on.
  const auto f = Fixture::make();
  const std::vector<cdn::workload::ServerId> subset{0};
  RequestStream stream(f.catalog, f.demand, 21, subset);
  std::vector<int> site_counts(3, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const Request r = stream.next();
    ASSERT_EQ(r.server, 0u);
    ++site_counts[r.site];
  }
  double row_total = 0.0;
  for (const double d : f.demand.row(0)) row_total += d;
  for (int j = 0; j < 3; ++j) {
    const double expected = f.demand.requests(0, j) / row_total;
    EXPECT_NEAR(static_cast<double>(site_counts[j]) / n, expected, 0.01)
        << "site " << j;
  }
}

TEST(RequestStreamTest, ExplicitFullSubsetMatchesDefaultStream) {
  const auto f = Fixture::make();
  const std::vector<cdn::workload::ServerId> all{0, 1};
  RequestStream a(f.catalog, f.demand, 33);
  RequestStream b(f.catalog, f.demand, 33, all);
  for (int i = 0; i < 2000; ++i) {
    const Request ra = a.next();
    const Request rb = b.next();
    EXPECT_EQ(ra.server, rb.server);
    EXPECT_EQ(ra.site, rb.site);
    EXPECT_EQ(ra.rank, rb.rank);
  }
}

TEST(RequestStreamTest, RejectsOutOfRangeSubset) {
  const auto f = Fixture::make();
  const std::vector<cdn::workload::ServerId> bad{0, 7};
  EXPECT_THROW(RequestStream(f.catalog, f.demand, 1, bad),
               cdn::PreconditionError);
}

TEST(RequestStreamTest, RejectsMismatchedCatalogAndDemand) {
  const auto f = Fixture::make();
  const auto other_demand =
      DemandMatrix::from_values(1, 2, std::vector<double>{1.0, 1.0});
  EXPECT_THROW(RequestStream(f.catalog, other_demand, 1),
               cdn::PreconditionError);
}

}  // namespace
