// Literal digests of the placement engines.  The other placement tests
// compare runs with each other: placement_engine_equivalence_test checks the
// engines against a test oracle that shares hybrid_candidate_benefit,
// ModelContext and total_remote_cost with them.  A drift in a shared helper
// would pass that comparison; these pins would not.  Each value is an FNV-1a
// over the placement digest, the cost trajectory, the modelled hit matrix
// and the predicted total cost of one fixed TestSystem run.  A deliberate
// change to what placement computes must re-record them and say why.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/placement_io.h"
#include "src/util/serial.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::placement::HybridGreedyOptions;
using cdn::placement::PlacementResult;
using cdn::test::TestSystem;

std::uint64_t result_digest(const PlacementResult& result) {
  util::ByteWriter w;
  w.u64(placement::placement_digest(result.placement));
  w.u64(result.cost_trajectory.size());
  for (const double c : result.cost_trajectory) w.f64(c);
  w.u64(result.modeled_hit.size());
  for (const double h : result.modeled_hit) w.f64(h);
  w.f64(result.predicted_total_cost);
  return util::fnv1a(w.buffer().data(), w.size());
}

/// 24 servers and 18 sites: large enough that every invalidation class of
/// the incremental engine fires many times per run.
TestSystem pin_system() { return TestSystem::make(24, 12, 6, 100, 0.08); }

class PlacementDigestPinTest : public ::testing::Test {
 protected:
  PlacementDigestPinTest() : t_(pin_system()) {}

  PlacementResult hybrid(const HybridGreedyOptions& options = {}) const {
    return placement::hybrid_greedy(*t_.system, options);
  }

  TestSystem t_;
};

TEST_F(PlacementDigestPinTest, HybridExactDefault) {
  const auto result = hybrid();
  EXPECT_EQ(result.replicas_created, 30u);
  EXPECT_EQ(result_digest(result), 0x40c562032befbf7cull);
}

TEST_F(PlacementDigestPinTest, HybridExactSeeded) {
  HybridGreedyOptions seed_options;
  seed_options.max_replicas = 10;
  const auto seed = hybrid(seed_options);
  ASSERT_EQ(seed.replicas_created, 10u);
  HybridGreedyOptions options;
  options.seed = &seed.placement;
  EXPECT_EQ(result_digest(hybrid(options)), 0x33918e1bbe147036ull);
}

TEST_F(PlacementDigestPinTest, HybridExactAddCostPerByte) {
  // The threshold never binds on this system, so the pin equals the default
  // run's: the budget term must not move any commit or the stop decision.
  HybridGreedyOptions options;
  options.add_cost_per_byte = 1e-9;
  EXPECT_EQ(result_digest(hybrid(options)), 0x40c562032befbf7cull);
}

TEST_F(PlacementDigestPinTest, HybridExactPerIterationPb) {
  HybridGreedyOptions options;
  options.pb_mode = model::PbMode::kPerIteration;
  EXPECT_EQ(result_digest(hybrid(options)), 0x9612b952d4be18b4ull);
}

TEST_F(PlacementDigestPinTest, GreedyGlobal) {
  const auto result = placement::greedy_global(*t_.system);
  EXPECT_EQ(result.replicas_created, 37u);
  EXPECT_EQ(result_digest(result), 0x0551a827e9a5edc6ull);
}

TEST_F(PlacementDigestPinTest, FixedSplit) {
  const auto result = placement::fixed_split(*t_.system, 0.2);
  EXPECT_EQ(result.replicas_created, 28u);
  EXPECT_EQ(result_digest(result), 0x5540a74dcb6fcd57ull);
}

}  // namespace
