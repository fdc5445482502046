// Placement model tiers (--placement-model): accuracy of the closed-form
// candidate pricing against the exact Eq. 1/Eq. 2 model, the 1% final-cost
// gate of the error-gated fallback, tier counters, and the CLI parsing
// helpers.
//
// The contract under test (docs/PERFORMANCE.md, "Placement model tiers"):
// tiers price the candidate *ranking* only — the hit matrix, miss flows,
// cost trajectory and final states stay exact — and the margin fallback
// keeps the final hybrid cost within 1% of the exact engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/obs/registry.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/hybrid_internal.h"
#include "src/placement/model_support.h"
#include "src/placement/tier_evaluator.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using cdn::placement::hybrid_greedy;
using cdn::placement::HybridGreedyOptions;
using cdn::placement::ModelContext;
using cdn::placement::modeled_hit_matrix;
using cdn::placement::parse_placement_model;
using cdn::placement::PlacementModel;
using cdn::placement::placement_model_name;
using cdn::placement::RelativeColumns;
using cdn::placement::TierEvaluator;
using cdn::test::TestSystem;
using cdn::PreconditionError;

// ---------------------------------------------------------------------------
// TierEvaluator pricing accuracy against the exact penalty.

struct TierFixture {
  TestSystem t;
  ModelContext context;
  std::vector<cdn::model::ServerCacheState> states;
  cdn::sys::ReplicaPlacement placement;
  cdn::sys::NearestReplicaIndex nearest;
  std::vector<double> hit;

  explicit TierFixture(TestSystem sys)
      : t(std::move(sys)),
        context(*t.system),
        states(context.make_states()),
        placement(t.system->server_storage(), t.system->site_bytes()),
        nearest(t.system->distances(), placement),
        hit(modeled_hit_matrix(states)) {}

  TierEvaluator make_evaluator() const {
    return TierEvaluator(*t.system, states, nearest, context.curve());
  }
};

/// Max |exact - tier| over all feasible candidates, as a fraction of the
/// largest |exact| penalty (the natural scale of the ranking decision).
void expect_penalty_accuracy(double rel_tol) {
  const TierFixture f(TestSystem::make(5, 8, 3, 120, 0.12, 4.0, 17));
  const TierEvaluator evaluator = f.make_evaluator();
  const std::size_t n = f.t.system->server_count();
  const std::size_t m = f.t.system->site_count();
  double scale = 0.0;
  std::vector<double> exact(n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<std::uint32_t>(j);
      if (!f.states[i].can_fit(site) || f.states[i].is_replicated(site)) {
        continue;
      }
      exact[i * m + j] = cdn::placement::detail::hybrid_cache_penalty(
          *f.t.system, f.nearest, f.states[i], f.hit,
          static_cast<cdn::sys::ServerIndex>(i),
          static_cast<cdn::sys::SiteIndex>(j), nullptr);
      scale = std::max(scale, std::abs(exact[i * m + j]));
    }
  }
  ASSERT_GT(scale, 0.0) << "vacuous fixture: every exact penalty is zero";
  std::size_t compared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<std::uint32_t>(j);
      if (!f.states[i].can_fit(site) || f.states[i].is_replicated(site)) {
        continue;
      }
      const double priced = evaluator.penalty(
          static_cast<cdn::sys::ServerIndex>(i),
          static_cast<cdn::sys::SiteIndex>(j));
      EXPECT_NEAR(priced, exact[i * m + j], rel_tol * scale)
          << "candidate (" << i << ", " << j << ")";
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(evaluator.evaluations(), compared);
}

TEST(TierEvaluatorTest, ClosedFormPenaltyTracksExact) {
  // The penalty is a difference of two nearly-equal expectations, so the
  // closed-form-vs-empirical model gap (a few percent per term) amplifies;
  // measured worst case is ~6.5% of the benefit scale and is grid-size
  // independent (it is model error, not tabulation error).  The engine's
  // exact-verify fallback owns the final accuracy (1% cost gate below).
  expect_penalty_accuracy(0.10);
}

TEST(TierEvaluatorTest, RelativeColumnsMatchExactGain) {
  const TierFixture f(TestSystem::make(5, 7, 2, 110, 0.1, 5.0, 23));
  const std::vector<double> flow = cdn::placement::miss_flow_matrix(
      *f.t.system, f.hit);
  RelativeColumns columns;
  columns.build(*f.t.system, f.placement, f.nearest, flow);
  const std::size_t n = f.t.system->server_count();
  const std::size_t m = f.t.system->site_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<cdn::sys::ServerIndex>(i);
      const auto site = static_cast<cdn::sys::SiteIndex>(j);
      const double exact = cdn::placement::detail::hybrid_relative_gain(
          *f.t.system, f.placement, f.nearest, f.hit, flow.data(), server,
          site);
      // Same ascending-k accumulation order: bitwise identity, not NEAR.
      EXPECT_EQ(columns.relative_gain(server, site), exact)
          << "candidate (" << i << ", " << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the error-gated fallback keeps the final cost within 1%.

TEST(PlacementTierGateTest, TieredFinalCostWithinOnePercentOfExact) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto t = TestSystem::make(
        3 + seed % 6, 4 + seed % 5, 1 + seed % 3, 100,
        0.05 + 0.03 * static_cast<double>(seed % 7),
        2.0 + static_cast<double>(seed % 9), seed);
    const auto exact = hybrid_greedy(*t.system);
    ASSERT_GT(exact.predicted_total_cost, 0.0);
    HybridGreedyOptions options;
    options.placement_model = PlacementModel::kClosedForm;
    const auto tiered = hybrid_greedy(*t.system, options);
    EXPECT_LE(
        std::abs(tiered.predicted_total_cost - exact.predicted_total_cost),
        0.01 * exact.predicted_total_cost);
  }
}

TEST(PlacementTierGateTest, TierCountersExportedOnlyWhenTiered) {
  const auto t = TestSystem::make();
  cdn::obs::Registry exact_registry;
  HybridGreedyOptions exact_options;
  exact_options.metrics = &exact_registry;
  hybrid_greedy(*t.system, exact_options);
  EXPECT_EQ(exact_registry.find_counter("placement/hybrid/tier_evaluations"),
            nullptr);

  cdn::obs::Registry tier_registry;
  HybridGreedyOptions tier_options;
  tier_options.placement_model = PlacementModel::kClosedForm;
  tier_options.metrics = &tier_registry;
  hybrid_greedy(*t.system, tier_options);
  const auto* evals =
      tier_registry.find_counter("placement/hybrid/tier_evaluations");
  ASSERT_NE(evals, nullptr);
  EXPECT_GT(evals->value(), 0u);
  EXPECT_NE(tier_registry.find_counter("placement/hybrid/tier_fallbacks"),
            nullptr);
  EXPECT_NE(tier_registry.find_counter("placement/hybrid/tier_margin_hits"),
            nullptr);
}

TEST(PlacementTierGateTest, ClosedFormAcceptsZeroSlotServers) {
  // Storage so small that no server has a single LRU slot (and no replica
  // fits): the closed-form tier must accept the system, not refuse it, and
  // match the exact tier.
  const auto t = TestSystem::make(4, 6, 2, 100, 1e-7);
  ASSERT_EQ(ModelContext(*t.system).make_states().front().buffer_slots(), 0u)
      << "fixture regression: expected a zero-slot cache";
  HybridGreedyOptions options;
  options.placement_model = PlacementModel::kClosedForm;
  const auto tiered = hybrid_greedy(*t.system, options);
  const auto exact = hybrid_greedy(*t.system);
  EXPECT_EQ(tiered.replicas_created, exact.replicas_created);
  EXPECT_EQ(tiered.predicted_total_cost, exact.predicted_total_cost);
}

TEST(PlacementTierGateTest, ExactTierIsByteIdenticalToDefaultRun) {
  // --placement-model=exact must leave the engine untouched: identical
  // placement, trajectory and predictions.
  const auto t = TestSystem::make();
  const auto a = hybrid_greedy(*t.system);
  HybridGreedyOptions explicit_exact;
  explicit_exact.placement_model = PlacementModel::kExact;
  const auto b = hybrid_greedy(*t.system, explicit_exact);
  EXPECT_EQ(a.predicted_total_cost, b.predicted_total_cost);
  EXPECT_EQ(a.replicas_created, b.replicas_created);
  ASSERT_EQ(a.cost_trajectory.size(), b.cost_trajectory.size());
  for (std::size_t k = 0; k < a.cost_trajectory.size(); ++k) {
    EXPECT_EQ(a.cost_trajectory[k], b.cost_trajectory[k]);
  }
}

// ---------------------------------------------------------------------------
// CLI parsing + coherence note.

TEST(PlacementModelParseTest, RoundTripsEveryTier) {
  for (const PlacementModel tier :
       {PlacementModel::kExact, PlacementModel::kClosedForm}) {
    EXPECT_EQ(parse_placement_model(placement_model_name(tier)), tier);
  }
  EXPECT_EQ(parse_placement_model("exact"), PlacementModel::kExact);
  EXPECT_EQ(parse_placement_model("closed-form"), PlacementModel::kClosedForm);
}

TEST(PlacementModelParseTest, RejectsUnknownNames) {
  EXPECT_THROW(parse_placement_model(""), PreconditionError);
  EXPECT_THROW(parse_placement_model("closedform"), PreconditionError);
  EXPECT_THROW(parse_placement_model("Che"), PreconditionError);
  EXPECT_THROW(parse_placement_model("che"), PreconditionError);
  EXPECT_THROW(parse_placement_model("empirical"), PreconditionError);
  // The diagnostic names the accepted values.
  try {
    parse_placement_model("che");
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("exact or closed-form"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlacementModelParseTest, MismatchNoteFlagsIncoherentPairs) {
  using cdn::core::model_tier_mismatch_note;
  // Coherent pairs are silent.
  EXPECT_EQ(model_tier_mismatch_note("empirical", "exact"), "");
  EXPECT_EQ(model_tier_mismatch_note("closed-form", "closed-form"), "");
  // Every incoherent pair produces a note naming both flags; --hit-model=che
  // has no placement twin, so every pairing with it is incoherent.
  for (const std::string hit : {"empirical", "closed-form", "che"}) {
    for (const std::string placement : {"exact", "closed-form"}) {
      const std::string note = model_tier_mismatch_note(hit, placement);
      const bool coherent =
          (hit == "empirical" && placement == "exact") ||
          (hit == "closed-form" && placement == "closed-form");
      if (coherent) {
        EXPECT_EQ(note, "") << hit << " / " << placement;
      } else {
        EXPECT_NE(note.find("--hit-model=" + hit), std::string::npos);
        EXPECT_NE(note.find("--placement-model=" + placement),
                  std::string::npos);
      }
    }
  }
}

}  // namespace
