// Unit tests for end-to-end scenario construction and the experiment layer.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/util/error.h"

namespace {

using cdn::core::Scenario;
using cdn::core::ScenarioConfig;

ScenarioConfig tiny_config(std::uint64_t seed = 3) {
  ScenarioConfig cfg;
  cfg.topology = {.transit_domains = 2,
                  .transit_nodes_per_domain = 2,
                  .stub_domains_per_transit_node = 2,
                  .nodes_per_stub_domain = 8};
  cfg.server_count = 5;
  cfg.surge.objects_per_site = 100;
  cfg.classes = {{4, 1.0, "low"}, {2, 8.0, "high"}};
  cfg.storage_fraction = 0.1;
  cfg.seed = seed;
  return cfg;
}

TEST(ScenarioTest, DimensionsMatchConfig) {
  const Scenario s(tiny_config());
  EXPECT_EQ(s.system().server_count(), 5u);
  EXPECT_EQ(s.system().site_count(), 6u);
  EXPECT_EQ(s.server_nodes().size(), 5u);
  EXPECT_EQ(s.primary_nodes().size(), 6u);
  EXPECT_EQ(s.topology().graph.node_count(),
            tiny_config().topology.total_nodes());
}

TEST(ScenarioTest, ServersAndPrimariesOnDistinctNodes) {
  const Scenario s(tiny_config());
  std::unordered_set<cdn::topology::NodeId> nodes;
  for (auto v : s.server_nodes()) EXPECT_TRUE(nodes.insert(v).second);
  for (auto v : s.primary_nodes()) EXPECT_TRUE(nodes.insert(v).second);
}

TEST(ScenarioTest, StorageIsFractionOfTotalBytes) {
  const Scenario s(tiny_config());
  const auto expected = static_cast<std::uint64_t>(
      0.1 * static_cast<double>(s.catalog().total_bytes()));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(s.system().server_storage(static_cast<cdn::sys::ServerIndex>(i)),
              expected);
  }
}

TEST(ScenarioTest, UncacheableFractionPropagates) {
  auto cfg = tiny_config();
  cfg.uncacheable_fraction = 0.25;
  const Scenario s(cfg);
  for (cdn::workload::SiteId j = 0; j < s.catalog().site_count(); ++j) {
    EXPECT_DOUBLE_EQ(s.catalog().uncacheable_fraction(j), 0.25);
  }
}

TEST(ScenarioTest, SameSeedReproduces) {
  const Scenario a(tiny_config(9));
  const Scenario b(tiny_config(9));
  EXPECT_EQ(a.server_nodes(), b.server_nodes());
  EXPECT_EQ(a.primary_nodes(), b.primary_nodes());
  EXPECT_EQ(a.catalog().total_bytes(), b.catalog().total_bytes());
  EXPECT_DOUBLE_EQ(a.demand().requests(0, 0), b.demand().requests(0, 0));
  EXPECT_DOUBLE_EQ(a.distances().server_to_primary(2, 3),
                   b.distances().server_to_primary(2, 3));
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  const Scenario a(tiny_config(1));
  const Scenario b(tiny_config(2));
  EXPECT_NE(a.server_nodes(), b.server_nodes());
}

TEST(ScenarioTest, DistancesAreFiniteAndSymmetricOnServers) {
  const Scenario s(tiny_config());
  for (cdn::sys::ServerIndex i = 0; i < 5; ++i) {
    for (cdn::sys::ServerIndex k = 0; k < 5; ++k) {
      const double c = s.distances().server_to_server(i, k);
      EXPECT_GE(c, 0.0);
      EXPECT_LT(c, 100.0);
      EXPECT_DOUBLE_EQ(c, s.distances().server_to_server(k, i));
    }
  }
}

TEST(ExperimentTest, MechanismSpecsProduceNamedResults) {
  const Scenario s(tiny_config());
  cdn::sim::SimulationConfig sim;
  sim.total_requests = 100'000;
  const auto runs = cdn::core::run_mechanisms(
      s,
      {cdn::core::replication_mechanism(), cdn::core::caching_mechanism(),
       cdn::core::hybrid_mechanism(),
       cdn::core::fixed_split_mechanism(0.2)},
      sim);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].name, "replication");
  EXPECT_EQ(runs[3].name, "cache20%");
  for (const auto& run : runs) {
    EXPECT_GT(run.report.mean_latency_ms, 0.0) << run.name;
  }
}

TEST(ExperimentTest, GainHelperSigns) {
  const Scenario s(tiny_config());
  cdn::sim::SimulationConfig sim;
  sim.total_requests = 100'000;
  const auto runs = cdn::core::run_mechanisms(
      s, {cdn::core::replication_mechanism(), cdn::core::hybrid_mechanism()},
      sim);
  const double gain = cdn::core::mean_latency_gain_percent(runs[0], runs[1]);
  // Hybrid should not be slower than replication by any notable margin.
  EXPECT_GT(gain, -5.0);
  // And self-gain is zero.
  EXPECT_DOUBLE_EQ(cdn::core::mean_latency_gain_percent(runs[0], runs[0]),
                   0.0);
}

TEST(ExperimentTest, CdfTableRendersAllRuns) {
  const Scenario s(tiny_config());
  cdn::sim::SimulationConfig sim;
  sim.total_requests = 50'000;
  const auto runs = cdn::core::run_mechanisms(
      s, {cdn::core::caching_mechanism(), cdn::core::hybrid_mechanism()},
      sim);
  const auto table = cdn::core::cdf_table(runs, 10);
  EXPECT_NE(table.find("caching"), std::string::npos);
  EXPECT_NE(table.find("hybrid"), std::string::npos);
}

TEST(ScenarioTest, RejectsZeroServers) {
  auto cfg = tiny_config();
  cfg.server_count = 0;
  EXPECT_THROW(Scenario{cfg}, cdn::PreconditionError);
}

TEST(ModelTierNoteTest, MismatchNoteFlagsIncoherentPairs) {
  using cdn::core::model_tier_mismatch_note;
  // Hybrid placement is priced with the exact Eq. 1/Eq. 2 model, which
  // --hit-model=empirical reads: that pair is silent.
  EXPECT_EQ(model_tier_mismatch_note("empirical"), "");
  // Every other hit model gets a note naming the flag and its value.
  for (const std::string hit : {"closed-form", "che"}) {
    const std::string note = model_tier_mismatch_note(hit);
    EXPECT_NE(note.find("--hit-model=" + hit), std::string::npos) << note;
  }
}

}  // namespace
