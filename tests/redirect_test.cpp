// Unit tests for load-aware server selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/scenario.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/redirect/server_selection.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;
using cdn::test::TestSystem;

TEST(ServerSelectionTest, NearestPolicyMatchesNearestIndexCosts) {
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  redirect::SelectionParams params;
  params.policy = redirect::SelectionPolicy::kNearest;
  const auto sel = redirect::assign_miss_traffic(*t.system, placement, params);
  // Network hops of the nearest rule == the model's cost per *redirected*
  // request; cross-check through total cost.
  double redirected = 0.0, cost = 0.0;
  for (std::size_t i = 0; i < t.system->server_count(); ++i) {
    for (std::size_t j = 0; j < t.system->site_count(); ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto site = static_cast<sys::SiteIndex>(j);
      if (placement.placement.is_replicated(server, site)) continue;
      const double f = t.system->demand().requests(server, site);
      redirected += f;
      cost += f * placement.nearest.cost(server, site);
    }
  }
  EXPECT_NEAR(sel.mean_network_hops, cost / redirected, 1e-9);
}

TEST(ServerSelectionTest, LoadAwareReducesPeakUtilization) {
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  redirect::SelectionParams nearest;
  nearest.policy = redirect::SelectionPolicy::kNearest;
  redirect::SelectionParams aware;
  aware.policy = redirect::SelectionPolicy::kLoadAware;
  const auto a = redirect::assign_miss_traffic(*t.system, placement, nearest);
  const auto b = redirect::assign_miss_traffic(*t.system, placement, aware);
  EXPECT_LE(b.max_server_utilization, a.max_server_utilization + 1e-9);
  // Balancing may pay some extra network distance.
  EXPECT_GE(b.mean_network_hops, a.mean_network_hops - 1e-9);
}

TEST(ServerSelectionTest, FlowConservation) {
  const auto t = TestSystem::make();
  const auto placement = placement::hybrid_greedy(*t.system);
  const auto sel = redirect::assign_miss_traffic(*t.system, placement);
  double assigned = 0.0;
  for (double f : sel.server_flow) assigned += f;
  for (double f : sel.primary_flow) assigned += f;
  double expected = 0.0;
  for (std::size_t i = 0; i < t.system->server_count(); ++i) {
    for (std::size_t j = 0; j < t.system->site_count(); ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto site = static_cast<sys::SiteIndex>(j);
      if (placement.placement.is_replicated(server, site)) continue;
      expected += t.system->demand().requests(server, site) *
                  (1.0 - placement.hit(server, site));
    }
  }
  EXPECT_NEAR(assigned, expected, 1e-6 * expected);
}

TEST(ServerSelectionTest, TightCapacitySpreadsLoad) {
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  redirect::SelectionParams tight;
  tight.policy = redirect::SelectionPolicy::kLoadAware;
  // Deliberately tight fleet: capacity ~ mean load.
  const auto nearest = redirect::assign_miss_traffic(
      *t.system, placement,
      {.policy = redirect::SelectionPolicy::kNearest});
  double total = 0.0;
  for (double f : nearest.server_flow) total += f;
  tight.server_capacity = 1.2 * total / static_cast<double>(
                                             t.system->server_count());
  tight.primary_capacity = tight.server_capacity * 4;
  const auto spread =
      redirect::assign_miss_traffic(*t.system, placement, tight);
  EXPECT_LT(spread.max_server_utilization, 1.0);
}

TEST(ServerSelectionTest, RejectsBadParams) {
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  redirect::SelectionParams bad;
  bad.iterations = 0;
  EXPECT_THROW(redirect::assign_miss_traffic(*t.system, placement, bad),
               cdn::PreconditionError);
  bad = {};
  bad.queue_weight = -1.0;
  EXPECT_THROW(redirect::assign_miss_traffic(*t.system, placement, bad),
               cdn::PreconditionError);
}

TEST(ServerSelectionTest, RejectsWrongHealthMaskLengths) {
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  const std::vector<std::uint8_t> short_mask(t.system->server_count() - 1, 1);
  redirect::SelectionParams p;
  p.server_up = &short_mask;
  EXPECT_THROW(redirect::assign_miss_traffic(*t.system, placement, p),
               cdn::PreconditionError);
  p = {};
  const std::vector<std::uint8_t> short_origin(t.system->site_count() - 1, 1);
  p.origin_up = &short_origin;
  EXPECT_THROW(redirect::assign_miss_traffic(*t.system, placement, p),
               cdn::PreconditionError);
}

TEST(ServerSelectionTest, DeadHolderReceivesNoFlow) {
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  std::vector<std::uint8_t> up(t.system->server_count(), 1);
  up[1] = 0;
  redirect::SelectionParams p;
  p.server_up = &up;
  const auto r = redirect::assign_miss_traffic(*t.system, placement, p);
  EXPECT_DOUBLE_EQ(r.server_flow[1], 0.0);
  // The dead server's own demand spilled somewhere — it shows up as
  // failed-over flow, and (origins are all up) none of it is lost.
  EXPECT_GT(r.failed_over_flow, 0.0);
  EXPECT_DOUBLE_EQ(r.unserved_flow, 0.0);
}

TEST(ServerSelectionTest, RegionOutageConservesFlowAndSkipsDeadServers) {
  // Kill EVERY server inside one stub domain — the paper's topology makes
  // a region-wide outage a natural fault unit — under a plan whose dead
  // servers still hold replicas and whose live ones serve cache hits: the
  // dead region gets no flow, and every miss that enters the redirect layer
  // lands on a live copy or is counted unserved.
  core::ScenarioConfig cfg;
  cfg.topology.transit_domains = 2;
  cfg.topology.transit_nodes_per_domain = 2;
  cfg.topology.stub_domains_per_transit_node = 2;
  cfg.topology.nodes_per_stub_domain = 4;  // 36 nodes total
  cfg.server_count = 12;
  cfg.classes = {{8, 1.0, "low"}, {4, 8.0, "high"}};
  cfg.surge.objects_per_site = 40;
  cfg.storage_fraction = 0.15;
  cfg.seed = 7;
  const core::Scenario scenario(cfg);
  const auto& system = scenario.system();
  const auto placement = placement::hybrid_greedy(system);

  // Pick the stub domain hosting the most servers and take it offline.
  const auto& domains = scenario.topology().stub_domains;
  const auto& nodes = scenario.server_nodes();
  std::vector<std::uint8_t> up(system.server_count(), 1);
  std::size_t best_domain = 0, best_count = 0;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    std::size_t count = 0;
    for (const auto node : nodes) {
      count += std::count(domains[d].nodes.begin(), domains[d].nodes.end(),
                          node) != 0;
    }
    if (count > best_count) {
      best_count = count;
      best_domain = d;
    }
  }
  ASSERT_GT(best_count, 0u);           // some domain hosts servers...
  ASSERT_LT(best_count, up.size());    // ...but not all of them
  std::vector<sys::ServerIndex> dead;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (std::count(domains[best_domain].nodes.begin(),
                   domains[best_domain].nodes.end(), nodes[i]) != 0) {
      up[i] = 0;
      dead.push_back(static_cast<sys::ServerIndex>(i));
    }
  }

  redirect::SelectionParams params;
  params.server_up = &up;
  const auto selection =
      redirect::assign_miss_traffic(system, placement, params);

  // Non-negativity, and dead servers receive no redirected flow.
  EXPECT_GE(selection.unserved_flow, 0.0);
  EXPECT_GT(selection.failed_over_flow, 0.0);  // the region had demand
  for (const sys::ServerIndex i : dead) {
    EXPECT_DOUBLE_EQ(selection.server_flow[i], 0.0) << "dead server " << i;
  }
  for (const double f : selection.server_flow) EXPECT_GE(f, 0.0);
  for (const double f : selection.primary_flow) EXPECT_GE(f, 0.0);

  // Conservation: a dead first hop spills its whole demand, a live one its
  // misses on the sites it does not replicate.
  double expected_total = 0.0;
  for (std::size_t i = 0; i < system.server_count(); ++i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    for (std::size_t j = 0; j < system.site_count(); ++j) {
      const auto site = static_cast<sys::SiteIndex>(j);
      if (up[i] == 0) {
        expected_total += system.demand().requests(server, site);
      } else if (!placement.placement.is_replicated(server, site)) {
        expected_total += system.demand().requests(server, site) *
                          (1.0 - placement.hit(server, site));
      }
    }
  }
  const double assigned =
      std::accumulate(selection.server_flow.begin(),
                      selection.server_flow.end(), 0.0) +
      std::accumulate(selection.primary_flow.begin(),
                      selection.primary_flow.end(), 0.0) +
      selection.unserved_flow;
  EXPECT_NEAR(assigned, expected_total, 1e-6 * std::max(1.0, expected_total));
}

TEST(ServerSelectionTest, HealthyMaskMatchesNoMask) {
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  const std::vector<std::uint8_t> all_up(t.system->server_count(), 1);
  const std::vector<std::uint8_t> origins_up(t.system->site_count(), 1);
  redirect::SelectionParams masked;
  masked.server_up = &all_up;
  masked.origin_up = &origins_up;
  const auto a = redirect::assign_miss_traffic(*t.system, placement, {});
  const auto b = redirect::assign_miss_traffic(*t.system, placement, masked);
  EXPECT_DOUBLE_EQ(a.mean_response_cost, b.mean_response_cost);
  EXPECT_DOUBLE_EQ(a.mean_network_hops, b.mean_network_hops);
  EXPECT_EQ(a.server_flow, b.server_flow);
  EXPECT_DOUBLE_EQ(b.failed_over_flow, 0.0);
  EXPECT_DOUBLE_EQ(b.unserved_flow, 0.0);
}

TEST(ServerSelectionTest, FlowWithNoLiveCopyIsUnserved) {
  const auto t = TestSystem::make();
  // Pure caching: no replica holders, so a dead origin with a dead
  // first-hop server strands that server's demand.
  const auto placement = placement::pure_caching(*t.system);
  std::vector<std::uint8_t> up(t.system->server_count(), 1);
  up[0] = 0;
  std::vector<std::uint8_t> origins(t.system->site_count(), 1);
  origins[2] = 0;
  redirect::SelectionParams p;
  p.server_up = &up;
  p.origin_up = &origins;
  const auto r = redirect::assign_miss_traffic(*t.system, placement, p);
  EXPECT_GT(r.unserved_flow, 0.0);
  // Live servers' misses on site 2 are also unserved (nowhere to go).
  EXPECT_DOUBLE_EQ(r.primary_flow[2], 0.0);
}

TEST(ServerSelectionTest, LoadAwareNeverRoutesToADeadOrigin) {
  // Primaries 3 hops away on an 8-server line, so site 0's origin competes
  // with its replicas — until it is down, when it must get no flow at all
  // however loaded the live holders are.
  const auto t = TestSystem::make(8, 6, 2, 100, 0.15, 3.0);
  const auto placement = placement::greedy_global(*t.system);
  std::vector<std::uint8_t> origins(t.system->site_count(), 1);
  origins[0] = 0;
  redirect::SelectionParams p;
  p.policy = redirect::SelectionPolicy::kLoadAware;
  p.origin_up = &origins;
  const auto r = redirect::assign_miss_traffic(*t.system, placement, p);
  EXPECT_EQ(r.primary_flow[0], 0.0);
  EXPECT_DOUBLE_EQ(r.unserved_flow, 0.0);  // site 0 has live replicas
  // Its miss flow went to those replicas instead.
  double replica_flow = 0.0;
  for (const double f : r.server_flow) replica_flow += f;
  EXPECT_GT(replica_flow, 0.0);
}

TEST(ServerSelectionTest, AutoCapacityClampsToPositiveFloor) {
  // Zero demand => the nearest-copy pass assigns zero flow everywhere and
  // the auto capacity must fall back to its positive floor instead of 0
  // (which would divide by zero in the utilisation report).
  const auto t = TestSystem::make();
  const auto placement = placement::greedy_global(*t.system);
  const std::vector<double> zeros(
      t.system->server_count() * t.system->site_count(), 0.0);
  const auto no_demand = workload::DemandMatrix::from_values(
      t.system->server_count(), t.system->site_count(), zeros);
  const sys::CdnSystem quiet(*t.catalog, no_demand, *t.distances, 0.15);
  const auto r = redirect::assign_miss_traffic(quiet, placement, {});
  EXPECT_DOUBLE_EQ(r.max_server_utilization, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_server_utilization, 0.0);
  EXPECT_FALSE(std::isnan(r.mean_response_cost));
}

}  // namespace
