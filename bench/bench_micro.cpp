// Micro-benchmarks (google-benchmark) for the hot primitives: cache
// operations, samplers, BFS, and the analytical model's inner loops.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/cache/cache_factory.h"
#include "src/cache/probe_table.h"
#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/model/characteristic_time.h"
#include "src/model/hit_ratio_curve.h"
#include "src/model/steady_state.h"
#include "src/obs/registry.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"
#include "src/sim/simulator.h"
#include "src/topology/shortest_paths.h"
#include "src/topology/transit_stub.h"
#include "src/util/quantile_sketch.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"
#include "src/workload/request_stream.h"

namespace {

using namespace cdn;

void BM_LruAccessZipf(benchmark::State& state) {
  const auto policy = static_cast<cache::PolicyKind>(state.range(0));
  auto cache = cache::make_cache(policy, 10'000);
  const util::ZipfDistribution zipf(100'000, 1.0);
  util::Rng rng(1);
  for (auto _ : state) {
    const auto key = static_cast<cache::ObjectKey>(zipf.sample(rng));
    benchmark::DoNotOptimize(cache->access(key, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruAccessZipf)
    ->Arg(static_cast<int>(cache::PolicyKind::kLru))
    ->Arg(static_cast<int>(cache::PolicyKind::kFifo))
    ->Arg(static_cast<int>(cache::PolicyKind::kLfu))
    ->Arg(static_cast<int>(cache::PolicyKind::kClock))
    ->Arg(static_cast<int>(cache::PolicyKind::kDelayedLru));

// The open-addressed probe behind the cache policies' hit path, isolated
// from eviction/recency bookkeeping.  Arg 0 = steady-state probes against a
// warm table; arg 1 adds insert+erase churn on every miss, exercising the
// backward-shift deletion path.
void BM_CacheProbe(benchmark::State& state) {
  cache::ProbeTable table;
  constexpr std::uint64_t kResident = 10'000;
  for (std::uint64_t k = 1; k <= kResident; ++k) {
    table.insert(k, static_cast<std::uint32_t>(k));
  }
  const util::ZipfDistribution zipf(100'000, 1.0);
  util::Rng rng(1);
  const bool churn = state.range(0) != 0;
  for (auto _ : state) {
    const auto key = static_cast<std::uint64_t>(zipf.sample(rng));
    const std::uint32_t slot = table.find(key);
    if (churn && slot == cache::ProbeTable::kNil) {
      table.insert(key, 0);
      table.erase(key);
    }
    benchmark::DoNotOptimize(slot);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbe)
    ->Arg(0)   // probe only (hit path)
    ->Arg(1);  // probe + insert/erase churn on misses

// SoA batch generation — the data-oriented hot loop's input stage.  Items
// are requests, so items_per_second is the generator's ceiling on engine
// throughput.
void BM_RequestBatchGen(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.server_count = 16;
  cfg.classes = {{10, 1.0, "low"}, {6, 4.0, "medium"}, {4, 16.0, "high"}};
  cfg.surge.objects_per_site = 200;
  cfg.storage_fraction = 0.05;
  cfg.seed = 2005;
  const core::Scenario scenario(cfg);
  workload::RequestStream stream(scenario.system().catalog(),
                                 scenario.system().demand(), 99);
  workload::RequestBatch batch;
  constexpr std::size_t kBatch = 4096;  // the engines' chunk size
  for (auto _ : state) {
    stream.next_batch(batch, kBatch);
    benchmark::DoNotOptimize(batch.rank.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_RequestBatchGen);

void BM_ZipfSample(benchmark::State& state) {
  const util::ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)),
                                    1.0);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_AliasSample(benchmark::State& state) {
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  const util::AliasSampler sampler(weights);
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample)->Arg(10000);

void BM_BfsTransitStub(benchmark::State& state) {
  util::Rng rng(4);
  const auto topo =
      topology::generate_transit_stub(topology::TransitStubParams{}, rng);
  util::Rng pick(5);
  for (auto _ : state) {
    const auto source = static_cast<topology::NodeId>(
        pick.uniform_index(topo.graph.node_count()));
    benchmark::DoNotOptimize(topology::bfs_hops(topo.graph, source));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(topo.graph.node_count()));
}
BENCHMARK(BM_BfsTransitStub);

void BM_CharacteristicTimeClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::characteristic_time_closed_form(100'000, 0.7));
  }
}
BENCHMARK(BM_CharacteristicTimeClosedForm);

void BM_CharacteristicTimeExact(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::characteristic_time_exact(100'000, 0.7));
  }
}
BENCHMARK(BM_CharacteristicTimeExact);

// Per-server steady-state hit-ratio cost of the flow engine's --hit-model
// tiers (one call prices a server's whole site row).
// Arg 0 = closed-form, arg 1 = Che (fixed-point solve + per-site N(z)).
void BM_SteadyStateTier(benchmark::State& state) {
  const auto tier = state.range(0) == 0 ? model::SteadyStateModel::kClosedForm
                                        : model::SteadyStateModel::kChe;
  constexpr std::size_t kSites = 256;
  const util::ZipfDistribution zipf(1000, 0.8);
  const model::HitRatioCurve curve(zipf);
  const model::OccupancyCurve occupancy(zipf);
  std::vector<double> popularity(kSites);
  std::vector<std::uint8_t> replicated(kSites, 0);
  std::vector<double> lambdas(kSites, 0.05);
  double total = 0.0;
  for (std::size_t j = 0; j < kSites; ++j) {
    popularity[j] = 1.0 / static_cast<double>(j + 1);
    total += popularity[j];
  }
  for (double& p : popularity) p /= total;
  replicated[3] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::steady_state_hit_ratios(
        tier, popularity, replicated, lambdas, zipf, curve, &occupancy,
        20'000));
  }
  state.SetItemsProcessed(state.iterations() * kSites);
}
BENCHMARK(BM_SteadyStateTier)->Arg(0)->Arg(1);

void BM_HitRatioTableEvaluate(benchmark::State& state) {
  const util::ZipfDistribution zipf(1000, 1.0);
  const model::HitRatioCurve curve(zipf);
  double p = 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.evaluate(p, 5000.0));
    p = p < 0.05 ? p * 1.01 : 1e-4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitRatioTableEvaluate);

void BM_HitRatioExact(benchmark::State& state) {
  const util::ZipfDistribution zipf(1000, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::lru_hit_ratio_exact(zipf, 0.005, 5000.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitRatioExact);

void BM_TopBProbability(benchmark::State& state) {
  const util::ZipfDistribution zipf(1000, 1.0);
  std::vector<double> weights(200);
  for (std::size_t j = 0; j < weights.size(); ++j) {
    weights[j] = 1.0 / static_cast<double>(j + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::top_b_cumulative_probability(
        weights, zipf, static_cast<std::uint64_t>(state.range(0))));
  }
}
BENCHMARK(BM_TopBProbability)->Arg(1000)->Arg(10000);

// End-to-end simulator throughput in requests/sec (items_per_second in the
// JSON output — the CI throughput artifact).  Arg 0 = engine threads:
// 1 is the one-shard reference, 0 a sharded run on all cores.
void BM_SimulateRequests(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.server_count = 16;
  cfg.classes = {{10, 1.0, "low"}, {6, 4.0, "medium"}, {4, 16.0, "high"}};
  cfg.surge.objects_per_site = 200;
  cfg.storage_fraction = 0.05;
  cfg.seed = 2005;
  const core::Scenario scenario(cfg);
  const auto placement =
      core::hybrid_mechanism(nullptr).build(scenario.system());

  sim::SimulationConfig sc;
  sc.total_requests = 500'000;
  sc.seed = 99;
  sc.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate(scenario.system(), placement, sc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sc.total_requests));
}
BENCHMARK(BM_SimulateRequests)
    ->Arg(1)   // one-shard reference run
    ->Arg(0)   // sharded run, all hardware threads
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// One Figure-2 candidate-benefit evaluation, with and without the
// precomputed miss-flow matrix (arg 1 = use the matrix).  The delta is the
// restructuring win the incremental engine banks on for every evaluation.
void BM_CandidateBenefit(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.server_count = 32;
  cfg.classes = {{12, 1.0, "low"}, {4, 8.0, "high"}};
  cfg.surge.objects_per_site = 100;
  cfg.storage_fraction = 0.05;
  cfg.seed = 2005;
  const core::Scenario scenario(cfg);
  const auto& system = scenario.system();

  const placement::ModelContext context(system);
  const auto states = context.make_states();
  const auto hit = placement::modeled_hit_matrix(states);
  const auto flow = placement::miss_flow_matrix(system, hit);
  const sys::ReplicaPlacement placement(system.server_storage(),
                                        system.site_bytes());
  const sys::NearestReplicaIndex nearest(system.distances(), placement);
  const bool use_flow = state.range(0) != 0;

  std::vector<std::pair<sys::ServerIndex, sys::SiteIndex>> feasible;
  for (sys::ServerIndex i = 0; i < system.server_count(); ++i) {
    for (sys::SiteIndex j = 0; j < system.site_count(); ++j) {
      if (placement.can_add(i, j)) feasible.emplace_back(i, j);
    }
  }

  std::size_t next = 0;
  for (auto _ : state) {
    const auto [i, j] = feasible[next];
    if (++next >= feasible.size()) next = 0;
    const double b =
        use_flow
            ? placement::hybrid_candidate_benefit(system, placement, nearest,
                                                  states[i], hit, flow.data(),
                                                  i, j)
            : placement::hybrid_candidate_benefit(system, placement, nearest,
                                                  states[i], hit, i, j);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CandidateBenefit)
    ->Arg(0)   // elementwise products recomputed per call
    ->Arg(1);  // precomputed miss-flow matrix

// Whole hybrid runs; items = candidate evaluations, so items_per_second
// is evaluation throughput and iterations is wall-clock.
void BM_HybridGreedyIteration(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.server_count = 48;
  cfg.classes = {{16, 1.0, "low"}, {8, 8.0, "high"}};
  cfg.surge.objects_per_site = 100;
  cfg.storage_fraction = 0.05;
  cfg.seed = 2005;
  const core::Scenario scenario(cfg);

  std::int64_t candidates = 0;
  for (auto _ : state) {
    obs::Registry registry;
    placement::HybridGreedyOptions options;
    options.metrics = &registry;
    benchmark::DoNotOptimize(
        placement::hybrid_greedy(scenario.system(), options));
    if (const auto* c =
            registry.find_counter("placement/hybrid/candidates_evaluated")) {
      candidates += static_cast<std::int64_t>(c->value());
    }
  }
  state.SetItemsProcessed(candidates);
}
BENCHMARK(BM_HybridGreedyIteration)->Unit(benchmark::kMillisecond);

void BM_QuantileSketchAdd(benchmark::State& state) {
  util::QuantileSketch sketch(0.005);
  util::Rng rng(6);
  for (auto _ : state) {
    sketch.add(2.0 + 30.0 * rng.uniform());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileSketchAdd);

}  // namespace

BENCHMARK_MAIN();
