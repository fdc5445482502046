// The planner workloads.
//
//   paper-e2e   the paper's Section 5.1 run and hybridcdn_cli's default
//               path: scenario -> hybrid placement (default options) ->
//               sequential event engine -> the same stream on the shard
//               engine (kShards pinned, threads <= budget).
//   plan-large  twice the paper's fleet: scenario -> hybrid and
//               replication placement (default options) -> flow report, so
//               no request loop runs.
//
// Each measured pass rebuilds the scenario, so run_s is the whole
// scenario -> placement -> report time, and setup_s (the scenario build) is
// sampled in every pass, across the whole measured window.  peak_rss_mb is
// read after the first pass, as one hybridcdn_cli run would peak: later
// passes reuse freed memory as the allocator's thresholds adapt, so the
// peak after many passes depended on how many fitted in the budget (43 MB
// after 3 plan-large passes, 70 MB after 10).  The traced run adds the layer
// replays: the request loop's stages (batch generation, cache access,
// nearest-replica lookup) timed through their public entry points over the
// stream the simulator ran, and hybrid_candidate_benefit swept over every
// candidate of the initial state.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>

#include "bench.h"
#include "src/cache/cache_factory.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"
#include "src/placement/placement_io.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/simulator.h"
#include "src/workload/request_stream.h"

namespace perfbench {
namespace {

using namespace cdn;

/// Requests per event engine per paper-e2e pass.
constexpr std::uint64_t kRequests = 2'000'000;
/// Pinned, because the shard report is a function of (seed, shards).
constexpr std::size_t kShards = 16;
/// plan-large: servers, and sites per popularity class (low/medium/high).
constexpr std::size_t kLargeServers = 100;
constexpr std::size_t kLargeLow = 50;
constexpr std::size_t kLargeMedium = 100;
constexpr std::size_t kLargeHigh = 50;
constexpr std::size_t kMinPasses = 3;
/// Passes of a traced run: a fixed count, so the trace's self times are
/// those of a fixed amount of work.
constexpr std::size_t kTracedPasses = 3;
/// Scenario builds per pass, the pass's own included.  One build takes
/// milliseconds and single builds vary by +-25%, so setup_s is the median
/// of many builds spread across the window.
constexpr std::size_t kSetupsPerPass = 8;
constexpr std::size_t kReplayChunk = 4096;
constexpr std::uint64_t kStreamSalt = 0x73747265616dULL;

core::ScenarioConfig large_config(std::uint64_t seed) {
  core::ScenarioConfig config = paper_config(seed);
  config.server_count = kLargeServers;
  config.classes = {{kLargeLow, 1.0, "low"},
                    {kLargeMedium, 4.0, "medium"},
                    {kLargeHigh, 16.0, "high"}};
  return with_demand_mix(config, seed);
}

sim::SimulationConfig sim_config(std::uint64_t seed) {
  sim::SimulationConfig config;
  config.total_requests = kRequests;
  config.seed = derive_seed(seed, kStreamSalt);
  return config;
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

std::unique_ptr<core::Scenario> build_scenario(
    const core::ScenarioConfig& config, obs::SpanTracer* spans,
    double& seconds) {
  const auto start = Clock::now();
  obs::ScopedSpan span(spans, "core/scenario", "core");
  auto scenario = std::make_unique<core::Scenario>(config);
  span.stop();
  seconds = seconds_since(start);
  return scenario;
}

/// Set-up samples of one pass: kSetupsPerPass - 1 scenario builds before
/// the pass's timed work, untraced; the pass adds its own build.
std::vector<double> sample_setups(const core::ScenarioConfig& config) {
  std::vector<double> samples(kSetupsPerPass - 1);
  for (double& seconds : samples) build_scenario(config, nullptr, seconds);
  return samples;
}

/// Counts the hybrid placement reports through HybridGreedyOptions::metrics.
struct HybridCounts {
  double candidates = 0.0;
  double reevaluations = 0.0;
  double repairs = 0.0;
  double stale_discarded = 0.0;
  double curve_clamped = 0.0;
};

double counter(const obs::Registry& metrics, const std::string& name) {
  const obs::Counter* c = metrics.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

HybridCounts read_counts(const obs::Registry& metrics) {
  return {counter(metrics, "placement/hybrid/candidates_evaluated"),
          counter(metrics, "placement/hybrid/heap/reevaluations"),
          counter(metrics, "placement/hybrid/heap/repairs"),
          counter(metrics, "placement/hybrid/heap/stale_discarded"),
          counter(metrics, "model/curve_clamped")};
}

placement::PlacementResult run_hybrid(const sys::CdnSystem& system,
                                      obs::SpanTracer* spans,
                                      obs::Registry* metrics) {
  placement::HybridGreedyOptions options;
  options.spans = spans;
  options.metrics = metrics;
  obs::ScopedSpan span(spans, "placement/hybrid_greedy", "placement");
  return placement::hybrid_greedy(system, options);
}

placement::PlacementResult run_replication(const sys::CdnSystem& system,
                                           obs::SpanTracer* spans) {
  placement::GreedyGlobalOptions options;
  options.spans = spans;
  obs::ScopedSpan span(spans, "placement/greedy_global", "placement");
  return placement::greedy_global(system, options);
}

sim::SimulationReport run_simulate(const sys::CdnSystem& system,
                                   const placement::PlacementResult& plan,
                                   const sim::SimulationConfig& config,
                                   const char* span_name,
                                   obs::SpanTracer* spans) {
  obs::ScopedSpan span(spans, span_name, "sim");
  return sim::simulate(system, plan, config);
}

/// Runs passes until the budget is spent, and at least `min_passes`.
template <typename Pass>
auto run_passes(double budget_s, std::size_t min_passes, Pass pass) {
  std::vector<decltype(pass())> passes;
  const auto start = Clock::now();
  while (passes.size() < min_passes || seconds_since(start) < budget_s) {
    passes.push_back(pass());
  }
  return passes;
}

template <typename Pass, typename Field>
std::vector<double> column(const std::vector<Pass>& passes,
                           Field Pass::*field) {
  std::vector<double> out;
  for (const Pass& p : passes) out.push_back(static_cast<double>(p.*field));
  return out;
}

/// Every set-up sample of every pass.
template <typename Pass>
std::vector<double> setup_samples(const std::vector<Pass>& passes) {
  std::vector<double> out;
  for (const Pass& p : passes) out.insert(out.end(), p.setup_s.begin(), p.setup_s.end());
  return out;
}

/// Passes whose `field` differs from the first pass's.
template <typename Pass>
std::size_t unstable(const std::vector<Pass>& passes,
                     std::uint64_t Pass::*field) {
  return static_cast<std::size_t>(
      std::count_if(passes.begin(), passes.end(), [&](const Pass& p) {
        return p.*field != passes.front().*field;
      }));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_stable(Result& result, const std::string& name,
                  std::size_t mismatches, std::size_t passes,
                  std::uint64_t first) {
  result.check(name, mismatches == 0,
               std::to_string(mismatches) + " of " + std::to_string(passes) +
                   " passes differ from the first (" + hex(first) + ")");
}

/// Mean cost of one hybrid_candidate_benefit call over every feasible
/// (server, site) candidate of the initial state, as the placement engines
/// call it (with the precomputed miss-flow matrix).
struct CandidateSweep {
  double ns_per_call = 0.0;
  std::uint64_t calls = 0;
  double benefit_sum = 0.0;
};

CandidateSweep sweep_candidates(const sys::CdnSystem& system,
                                obs::SpanTracer* spans) {
  const placement::ModelContext context(system);
  const std::vector<model::ServerCacheState> states = context.make_states();
  const sys::ReplicaPlacement empty(system.server_storage(),
                                    system.site_bytes());
  const sys::NearestReplicaIndex nearest(system.distances(), empty);
  const std::vector<double> hit = placement::modeled_hit_matrix(states);
  const std::vector<double> flow = placement::miss_flow_matrix(system, hit);
  CandidateSweep sweep;
  obs::ScopedSpan span(spans, "placement/candidate_sweep", "placement");
  const auto start = Clock::now();
  for (sys::ServerIndex i = 0; i < system.server_count(); ++i) {
    for (sys::SiteIndex j = 0; j < system.site_count(); ++j) {
      if (!states[i].can_fit(j)) continue;
      sweep.benefit_sum += placement::hybrid_candidate_benefit(
          system, empty, nearest, states[i], hit, flow.data(), i, j);
      ++sweep.calls;
    }
  }
  const double ns = seconds_since(start) * 1e9;
  sweep.ns_per_call = sweep.calls > 0 ? ns / static_cast<double>(sweep.calls)
                                      : 0.0;
  return sweep;
}

void report_sweep(Result& result, const CandidateSweep& sweep) {
  result.set("placement.candidate_benefit_ns", sweep.ns_per_call, "ns",
             sweep.calls);
  result.check("candidate_sweep_finite",
               sweep.calls > 0 && std::isfinite(sweep.benefit_sum),
               std::to_string(sweep.calls) + " calls, benefit sum " +
                   std::to_string(sweep.benefit_sum));
}

// ---------------------------------------------------------------- paper-e2e

struct PaperPass {
  std::vector<double> setup_s;  // every scenario build of the pass
  double scenario_s = 0.0;
  double plan_s = 0.0;
  double seq_s = 0.0;
  double par_s = 0.0;
  double total_s = 0.0;
  std::uint64_t plan_digest = 0;
  std::uint64_t seq_digest = 0;
  std::uint64_t par_digest = 0;
  double seq_latency_ms = 0.0;
  double par_latency_ms = 0.0;
  std::uint64_t measured = 0;
  std::size_t replicas = 0;
  double predicted_cost = 0.0;
  double local_ratio = 0.0;
  double cost_hops = 0.0;
  double cache_hit_ratio = 0.0;
  // Traced passes only: the shard run's interval on the tracer clock, and
  // the placement's counters.
  std::uint64_t par_from_ns = 0;
  std::uint64_t par_to_ns = 0;
  HybridCounts counts;
  double peak_rss_mb = 0.0;  // of the process, at the end of the pass
};

PaperPass paper_pass(std::uint64_t seed, std::size_t threads,
                     obs::SpanTracer* spans) {
  PaperPass p;
  const core::ScenarioConfig scenario_config = paper_config(seed);
  p.setup_s = sample_setups(scenario_config);
  const auto start = Clock::now();
  obs::ScopedSpan pass_span(spans, "bench/pass", "bench");
  const auto scenario = build_scenario(scenario_config, spans, p.scenario_s);
  p.setup_s.push_back(p.scenario_s);
  const sys::CdnSystem& system = scenario->system();

  obs::Registry metrics;
  const auto plan_start = Clock::now();
  const placement::PlacementResult plan =
      run_hybrid(system, spans, spans != nullptr ? &metrics : nullptr);
  p.plan_s = seconds_since(plan_start);

  sim::SimulationConfig config = sim_config(seed);
  config.spans = spans;
  const auto seq_start = Clock::now();
  const sim::SimulationReport seq =
      run_simulate(system, plan, config, "sim/simulate_seq", spans);
  p.seq_s = seconds_since(seq_start);

  config.threads = threads;
  config.shards = kShards;
  config.metrics_prefix = "sim/par/";
  if (spans != nullptr) p.par_from_ns = spans->now_ns();
  const auto par_start = Clock::now();
  const sim::SimulationReport par =
      run_simulate(system, plan, config, "sim/simulate_par", spans);
  p.par_s = seconds_since(par_start);
  if (spans != nullptr) p.par_to_ns = spans->now_ns();
  p.total_s = seconds_since(start);

  p.plan_digest = placement::placement_digest(plan.placement);
  p.seq_digest = sim::report_digest(seq);
  p.par_digest = sim::report_digest(par);
  p.seq_latency_ms = seq.mean_latency_ms;
  p.par_latency_ms = par.mean_latency_ms;
  p.measured = seq.measured_requests;
  p.replicas = plan.replicas_created;
  p.predicted_cost = plan.predicted_cost_per_request;
  p.local_ratio = seq.local_ratio;
  p.cost_hops = seq.mean_cost_hops;
  p.cache_hit_ratio = seq.cache_hit_ratio;
  p.counts = read_counts(metrics);
  p.peak_rss_mb = peak_rss_mb();
  return p;
}

/// The shard engine's balance, read from its spans: max/mean shard span,
/// the tail between the first and the last shard finishing (workers idle at
/// the join barrier), and the merge span.
struct ShardSpans {
  double imbalance = 0.0;
  double barrier_s = 0.0;
  double merge_s = 0.0;
  std::size_t shards = 0;
};

ShardSpans shard_spans(const obs::SpanTracer& tracer, std::uint64_t from_ns,
                       std::uint64_t to_ns) {
  std::vector<double> durations;
  std::uint64_t first_end = UINT64_MAX;
  std::uint64_t last_end = 0;
  std::uint64_t merge_ns = 0;
  for (const obs::SpanTracer::Event& e : tracer.events()) {
    if (e.phase != obs::SpanTracer::Phase::kComplete || e.ts_ns < from_ns ||
        e.ts_ns + e.dur_ns > to_ns) {
      continue;
    }
    const std::string_view name(e.name);
    if (name == "sim/par/shard/run") {
      durations.push_back(static_cast<double>(e.dur_ns));
      first_end = std::min(first_end, e.ts_ns + e.dur_ns);
      last_end = std::max(last_end, e.ts_ns + e.dur_ns);
    } else if (name == "sim/par/merge") {
      merge_ns += e.dur_ns;
    }
  }
  ShardSpans out;
  out.shards = durations.size();
  if (durations.empty()) return out;
  double sum = 0.0;
  for (const double d : durations) sum += d;
  out.imbalance = *std::max_element(durations.begin(), durations.end()) /
                  (sum / static_cast<double>(durations.size()));
  out.barrier_s = static_cast<double>(last_end - first_end) * 1e-9;
  out.merge_s = static_cast<double>(merge_ns) * 1e-9;
  return out;
}

/// The request loop's three stages replayed through their public entry
/// points over the stream simulate() generates: RequestStream::next_batch,
/// CachePolicy::access on one LRU cache per server sized by cache_bytes,
/// and NearestReplicaIndex::nearest per miss.
struct LoopReplay {
  double batch_ns = 0.0;    // per request
  double access_ns = 0.0;   // per cache access
  double nearest_ns = 0.0;  // per miss
  double stages_ns = 0.0;   // the three stages per simulated request
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  double hit_ratio = 0.0;
  double mean_cost_hops = 0.0;
};

LoopReplay replay_loop(const core::Scenario& scenario,
                       const placement::PlacementResult& plan,
                       std::uint64_t stream_seed, obs::SpanTracer* spans) {
  const sys::CdnSystem& system = scenario.system();
  const workload::SiteCatalog& catalog = scenario.catalog();
  std::vector<std::unique_ptr<cache::CachePolicy>> caches;
  for (sys::ServerIndex i = 0; i < system.server_count(); ++i) {
    caches.push_back(
        cache::make_cache(cache::PolicyKind::kLru, plan.cache_bytes(i)));
  }
  workload::RequestStream stream(catalog, scenario.demand(), stream_seed);
  workload::RequestBatch batch;
  std::vector<sys::ServerIndex> server;
  std::vector<sys::SiteIndex> site;
  std::vector<cache::ObjectKey> key;
  std::vector<std::uint64_t> bytes;
  std::vector<std::uint8_t> hit;
  std::uint64_t batch_ns = 0, access_ns = 0, nearest_ns = 0, hits = 0;
  double cost_sum = 0.0;
  LoopReplay out;
  for (std::uint64_t done = 0; done < kRequests;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kReplayChunk, kRequests - done));
    auto t0 = Clock::now();
    {
      obs::ScopedSpan span(spans, "workload/next_batch", "workload");
      stream.next_batch(batch, n);
    }
    batch_ns += ns_between(t0, Clock::now());

    server.clear();
    site.clear();
    key.clear();
    bytes.clear();
    for (std::size_t k = 0; k < n; ++k) {
      if (plan.placement.is_replicated(batch.server[k], batch.site[k])) continue;
      server.push_back(batch.server[k]);
      site.push_back(batch.site[k]);
      key.push_back(catalog.object_id(batch.site[k], batch.rank[k]));
      bytes.push_back(catalog.object_bytes(batch.site[k], batch.rank[k]));
    }
    hit.assign(key.size(), 0);
    t0 = Clock::now();
    {
      obs::ScopedSpan span(spans, "cache/access", "cache");
      for (std::size_t k = 0; k < key.size(); ++k) {
        hit[k] = caches[server[k]]->access(key[k], bytes[k]) ? 1 : 0;
      }
    }
    access_ns += ns_between(t0, Clock::now());
    out.accesses += key.size();

    t0 = Clock::now();
    {
      obs::ScopedSpan span(spans, "cdn/nearest", "cdn");
      for (std::size_t k = 0; k < key.size(); ++k) {
        if (hit[k] == 0) cost_sum += plan.nearest.nearest(server[k], site[k]).cost;
      }
    }
    nearest_ns += ns_between(t0, Clock::now());
    for (const std::uint8_t h : hit) hits += h;
    done += n;
  }
  out.misses = out.accesses - hits;
  const auto per = [](std::uint64_t total, std::uint64_t count) {
    return count > 0 ? static_cast<double>(total) / static_cast<double>(count)
                     : 0.0;
  };
  out.batch_ns = per(batch_ns, kRequests);
  out.access_ns = per(access_ns, out.accesses);
  out.nearest_ns = per(nearest_ns, out.misses);
  out.stages_ns = per(batch_ns + access_ns + nearest_ns, kRequests);
  out.hit_ratio = out.accesses > 0 ? static_cast<double>(hits) /
                                         static_cast<double>(out.accesses)
                                   : 0.0;
  out.mean_cost_hops = cost_sum / static_cast<double>(kRequests);
  return out;
}

// --------------------------------------------------------------- plan-large

struct LargePass {
  std::vector<double> setup_s;  // every scenario build of the pass
  double scenario_s = 0.0;
  double hybrid_s = 0.0;
  double replication_s = 0.0;
  double plan_s = 0.0;
  double flow_s = 0.0;
  double total_s = 0.0;
  std::uint64_t hybrid_digest = 0;
  std::uint64_t replication_digest = 0;
  std::uint64_t flow_digest = 0;
  double latency_ms = 0.0;
  std::size_t replicas = 0;
  double predicted_cost = 0.0;
  HybridCounts counts;
  double peak_rss_mb = 0.0;  // of the process, at the end of the pass
};

LargePass large_pass(std::uint64_t seed, obs::SpanTracer* spans) {
  LargePass p;
  const core::ScenarioConfig scenario_config = large_config(seed);
  p.setup_s = sample_setups(scenario_config);
  const auto start = Clock::now();
  obs::ScopedSpan pass_span(spans, "bench/pass", "bench");
  const auto scenario = build_scenario(scenario_config, spans, p.scenario_s);
  p.setup_s.push_back(p.scenario_s);
  const sys::CdnSystem& system = scenario->system();

  obs::Registry metrics;
  auto t0 = Clock::now();
  const placement::PlacementResult hybrid =
      run_hybrid(system, spans, spans != nullptr ? &metrics : nullptr);
  p.hybrid_s = seconds_since(t0);
  t0 = Clock::now();
  const placement::PlacementResult replication = run_replication(system, spans);
  p.replication_s = seconds_since(t0);
  p.plan_s = p.hybrid_s + p.replication_s;

  sim::SimulationConfig config = sim_config(seed);
  config.engine = sim::SimEngine::kFlow;
  config.spans = spans;
  t0 = Clock::now();
  const sim::SimulationReport flow =
      run_simulate(system, hybrid, config, "sim/simulate_flow", spans);
  p.flow_s = seconds_since(t0);
  p.total_s = seconds_since(start);

  p.hybrid_digest = placement::placement_digest(hybrid.placement);
  p.replication_digest = placement::placement_digest(replication.placement);
  p.flow_digest = sim::report_digest(flow);
  p.latency_ms = flow.mean_latency_ms;
  p.replicas = hybrid.replicas_created;
  p.predicted_cost = hybrid.predicted_cost_per_request;
  p.counts = read_counts(metrics);
  p.peak_rss_mb = peak_rss_mb();
  return p;
}

void report_counts(Result& result, const HybridCounts& counts,
                   double median_hybrid_s, std::size_t passes) {
  result.set("placement.hybrid.candidates_evaluated", counts.candidates,
             "count");
  result.set("placement.hybrid.heap_reevaluations", counts.reevaluations,
             "count");
  result.set("placement.hybrid.heap_repairs", counts.repairs, "count");
  result.set("placement.hybrid.stale_discarded", counts.stale_discarded,
             "count");
  result.set("model.curve_clamped", counts.curve_clamped, "count");
  result.set("placement.hybrid.evals_per_s",
             median_hybrid_s > 0.0 ? counts.candidates / median_hybrid_s : 0.0,
             "1/s", passes);
}

}  // namespace

void run_paper_e2e(const Args& args, Result& result) {
  const std::size_t threads = std::min(args.budget, kShards);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<PaperPass> passes = run_passes(
      untraced_s, kMinPasses,
      [&] { return paper_pass(args.seed, threads, nullptr); });
  const std::vector<double> seq_s = column(passes, &PaperPass::seq_s);
  const std::vector<double> par_s = column(passes, &PaperPass::par_s);
  const double requests = static_cast<double>(kRequests);
  const std::vector<double> scenario_s = setup_samples(passes);
  set_median(result, "setup_s", scenario_s, "s");
  set_median(result, "core.scenario_s", scenario_s, "s");
  set_median(result, "plan_s", column(passes, &PaperPass::plan_s), "s");
  set_median(result, "run_s", column(passes, &PaperPass::total_s), "s");
  result.set("mean_latency_ms", passes.front().seq_latency_ms, "ms",
             passes.front().measured);
  result.set("peak_rss_mb", passes.front().peak_rss_mb, "MB");
  result.set("sim.requests_per_s", requests / median(seq_s), "1/s",
             passes.size());
  result.set("sim.par.requests_per_s", requests / median(par_s), "1/s",
             passes.size());

  std::vector<PaperPass> all = passes;
  if (args.trace) {
    obs::SpanTracer tracer;
    const std::vector<PaperPass> traced = run_passes(
        0.0, kTracedPasses,
        [&] { return paper_pass(args.seed, threads, &tracer); });
    all.insert(all.end(), traced.begin(), traced.end());
    const PaperPass& last = traced.back();

    set_median(result, "placement.hybrid_s", column(passes, &PaperPass::plan_s),
               "s");
    report_counts(result, last.counts, median(column(passes, &PaperPass::plan_s)),
                  passes.size());
    set_median(result, "sim.simulate_s", seq_s, "s");
    result.set("sim.par.speedup", median(seq_s) / median(par_s), "ratio",
               passes.size());
    const ShardSpans shard = shard_spans(tracer, last.par_from_ns, last.par_to_ns);
    result.set("sim.par.shard_imbalance", shard.imbalance, "ratio", shard.shards);
    result.set("sim.par.barrier_s", shard.barrier_s, "s", shard.shards);
    result.set("sim.par.merge_s", shard.merge_s, "s", 1);
    result.set("obs.trace_overhead_pct",
               (median(column(traced, &PaperPass::total_s)) /
                    median(column(passes, &PaperPass::total_s)) -
                1.0) * 100.0,
               "%", traced.size());

    double ignored = 0.0;
    const auto scenario = build_scenario(paper_config(args.seed), nullptr, ignored);
    const placement::PlacementResult plan =
        run_hybrid(scenario->system(), nullptr, nullptr);
    const LoopReplay loop = replay_loop(*scenario, plan,
                                        sim_config(args.seed).seed, &tracer);
    result.set("workload.batch_gen_ns", loop.batch_ns, "ns", kRequests);
    result.set("cache.access_ns", loop.access_ns, "ns", loop.accesses);
    result.set("cache.hit_ratio", loop.hit_ratio, "ratio", loop.accesses);
    result.set("cdn.nearest_ns", loop.nearest_ns, "ns", loop.misses);
    result.set("sim.loop_other_ns",
               median(seq_s) * 1e9 / requests - loop.stages_ns, "ns",
               passes.size());
    // The replay runs the simulator's loop over its whole stream (warm-up
    // included), so it tracks the measured-window report closely, not
    // exactly.
    result.check("replay_tracks_simulate",
                 std::abs(loop.hit_ratio - last.cache_hit_ratio) < 0.05 &&
                     std::abs(loop.mean_cost_hops - last.cost_hops) <
                         0.1 * last.cost_hops,
                 "replay hit ratio " + std::to_string(loop.hit_ratio) +
                     " vs " + std::to_string(last.cache_hit_ratio) +
                     ", hops " + std::to_string(loop.mean_cost_hops) +
                     " vs " + std::to_string(last.cost_hops));
    report_sweep(result, sweep_candidates(scenario->system(), &tracer));
    finish_trace(tracer, args, kTracedPasses, result);
  }

  const PaperPass& first = all.front();
  result.set("placement.hybrid.replicas", static_cast<double>(first.replicas),
             "count");
  result.set("placement.predicted_cost_per_request", first.predicted_cost,
             "hops");
  result.set("sim.local_ratio", first.local_ratio, "ratio", first.measured);
  result.set("sim.mean_cost_hops", first.cost_hops, "hops", first.measured);

  const std::size_t plan_bad = unstable(all, &PaperPass::plan_digest);
  const std::size_t seq_bad = unstable(all, &PaperPass::seq_digest);
  const std::size_t par_bad = unstable(all, &PaperPass::par_digest);
  check_stable(result, "placement_digest_stable", plan_bad, all.size(),
               first.plan_digest);
  check_stable(result, "seq_report_digest_stable", seq_bad, all.size(),
               first.seq_digest);
  check_stable(result, "par_report_digest_stable", par_bad, all.size(),
               first.par_digest);
  // Both engines simulate the same process; their means agree within
  // sampling noise (docs/PERFORMANCE.md).
  result.check("shard_engine_agrees",
               std::abs(first.par_latency_ms - first.seq_latency_ms) <
                   0.02 * first.seq_latency_ms,
               "sequential " + std::to_string(first.seq_latency_ms) +
                   " ms vs shard " + std::to_string(first.par_latency_ms) +
                   " ms");
  result.check("placement_made_replicas", first.replicas > 0,
               "hybrid placement created no replica");
  result.attempted = all.size();
  result.failed = static_cast<std::uint64_t>(std::count_if(
      all.begin(), all.end(), [&](const PaperPass& p) {
        return p.plan_digest != first.plan_digest ||
               p.seq_digest != first.seq_digest ||
               p.par_digest != first.par_digest;
      }));
}

void run_plan_large(const Args& args, Result& result) {
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<LargePass> passes = run_passes(
      untraced_s, kMinPasses, [&] { return large_pass(args.seed, nullptr); });
  const std::vector<double> scenario_s = setup_samples(passes);
  set_median(result, "setup_s", scenario_s, "s");
  set_median(result, "core.scenario_s", scenario_s, "s");
  set_median(result, "plan_s", column(passes, &LargePass::plan_s), "s");
  set_median(result, "run_s", column(passes, &LargePass::total_s), "s");
  result.set("mean_latency_ms", passes.front().latency_ms, "ms", 1);
  result.set("peak_rss_mb", passes.front().peak_rss_mb, "MB");

  std::vector<LargePass> all = passes;
  if (args.trace) {
    obs::SpanTracer tracer;
    const std::vector<LargePass> traced = run_passes(
        0.0, kTracedPasses, [&] { return large_pass(args.seed, &tracer); });
    all.insert(all.end(), traced.begin(), traced.end());
    const std::vector<double> hybrid_s = column(passes, &LargePass::hybrid_s);
    set_median(result, "placement.hybrid_s", hybrid_s, "s");
    set_median(result, "placement.replication_s",
               column(passes, &LargePass::replication_s), "s");
    report_counts(result, traced.back().counts, median(hybrid_s),
                  passes.size());
    set_median(result, "sim.flow_s", column(passes, &LargePass::flow_s), "s");
    result.set("obs.trace_overhead_pct",
               (median(column(traced, &LargePass::total_s)) /
                    median(column(passes, &LargePass::total_s)) -
                1.0) * 100.0,
               "%", traced.size());
    double ignored = 0.0;
    const auto scenario = build_scenario(large_config(args.seed), nullptr, ignored);
    report_sweep(result, sweep_candidates(scenario->system(), &tracer));
    finish_trace(tracer, args, kTracedPasses, result);
  }

  const LargePass& first = all.front();
  result.set("placement.hybrid.replicas", static_cast<double>(first.replicas),
             "count");
  result.set("placement.predicted_cost_per_request", first.predicted_cost,
             "hops");
  check_stable(result, "placement_digest_stable",
               unstable(all, &LargePass::hybrid_digest), all.size(),
               first.hybrid_digest);
  check_stable(result, "replication_digest_stable",
               unstable(all, &LargePass::replication_digest), all.size(),
               first.replication_digest);
  check_stable(result, "flow_report_digest_stable",
               unstable(all, &LargePass::flow_digest), all.size(),
               first.flow_digest);
  result.check("placement_made_replicas", first.replicas > 0,
               "hybrid placement created no replica");
  result.attempted = all.size();
  result.failed = static_cast<std::uint64_t>(std::count_if(
      all.begin(), all.end(), [&](const LargePass& p) {
        return p.hybrid_digest != first.hybrid_digest ||
               p.replication_digest != first.replication_digest ||
               p.flow_digest != first.flow_digest;
      }));
}

}  // namespace perfbench
