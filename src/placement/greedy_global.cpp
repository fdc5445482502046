#include "src/placement/greedy_global.h"

#include <algorithm>
#include <chrono>

#include "src/cdn/cost.h"
#include "src/obs/scoped_timer.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace cdn::placement {

namespace {

void finalize_replication_result(const sys::CdnSystem& system,
                                 PlacementResult& result) {
  result.modeled_hit.assign(
      system.server_count() * system.site_count(), 0.0);
  result.caching_enabled = false;  // stand-alone replication: no proxy cache
  result.predicted_total_cost = result.cost_trajectory.back();
  result.predicted_cost_per_request =
      result.predicted_total_cost / system.demand().total();
  result.replicas_created = result.placement.replica_count();
}

struct HeapEntry {
  double benefit = 0.0;
  sys::ServerIndex server = 0;
  sys::SiteIndex site = 0;
  std::uint32_t version = 0;
};

// Max element = highest benefit, ties by lowest server then lowest site —
// the order a row-major scan that keeps the first maximum induces.
struct WorseThan {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.benefit != b.benefit) return a.benefit < b.benefit;
    if (a.server != b.server) return a.server > b.server;
    return a.site > b.site;
  }
};

}  // namespace

// Lazy-heap engine.  sys::replication_benefit(i, j) reads only column j of the
// nearest index and the placement, so a commit of (i*, j*) invalidates
// exactly column j* (N re-evaluations) plus the feasibility of row i*
// (budget shrank; benefit values there are untouched, the entries just die
// when the candidate stops fitting).  Cached benefits come from the same
// function on the same inputs, so results are byte-identical to
// re-evaluating every candidate every iteration.
PlacementResult greedy_global_with_budgets(
    const sys::CdnSystem& system,
    const std::vector<std::uint64_t>& replica_budgets,
    const GreedyGlobalOptions& options) {
  CDN_EXPECT(replica_budgets.size() == system.server_count(),
             "one replica budget per server is required");
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();

  sys::ReplicaPlacement placement(replica_budgets, system.site_bytes());
  sys::NearestReplicaIndex nearest(system.distances(), placement);

  obs::Registry* const metrics = options.metrics;
  const std::string& pfx = options.metrics_prefix;
  obs::TimerStat* const t_total =
      metrics ? &metrics->timer(pfx + "phase/total") : nullptr;
  obs::TimerStat* const t_eval =
      metrics ? &metrics->timer(pfx + "phase/eval") : nullptr;
  obs::Table* const iteration_log =
      metrics ? &metrics->table(pfx + "iterations",
                                {"iteration", "server", "site", "candidates",
                                 "benefit", "bytes_committed", "cost_after",
                                 "eval_ms"})
              : nullptr;
  obs::Series* const inval_series =
      metrics ? &metrics->series(pfx + "heap/invalidated_per_commit")
              : nullptr;
  obs::SpanTracer* const spans = options.spans;
  const char* sp_total = nullptr;
  const char* sp_iter = nullptr;
  const char* sp_inval = nullptr;
  if (spans != nullptr) {
    sp_total = spans->intern(pfx + "total");
    sp_iter = spans->intern(pfx + "iteration");
    sp_inval = spans->intern(pfx + "heap/invalidate");
  }
  obs::ScopedTimer total_timer(t_total);
  obs::ScopedSpan total_span(spans, sp_total, "placement");

  PlacementResult result{.algorithm = "greedy-global",
                         .placement = std::move(placement),
                         .nearest = std::move(nearest)};
  result.cost_trajectory.push_back(
      sys::total_remote_cost(system.demand(), result.nearest));

  std::vector<double> val(n * m, 0.0);
  std::vector<std::uint32_t> version(n * m, 1);
  std::vector<std::uint8_t> dead(n * m, 0);
  std::vector<std::uint8_t> alive_scratch(n * m, 0);
  std::vector<HeapEntry> heap;
  const WorseThan worse{};
  const std::size_t compact_threshold = 2 * n * m + 1024;

  std::chrono::steady_clock::time_point eval_start;
  if (t_eval != nullptr) eval_start = std::chrono::steady_clock::now();
  util::parallel_for(0, n, [&](std::size_t i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    for (std::size_t j = 0; j < m; ++j) {
      const auto site = static_cast<sys::SiteIndex>(j);
      if (!result.placement.can_add(server, site)) {
        alive_scratch[i * m + j] = 0;
        continue;
      }
      alive_scratch[i * m + j] = 1;
      val[i * m + j] = sys::replication_benefit(
          system.demand(), system.distances(), result.placement,
          result.nearest, server, site);
    }
  });
  std::uint64_t pending_candidates = 0;
  heap.reserve(n * m);
  for (std::size_t idx = 0; idx < n * m; ++idx) {
    if (!alive_scratch[idx]) {
      dead[idx] = 1;
      continue;
    }
    ++pending_candidates;
    heap.push_back({val[idx], static_cast<sys::ServerIndex>(idx / m),
                    static_cast<sys::SiteIndex>(idx % m), version[idx]});
  }
  std::make_heap(heap.begin(), heap.end(), worse);
  double pending_eval_ms = 0.0;
  if (t_eval != nullptr) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - eval_start)
            .count());
    t_eval->record_ns(ns);
    pending_eval_ms = static_cast<double>(ns) * 1e-6;
  }

  std::uint64_t total_candidates = pending_candidates;
  std::uint64_t reevaluations = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t stale_discarded = 0;
  std::size_t peak_heap = heap.size();
  std::size_t iteration = 0;

  for (;;) {
    if (options.max_replicas != 0 &&
        result.placement.replica_count() >= options.max_replicas) {
      break;
    }
    obs::ScopedSpan iter_span(spans, sp_iter, "placement");
    iter_span.arg("iteration", static_cast<double>(iteration));
    while (!heap.empty()) {
      const HeapEntry& top = heap.front();
      const std::size_t idx =
          static_cast<std::size_t>(top.server) * m + top.site;
      if (top.version != version[idx]) {
        std::pop_heap(heap.begin(), heap.end(), worse);
        heap.pop_back();
        ++stale_discarded;
        continue;
      }
      break;
    }
    if (heap.empty()) break;
    const HeapEntry winner = heap.front();
    if (winner.benefit <= 0.0) break;
    std::pop_heap(heap.begin(), heap.end(), worse);
    heap.pop_back();
    const auto ws = winner.server;
    const auto js = winner.site;

    result.placement.add(ws, js);
    result.nearest.on_replica_added(ws, js);
    result.cost_trajectory.push_back(
        sys::total_remote_cost(system.demand(), result.nearest));
    if (iteration_log != nullptr) {
      iteration_log->add_row(
          {static_cast<double>(iteration), static_cast<double>(ws),
           static_cast<double>(js), static_cast<double>(pending_candidates),
           winner.benefit, static_cast<double>(system.site_bytes()[js]),
           result.cost_trajectory.back(), pending_eval_ms});
    }
    ++iteration;

    // Row ws: the budget shrank, so candidates there can die — their benefit
    // inputs are untouched, only feasibility is checked.
    std::uint64_t invalidated = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t idx = static_cast<std::size_t>(ws) * m + j;
      if (dead[idx] != 0) continue;
      if (!result.placement.can_add(ws, static_cast<sys::SiteIndex>(j))) {
        dead[idx] = 1;
        ++version[idx];
        ++invalidated;
      }
    }
    // Column js: every candidate's benefit referenced the old nearest
    // column / placement cell; re-evaluate them all.
    if (t_eval != nullptr) eval_start = std::chrono::steady_clock::now();
    std::uint64_t batch_alive = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = i * m + js;
      if (dead[idx] != 0) continue;
      const auto server = static_cast<sys::ServerIndex>(i);
      ++version[idx];
      ++invalidated;
      if (!result.placement.can_add(server, js)) {
        dead[idx] = 1;
        continue;
      }
      val[idx] = sys::replication_benefit(system.demand(),
                                          system.distances(), result.placement,
                                          result.nearest, server, js);
      ++batch_alive;
      heap.push_back({val[idx], server, js, version[idx]});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
    invalidations += invalidated;
    if (inval_series != nullptr) {
      inval_series->push(static_cast<double>(invalidated));
    }
    if (spans != nullptr) {
      spans->instant(sp_inval, "placement", "invalidated",
                     static_cast<double>(invalidated));
    }
    pending_candidates = batch_alive;
    reevaluations += batch_alive;
    total_candidates += batch_alive;
    if (t_eval != nullptr) {
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - eval_start)
              .count());
      t_eval->record_ns(ns);
      pending_eval_ms = static_cast<double>(ns) * 1e-6;
    }
    peak_heap = std::max(peak_heap, heap.size());

    if (heap.size() > compact_threshold) {
      std::erase_if(heap, [&](const HeapEntry& e) {
        return e.version !=
               version[static_cast<std::size_t>(e.server) * m + e.site];
      });
      std::make_heap(heap.begin(), heap.end(), worse);
    }
  }

  finalize_replication_result(system, result);

  if (metrics != nullptr) {
    metrics->counter(pfx + "candidates_evaluated").add(total_candidates);
    metrics->counter(pfx + "heap/reevaluations").add(reevaluations);
    metrics->counter(pfx + "heap/invalidations").add(invalidations);
    metrics->counter(pfx + "heap/stale_discarded").add(stale_discarded);
    metrics->gauge(pfx + "heap/peak_size")
        .set(static_cast<double>(peak_heap));
    metrics->gauge(pfx + "replicas_created")
        .set(static_cast<double>(result.replicas_created));
    metrics->gauge(pfx + "predicted_cost_per_request")
        .set(result.predicted_cost_per_request);
    obs::Series& cost = metrics->series(pfx + "cost");
    for (const double c : result.cost_trajectory) cost.push(c);
  }
  return result;
}

PlacementResult greedy_global(const sys::CdnSystem& system,
                              const GreedyGlobalOptions& options) {
  return greedy_global_with_budgets(system, system.server_storage(), options);
}

}  // namespace cdn::placement
