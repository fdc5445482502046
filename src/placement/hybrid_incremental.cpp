// hybrid_greedy's engine: a lazy max-heap of certified benefit bounds.
//
// The plain Figure-2 loop re-prices every feasible (server, site) candidate
// on every iteration — Theta(N*M) evaluations of O(N + M) each per commit
// (tests/placement_oracle.h keeps it as the oracle).  A commit of (i*, j*)
// only moves the inputs of a small set of candidates, and a moved candidate
// only matters if it can reach the top of the heap.  So the engine keeps,
// per candidate, a heap key that is either its exact benefit or a certified
// upper bound on it, and prices exactly only the candidates that surface
// (Minoux's lazy greedy; no submodularity is needed because every bound is
// certified directly):
//
//   * row i* (cache state, hit row and budget changed): exact
//     re-evaluation, in parallel over sites — each what_if_replicate(site)
//     call writes only that site's memo slot of the state;
//   * column j*, i != i*: the key stays.  Nearest costs only fall and i*
//     now holds j*, so the local and relative gains can only fall, bit for
//     bit (rounding is monotone); the penalty skips site j*.  The key
//     becomes a bound;
//   * rows of the servers whose nearest cost for j* fell (the list
//     NearestReplicaIndex::on_replica_added returns): the penalty's j* term
//     t(C) = dh * r * C moves, and is patched by t(C_new) - t(C_old);
//   * candidates (i, j) whose relative gain reads server i*'s miss flow for
//     j (flow[i*][j] changed bitwise, j unreplicated at i*, and the
//     max(0, .) gate C(i*, SN_j^(i*)) > C(i*, i) open): i*'s relative term
//     is patched by dC * flow_new - dC * flow_old.
//
// A patched candidate's key is its patched decomposition plus a slack that
// covers the floating-point drift between patched sums and a fresh
// evaluation: (2 (N + M + 4) + 4 U) * DBL_EPSILON * B, with U the patches
// since the candidate's last exact evaluation and B = 3 R C_max + a max_j o_j
// a bound on every term sum (R total demand, C_max the largest initial
// nearest cost, a = |add_cost_per_byte|).  docs/PERFORMANCE.md derives it.
//
// Before each commit, a top whose key is not exact is re-priced with the
// canonical hybrid_candidate_benefit_parts and pushed back, until an exact
// top wins or the top key is <= 0.  Every key is >= its candidate's exact
// benefit and the heap orders (key desc, server asc, site asc), so the exact
// top that wins is the plain loop's winner — highest benefit, then lowest
// server, then lowest site — and the engine reproduces the oracle's
// placement, cost trajectory and commit order byte for byte.  A verified
// benefit above the key it was popped with is a broken bound and throws
// InternalError.
//
// Feasibility is monotone (server budgets only shrink) and only row i*'s
// budget moves, so its exact re-evaluation is where candidates die; a bound
// candidate is always feasible.

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "src/cdn/cost.h"
#include "src/obs/scoped_timer.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/model_support.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace cdn::placement {

namespace {

struct HeapEntry {
  double key = 0.0;
  sys::ServerIndex server = 0;
  sys::SiteIndex site = 0;
  std::uint32_t version = 0;
};

// std::push_heap comparator: "a is worse than b".  The max element is the
// highest key, ties broken by lowest server then lowest site — the order a
// row-major scan that keeps the first maximum induces.
struct WorseThan {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    if (a.server != b.server) return a.server > b.server;
    return a.site > b.site;
  }
};

// Materialises options.seed (if any) into `placement` and `states`, in
// row-major order.
void apply_seed(const sys::CdnSystem& system,
                const HybridGreedyOptions& options,
                sys::ReplicaPlacement& placement,
                std::vector<model::ServerCacheState>& states) {
  if (options.seed == nullptr) return;
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  CDN_EXPECT(
      options.seed->server_count() == n && options.seed->site_count() == m,
      "seed placement dimensions must match the system");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto server = static_cast<sys::ServerIndex>(i);
      const auto site = static_cast<sys::SiteIndex>(j);
      if (options.seed->is_replicated(server, site)) {
        placement.add(server, site);
        states[i].replicate(static_cast<std::uint32_t>(j));
      }
    }
  }
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

PlacementResult hybrid_greedy(const sys::CdnSystem& system,
                              const HybridGreedyOptions& options) {
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const auto& dist = system.distances();

  obs::Registry* const metrics = options.metrics;
  const std::string& pfx = options.metrics_prefix;
  obs::TimerStat* const t_total =
      metrics ? &metrics->timer(pfx + "phase/total") : nullptr;
  obs::TimerStat* const t_eval =
      metrics ? &metrics->timer(pfx + "phase/eval") : nullptr;
  obs::TimerStat* const t_commit =
      metrics ? &metrics->timer(pfx + "phase/commit") : nullptr;
  obs::Table* const iteration_log =
      metrics ? &metrics->table(
                    pfx + "iterations",
                    {"iteration", "server", "site", "candidates", "benefit",
                     "local_gain", "relative_gain", "cache_penalty",
                     "bytes_committed", "cost_after", "eval_ms"})
              : nullptr;
  obs::Series* const inval_series =
      metrics ? &metrics->series(pfx + "heap/invalidated_per_commit")
              : nullptr;
  obs::SpanTracer* const spans = options.spans;
  const char* sp_total = nullptr;
  const char* sp_initial = nullptr;
  const char* sp_iter = nullptr;
  const char* sp_reeval = nullptr;
  const char* sp_inval = nullptr;
  const char* sp_heap = nullptr;
  if (spans != nullptr) {
    sp_total = spans->intern(pfx + "total");
    sp_initial = spans->intern(pfx + "initial_eval");
    sp_iter = spans->intern(pfx + "iteration");
    sp_reeval = spans->intern(pfx + "heap/reevaluate");
    sp_inval = spans->intern(pfx + "heap/invalidate");
    sp_heap = spans->intern(pfx + "heap/size");
  }
  obs::ScopedTimer total_timer(t_total);
  obs::ScopedSpan total_span(spans, sp_total, "placement");

  ModelContext context(system, options.pb_mode);
  std::vector<model::ServerCacheState> states = context.make_states();

  sys::ReplicaPlacement placement(system.server_storage(),
                                  system.site_bytes());
  apply_seed(system, options, placement, states);
  sys::NearestReplicaIndex nearest(system.distances(), placement);

  PlacementResult result{.algorithm = "hybrid-greedy",
                         .placement = std::move(placement),
                         .nearest = std::move(nearest)};

  std::vector<double> hit = modeled_hit_matrix(states);
  std::vector<double> flow = miss_flow_matrix(system, hit);
  auto current_cost = [&] {
    return sys::total_remote_cost(demand, result.nearest, hit_fn(hit, m));
  };
  result.cost_trajectory.push_back(current_cost());

  // Slack of a patched key (see the file comment): B bounds the magnitudes
  // of the local, relative and penalty sums and the add cost of every
  // candidate for the whole run, because nearest costs only fall.
  double c_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      c_max = std::max(c_max,
                       result.nearest.cost(static_cast<sys::ServerIndex>(i),
                                           static_cast<sys::SiteIndex>(j)));
    }
  }
  std::uint64_t max_bytes = 0;
  for (const std::uint64_t o : system.site_bytes()) {
    max_bytes = std::max(max_bytes, o);
  }
  const double slack_unit =
      DBL_EPSILON * (3.0 * demand.total() * c_max +
                     std::abs(options.add_cost_per_byte) *
                         static_cast<double>(max_bytes));
  const double slack_base = 2.0 * static_cast<double>(n + m + 4);
  auto add_cost = [&](sys::SiteIndex site) {
    return options.add_cost_per_byte *
           static_cast<double>(system.site_bytes()[site]);
  };

  // Per-candidate books.  `key` is the heap key: the exact budget-adjusted
  // benefit when `exact` is set, a certified upper bound otherwise, with
  // `patches` bound patches since the last exact evaluation.  An in-heap
  // entry is live iff its version matches `version[idx]`; `dead`
  // candidates (replicated or no longer fitting) never re-enter the heap.
  // The part_* arrays hold the (possibly patched) benefit decomposition.
  std::vector<double> key(n * m, 0.0);
  std::vector<std::uint32_t> version(n * m, 1);
  std::vector<std::uint32_t> patches(n * m, 0);
  std::vector<std::uint8_t> exact(n * m, 0);
  std::vector<std::uint8_t> dead(n * m, 0);
  std::vector<double> part_local(n * m, 0.0);
  std::vector<double> part_penalty(n * m, 0.0);
  std::vector<double> part_relative(n * m, 0.0);
  std::vector<std::uint32_t> mark_stamp(n * m, 0);
  std::vector<std::uint8_t> mark_kind(n * m, 0);
  std::vector<std::uint32_t> marked;
  std::vector<std::size_t> row_live;
  std::vector<double> old_flow(m, 0.0);
  std::vector<double> old_cost_js(n, 0.0);
  std::vector<HeapEntry> heap;
  const WorseThan worse{};
  const std::size_t compact_threshold = 2 * n * m + 1024;

  // Exact evaluation with the canonical benefit; marks the candidate dead
  // when it no longer fits.
  auto evaluate = [&](std::size_t idx) {
    const auto server = static_cast<sys::ServerIndex>(idx / m);
    const auto site = static_cast<sys::SiteIndex>(idx % m);
    if (!result.placement.can_add(server, site)) {
      dead[idx] = 1;
      return;
    }
    CDN_DCHECK(states[server].can_fit(static_cast<std::uint32_t>(site)),
               "placement and model state disagree on free space");
    const HybridBenefitParts parts = hybrid_candidate_benefit_parts(
        system, result.placement, result.nearest, states[server], hit,
        flow.data(), server, site);
    part_local[idx] = parts.local_gain;
    part_penalty[idx] = parts.cache_penalty;
    part_relative[idx] = parts.relative_gain;
    key[idx] = parts.total() - add_cost(site);
    patches[idx] = 0;
    exact[idx] = 1;
  };

  auto push = [&](std::size_t idx) {
    heap.push_back({key[idx], static_cast<sys::ServerIndex>(idx / m),
                    static_cast<sys::SiteIndex>(idx % m), version[idx]});
    std::push_heap(heap.begin(), heap.end(), worse);
  };

  // Initial build: evaluate every candidate once (the one full sweep;
  // afterwards only the commit's row and surfacing bounds are priced).
  obs::ScopedSpan initial_span(spans, sp_initial, "placement");
  auto eval_start = std::chrono::steady_clock::now();
  util::parallel_for(0, n, [&](std::size_t i) {
    for (std::size_t j = 0; j < m; ++j) evaluate(i * m + j);
  });
  std::uint64_t pending_candidates = 0;
  heap.reserve(n * m);
  for (std::size_t idx = 0; idx < n * m; ++idx) {
    if (dead[idx] != 0) continue;
    ++pending_candidates;
    heap.push_back({key[idx], static_cast<sys::ServerIndex>(idx / m),
                    static_cast<sys::SiteIndex>(idx % m), version[idx]});
  }
  std::make_heap(heap.begin(), heap.end(), worse);
  double pending_eval_ms = elapsed_ms(eval_start);
  if (t_eval != nullptr) {
    t_eval->record_ns(static_cast<std::uint64_t>(pending_eval_ms * 1e6));
  }
  initial_span.arg("candidates", static_cast<double>(heap.size()));
  initial_span.stop();

  const std::size_t seeded = result.placement.replica_count();
  std::uint64_t total_candidates = pending_candidates;
  std::uint64_t reevaluations = 0;
  std::uint64_t verifications = 0;
  std::uint64_t repairs = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t stale_discarded = 0;
  std::size_t peak_heap = heap.size();
  std::uint32_t commit_id = 0;
  std::size_t iteration = 0;

  for (;;) {
    if (options.max_replicas != 0 &&
        result.placement.replica_count() >= seeded + options.max_replicas) {
      break;
    }
    obs::ScopedSpan iter_span(spans, sp_iter, "placement");
    iter_span.arg("iteration", static_cast<double>(iteration));

    // Settle the top: discard stale entries (lazy deletion) and re-price a
    // bound top exactly, until an exact top remains or the top key says
    // no candidate can have positive benefit.
    eval_start = std::chrono::steady_clock::now();
    std::uint64_t verified = 0;
    while (!heap.empty()) {
      const HeapEntry top = heap.front();
      const std::size_t idx =
          static_cast<std::size_t>(top.server) * m + top.site;
      if (top.version == version[idx] &&
          (exact[idx] != 0 || top.key <= 0.0)) {
        break;
      }
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.pop_back();
      if (top.version != version[idx]) {
        ++stale_discarded;
        continue;
      }
      evaluate(idx);
      if (dead[idx] != 0) continue;
      CDN_CHECK(key[idx] <= top.key,
                "hybrid greedy: exact benefit of candidate (" +
                    std::to_string(top.server) + ", " +
                    std::to_string(top.site) +
                    ") exceeds its certified bound; refusing to commit "
                    "from a broken heap");
      ++verified;
      ++version[idx];
      push(idx);
    }
    verifications += verified;
    total_candidates += verified;
    pending_candidates += verified;
    if (verified != 0) {
      const double ms = elapsed_ms(eval_start);
      pending_eval_ms += ms;
      if (t_eval != nullptr) {
        t_eval->record_ns(static_cast<std::uint64_t>(ms * 1e6));
      }
    }
    iter_span.arg("verified", static_cast<double>(verified));
    if (heap.empty() || heap.front().key <= 0.0) break;

    const HeapEntry winner = heap.front();
    std::pop_heap(heap.begin(), heap.end(), worse);
    heap.pop_back();
    const auto ws = winner.server;
    const auto js = winner.site;
    const std::size_t ws_row = static_cast<std::size_t>(ws) * m;
    const std::size_t widx = ws_row + js;
    CDN_DCHECK(exact[widx] != 0, "committing a candidate priced by a bound");

    // The winner's decomposition is exact, against the pre-commit state.
    HybridBenefitParts parts;
    parts.local_gain = part_local[widx];
    parts.cache_penalty = part_penalty[widx];
    parts.relative_gain = part_relative[widx];

    std::vector<sys::ServerIndex> changed_servers;
    {
      obs::ScopedTimer commit_timer(t_commit);
      // Pre-commit nearest costs of the committed column, for the penalty
      // patches below.
      for (std::size_t i = 0; i < n; ++i) {
        old_cost_js[i] =
            result.nearest.cost(static_cast<sys::ServerIndex>(i), js);
      }
      result.placement.add(ws, js);
      changed_servers = result.nearest.on_replica_added(ws, js);
      states[ws].replicate(js);
      std::copy(flow.begin() + static_cast<std::ptrdiff_t>(ws_row),
                flow.begin() + static_cast<std::ptrdiff_t>(ws_row + m),
                old_flow.begin());
      for (std::size_t j = 0; j < m; ++j) {
        hit[ws_row + j] =
            states[ws].hit_ratio(static_cast<std::uint32_t>(j));
      }
      refresh_miss_flow_row(system, hit, ws, flow);
      result.cost_trajectory.push_back(current_cost());
    }

    if (iteration_log != nullptr) {
      iteration_log->add_row(
          {static_cast<double>(iteration), static_cast<double>(ws),
           static_cast<double>(js), static_cast<double>(pending_candidates),
           winner.key, parts.local_gain, parts.relative_gain,
           parts.cache_penalty,
           static_cast<double>(system.site_bytes()[js]),
           result.cost_trajectory.back(), pending_eval_ms});
    }
    ++iteration;

    obs::ScopedSpan reeval_span(spans, sp_reeval, "placement");
    eval_start = std::chrono::steady_clock::now();

    // Row i*: exact re-evaluation, parallel over sites.  Every entry the
    // row had goes stale; the candidates that still fit are pushed back.
    row_live.clear();
    for (std::size_t j = 0; j < m; ++j) {
      if (dead[ws_row + j] == 0) row_live.push_back(ws_row + j);
    }
    util::parallel_for(0, row_live.size(),
                       [&](std::size_t t) { evaluate(row_live[t]); });
    std::uint64_t row_alive = 0;
    for (const std::size_t idx : row_live) {
      ++version[idx];
      if (dead[idx] != 0) continue;
      ++row_alive;
      push(idx);
    }

    // Column j*: keys stay, as bounds.
    std::uint64_t demoted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = i * m + js;
      if (i == ws || dead[idx] != 0) continue;
      exact[idx] = 0;
      ++demoted;
    }

    // Patches: collect the candidates with a stale penalty or relative
    // term, tagged with which (both may apply).
    constexpr std::uint8_t kPenalty = 1;
    constexpr std::uint8_t kRelative = 2;
    ++commit_id;
    marked.clear();
    auto mark = [&](std::size_t idx, std::uint8_t kind) {
      if (dead[idx] != 0) return;
      if (mark_stamp[idx] != commit_id) {
        mark_stamp[idx] = commit_id;
        mark_kind[idx] = kind;
        marked.push_back(static_cast<std::uint32_t>(idx));
        return;
      }
      mark_kind[idx] = static_cast<std::uint8_t>(mark_kind[idx] | kind);
    };
    for (const sys::ServerIndex i : changed_servers) {
      if (i == ws) continue;
      const std::size_t row = static_cast<std::size_t>(i) * m;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != js) mark(row + j, kPenalty);
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (j == js || old_flow[j] == flow[ws_row + j]) continue;
      const auto site = static_cast<sys::SiteIndex>(j);
      if (result.placement.is_replicated(ws, site)) continue;
      const double c = result.nearest.cost(ws, site);
      for (std::size_t i = 0; i < n; ++i) {
        if (i == ws) continue;
        if (dist.server_to_server(ws, static_cast<sys::ServerIndex>(i)) < c) {
          mark(i * m + j, kRelative);
        }
      }
    }

    // O(1) patches, parallel over candidates: each touches only its own
    // books and its own (server, site) what-if memo slot.
    util::parallel_for(
        0, marked.size(),
        [&](std::size_t t) {
          const std::size_t idx = marked[t];
          const auto server = static_cast<sys::ServerIndex>(idx / m);
          const auto site = static_cast<sys::SiteIndex>(idx % m);
          if ((mark_kind[idx] & kPenalty) != 0) {
            // The penalty's j* term, t(C) = dh * r * C, formed as
            // hybrid_candidate_benefit_parts forms it.
            const double dh =
                hit[static_cast<std::size_t>(server) * m + js] -
                states[server]
                    .what_if_replicate(static_cast<std::uint32_t>(site))
                    .hit_ratio(static_cast<std::uint32_t>(js));
            const double dr = dh * demand.requests(server, js);
            part_penalty[idx] +=
                dr * result.nearest.cost(server, js) - dr * old_cost_js[server];
            ++patches[idx];
          }
          if ((mark_kind[idx] & kRelative) != 0) {
            // i*'s relative term, dC * flow, formed as
            // hybrid_candidate_benefit_parts forms it.
            const double dc = result.nearest.cost(ws, site) -
                              dist.server_to_server(ws, server);
            part_relative[idx] +=
                dc * flow[ws_row + site] - dc * old_flow[site];
            ++patches[idx];
          }
          key[idx] = part_local[idx] + part_relative[idx] -
                     part_penalty[idx] - add_cost(site) +
                     (slack_base + 4.0 * static_cast<double>(patches[idx])) *
                         slack_unit;
          exact[idx] = 0;
        },
        /*grain=*/256);
    for (const std::uint32_t idx : marked) {
      ++version[idx];
      push(idx);
    }

    pending_candidates = row_alive;
    reevaluations += row_alive;
    total_candidates += row_alive;
    repairs += marked.size();
    const std::uint64_t invalidated =
        row_live.size() + demoted + marked.size();
    invalidations += invalidated;
    if (inval_series != nullptr) {
      inval_series->push(static_cast<double>(invalidated));
    }
    if (spans != nullptr) {
      spans->instant(sp_inval, "placement", "marked",
                     static_cast<double>(invalidated));
    }
    pending_eval_ms = elapsed_ms(eval_start);
    if (t_eval != nullptr) {
      t_eval->record_ns(static_cast<std::uint64_t>(pending_eval_ms * 1e6));
    }
    reeval_span.arg("marked", static_cast<double>(invalidated));
    reeval_span.stop();
    peak_heap = std::max(peak_heap, heap.size());
    if (spans != nullptr) {
      spans->counter(sp_heap, static_cast<double>(heap.size()));
    }

    // Compact when lazy deletion has let stale entries pile up.
    if (heap.size() > compact_threshold) {
      std::erase_if(heap, [&](const HeapEntry& e) {
        return e.version !=
               version[static_cast<std::size_t>(e.server) * m + e.site];
      });
      std::make_heap(heap.begin(), heap.end(), worse);
    }
  }

  finalize_result(system, states, result);

  if (metrics != nullptr) {
    metrics->counter(pfx + "candidates_evaluated").add(total_candidates);
    metrics->counter(pfx + "heap/reevaluations").add(reevaluations);
    metrics->counter(pfx + "heap/verifications").add(verifications);
    metrics->counter(pfx + "heap/repairs").add(repairs);
    metrics->counter(pfx + "heap/invalidations").add(invalidations);
    metrics->counter(pfx + "heap/stale_discarded").add(stale_discarded);
    metrics->counter("model/curve_clamped")
        .add(context.curve().clamped_evaluations());
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

}  // namespace cdn::placement
