// hybrid_greedy's engine: a lazy max-heap of cached candidate benefits.
//
// The plain Figure-2 loop re-evaluates every feasible (server, site)
// candidate on every iteration — Theta(N*M) evaluations of O(N + M) each
// per commit (tests/placement_oracle.h keeps it as the oracle).  But a
// commit of (i*, j*) only changes the inputs of a small set of candidates,
// and for most of them only ONE of the three benefit terms:
//
//   * every candidate at server i* — its cache state, hit row and remaining
//     budget changed: FULL re-evaluation;
//   * every candidate for site j* — relative gains reference column j* of
//     the nearest index and the placement: FULL re-evaluation;
//   * candidates at a server i != i* whose nearest-replica cost for j*
//     changed (the ascending list NearestReplicaIndex::on_replica_added
//     returns) — ONLY the cache-penalty sum is stale, and only its j* term
//     (the penalty references C(i, SN_k^(i)) per site k, and a commit moves
//     just column j* of the nearest index): PENALTY repair — recompute the
//     j* term and re-sum the cached per-site terms in ascending order,
//     which is bit-identical to a fresh accumulation because skipped terms
//     contribute exactly +0.0 (see hybrid_cache_penalty);
//   * candidates (i, j) whose relative gain references server i*'s changed
//     miss flow for j: flow[i*][j] changed bitwise, j is unreplicated at i*,
//     and C(i*, SN_j^(i*)) > C(i*, i) (the max(0, .) gate is open) — ONLY
//     the relative-gain term is stale: RELATIVE repair — re-run the O(N)
//     relative loop, reuse the cached local gain and penalty.
//
// The local gain of a repaired candidate never moves: it reads flow[i][j]
// (row i* only changed -> full re-eval) and nearest.cost(i, j) (column j*
// only changed -> full re-eval).  Repairs reuse exactly the term helpers
// the canonical hybrid_candidate_benefit_parts is built from, so every
// repaired double equals what a fresh evaluation would produce.
//
// Everything else keeps its cached benefit.  Cached values live in a lazy
// max-heap ordered (benefit desc, server asc, site asc) — exactly the plain
// loop's winner tie-break — with per-candidate version counters for lazy
// deletion.  Invalidated candidates are re-evaluated in parallel batches
// grouped by server (the WhatIf memo arena in ServerCacheState is per-state
// mutable, so a state must stay single-threaded) using the canonical
// benefit function, so every evaluated double is bit-identical to a fresh
// evaluation and the engine reproduces the plain loop's placement, cost
// trajectory and commit order byte for byte.
//
// Feasibility is monotone (server budgets only shrink), so a candidate that
// stops fitting is dead forever; deaths can only occur inside the
// invalidated set (only server i*'s budget moved), where the batch
// re-evaluation notices them.
//
// Tier mode (placement_model == kClosedForm) reuses the same invalidation
// sets but prices kFull re-evaluations from the shared per-server tables
// and verifies near-top candidates with the exact model before commit (see
// kTierFallbackMargin).  Repairs of an exact-verified candidate patch the
// exact decomposition in place instead of dropping back to a tier price:
// the penalty's j* term moves by dh * r * (C_new - C_old) with dh and r
// untouched off the committed row, and the relative term is exact by
// construction.  The patched doubles carry normal floating-point
// accumulation drift relative to a fresh evaluation (they are NOT
// bit-identical, unlike the kExact repairs above), which the 1 % cost gate
// absorbs; keeping the verified stamp across repairs is what makes the
// verify band affordable at large M.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <vector>

#include "src/cdn/cost.h"
#include "src/obs/scoped_timer.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/hybrid_internal.h"
#include "src/placement/model_support.h"
#include "src/placement/tier_evaluator.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace cdn::placement::detail {

namespace {

struct HeapEntry {
  double benefit = 0.0;
  sys::ServerIndex server = 0;
  sys::SiteIndex site = 0;
  std::uint32_t version = 0;
};

// std::push_heap comparator: "a is worse than b".  The max element is the
// highest benefit, ties broken by lowest server then lowest site — the
// order a row-major scan that keeps the first maximum induces.
struct WorseThan {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.benefit != b.benefit) return a.benefit < b.benefit;
    if (a.server != b.server) return a.server > b.server;
    return a.site > b.site;
  }
};

// Width of the tier's exact-verification band, as a fraction of the current
// top tier benefit.  Tier prices only RANK candidates: the winner is
// re-priced with the exact model before commit, together with every
// contender whose tier benefit lands within this band of the top, so a tier
// mis-ranking inside the band cannot pick the wrong replica.
constexpr double kTierFallbackMargin = 0.1;

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

}  // namespace

PlacementResult hybrid_greedy_incremental(const sys::CdnSystem& system,
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

  // Tier fast path (kClosedForm): candidate prices come from shared
  // per-server tables and the transposed relative columns; every branch
  // below that touches `tier`/`columns` is gated on `tiered`, so the kExact
  // paths stay literally the pre-tier code (byte-identity gate).
  const bool tiered = options.placement_model == PlacementModel::kClosedForm;
  std::optional<TierEvaluator> tier;
  std::optional<RelativeColumns> columns;
  if (tiered) {
    tier.emplace(system, states, result.nearest, context.curve());
    columns.emplace();
    columns->build(system, result.placement, result.nearest, flow);
  }
  std::uint64_t tier_fallbacks = 0;
  std::uint64_t tier_margin_hits = 0;

  // Per-candidate books.  `val` caches the budget-adjusted benefit; an
  // in-heap entry is live iff its version matches `version[idx]`; `dead`
  // candidates (replicated or no longer fitting) never re-enter the heap.
  std::vector<double> val(n * m, 0.0);
  std::vector<std::uint32_t> version(n * m, 1);
  // A tier-mode candidate is exactly priced iff its stamp matches its
  // version: any invalidation or repair bumps the version and naturally
  // stales the stamp.
  std::vector<std::uint32_t> verified_stamp(n * m, 0);
  std::vector<std::uint8_t> dead(n * m, 0);
  std::vector<std::uint8_t> eval_ok(n * m, 0);
  std::vector<std::uint32_t> mark_stamp(n * m, 0);
  std::vector<std::uint8_t> mark_kind(n * m, 0);
  std::vector<std::uint32_t> marked;
  std::vector<double> old_flow(m, 0.0);
  // Tier mode: repairs of an exact-verified candidate patch its exact
  // decomposition in place (the relative term is exact by construction and
  // the penalty moved only in the committed site's term), so verification
  // survives invalidation; `still_exact` carries that fact from the
  // parallel repair batch to the serial version bump.  `old_cost_js[k]` is
  // the pre-commit nearest cost C(k, SN_js) the penalty patch differences
  // against.
  std::vector<std::uint8_t> still_exact(n * m, 0);
  std::vector<double> old_cost_js(n, 0.0);
  std::vector<HeapEntry> heap;
  const WorseThan worse{};
  const std::size_t compact_threshold = 2 * n * m + 1024;

  // Cached benefit decomposition per candidate, kept current by full
  // re-evaluations and component repairs.  The per-site penalty terms make
  // a penalty repair O(M) additions instead of O(M) what-if model
  // evaluations; the cache is skipped (repairs fall back to re-running the
  // penalty loop) when N*M*M would not fit a sane memory budget.
  constexpr std::uint8_t kRepairPenalty = 1;
  constexpr std::uint8_t kRepairRelative = 2;
  constexpr std::uint8_t kFull = 4;
  std::vector<double> part_local(n * m, 0.0);
  std::vector<double> part_penalty(n * m, 0.0);
  std::vector<double> part_relative(n * m, 0.0);
  const bool term_cache = !tiered && n * m * m <= (std::size_t{1} << 24);
  std::vector<double> pen_terms(term_cache ? n * m * m : 0, 0.0);

  auto evaluate = [&](std::size_t idx) {
    const auto server = static_cast<sys::ServerIndex>(idx / m);
    const auto site = static_cast<sys::SiteIndex>(idx % m);
    if (!result.placement.can_add(server, site)) {
      eval_ok[idx] = 0;
      return;
    }
    CDN_DCHECK(states[server].can_fit(static_cast<std::uint32_t>(site)),
               "placement and model state disagree on free space");
    eval_ok[idx] = 1;
    if (tiered) {
      // Local and relative terms are exact (they are model-free); only the
      // cache penalty is tier-priced.
      still_exact[idx] = 0;
      part_local[idx] = flow[idx] * result.nearest.cost(server, site);
      part_penalty[idx] = tier->penalty(server, site);
      part_relative[idx] = columns->relative_gain(server, site);
      val[idx] = part_local[idx] + part_relative[idx] - part_penalty[idx] -
                 options.add_cost_per_byte *
                     static_cast<double>(system.site_bytes()[site]);
      return;
    }
    const HybridBenefitParts parts = hybrid_benefit_parts_capture(
        system, result.placement, result.nearest, states[server], hit,
        flow.data(), server, site,
        term_cache ? &pen_terms[idx * m] : nullptr);
    part_local[idx] = parts.local_gain;
    part_penalty[idx] = parts.cache_penalty;
    part_relative[idx] = parts.relative_gain;
    val[idx] = parts.total() - options.add_cost_per_byte *
                                   static_cast<double>(system.site_bytes()[site]);
  };

  // Component repair: recompute only the stale term(s) of an alive
  // candidate at an untouched server — its feasibility and the other terms
  // are unchanged by construction (see the file comment).
  auto repair = [&](std::size_t idx, std::uint8_t kind, sys::SiteIndex js) {
    const auto server = static_cast<sys::ServerIndex>(idx / m);
    const auto site = static_cast<sys::SiteIndex>(idx % m);
    if (tiered) {
      still_exact[idx] = 0;
      if (verified_stamp[idx] == version[idx]) {
        // The candidate's cached decomposition is exact (verify loop or a
        // previous exact-preserving patch).  A repair-class invalidation
        // only moves inputs the exact terms depend on linearly: the
        // relative term is exact by construction in tier mode, and a
        // penalty repair shifts just the committed column's term by
        // dh * r * (C_new - C_old) — dh and r are untouched for servers
        // off the committed row (those get kFull).  Patching in place keeps
        // the candidate exact-verified, so the verify loop never pays the
        // O(M) re-price for it again.
        if ((kind & kRepairPenalty) != 0 && js != site &&
            !states[server].is_replicated(static_cast<std::uint32_t>(js))) {
          const double c_new = result.nearest.cost(server, js);
          const double c_old = old_cost_js[server];
          if (c_new != c_old) {
            const double dh =
                hit[static_cast<std::size_t>(server) * m + js] -
                states[server]
                    .what_if_replicate(static_cast<std::uint32_t>(site))
                    .hit_ratio(static_cast<std::uint32_t>(js));
            part_penalty[idx] +=
                dh * system.demand().requests(server, js) * (c_new - c_old);
          }
        }
        if ((kind & kRepairRelative) != 0) {
          part_relative[idx] = columns->relative_gain(server, site);
        }
        still_exact[idx] = 1;
      } else {
        // Tier repairs re-price from the (already patched) shared tables —
        // both components are O(1)-ish, so no term cache is needed.
        if ((kind & kRepairPenalty) != 0) {
          part_penalty[idx] = tier->penalty(server, site);
        }
        if ((kind & kRepairRelative) != 0) {
          part_relative[idx] = columns->relative_gain(server, site);
        }
      }
      val[idx] = part_local[idx] + part_relative[idx] - part_penalty[idx] -
                 options.add_cost_per_byte *
                     static_cast<double>(system.site_bytes()[site]);
      return;
    }
    if ((kind & kRepairPenalty) != 0) {
      if (term_cache) {
        double* terms = &pen_terms[idx * m];
        double term = 0.0;
        if (js != site &&
            !states[server].is_replicated(static_cast<std::uint32_t>(js))) {
          const double c = result.nearest.cost(server, js);
          if (c != 0.0) {
            const double dh =
                hit[static_cast<std::size_t>(server) * m + js] -
                states[server]
                    .what_if_replicate(static_cast<std::uint32_t>(site))
                    .hit_ratio(static_cast<std::uint32_t>(js));
            term = dh * system.demand().requests(server, js) * c;
          }
        }
        terms[js] = term;
        double penalty = 0.0;
        for (std::size_t s = 0; s < m; ++s) penalty += terms[s];
        part_penalty[idx] = penalty;
      } else {
        part_penalty[idx] = hybrid_cache_penalty(
            system, result.nearest, states[server], hit, server, site,
            nullptr);
      }
    }
    if ((kind & kRepairRelative) != 0) {
      part_relative[idx] =
          hybrid_relative_gain(system, result.placement, result.nearest, hit,
                               flow.data(), server, site);
    }
    HybridBenefitParts parts;
    parts.local_gain = part_local[idx];
    parts.cache_penalty = part_penalty[idx];
    parts.relative_gain = part_relative[idx];
    val[idx] = parts.total() - options.add_cost_per_byte *
                                   static_cast<double>(system.site_bytes()[site]);
  };

  // Initial build: evaluate every candidate once (this is the one full
  // sweep; afterwards only invalidated candidates are touched).
  obs::ScopedSpan initial_span(spans, sp_initial, "placement");
  std::chrono::steady_clock::time_point eval_start;
  if (t_eval != nullptr) eval_start = std::chrono::steady_clock::now();
  util::parallel_for(0, n, [&](std::size_t i) {
    for (std::size_t j = 0; j < m; ++j) evaluate(i * m + j);
  });
  std::uint64_t pending_candidates = 0;
  heap.reserve(n * m);
  for (std::size_t idx = 0; idx < n * m; ++idx) {
    if (!eval_ok[idx]) {
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
  initial_span.arg("candidates", static_cast<double>(heap.size()));
  initial_span.stop();

  const std::size_t seeded = result.placement.replica_count();
  std::uint64_t total_candidates = pending_candidates;
  std::uint64_t reevaluations = 0;
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
    // Lazy deletion: discard entries whose candidate was re-evaluated or
    // died since they were pushed.
    auto discard_stale = [&] {
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
    };
    discard_stale();

    // Error-gated exact fallback (closed-form tier only): tier prices RANK
    // the heap; the commit decision is always exact.  Each round exact
    // re-prices every live, unverified entry whose tier benefit lands
    // within the margin band of the current top (the top itself included),
    // stamps them, and reinserts; it stops once the top is exact-priced
    // and no unverified runner remains inside its band.  Stop decisions
    // are therefore exact-anchored too: an unverified top at or below
    // zero is within its own band and gets verified before the loop can
    // break on it.
    if (tiered) {
      // Verification is exact-model work — it counts toward the eval
      // timer so tier speedup numbers cannot hide fallback cost.
      std::chrono::steady_clock::time_point verify_start;
      if (t_eval != nullptr) verify_start = std::chrono::steady_clock::now();
      std::vector<HeapEntry> repriced;
      for (;;) {
        discard_stale();
        if (heap.empty()) break;
        const HeapEntry top = heap.front();
        // The band tracks the current top benefit, tightening as the
        // frontier decays — a frozen run-level scale would drag the whole
        // post-commit invalidation set into exact re-pricing every
        // iteration once benefits shrink below it.
        const double band = kTierFallbackMargin * std::abs(top.benefit);
        const std::size_t tidx =
            static_cast<std::size_t>(top.server) * m + top.site;
        // Settled: exact top, nothing unverified close enough to contest.
        bool pending = false;
        for (const HeapEntry& e : heap) {
          const std::size_t idx =
              static_cast<std::size_t>(e.server) * m + e.site;
          if (e.version != version[idx]) continue;  // stale duplicate
          if (verified_stamp[idx] == version[idx]) continue;
          if (e.benefit < top.benefit - band) continue;
          pending = true;
          break;
        }
        if (!pending && verified_stamp[tidx] == version[tidx]) break;

        repriced.clear();
        for (const HeapEntry& e : heap) {
          const std::size_t idx =
              static_cast<std::size_t>(e.server) * m + e.site;
          if (e.version != version[idx]) continue;
          if (verified_stamp[idx] == version[idx]) continue;
          if (e.benefit < top.benefit - band) continue;
          ++tier_fallbacks;
          if (idx != tidx) ++tier_margin_hits;
          part_penalty[idx] = hybrid_cache_penalty(
              system, result.nearest, states[e.server], hit, e.server,
              e.site, nullptr);
          val[idx] = part_local[idx] + part_relative[idx] -
                     part_penalty[idx] -
                     options.add_cost_per_byte *
                         static_cast<double>(system.site_bytes()[e.site]);
          ++version[idx];
          verified_stamp[idx] = version[idx];
          repriced.push_back({val[idx], e.server, e.site, version[idx]});
        }
        for (const HeapEntry& e : repriced) {
          heap.push_back(e);
          std::push_heap(heap.begin(), heap.end(), worse);
        }
        // Loop: re-pricing may have surfaced a different (possibly still
        // unverified) top whose own band needs settling.
      }
      if (t_eval != nullptr) {
        t_eval->record_ns(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - verify_start)
                .count()));
      }
    }
    if (heap.empty()) break;
    const HeapEntry winner = heap.front();
    if (winner.benefit <= 0.0) break;
    std::pop_heap(heap.begin(), heap.end(), worse);
    heap.pop_back();
    const auto ws = winner.server;
    const auto js = winner.site;
    const std::size_t ws_row = static_cast<std::size_t>(ws) * m;

    // Benefit decomposition of the winner, against the pre-commit state.
    HybridBenefitParts parts;
    if (iteration_log != nullptr) {
      if (tiered) {
        const std::size_t widx = ws_row + js;
        parts.local_gain = part_local[widx];
        parts.cache_penalty = part_penalty[widx];
        parts.relative_gain = part_relative[widx];
      } else {
        parts = hybrid_candidate_benefit_parts(system, result.placement,
                                               result.nearest, states[ws], hit,
                                               flow.data(), ws, js);
      }
    }

    std::vector<sys::ServerIndex> changed_servers;
    {
      obs::ScopedTimer commit_timer(t_commit);
      if (tiered) {
        // Pre-commit nearest costs of the committed column, for the
        // exact-preserving penalty patch in repair().
        for (std::size_t i = 0; i < n; ++i) {
          old_cost_js[i] =
              result.nearest.cost(static_cast<sys::ServerIndex>(i), js);
        }
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
      if (tiered) {
        // Patch the shared tables before the batch re-pricing below reads
        // them: cost deltas fold into the changed servers' g/Phi/A tables
        // in O(grid); ws's own table rebuilds lazily (its epoch moved).
        for (const sys::ServerIndex k : changed_servers) {
          if (k != ws) tier->on_cost_changed(k, js);
        }
        columns->on_commit(result.nearest, flow, ws, js, changed_servers);
      }
      result.cost_trajectory.push_back(current_cost());
    }

    if (iteration_log != nullptr) {
      iteration_log->add_row(
          {static_cast<double>(iteration), static_cast<double>(ws),
           static_cast<double>(js), static_cast<double>(pending_candidates),
           winner.benefit, parts.local_gain, parts.relative_gain,
           parts.cache_penalty,
           static_cast<double>(system.site_bytes()[js]),
           result.cost_trajectory.back(), pending_eval_ms});
    }
    ++iteration;

    // --- Invalidation: collect exactly the candidates whose inputs the
    // commit changed, tagged with WHICH term went stale (see the file
    // comment for the derivation).  kFull subsumes the repairs.
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
    for (std::size_t j = 0; j < m; ++j) mark(ws_row + j, kFull);
    for (std::size_t i = 0; i < n; ++i) mark(i * m + js, kFull);
    for (const sys::ServerIndex i : changed_servers) {
      if (i == ws) continue;
      const std::size_t row = static_cast<std::size_t>(i) * m;
      for (std::size_t j = 0; j < m; ++j) mark(row + j, kRepairPenalty);
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (j == js || old_flow[j] == flow[ws_row + j]) continue;
      const auto site = static_cast<sys::SiteIndex>(j);
      if (result.placement.is_replicated(ws, site)) continue;
      const double c = result.nearest.cost(ws, site);
      for (std::size_t i = 0; i < n; ++i) {
        if (i == ws) continue;
        if (dist.server_to_server(ws, static_cast<sys::ServerIndex>(i)) < c) {
          mark(i * m + j, kRepairRelative);
        }
      }
    }
    invalidations += marked.size();
    if (inval_series != nullptr) {
      inval_series->push(static_cast<double>(marked.size()));
    }
    if (spans != nullptr) {
      spans->instant(sp_inval, "placement", "marked",
                     static_cast<double>(marked.size()));
    }

    // --- Batched re-evaluation / repair, parallel across servers, serial
    // within a server (the WhatIf memo is per-state mutable).  Sorting makes
    // the groups contiguous and the later heap pushes deterministic.
    obs::ScopedSpan reeval_span(spans, sp_reeval, "placement");
    reeval_span.arg("marked", static_cast<double>(marked.size()));
    std::sort(marked.begin(), marked.end());
    if (t_eval != nullptr) eval_start = std::chrono::steady_clock::now();
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    for (std::size_t b = 0; b < marked.size();) {
      const std::size_t server = marked[b] / m;
      std::size_t e = b + 1;
      while (e < marked.size() && marked[e] / m == server) ++e;
      groups.emplace_back(b, e);
      b = e;
    }
    util::parallel_for(0, groups.size(), [&](std::size_t g) {
      for (std::size_t t = groups[g].first; t < groups[g].second; ++t) {
        const std::uint32_t idx = marked[t];
        if ((mark_kind[idx] & kFull) != 0) {
          evaluate(idx);
        } else {
          repair(idx, mark_kind[idx], js);
        }
      }
    });
    std::uint64_t batch_alive = 0;
    std::uint64_t batch_evals = 0;
    std::uint64_t batch_repairs = 0;
    for (const std::uint32_t idx : marked) {
      ++version[idx];
      if (!eval_ok[idx]) {
        dead[idx] = 1;
        continue;
      }
      if (still_exact[idx] != 0) {
        // Exact-preserving patch: the new version is born verified.
        verified_stamp[idx] = version[idx];
        still_exact[idx] = 0;
      }
      if ((mark_kind[idx] & kFull) != 0) {
        ++batch_evals;
      } else {
        ++batch_repairs;
      }
      ++batch_alive;
      heap.push_back({val[idx], static_cast<sys::ServerIndex>(idx / m),
                      static_cast<sys::SiteIndex>(idx % m), version[idx]});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
    pending_candidates = batch_alive;
    reevaluations += batch_evals;
    repairs += batch_repairs;
    total_candidates += batch_evals;
    if (t_eval != nullptr) {
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - eval_start)
              .count());
      t_eval->record_ns(ns);
      pending_eval_ms = static_cast<double>(ns) * 1e-6;
    }
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
    metrics->counter(pfx + "heap/repairs").add(repairs);
    metrics->counter(pfx + "heap/invalidations").add(invalidations);
    metrics->counter(pfx + "heap/stale_discarded").add(stale_discarded);
    metrics->counter("model/curve_clamped")
        .add(context.curve().clamped_evaluations());
    if (tiered) {
      metrics->counter(pfx + "tier_evaluations").add(tier->evaluations());
      metrics->counter(pfx + "tier_fallbacks").add(tier_fallbacks);
      metrics->counter(pfx + "tier_margin_hits").add(tier_margin_hits);
    }
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

}  // namespace cdn::placement::detail
