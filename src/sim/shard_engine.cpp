#include "src/sim/shard_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/scoped_timer.h"
#include "src/recover/checkpoint.h"
#include "src/sim/sim_checkpoint.h"
#include "src/sim/sim_internal.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/zipf.h"
#include "src/workload/request_stream.h"

namespace cdn::sim {

namespace {

// Distinct salts keep the plan, per-shard stream and per-shard lambda RNG
// substreams independent of each other for any (seed, shard).
constexpr std::uint64_t kPlanSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kStreamSalt = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kLambdaSalt = 0x94d049bb133111ebull;

/// Blocks of a multi-shard run start on multiples of this many requests;
/// those are also the points where its workers poll the stop flag.
constexpr std::uint64_t kChunk = 4096;
/// The one-shard run's blocks start on multiples of this many requests:
/// long enough that each server's cache serves a run of its own accesses
/// while its state is still in the CPU caches.  Multi-shard runs keep
/// kChunk: each shard owns only N/S servers already.
constexpr std::uint64_t kBlock = 65536;
static_assert(kBlock % kChunk == 0, "blocks must be whole chunks");
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

using Clock = std::chrono::steady_clock;

/// The kTtl and kInvalidation modes run on the global request clock.
bool consistency_mode(const SimulationConfig& config) {
  return config.staleness == StalenessMode::kTtl ||
         config.staleness == StalenessMode::kInvalidation;
}

/// Independent substream seed for (seed, shard, salt) — SplitMix64 over a
/// salted mix, the same construction as util::Rng::fork but reproducible
/// from the plain config seed.
std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t salt) noexcept {
  std::uint64_t mix = seed ^ (salt * (stream + 1));
  return util::splitmix64(mix);
}

/// value * num / den, rounded down, with a 128-bit intermediate so huge
/// runs cannot overflow.
std::uint64_t scale(std::uint64_t value, std::uint64_t num,
                    std::uint64_t den) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(value) *
                                    num / den);
}

/// Window of the r-th measured request of a shard that measures `m`
/// requests over `w` windows; window k covers [k*m/w, (k+1)*m/w), rounded
/// down, so its end is scale(k + 1, m, w).
std::uint64_t window_of(std::uint64_t r, std::uint64_t m, std::uint64_t w) {
  return static_cast<std::uint64_t>(
      ((static_cast<unsigned __int128>(r) + 1) * w - 1) / m);
}

void save_rng(util::ByteWriter& w, const util::Rng& rng) {
  for (const std::uint64_t word : rng.state()) w.u64(word);
}

void restore_rng(util::ByteReader& r, util::Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (auto& word : state) word = r.u64();
  rng.set_state(state);
}

/// Measured-window accumulator.  Each shard keeps one per window; the
/// merge sums them per window index and flushes each sum into the
/// registry's per-window series.
struct WindowAccumulator {
  std::uint64_t requests = 0;
  std::uint64_t local = 0;
  std::uint64_t eligible = 0;
  std::uint64_t eligible_hits = 0;
  double hops = 0.0;
  double latency_ms = 0.0;
  // Degraded-mode extras (stay zero on a healthy run).
  std::uint64_t failed = 0;
  std::uint64_t failover = 0;
  double degraded_latency_ms = 0.0;  // latency sum of failover requests

  WindowAccumulator& operator+=(const WindowAccumulator& o) {
    requests += o.requests;
    local += o.local;
    eligible += o.eligible;
    eligible_hits += o.eligible_hits;
    hops += o.hops;
    latency_ms += o.latency_ms;
    failed += o.failed;
    failover += o.failover;
    degraded_latency_ms += o.degraded_latency_ms;
    return *this;
  }
};

/// Resolved series pointers of the per-window time series (the fault
/// series stay null when no fault schedule is active, keeping healthy
/// snapshots unchanged).
struct WindowSeries {
  obs::Series* requests = nullptr;
  obs::Series* local = nullptr;
  obs::Series* eligible = nullptr;
  obs::Series* eligible_hits = nullptr;
  obs::Series* hops = nullptr;
  obs::Series* hit_ratio = nullptr;
  obs::Series* local_ratio = nullptr;
  obs::Series* mean_hops = nullptr;
  obs::Series* mean_latency_ms = nullptr;
  obs::Series* failed = nullptr;
  obs::Series* failover = nullptr;
  obs::Series* availability = nullptr;
  obs::Series* degraded_mean_latency_ms = nullptr;

  /// Resolves the series under `prefix` in `metrics`; the degraded-mode
  /// series only when `faults` is set.
  void resolve(obs::Registry& metrics, const std::string& prefix,
               bool faults) {
    requests = &metrics.series(prefix + "window/requests");
    local = &metrics.series(prefix + "window/local");
    eligible = &metrics.series(prefix + "window/eligible");
    eligible_hits = &metrics.series(prefix + "window/eligible_hits");
    hops = &metrics.series(prefix + "window/hops");
    hit_ratio = &metrics.series(prefix + "window/hit_ratio");
    local_ratio = &metrics.series(prefix + "window/local_ratio");
    mean_hops = &metrics.series(prefix + "window/mean_hops");
    mean_latency_ms = &metrics.series(prefix + "window/mean_latency_ms");
    if (faults) {
      failed = &metrics.series(prefix + "window/failed");
      failover = &metrics.series(prefix + "window/failover");
      availability = &metrics.series(prefix + "window/availability");
      degraded_mean_latency_ms =
          &metrics.series(prefix + "window/degraded_mean_latency_ms");
    }
  }

  void flush(const WindowAccumulator& win) const {
    const double n = static_cast<double>(win.requests);
    // Failed requests never complete, so they are excluded from the mean
    // latency (they are 0 on a healthy run, keeping the division intact).
    const double completed = static_cast<double>(win.requests - win.failed);
    requests->push(n);
    local->push(static_cast<double>(win.local));
    eligible->push(static_cast<double>(win.eligible));
    eligible_hits->push(static_cast<double>(win.eligible_hits));
    hops->push(win.hops);
    hit_ratio->push(win.eligible ? static_cast<double>(win.eligible_hits) /
                                       static_cast<double>(win.eligible)
                                 : 0.0);
    local_ratio->push(win.requests ? static_cast<double>(win.local) / n : 0.0);
    mean_hops->push(win.requests ? win.hops / n : 0.0);
    mean_latency_ms->push(completed > 0.0 ? win.latency_ms / completed : 0.0);
    if (failed != nullptr) {
      failed->push(static_cast<double>(win.failed));
      failover->push(static_cast<double>(win.failover));
      availability->push(
          win.requests ? 1.0 - static_cast<double>(win.failed) / n : 1.0);
      degraded_mean_latency_ms->push(
          win.failover ? win.degraded_latency_ms /
                             static_cast<double>(win.failover)
                       : 0.0);
    }
  }
};

void save_window(util::ByteWriter& w, const WindowAccumulator& win) {
  w.u64(win.requests);
  w.u64(win.local);
  w.u64(win.eligible);
  w.u64(win.eligible_hits);
  w.f64(win.hops);
  w.f64(win.latency_ms);
  w.u64(win.failed);
  w.u64(win.failover);
  w.f64(win.degraded_latency_ms);
}

void restore_window(util::ByteReader& r, WindowAccumulator& win) {
  win.requests = r.u64();
  win.local = r.u64();
  win.eligible = r.u64();
  win.eligible_hits = r.u64();
  win.hops = r.f64();
  win.latency_ms = r.f64();
  win.failed = r.u64();
  win.failover = r.u64();
  win.degraded_latency_ms = r.f64();
}

/// What a request asks of its first-hop server, decided in stream order
/// with the block's fault state before any cache is touched.
enum class Kind : std::uint8_t {
  kReplica,      // the server replicates the site
  kEligible,     // one cache access decides hit or miss; a miss is admitted
  kStranded,     // eligible, but no copy of the site is up to fetch a miss
                 // from: the access decides hit or miss, a miss is not
                 // admitted (faults only)
  kRefresh,      // flagged, refresh mode: a cache access and the nearest copy
  kUncacheable,  // flagged, uncacheable mode: the nearest copy only
  kDown,         // the first-hop server is down: failover, no cache
};

constexpr bool touches_cache(Kind kind) {
  return kind == Kind::kEligible || kind == Kind::kStranded ||
         kind == Kind::kRefresh;
}

/// What a first-hop cache made of one access.
enum class Served : std::uint8_t {
  kMiss,
  kHit,
  kRevalidated,  // kTtl: an expired hit, revalidated at the nearest copy
};

/// Scratch of a block's three passes, reused across blocks.
struct BlockScratch {
  workload::RequestBatch batch;
  std::vector<Kind> kind;
  std::vector<double> modified;      // consistency modes: set by pass 1
  std::vector<Served> served;        // set by pass 2 for cache accesses
  std::vector<std::uint32_t> order;  // cache accesses grouped by server
  std::vector<std::uint32_t> group;  // group boundaries in `order`
};

/// What happened to one request.
struct Outcome {
  double hops = 0.0;
  bool served_locally = false;
  bool cache_eligible = false;
  bool cache_hit = false;
  bool failed = false;
  std::uint32_t attempts = 0;  // failed connection attempts (faults only)
  obs::EventCause cause = obs::EventCause::kReplica;
  /// Where the request was served: a server, -1 for the origin, -2 for
  /// nowhere (it failed).
  std::int32_t served_by = -2;
};

/// One shard's state: stream, RNGs, position and everything it
/// accumulates.  It survives barriers and round-trips through checkpoints;
/// the shard's caches live in EventRun::caches_, indexed by server.
/// Cache-line aligned so neighbouring shards' workers never share a line.
struct alignas(64) Shard {
  std::uint64_t total = 0;  // requests this shard serves
  std::uint64_t warmup = 0;
  std::optional<workload::RequestStream> stream;
  util::Rng lambda_rng{0};
  util::Rng surge_rng{0};
  std::uint64_t t = 0;  // next shard-local request index

  double hop_sum = 0.0;
  std::uint64_t local = 0;
  std::uint64_t eligible = 0;
  std::uint64_t eligible_hits = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t failed = 0;
  std::uint64_t failover = 0;
  std::uint64_t retries = 0;
  std::uint64_t cold_restarts = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t validations = 0;
  std::uint64_t invalidation_misses = 0;
  util::LatencyDistribution latency;
  std::array<std::uint64_t, obs::kEventCauseCount> causes{};
  std::vector<WindowAccumulator> windows;  // one per window
  std::vector<obs::Histogram> server_latency;      // one per owned server
};

/// One event run: set-up (and resume) in the constructor, the barrier loop
/// in run(), the deterministic merge and the report in merge().
class EventRun {
 public:
  EventRun(const sys::CdnSystem& system,
           const placement::PlacementResult& result,
           const SimulationConfig& config)
      : catalog_(system.catalog()),
        result_(result),
        config_(config),
        shape_(event_shape(config, system.server_count())),
        poll_stop_(!shape_.reference && config.stop != nullptr),
        slo_active_(config.slo_ms > 0.0),
        uncacheable_mode_(config.staleness == StalenessMode::kUncacheable),
        ttl_mode_(config.staleness == StalenessMode::kTtl),
        sink_(config.trace_sink),
        spans_(config.spans) {
    const std::size_t n = system.server_count();
    const std::size_t m = system.site_count();
    total_ = config.total_requests;
    if (config.trace != nullptr) {
      config.trace->validate(n, catalog_.site_count(),
                             catalog_.objects_per_site());
      total_ = config.trace->size();
    }
    if (shape_.reference) {
      plan_.servers.emplace_back(n);
      std::iota(plan_.servers[0].begin(), plan_.servers[0].end(),
                workload::ServerId{0});
      plan_.requests.push_back(total_);
    } else {
      plan_ = plan_shards(system.demand(), total_, shape_.shards, config.seed);
    }
    if (spans_ != nullptr) {
      const std::string& prefix = config.metrics_prefix;
      sp_shard_ = spans_->intern(prefix + "shard/run");
      sp_barrier_ = spans_->intern(prefix + "barrier");
      sp_merge_ = spans_->intern(prefix + "merge");
      sp_checkpoint_ = spans_->intern(prefix + "checkpoint/write");
      sp_resume_ = spans_->intern(prefix + "checkpoint/resume");
      sp_fault_ = spans_->intern(prefix + "fault/transition");
    }

    site_lambda_.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      site_lambda_[j] =
          catalog_.uncacheable_fraction(static_cast<workload::SiteId>(j));
      CDN_EXPECT(site_lambda_[j] == 0.0 || !consistency_mode(config),
                 "TTL and invalidation consistency replace the lambda "
                 "staleness model; set the uncacheable fraction to 0");
    }
    // Caches are allocated shard by shard, so one worker's caches sit
    // together in memory.
    caches_.resize(n);
    shards_.resize(plan_.requests.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      for (const workload::ServerId server : plan_.servers[s]) {
        caches_[server] =
            cache::make_cache(config.policy, result.cache_bytes(server));
      }
      sh.total = plan_.requests[s];
      sh.warmup = static_cast<std::uint64_t>(config.warmup_fraction *
                                             static_cast<double>(sh.total));
      warmup_total_ += sh.warmup;
      measured_total_ += sh.total - sh.warmup;
    }
    CDN_CHECK(measured_total_ > 0, "warm-up consumed every request");

    const bool instrumented = config.metrics != nullptr;
    window_count_ =
        instrumented ? std::max<std::size_t>(
                           1, std::min<std::size_t>(config.metrics_windows,
                                                    measured_total_))
                     : 0;
    per_server_ = instrumented && config.per_server_metrics;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      if (sh.total == 0) continue;  // zero-demand shard: nothing to do
      if (shape_.reference) {
        sh.stream.emplace(catalog_, system.demand(), config.seed);
        sh.lambda_rng = util::Rng(config.seed ^ detail::kLambdaMix);
        sh.surge_rng = util::Rng(config.seed ^ detail::kSurgeMix);
        sh.latency.reserve(sh.total - sh.warmup);
      } else {
        // The shard stream samples the conditional cell distribution given
        // "first hop in this shard" — together with the multinomial split
        // this reproduces the full i.i.d. stream's law exactly.
        sh.stream.emplace(catalog_, system.demand(),
                          substream_seed(config.seed, s, kStreamSalt),
                          plan_.servers[s]);
        sh.lambda_rng =
            util::Rng(substream_seed(config.seed, s, kLambdaSalt));
        sh.latency.use_sketch(detail::kLatencySketchError);
      }
      sh.windows.resize(window_count_);
      if (per_server_) {
        sh.server_latency.assign(
            plan_.servers[s].size(),
            obs::Histogram(obs::default_latency_bounds_ms()));
      }
    }

    if (consistency_mode(config)) {
      updates_.emplace(config.consistency.min_mean_update_interval,
                       config.consistency.max_mean_update_interval,
                       config.seed ^ detail::kUpdateMix,
                       catalog_.object_count());
      freshness_.resize(n);
    }
    if (config.faults != nullptr && !config.faults->empty()) {
      timeline_.emplace(*config.faults, n, m);
      site_live_.resize(m);
      holders_.resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        holders_[j] =
            result.placement.replicators(static_cast<sys::SiteIndex>(j));
      }
    }

    // --- Crash safety (see docs/RECOVERY.md). ---
    if (!config.checkpoint_path.empty() || !config.resume_path.empty() ||
        config.stop != nullptr) {
      fingerprint_ = detail::checkpoint_fingerprint(system, result, config);
      if (instrumented) {
        const std::string& prefix = config.metrics_prefix;
        rc_written_ = &config.metrics->counter(prefix +
                                               "recover/checkpoints_written");
        rc_bytes_ = &config.metrics->counter(prefix + "recover/bytes");
        rc_last_ms_ =
            &config.metrics->gauge(prefix + "recover/last_checkpoint_ms");
      }
    }
    if (!config.resume_path.empty()) resume();
  }

  // Pool workers hold `this` while run() executes.
  EventRun(const EventRun&) = delete;
  EventRun& operator=(const EventRun&) = delete;

  /// The barrier loop.  Barriers sit on the global request clock at the
  /// probe stride (stop flag and checkpoint cadence) and the progress
  /// stride; between them every shard advances to its proportional target.
  /// The reference run probes exactly every checkpoint_every_requests
  /// (else 4096) requests and reports progress exactly every
  /// progress_every, so its kill points and snapshots are exact.  Each
  /// multi-shard barrier joins the pool, so those runs take at most 64
  /// probe and 256 progress barriers; their workers also poll the stop
  /// flag between chunks, and any barrier that finds one stopped short
  /// probes, the last barrier included.
  void run() {
    const std::uint64_t every = config_.checkpoint_every_requests;
    const std::uint64_t probe_stride =
        every > 0 ? every
        : shape_.reference ? kChunk
                           : std::max<std::uint64_t>(1, (total_ + 63) / 64);
    const std::uint64_t progress_stride =
        shape_.reference
            ? config_.progress_every
            : std::max<std::uint64_t>(config_.progress_every,
                                      (total_ + 255) / 256);
    const auto first_after = [&](std::uint64_t stride) {
      return (resumed_at_ / stride + 1) * stride;
    };
    std::uint64_t next_probe =
        !config_.checkpoint_path.empty() || config_.stop != nullptr
            ? first_after(probe_stride)
            : kNever;
    std::uint64_t next_progress =
        config_.progress_every > 0 && config_.progress
            ? first_after(progress_stride)
            : kNever;

    // A dedicated pool sized to the run; shards >> threads gives the static
    // partition slack to balance uneven shard masses.
    std::optional<util::ThreadPool> pool;
    if (shards_.size() > 1) {
      pool.emplace(std::min(shape_.threads, shards_.size()));
    }
    run_start_ = Clock::now();
    last_checkpoint_time_ = run_start_;
    for (;;) {
      const std::uint64_t at = std::min({total_, next_probe, next_progress});
      if (pool) {
        util::parallel_for(*pool, 0, shards_.size(),
                           [&](std::size_t s) { advance(s, at); });
      } else {
        advance(0, at);
      }
      obs::ScopedSpan barrier_span(pool ? spans_ : nullptr, sp_barrier_,
                                   "sim");
      std::uint64_t done = 0;
      // A worker that saw the stop flag returned short of its target; the
      // probe then checkpoints where the shards are and throws.
      bool stopped_short = false;
      for (const Shard& sh : shards_) {
        done += sh.t;
        stopped_short = stopped_short || sh.t < target(sh, at);
      }
      const bool probe_due = at >= next_probe;
      if (probe_due) next_probe += probe_stride;
      if (probe_due || stopped_short) probe(done);
      if (at >= next_progress) {
        next_progress += progress_stride;
        config_.progress(snapshot(done));
      }
      if (done == total_) break;
    }
  }

  /// Deterministic merge in shard-index order, then the report and the
  /// registry metrics.
  SimulationReport merge() {
    obs::ScopedSpan merge_span(spans_, sp_merge_, "sim");
    SimulationReport report;
    report.total_requests = total_;
    report.measured_requests = measured_total_;
    report.shards_used = shards_.size();
    // The reference run's exact samples move: at 10^7 requests a copy
    // would double the run's peak memory.
    if (shape_.reference) {
      report.latency_cdf = std::move(shards_[0].latency);
    } else {
      report.latency_cdf.use_sketch(detail::kLatencySketchError);
    }
    double hop_sum = 0.0;
    std::uint64_t local = 0;
    std::uint64_t eligible = 0;
    std::uint64_t eligible_hits = 0;
    std::uint64_t slo_violations = 0;
    std::array<std::uint64_t, obs::kEventCauseCount> causes{};
    std::vector<WindowAccumulator> windows(window_count_);
    for (const Shard& sh : shards_) {
      if (sh.total == 0) continue;
      if (!shape_.reference) report.latency_cdf.merge(sh.latency);
      hop_sum += sh.hop_sum;
      local += sh.local;
      eligible += sh.eligible;
      eligible_hits += sh.eligible_hits;
      slo_violations += sh.slo_violations;
      report.failed_requests += sh.failed;
      report.failover_requests += sh.failover;
      report.retry_attempts += sh.retries;
      report.cold_restarts += sh.cold_restarts;
      report.stale_served += sh.stale_served;
      report.validations += sh.validations;
      report.invalidation_misses += sh.invalidation_misses;
      for (std::size_t c = 0; c < causes.size(); ++c) causes[c] += sh.causes[c];
      for (std::size_t w = 0; w < window_count_; ++w) {
        windows[w] += sh.windows[w];
      }
    }
    // Fleet totals in global server order.
    report.server_cache_stats.reserve(caches_.size());
    for (const auto& c : caches_) {
      report.server_cache_stats.push_back(c->stats());
      report.cache_totals.merge(c->stats());
    }
    merge_span.stop();

    const double measured = static_cast<double>(measured_total_);
    report.mean_latency_ms =
        report.latency_cdf.empty() ? 0.0 : report.latency_cdf.mean();
    report.mean_cost_hops = hop_sum / measured;
    report.local_ratio = static_cast<double>(local) / measured;
    report.cache_hit_ratio =
        eligible ? static_cast<double>(eligible_hits) /
                       static_cast<double>(eligible)
                 : 0.0;
    report.availability =
        1.0 - static_cast<double>(report.failed_requests) / measured;
    report.slo_violation_fraction =
        slo_active_ ? static_cast<double>(slo_violations) / measured : 0.0;
    if (timeline_) report.fault_transitions = timeline_->transitions();
    if (config_.metrics != nullptr) publish(report, causes, windows);
    return report;
  }

 private:
  /// A shard's share of global request `at`: proportional progress, exact
  /// at the end of the run.
  std::uint64_t target(const Shard& sh, std::uint64_t at) const {
    return at >= total_ ? sh.total : scale(sh.total, at, total_);
  }

  /// Advances shard s to its target for global request `at`.
  void advance(std::size_t s, std::uint64_t at) {
    Shard& sh = shards_[s];
    const std::uint64_t end = target(sh, at);
    if (sh.t >= end) return;  // zero-demand shard, or past it on resume
    obs::ScopedSpan shard_span(shards_.size() > 1 ? spans_ : nullptr,
                               sp_shard_, "sim");
    shard_span.arg("shard", static_cast<double>(s));
    const std::uint64_t measured = sh.total - sh.warmup;
    const std::uint64_t stride = shape_.reference ? kBlock : kChunk;
    BlockScratch scratch;
    // Blocked loop (docs/PERFORMANCE.md): a block ends at the next stride
    // multiple, the warm-up edge, the next fault transition or the next
    // window boundary, so its requests share one fault state and the
    // request bodies carry no boundary compares.
    while (sh.t < end) {
      const std::uint64_t t = sh.t;
      // t == 0 is exempt so even a pre-set flag checkpoints progress.
      if (poll_stop_ && t % kChunk == 0 && t != 0 &&
          config_.stop->load(std::memory_order_relaxed)) {
        return;
      }
      if (t == sh.warmup) {
        for (const workload::ServerId server : plan_.servers[s]) {
          caches_[server]->reset_stats();
        }
      }
      std::uint64_t block_end = std::min(end, (t / stride + 1) * stride);
      if (t < sh.warmup) block_end = std::min(block_end, sh.warmup);
      if (timeline_) block_end = std::min(block_end, apply_faults(sh, t));
      WindowAccumulator* win = nullptr;
      if (t >= sh.warmup && window_count_ > 0) {
        const std::uint64_t k =
            window_of(t - sh.warmup, measured, window_count_);
        win = &sh.windows[k];
        block_end = std::min(block_end,
                             sh.warmup + scale(k + 1, measured, window_count_));
      }
      block(s, scratch, t, block_end, win);
      sh.t = block_end;
    }
  }

  /// Applies the fault transitions due at request t and returns the index
  /// of the next one, where the block must end.  A server that recovers
  /// here restarts with a COLD cache: whatever it held when it crashed is
  /// gone.  Its statistics survive (clear() keeps them) so fleet totals
  /// stay consistent.
  std::uint64_t apply_faults(Shard& sh, std::uint64_t t) {
    const fault::FaultTimeline& timeline = *timeline_;
    if (timeline_->advance(t)) {
      for (const std::uint32_t s : timeline.just_recovered()) {
        caches_[s]->clear();
        ++sh.cold_restarts;
      }
      if (spans_ != nullptr) {
        spans_->instant(sp_fault_, "fault", "request",
                        static_cast<double>(t));
      }
    }
    // O(sites + replicas) once per block: is any copy of the site up to
    // fetch a miss from?
    for (std::size_t j = 0; j < site_live_.size(); ++j) {
      site_live_[j] =
          timeline.origin_up(static_cast<std::uint32_t>(j)) ||
          std::any_of(holders_[j].begin(), holders_[j].end(),
                      [&](sys::ServerIndex h) { return timeline.server_up(h); });
    }
    return timeline.next_transition();
  }

  /// One block in three passes over one SoA batch:
  ///   1. in stream order, draw the requests and classify them with the
  ///      block's fault state, which draws the lambda RNG; the consistency
  ///      modes also read each accessed object's last modification here,
  ///      so the modification process sees its times in order;
  ///   2. group the cache accesses by first-hop server (a counting sort of
  ///      request indices) and let each cache serve its own accesses in
  ///      stream order, so its state stays in the CPU caches for its whole
  ///      share of the block;
  ///   3. in stream order, build and book every outcome, failing over
  ///      around the copies the block's fault state has down.
  /// Each cache sees exactly its own subsequence in order and every sum
  /// accumulates in stream order, so the report does not depend on where
  /// blocks end (sim_batch_parity_test compares every event with the
  /// per-request oracle of tests/sim_oracle.h).
  void block(std::size_t s, BlockScratch& scratch, std::uint64_t t,
             std::uint64_t end, WindowAccumulator* win) {
    Shard& sh = shards_[s];
    const auto count = static_cast<std::size_t>(end - t);
    auto& [batch, kind, modified, served, order, group] = scratch;
    draw(sh, batch, t, count);
    kind.resize(count);
    served.resize(count);
    order.resize(count);
    // Round-robin ownership: server i is shard s's local server i / S.
    const std::vector<workload::ServerId>& owned = plan_.servers[s];
    const std::size_t shard_count = shards_.size();
    group.assign(owned.size() + 1, 0);
    for (std::size_t i = 0; i < count; ++i) {
      kind[i] = classify(sh.lambda_rng, batch.server[i], batch.site[i]);
      if (touches_cache(kind[i])) ++group[batch.server[i] / shard_count + 1];
    }
    if (updates_) {
      modified.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        if (!touches_cache(kind[i])) continue;
        modified[i] = updates_->last_modification(
            catalog_.object_id(batch.site[i], batch.rank[i]), seconds(t + i));
      }
    }
    // group[l] becomes where local server l's accesses start; the scatter
    // then advances it to where they end.
    for (std::size_t l = 1; l <= owned.size(); ++l) group[l] += group[l - 1];
    for (std::size_t i = 0; i < count; ++i) {
      if (!touches_cache(kind[i])) continue;
      order[group[batch.server[i] / shard_count]++] =
          static_cast<std::uint32_t>(i);
    }
    const bool measured = t >= sh.warmup;
    std::size_t k = 0;
    for (std::size_t l = 0; l < owned.size(); ++l) {
      cache::CachePolicy& cache = *caches_[owned[l]];
      for (; k < group[l]; ++k) {
        const std::uint32_t i = order[k];
        const cache::ObjectKey key =
            catalog_.object_id(batch.site[i], batch.rank[i]);
        const std::uint64_t bytes =
            catalog_.object_bytes(batch.site[i], batch.rank[i]);
        if (updates_) {
          served[i] = serve_fresh(sh, measured, cache, freshness_[owned[l]],
                                  key, bytes, seconds(t + i), modified[i]);
        } else if (kind[i] == Kind::kStranded) {
          served[i] = cache.access_no_admit(key, bytes) ? Served::kHit
                                                        : Served::kMiss;
        } else {
          served[i] =
              cache.access(key, bytes) ? Served::kHit : Served::kMiss;
        }
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      const workload::ServerId server = batch.server[i];
      const workload::SiteId site = batch.site[i];
      const Outcome o = outcome(kind[i], served[i], server, site);
      const double latency_ms = latency_of(o, server);
      if (measured) record(sh, win, server, o, latency_ms);
      if (sink_ != nullptr && sink_->should_sample()) {
        trace(t + i, server, site, batch.rank[i], o, latency_ms, measured);
      }
    }
  }

  /// Pass 1's draw: the block's requests from the trace, from the stream,
  /// or, while a surge is on, from the stream one at a time.
  void draw(Shard& sh, workload::RequestBatch& batch, std::uint64_t t,
            std::size_t count) const {
    const bool surge = timeline_ && timeline_->any_surge_active();
    if (config_.trace == nullptr && !surge) {
      sh.stream->next_batch(batch, count);
      return;
    }
    batch.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      workload::Request req;
      if (config_.trace != nullptr) {
        req = (*config_.trace)[t + i];
      } else {
        // Flash-crowd reshaping: accept a drawn request with probability
        // proportional to its site's surge multiplier (rejection sampling
        // against the current max), which samples site j with probability
        // ∝ p_j * mult_j without touching the demand matrix.
        const double bound = timeline_->max_demand_multiplier();
        do {
          req = sh.stream->next();
        } while (sh.surge_rng.uniform() * bound >
                 timeline_->demand_multiplier(req.site));
      }
      batch.server[i] = req.server;
      batch.site[i] = req.site;
      batch.rank[i] = req.rank;
    }
  }

  /// Arrival time of request t in the consistency modes' virtual seconds.
  static double seconds(std::uint64_t t) {
    return static_cast<double>(t) * kSecondsPerRequest;
  }

  /// What a request needs, given the block's fault state.  The RNG draw
  /// order (one lambda bernoulli per request at a live first hop whose
  /// site it does not replicate, none in the consistency modes) is the
  /// contract that keeps the reference run bit-identical and the shard
  /// decomposition exact.
  Kind classify(util::Rng& lambda_rng, workload::ServerId server,
                workload::SiteId site) const {
    if (timeline_ && !timeline_->server_up(server)) return Kind::kDown;
    // Replicas are always consistent (the CDN pushes invalidations to
    // them); even flagged requests are served locally.
    if (result_.placement.is_replicated(server, site)) return Kind::kReplica;
    const bool flagged = !updates_ && lambda_rng.bernoulli(site_lambda_[site]);
    const bool fetchable = !timeline_ || site_live_[site] != 0;
    if (!flagged) return fetchable ? Kind::kEligible : Kind::kStranded;
    // With every copy down, a flagged request fails before it reaches the
    // cache in either lambda mode.
    return uncacheable_mode_ || !fetchable ? Kind::kUncacheable
                                           : Kind::kRefresh;
  }

  /// One kTtl or kInvalidation cache access at virtual time `now`, for an
  /// object last modified at `modified`: staleness compares that with the
  /// time the server fetched its copy.  Only measured requests count
  /// toward the consistency counters.
  Served serve_fresh(Shard& sh, bool measured, cache::CachePolicy& cache,
                     FreshnessTable& fresh, cache::ObjectKey key,
                     std::uint64_t bytes, double now, double modified) const {
    if (cache.lookup(key)) {
      const double fetched = fresh.fetch_time(key);
      if (ttl_mode_ && now - fetched > config_.consistency.ttl) {
        // Expired: revalidate at the nearest copy, a full remote round.
        fresh.on_fetch(key, now);
        sh.validations += measured;
        return Served::kRevalidated;
      }
      if (modified <= fetched) return Served::kHit;
      if (ttl_mode_) {
        sh.stale_served += measured;  // weak consistency served a stale copy
        return Served::kHit;
      }
      // A modification voided the copy: it is gone before it is served.
      cache.erase(key);
      fresh.erase(key);
      sh.invalidation_misses += measured;
    }
    // Miss: fetch from the nearest copy and admit.
    cache.admit(key, bytes);
    fresh.prune(cache);
    if (cache.contains(key)) fresh.on_fetch(key, now);
    return Served::kMiss;
  }

  /// The outcome of a request of `kind` whose cache access, if it made
  /// one, was `served`: a replicated site or a cache hit stays local,
  /// anything else goes to the nearest copy.
  Outcome outcome(Kind kind, Served served, workload::ServerId server,
                  workload::SiteId site) const {
    Outcome o;
    obs::EventCause cause = obs::EventCause::kCacheMiss;
    switch (kind) {
      case Kind::kReplica:
        o.served_locally = true;
        o.served_by = static_cast<std::int32_t>(server);
        return o;
      case Kind::kDown:
        // First-hop crash: the client's connection times out and the
        // redirector re-routes it to the nearest live copy.  The dead
        // server's warm cache and its replicas are unreachable.
        o.attempts = 1;
        return fail_over(o, server, site);
      case Kind::kEligible:
      case Kind::kStranded:
        o.cache_eligible = true;
        if (served == Served::kHit) {
          o.cache_hit = true;
          o.served_locally = true;
          o.served_by = static_cast<std::int32_t>(server);
          o.cause = obs::EventCause::kCacheHit;
          return o;
        }
        if (served == Served::kRevalidated) {
          cause = obs::EventCause::kStaleRefresh;
        }
        break;
      case Kind::kRefresh:
        cause = obs::EventCause::kStaleRefresh;
        break;
      case Kind::kUncacheable:
        cause = obs::EventCause::kUncacheable;
        break;
    }
    // Fault-aware redirection: the precomputed nearest copy may be dead;
    // trying it costs one failed attempt before the failover.
    const sys::NearestCopy& copy = result_.nearest.nearest(server, site);
    if (timeline_ && !(copy.at_primary ? timeline_->origin_up(site)
                                       : timeline_->server_up(copy.server))) {
      o.attempts = 1;
      return fail_over(o, server, site);
    }
    o.hops = copy.cost;
    o.cause = cause;
    o.served_by = copy_id(copy);
    return o;
  }

  /// Re-routes `o` to the nearest live copy; with every copy down it fails.
  Outcome fail_over(Outcome o, workload::ServerId server,
                    workload::SiteId site) const {
    const auto live = result_.nearest.nearest_live_candidates(
        server, site, holders_[site], timeline_->server_up_mask(),
        timeline_->origin_up(site), 1);
    if (live.empty()) {
      o.failed = true;
      o.cause = obs::EventCause::kFailed;
      return o;
    }
    o.hops = live.front().cost;
    o.cause = obs::EventCause::kFailover;
    o.served_by = copy_id(live.front());
    return o;
  }

  static std::int32_t copy_id(const sys::NearestCopy& copy) {
    return copy.at_primary ? -1 : static_cast<std::int32_t>(copy.server);
  }

  /// Response time of `o` at first hop `server`.  A failed request's
  /// wasted time is reported in the trace but excluded from the latency
  /// CDF (the request never completed).
  double latency_of(const Outcome& o, workload::ServerId server) const {
    if (!timeline_) return config_.latency.latency_ms(o.hops);
    if (o.failed) return config_.latency.retry_penalty_ms(o.attempts);
    return config_.latency.failover_latency_ms(
        o.hops * timeline_->latency_multiplier(server), o.attempts);
  }

  /// Books one measured request into its shard.  Failed requests never
  /// complete, so they stay out of every latency sum.
  void record(Shard& sh, WindowAccumulator* win,
              workload::ServerId server, const Outcome& o,
              double latency_ms) const {
    if (o.failed) {
      ++sh.failed;
    } else {
      sh.latency.add(latency_ms);
    }
    sh.hop_sum += o.hops;
    if (o.served_locally) ++sh.local;
    if (o.cache_eligible) {
      ++sh.eligible;
      if (o.cache_hit) ++sh.eligible_hits;
    }
    const bool failed_over = o.attempts > 0 && !o.failed;
    if (failed_over) ++sh.failover;
    sh.retries += o.attempts;
    if (slo_active_ && (o.failed || latency_ms > config_.slo_ms)) {
      ++sh.slo_violations;
    }
    ++sh.causes[static_cast<std::size_t>(o.cause)];
    if (!sh.server_latency.empty() && !o.failed) {
      // Round-robin ownership makes the local index a division.
      sh.server_latency[server / shards_.size()].observe(latency_ms);
    }
    if (win == nullptr) return;
    ++win->requests;
    win->hops += o.hops;
    if (!o.failed) win->latency_ms += latency_ms;
    if (o.served_locally) ++win->local;
    if (o.cache_eligible) {
      ++win->eligible;
      if (o.cache_hit) ++win->eligible_hits;
    }
    if (o.failed) ++win->failed;
    if (failed_over) {
      ++win->failover;
      win->degraded_latency_ms += latency_ms;
    }
  }

  void trace(std::uint64_t t, workload::ServerId server,
             workload::SiteId site, std::uint32_t rank, const Outcome& o,
             double latency_ms, bool measured) const {
    obs::TraceEvent event;
    event.t = t;
    event.server = server;
    event.site = site;
    event.rank = rank;
    event.cause = o.cause;
    event.served_by = o.served_by;
    event.measured = measured;
    event.hops = o.hops;
    event.latency_ms = latency_ms;
    sink_->record(event);
  }

  /// The checkpoint payload: per shard its position, stream, RNGs, caches,
  /// accumulators, latency, windows and histograms; then the trace sink.
  void save(util::ByteWriter& w) const {
    w.u64(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& sh = shards_[s];
      if (sh.total == 0) continue;
      w.u64(sh.t);
      sh.stream->save_state(w);
      save_rng(w, sh.lambda_rng);
      save_rng(w, sh.surge_rng);
      w.u64(plan_.servers[s].size());
      for (const workload::ServerId server : plan_.servers[s]) {
        caches_[server]->save_state(w);
      }
      w.f64(sh.hop_sum);
      w.u64(sh.local);
      w.u64(sh.eligible);
      w.u64(sh.eligible_hits);
      w.u64(sh.slo_violations);
      w.u64(sh.failed);
      w.u64(sh.failover);
      w.u64(sh.retries);
      w.u64(sh.cold_restarts);
      sh.latency.save_state(w);
      for (const std::uint64_t c : sh.causes) w.u64(c);
      w.u64(sh.windows.size());
      for (const auto& win : sh.windows) save_window(w, win);
      w.u64(sh.server_latency.size());
      for (const obs::Histogram& h : sh.server_latency) h.save_state(w);
    }
    w.u8(sink_ != nullptr ? 1 : 0);
    if (sink_ != nullptr) sink_->save_state(w);
  }

  void restore(util::ByteReader& r) {
    CDN_EXPECT(r.u64() == shards_.size(), "checkpoint shard count mismatch");
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      if (sh.total == 0) continue;
      sh.t = r.u64();
      CDN_EXPECT(sh.t <= sh.total,
                 "checkpoint shard request index exceeds the shard's plan");
      sh.stream->restore_state(r);
      restore_rng(r, sh.lambda_rng);
      restore_rng(r, sh.surge_rng);
      CDN_EXPECT(r.u64() == plan_.servers[s].size(),
                 "checkpoint shard cache count mismatch");
      for (const workload::ServerId server : plan_.servers[s]) {
        caches_[server]->restore_state(r);
      }
      sh.hop_sum = r.f64();
      sh.local = r.u64();
      sh.eligible = r.u64();
      sh.eligible_hits = r.u64();
      sh.slo_violations = r.u64();
      sh.failed = r.u64();
      sh.failover = r.u64();
      sh.retries = r.u64();
      sh.cold_restarts = r.u64();
      sh.latency.restore_state(r);
      for (std::uint64_t& c : sh.causes) c = r.u64();
      CDN_EXPECT(r.u64() == sh.windows.size(),
                 "checkpoint shard window count mismatch");
      for (auto& win : sh.windows) restore_window(r, win);
      CDN_EXPECT(r.u64() == sh.server_latency.size(),
                 "checkpoint shard histogram count mismatch");
      for (obs::Histogram& h : sh.server_latency) h.restore_state(r);
    }
    const bool had_sink = r.u8() != 0;
    CDN_EXPECT(had_sink == (sink_ != nullptr),
               "checkpoint trace sink presence mismatch");
    if (sink_ != nullptr) sink_->restore_state(r);
    CDN_EXPECT(r.done(), "checkpoint payload has trailing bytes");
  }

  void resume() {
    obs::ScopedSpan resume_span(spans_, sp_resume_, "recover");
    const recover::Checkpoint ckpt = recover::read_file(config_.resume_path);
    recover::check_fingerprint(ckpt, fingerprint_);
    util::ByteReader reader(ckpt.payload);
    restore(reader);
    for (const Shard& sh : shards_) resumed_at_ += sh.t;
    written_at_ = resumed_at_;
    // The fault timeline is a pure function of (schedule, t): one advance
    // re-derives the stepper position, depth counters and transition count.
    // Cold restarts up to the resume point are already in the restored
    // caches, so just_recovered() is deliberately ignored here.
    if (timeline_ && resumed_at_ > 0) timeline_->advance(resumed_at_ - 1);
    if (config_.metrics != nullptr) {
      const std::string& prefix = config_.metrics_prefix;
      config_.metrics->gauge(prefix + "recover/resumed").set(1.0);
      config_.metrics->gauge(prefix + "recover/resume_request_index")
          .set(static_cast<double>(resumed_at_));
    }
    resume_span.arg("request", static_cast<double>(resumed_at_));
  }

  /// The stop and checkpoint probe: writes a checkpoint when the request or
  /// seconds cadence is due or a stop was requested, then honours the stop.
  void probe(std::uint64_t done) {
    const bool stop_requested =
        config_.stop != nullptr &&
        config_.stop->load(std::memory_order_relaxed);
    const std::string& path = config_.checkpoint_path;
    bool write = !path.empty() &&
                 (config_.checkpoint_every_requests > 0 || stop_requested);
    if (!write && !path.empty() && config_.checkpoint_every_seconds > 0.0) {
      write = std::chrono::duration<double>(Clock::now() -
                                            last_checkpoint_time_)
                  .count() >= config_.checkpoint_every_seconds;
    }
    if (write && done > written_at_) write_checkpoint(done);
    if (stop_requested) throw recover::Interrupted(done, path);
  }

  void write_checkpoint(std::uint64_t done) {
    obs::ScopedSpan ckpt_span(spans_, sp_checkpoint_, "recover");
    ckpt_span.arg("request", static_cast<double>(done));
    const auto write_start = Clock::now();
    recover::Checkpoint ckpt;
    ckpt.fingerprint = fingerprint_;
    util::ByteWriter w;
    save(w);
    ckpt.payload = w.buffer();
    const std::uint64_t bytes =
        recover::write_file(config_.checkpoint_path, ckpt);
    last_checkpoint_time_ = Clock::now();
    written_at_ = done;
    ++checkpoints_written_;
    if (rc_written_ != nullptr) {
      rc_written_->add();
      rc_bytes_->add(bytes);
      rc_last_ms_->set(std::chrono::duration<double, std::milli>(
                           last_checkpoint_time_ - write_start)
                           .count());
    }
  }

  SimulationProgress snapshot(std::uint64_t done) const {
    SimulationProgress p;
    p.completed = done;
    p.total = total_;
    p.warming_up = done <= warmup_total_;
    std::uint64_t eligible = 0;
    std::uint64_t eligible_hits = 0;
    for (const Shard& sh : shards_) {
      eligible += sh.eligible;
      eligible_hits += sh.eligible_hits;
    }
    p.hit_ratio_known = done > warmup_total_ && eligible > 0;
    if (p.hit_ratio_known) {
      p.hit_ratio = static_cast<double>(eligible_hits) /
                    static_cast<double>(eligible);
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - run_start_).count();
    if (elapsed > 0.0 && done > resumed_at_) {
      p.requests_per_sec = static_cast<double>(done - resumed_at_) / elapsed;
      p.eta_seconds = static_cast<double>(total_ - done) / p.requests_per_sec;
    }
    p.checkpoints_written = checkpoints_written_;
    p.last_checkpoint_request = checkpoints_written_ > 0 ? written_at_ : 0;
    return p;
  }

  void publish(const SimulationReport& report,
               const std::array<std::uint64_t, obs::kEventCauseCount>& causes,
               const std::vector<WindowAccumulator>& windows) const {
    obs::Registry& metrics = *config_.metrics;
    const std::string& prefix = config_.metrics_prefix;
    const bool faults_active = timeline_.has_value();
    WindowSeries series;
    series.resolve(metrics, prefix, faults_active);
    for (const WindowAccumulator& win : windows) {
      if (win.requests > 0) series.flush(win);
    }
    // Fault causes only exist when a schedule is active, so healthy
    // snapshots keep their layout.
    for (std::size_t c = 0; c < causes.size(); ++c) {
      const auto cause = static_cast<obs::EventCause>(c);
      if (!faults_active && (cause == obs::EventCause::kFailover ||
                             cause == obs::EventCause::kFailed)) {
        continue;
      }
      metrics.counter(prefix + "cause/" + obs::to_string(cause)).add(causes[c]);
    }
    if (faults_active) {
      metrics.counter(prefix + "fault/retries").add(report.retry_attempts);
    }
    if (per_server_) {
      // Global server order, one histogram per server even when its shard
      // saw no traffic.
      const std::size_t shard_count = shards_.size();
      for (std::size_t i = 0; i < caches_.size(); ++i) {
        obs::Histogram& h = metrics.histogram(
            prefix + "server/" + std::to_string(i) + "/latency_ms",
            obs::default_latency_bounds_ms());
        const Shard& sh = shards_[i % shard_count];
        if (sh.total > 0) h.merge(sh.server_latency[i / shard_count]);
      }
    }
    if (!shape_.reference) {
      metrics.gauge(prefix + "parallel/threads")
          .set(static_cast<double>(shape_.threads));
      metrics.gauge(prefix + "parallel/shards")
          .set(static_cast<double>(shards_.size()));
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        metrics.counter(prefix + "shard/" + std::to_string(s) + "/requests")
            .add(plan_.requests[s]);
      }
    }
    detail::publish_summary_metrics(metrics, prefix, config_, report,
                                    slo_active_, faults_active);
  }

  const workload::SiteCatalog& catalog_;
  const placement::PlacementResult& result_;
  const SimulationConfig& config_;
  const EventShape shape_;
  const bool poll_stop_;
  const bool slo_active_;
  const bool uncacheable_mode_;
  const bool ttl_mode_;
  obs::TraceSink* const sink_;
  obs::SpanTracer* const spans_;
  const char* sp_shard_ = nullptr;
  const char* sp_barrier_ = nullptr;
  const char* sp_merge_ = nullptr;
  const char* sp_checkpoint_ = nullptr;
  const char* sp_resume_ = nullptr;
  const char* sp_fault_ = nullptr;

  ShardPlan plan_;
  std::uint64_t total_ = 0;
  std::uint64_t warmup_total_ = 0;
  std::uint64_t measured_total_ = 0;
  std::size_t window_count_ = 0;
  bool per_server_ = false;
  std::vector<double> site_lambda_;  // uncacheable_fraction per site
  std::vector<std::unique_ptr<cache::CachePolicy>> caches_;  // by server
  std::vector<Shard> shards_;
  // Fault schedule state (reference runs only); site_live_ holds for the
  // current block.
  std::optional<fault::FaultTimeline> timeline_;
  std::vector<std::vector<sys::ServerIndex>> holders_;
  std::vector<std::uint8_t> site_live_;  // by site: any copy up
  // Consistency-mode state (reference runs only): the modification process
  // and, per server, when each cached copy was fetched or validated.
  std::optional<ModificationProcess> updates_;
  std::vector<FreshnessTable> freshness_;

  std::vector<recover::FingerprintSection> fingerprint_;
  obs::Counter* rc_written_ = nullptr;
  obs::Counter* rc_bytes_ = nullptr;
  obs::Gauge* rc_last_ms_ = nullptr;
  Clock::time_point run_start_;
  Clock::time_point last_checkpoint_time_;
  std::uint64_t resumed_at_ = 0;  // requests done when the run (re)started
  // Requests the newest checkpoint covers: this process's last write, else
  // the checkpoint it resumed from.
  std::uint64_t written_at_ = 0;
  std::uint64_t checkpoints_written_ = 0;  // by this process
};

}  // namespace

std::size_t resolve_shard_count(std::size_t configured, std::size_t threads,
                                std::size_t server_count) {
  const std::size_t want = configured != 0 ? configured : 4 * threads;
  return std::max<std::size_t>(1, std::min(want, server_count));
}

ShardPlan plan_shards(const workload::DemandMatrix& demand,
                      std::uint64_t total, std::size_t shards,
                      std::uint64_t seed) {
  CDN_EXPECT(shards >= 1 && shards <= demand.server_count(),
             "shard count must be in [1, server count]");
  ShardPlan plan;
  plan.servers.resize(shards);
  plan.requests.assign(shards, 0);
  std::vector<double> mass(shards, 0.0);
  for (std::size_t i = 0; i < demand.server_count(); ++i) {
    const std::size_t s = i % shards;
    plan.servers[s].push_back(static_cast<workload::ServerId>(i));
    for (const double d : demand.row(static_cast<workload::ServerId>(i))) {
      mass[s] += d;
    }
  }
  // Exact multinomial split: `total` categorical draws over the shard
  // masses.  O(total) with an alias table — a percent or two of the run —
  // and deterministic in (seed, shards) alone.
  util::AliasSampler sampler(mass);
  util::Rng rng(substream_seed(seed, 0, kPlanSalt));
  for (std::uint64_t t = 0; t < total; ++t) {
    ++plan.requests[sampler.sample(rng)];
  }
  return plan;
}

EventShape event_shape(const SimulationConfig& config,
                       std::size_t server_count) {
  EventShape shape;
  shape.threads =
      config.threads != 0
          ? config.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const bool faults_active =
      config.faults != nullptr && !config.faults->empty();
  shape.reference = shape.threads == 1 || faults_active ||
                    config.trace != nullptr || config.trace_sink != nullptr ||
                    consistency_mode(config);
  shape.shards = shape.reference ? 1
                                 : resolve_shard_count(config.shards,
                                                       shape.threads,
                                                       server_count);
  return shape;
}

SimulationReport simulate_events(const sys::CdnSystem& system,
                                 const placement::PlacementResult& result,
                                 const SimulationConfig& config) {
  obs::Registry* const metrics = config.metrics;
  const std::string& prefix = config.metrics_prefix;
  obs::TimerStat* const t_setup =
      metrics ? &metrics->timer(prefix + "phase/setup") : nullptr;
  obs::TimerStat* const t_run =
      metrics ? &metrics->timer(prefix + "phase/run") : nullptr;
  obs::TimerStat* const t_report =
      metrics ? &metrics->timer(prefix + "phase/report") : nullptr;
  // Span names are interned once; the request loop never records a span.
  obs::SpanTracer* const spans = config.spans;
  const auto span_name = [&](const char* name) {
    return spans != nullptr ? spans->intern(prefix + name) : nullptr;
  };

  obs::ScopedTimer setup_timer(t_setup);
  obs::ScopedSpan setup_span(spans, span_name("setup"), "sim");
  EventRun run(system, result, config);
  setup_timer.stop();
  setup_span.stop();

  obs::ScopedTimer run_timer(t_run);
  obs::ScopedSpan run_span(spans, span_name("run"), "sim");
  run.run();
  run_timer.stop();
  run_span.stop();

  obs::ScopedTimer report_timer(t_report);
  obs::ScopedSpan report_span(spans, span_name("report"), "sim");
  return run.merge();
}

}  // namespace cdn::sim
