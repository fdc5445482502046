// Trace-driven simulation of the CDN (Section 5).
//
// Replays a synthetic request stream against a placement: each request hits
// its first-hop server; a locally replicated site or a cache hit is served
// at first-hop latency, anything else is redirected to the nearest copy
// SN_j^(i) and pays the hop cost.  A lambda_j fraction of each site's
// requests is stale/uncacheable and must touch the remote copy regardless
// (Section 3.3 and the Figure 4 experiment) — or, in the TTL and
// invalidation modes, staleness follows per-object modification times.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/cache_factory.h"
#include "src/cache/cache_stats.h"
#include "src/cdn/system.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/placement/placement_result.h"
#include "src/sim/consistency.h"
#include "src/sim/latency_model.h"
#include "src/util/cdf.h"
#include "src/util/quantile_sketch.h"

namespace cdn::sim {

/// How cached copies go stale.  The two lambda modes flag a catalog-given
/// lambda_j fraction of each site's requests; the two consistency modes
/// instead track when each object was last modified (src/sim/consistency.h,
/// parameters in SimulationConfig::consistency) and refuse a catalog with
/// lambda > 0.  Replicas are push-updated by the CDN and always fresh in
/// every mode.
enum class StalenessMode {
  /// Strong consistency (Figure 4): the object may be cached, but a flagged
  /// request must refresh it from the nearest copy — full redirection
  /// latency; the refreshed object stays cached.
  kRefresh,
  /// Uncacheable content (Section 3.3's cgi-bin case): flagged requests
  /// bypass the cache entirely and are never admitted.
  kUncacheable,
  /// TTL-based weak consistency: a cache hit on a copy older than the TTL
  /// is revalidated at the nearest copy (full redirection latency); a
  /// younger copy is served even when the object has changed since, which
  /// counts in SimulationReport::stale_served.
  kTtl,
  /// Server-based invalidation [18], strong consistency: a modification
  /// voids every cached copy, so the next request for it misses.  Served
  /// copies are never stale.
  kInvalidation,
};

/// Which evaluation engine simulate() runs.
enum class SimEngine {
  /// Per-request (event-level) simulation (src/sim/shard_engine.h): one
  /// engine whose one-shard case is the bit-identical reference and whose
  /// multi-shard case runs first-hop shards on a thread pool, per
  /// `threads`.  The default.
  kEvent,
  /// Flow-level analytical fast path: summary metrics computed from the
  /// demand matrix, the placement and a steady-state hit-ratio model with
  /// no per-request loop (src/sim/flow_engine.cpp).  Orders of magnitude
  /// faster; per-request features (trace sinks, fault schedules,
  /// checkpointing, the kTtl and kInvalidation modes) are rejected by
  /// validate().
  kFlow,
};

/// Steady-state hit-ratio model tier of the flow engine (ignored by the
/// event engine).  Mirrors model::SteadyStateModel; duplicated here so the
/// public sim config does not pull in the model headers.
enum class HitModel {
  /// Reuse the hit matrix the placement computed (modeled_hit) — the
  /// paper's p_B-at-initialisation model.  Default.
  kEmpirical,
  /// Recompute per server from the final placement via the closed-form
  /// Eq. 1/Eq. 2 pipeline with p_B refreshed over the final cacheable set.
  kClosedForm,
  /// Che/TTL approximation: solve the occupancy fixed point for the
  /// characteristic time, then read Eq. 1's H(z) table.
  kChe,
};

/// Progress snapshot handed to SimulationConfig::progress.
struct SimulationProgress {
  std::uint64_t completed = 0;
  std::uint64_t total = 0;
  bool warming_up = false;
  /// Running measured hit ratio; meaningful only when hit_ratio_known.
  double hit_ratio = 0.0;
  bool hit_ratio_known = false;
  /// Requests per second this process has sustained since the run phase
  /// began (resumed runs count post-resume requests only).  0 until the
  /// first measurable interval has elapsed.
  double requests_per_sec = 0.0;
  /// Estimated seconds until completion at the current rate; 0 while the
  /// rate is unknown.
  double eta_seconds = 0.0;
  /// Checkpoints written so far by this process.
  std::uint64_t checkpoints_written = 0;
  /// Request index covered by the latest checkpoint (0 = none yet).
  std::uint64_t last_checkpoint_request = 0;
};

struct SimulationConfig {
  std::uint64_t total_requests = 2'000'000;
  /// Leading fraction of the stream excluded from measurement so caches
  /// reach steady state ("we allowed an appropriate warm-up period").
  double warmup_fraction = 0.3;
  cache::PolicyKind policy = cache::PolicyKind::kLru;
  StalenessMode staleness = StalenessMode::kRefresh;
  /// TTL and update intervals of the kTtl and kInvalidation modes.
  ConsistencyConfig consistency;
  LatencyModel latency;
  std::uint64_t seed = 42;

  /// Evaluation engine (see docs/PERFORMANCE.md for when to trust which).
  SimEngine engine = SimEngine::kEvent;
  /// Hit-ratio model tier of the flow engine.
  HitModel hit_model = HitModel::kEmpirical;

  // --- Sharding of the event engine (see docs/PERFORMANCE.md) ---

  /// Simulation worker threads.  1 (the default) runs the one-shard
  /// reference case on the calling thread, bit-identical across releases
  /// (tests/sim_digest_pin_test.cpp); 0 uses one thread per hardware
  /// thread.  Fault schedules, trace sinks and the kTtl and kInvalidation
  /// modes are indexed by the global request number, so they run the
  /// one-shard case regardless of this knob.
  std::size_t threads = 1;
  /// First-hop shard count of a multi-threaded run.  0 = auto (4 threads'
  /// worth of shards, capped at the server count).  The report is a
  /// deterministic function of (seed, shards) alone — the thread count
  /// only changes the execution schedule, never a result bit.
  std::size_t shards = 0;

  // --- Fault injection (see docs/FAULTS.md) ---

  /// Fault schedule (non-owning).  Null or empty runs the healthy
  /// simulator.  With faults, requests are served in blocks that end at
  /// the schedule's transitions: requests whose first-hop server is down
  /// fail over to the nearest live holder with a retry/timeout penalty,
  /// requests whose every holder is down count as failed, and a recovering
  /// server restarts with a cold cache at the block edge where its outage
  /// ends.
  const fault::FaultSchedule* faults = nullptr;
  /// Response-time SLO in ms; measured requests slower than this — and
  /// every failed request — count toward slo_violation_fraction.
  /// 0 disables the metric.
  double slo_ms = 0.0;

  // --- Crash safety (see docs/RECOVERY.md) ---

  /// Checkpoint target path.  Empty disables checkpointing entirely — the
  /// request loop then carries zero extra work (one sentinel compare per
  /// request, the same pattern as the progress probe).  Non-empty requires
  /// at least one trigger: a cadence below or a `stop` flag.
  std::string checkpoint_path;
  /// Write a checkpoint every this many requests (0 = no request cadence).
  /// Multi-shard runs checkpoint at a shard barrier placed on each multiple
  /// of the cadence.
  std::uint64_t checkpoint_every_requests = 0;
  /// Write a checkpoint when this much wall-clock has elapsed since the
  /// last one, checked at the request-loop probe points (0 = no time
  /// cadence).
  double checkpoint_every_seconds = 0.0;
  /// Resume from this checkpoint file (empty = fresh run).  The file's
  /// fingerprint must match the present configuration exactly — mismatches
  /// are refused with a diff of what changed.  For any kill point, the
  /// resumed run's SimulationReport is byte-identical to an uninterrupted
  /// run's.  Metric/trace sinks must be fresh (the checkpoint re-plays
  /// their pre-kill state into them).
  std::string resume_path;
  /// Graceful-shutdown flag (non-owning; typically set by a SIGINT/SIGTERM
  /// handler).  Polled at the probe points; when set, the engine writes a
  /// final checkpoint to `checkpoint_path` and throws recover::Interrupted.
  const std::atomic<bool>* stop = nullptr;

  /// Throws PreconditionError on an invalid configuration; called by
  /// simulate() before any work.
  void validate() const;

  // --- Observability (all optional; see docs/OBSERVABILITY.md) ---

  /// Metric sink (non-owning).  Null disables every metric below at the
  /// cost of a single pointer check before the request loop.
  obs::Registry* metrics = nullptr;
  /// Prefix of every metric name this run emits, e.g. "sim/hybrid/".
  std::string metrics_prefix = "sim/";
  /// The measured stream is split into this many equal windows; per-window
  /// hit-ratio / local-ratio / mean-hops series land in the registry.
  std::size_t metrics_windows = 50;
  /// Also keep one latency histogram per server ("server/<i>/latency_ms").
  /// Adds N histograms to the snapshot — disable for very large fleets.
  bool per_server_metrics = true;

  /// Sampled per-request event sink (non-owning).  Null disables tracing.
  obs::TraceSink* trace_sink = nullptr;

  /// Span tracer (non-owning; see docs/OBSERVABILITY.md).  Null disables
  /// span recording entirely.  Spans are phase-granular — engine phases,
  /// per-shard intervals, checkpoint writes, fault transitions — never
  /// per-request, so enabling them does not perturb the request loop, and
  /// the report stays bit-identical with or without a tracer attached.
  obs::SpanTracer* spans = nullptr;

  /// Invoke `progress` roughly every `progress_every` requests (0 = off).
  /// The one-shard reference honours the cadence exactly; multi-shard runs
  /// report at their shard barriers (at most 256 per run), so snapshots
  /// arrive at the nearest barrier.  The callback owns the presentation —
  /// the simulator itself never touches a stream, keeping <iostream> out
  /// of the hot TU.
  std::uint64_t progress_every = 0;
  std::function<void(const SimulationProgress&)> progress;
};

struct SimulationReport {
  /// Response-time distribution of all measured requests: exact samples
  /// from the one-shard reference, a bounded-memory quantile sketch from a
  /// multi-shard run (same query interface either way).
  util::LatencyDistribution latency_cdf;

  double mean_latency_ms = 0.0;
  /// Average redirection cost in hops per measured request — comparable to
  /// the model's predicted cost per request (Figure 6).
  double mean_cost_hops = 0.0;
  /// Fraction of measured requests satisfied at the first-hop server.
  double local_ratio = 0.0;
  /// Fraction of measured *cache-eligible* requests (unreplicated site,
  /// not flagged uncacheable) that hit the cache.
  double cache_hit_ratio = 0.0;

  std::uint64_t measured_requests = 0;
  std::uint64_t total_requests = 0;
  /// Shards the event engine ran; 1 for the reference case (and for the
  /// flow engine).
  std::size_t shards_used = 1;

  // --- Degraded-mode accounting (all default on a healthy run) ---

  /// Measured requests for which no live copy existed — they were lost.
  /// Failed requests are excluded from latency_cdf (they never complete)
  /// but still count in measured_requests.
  std::uint64_t failed_requests = 0;
  /// Measured requests re-routed around a dead first-hop or holder.
  std::uint64_t failover_requests = 0;
  /// Failed connection attempts paid by measured requests.
  std::uint64_t retry_attempts = 0;
  /// Server recoveries over the whole run; each wiped that server's cache.
  std::uint64_t cold_restarts = 0;
  /// Fault-schedule transitions applied over the whole run.
  std::uint64_t fault_transitions = 0;
  /// 1 - failed_requests / measured_requests.
  double availability = 1.0;
  /// Fraction of measured requests over slo_ms or failed (0 when the SLO
  /// is disabled).
  double slo_violation_fraction = 0.0;

  // --- Consistency accounting (kTtl / kInvalidation; zero otherwise) ---

  /// Measured requests served from cache with a copy older than the
  /// object's last modification (kTtl only).
  std::uint64_t stale_served = 0;
  /// Measured TTL-expired cache hits revalidated at the nearest copy.
  std::uint64_t validations = 0;
  /// Measured cache hits dropped because a modification had voided the
  /// copy (kInvalidation).
  std::uint64_t invalidation_misses = 0;

  /// Final per-server cache statistics (measured window only).
  std::vector<cache::CacheStats> server_cache_stats;

  /// All servers' cache statistics merged (measured window only).
  cache::CacheStats cache_totals;
};

/// Runs the simulation of `result` (a placement plus its implied per-server
/// cache sizes) against freshly generated synthetic traffic.
SimulationReport simulate(const sys::CdnSystem& system,
                          const placement::PlacementResult& result,
                          const SimulationConfig& config);

}  // namespace cdn::sim
