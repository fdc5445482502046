#include "src/sim/simulator.h"

#include <cmath>

#include "src/sim/flow_engine.h"
#include "src/sim/shard_engine.h"
#include "src/util/error.h"

namespace cdn::sim {

void SimulationConfig::validate() const {
  CDN_EXPECT(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
  CDN_EXPECT(metrics_windows >= 1, "need at least one metrics window");
  CDN_EXPECT(total_requests > 0, "need at least one request");
  CDN_EXPECT(slo_ms >= 0.0, "SLO threshold must be non-negative");
  CDN_EXPECT(latency.retry_timeout_ms >= 0.0 && latency.retry_backoff_ms >= 0.0,
             "retry latency penalties must be non-negative");
  CDN_EXPECT(std::isfinite(checkpoint_every_seconds) &&
                 checkpoint_every_seconds >= 0.0,
             "checkpoint time cadence must be a non-negative finite number "
             "of seconds");
  const bool checkpoint_cadence =
      checkpoint_every_requests > 0 || checkpoint_every_seconds > 0.0;
  CDN_EXPECT(!checkpoint_cadence || !checkpoint_path.empty(),
             "a checkpoint cadence requires a checkpoint path "
             "(--checkpoint-out)");
  CDN_EXPECT(checkpoint_path.empty() || checkpoint_cadence || stop != nullptr,
             "a checkpoint path needs a trigger: a request or seconds "
             "cadence, or a stop flag");
  if (engine == SimEngine::kFlow) {
    // The flow engine has no per-request loop, so every per-request feature
    // is meaningless there.  Reject loudly instead of silently ignoring —
    // a user who asked for a fault schedule or a checkpoint must not get a
    // report that quietly dropped it.
    CDN_EXPECT(faults == nullptr || faults->empty(),
               "fault schedules need per-request failover decisions; "
               "use --engine=event for fault-injection runs");
    CDN_EXPECT(trace_sink == nullptr,
               "per-request trace sampling needs the event engine; "
               "use --engine=event or drop --trace-out");
    CDN_EXPECT(checkpoint_path.empty() && resume_path.empty() &&
                   stop == nullptr && !checkpoint_cadence,
               "checkpoint/resume makes no sense for the flow engine (runs "
               "complete in milliseconds); use --engine=event");
  }
  if (staleness == StalenessMode::kTtl ||
      staleness == StalenessMode::kInvalidation) {
    CDN_EXPECT(engine == SimEngine::kEvent,
               "TTL and invalidation consistency track per-object fetch "
               "times request by request; use the event engine");
    CDN_EXPECT(faults == nullptr || faults->empty(),
               "TTL and invalidation consistency cannot run under a fault "
               "schedule; drop one of them");
    CDN_EXPECT(checkpoint_path.empty() && resume_path.empty() &&
                   stop == nullptr,
               "TTL and invalidation runs cannot checkpoint or resume: the "
               "checkpoint payload holds no freshness tables or update "
               "cursors");
    CDN_EXPECT(staleness != StalenessMode::kTtl || consistency.ttl > 0.0,
               "TTL must be positive");
  }
}

SimulationReport simulate(const sys::CdnSystem& system,
                          const placement::PlacementResult& result,
                          const SimulationConfig& config) {
  config.validate();
  if (config.engine == SimEngine::kFlow) {
    return simulate_flow(system, result, config);
  }
  return simulate_events(system, result, config);
}

}  // namespace cdn::sim
