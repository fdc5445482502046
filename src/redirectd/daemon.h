// The live redirector daemon: placement output as a network service.
//
// Answers "which replica serves this request" over the line protocol of
// protocol.h, staying correct while the fleet degrades underneath it:
//
//   * candidate ranking comes from NearestReplicaIndex::
//     nearest_live_candidates under the intersection of two health masks —
//     the wall-clock fault timeline (scheduled/simulated faults) and the
//     socket-level health prober (what the network actually says);
//   * adaptive health on top of liveness: per-endpoint latency EWMAs
//     (ewma.h) fed by race outcomes and prober round trips demote slow
//     outliers to the back of the ranking, so the daemon routes around
//     slow replicas, not just dead ones;
//   * with an endpoint map, the daemon races real connections across the
//     top-k candidates (racer.h) — forced-closed or black-holed replicas
//     lose the race to the next rank within the retry/backoff budget;
//   * without endpoints (model mode), it answers from the ranking alone —
//     the configuration redirect_load drives at wall-clock rate;
//   * graceful degradation is explicit: origin fallback when replicas are
//     gone, UNAVAILABLE no_live_copy when the origin is down too,
//     UNAVAILABLE shed above the in-flight race limit, UNAVAILABLE
//     deadline when the race budget is exhausted — never a hang;
//   * both sockets, data and control, are served by one net::LineServer
//     each, so the same per-session bounds hold on both: bounded reads
//     per dispatch, a line cap, a cap on queued lines, and a slow-reader
//     disconnect once a session's output backlog exceeds
//     max_session_outbuf instead of growing it forever;
//   * request_stop() (async-signal-safe) drains: the listener closes, in-
//     flight requests finish, idle sessions close, and run() returns —
//     bounded by a drain deadline.
//
// Live reconfiguration: serving state (placement + endpoint map + derived
// holder lists) lives behind one generation-counted
// shared_ptr<const ServingState>.  A control socket (control.h) and SIGHUP
// (request_reload()) trigger reloads; parsing and validation run on a
// background ReloadWorker thread (reload.h) and the swap happens only in
// the event loop's wakeup handler — an event-loop-safe point — so a
// request raced against generation g finishes against g's state while new
// requests see g+1.  A failed reload leaves the old generation serving and
// answers ERR; a half-applied reload cannot exist.
//
// Single-threaded except the reload worker: everything else runs on the
// EventLoop thread.  The `redirect/*` metrics and `redirectd/*` spans
// follow the registry contract of docs/OBSERVABILITY.md (null = off, zero
// cost).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

#include "src/cdn/system.h"
#include "src/fault/wall_clock.h"
#include "src/net/event_loop.h"
#include "src/net/line_server.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/placement/placement_result.h"
#include "src/redirectd/control.h"
#include "src/redirectd/ewma.h"
#include "src/redirectd/health.h"
#include "src/redirectd/protocol.h"
#include "src/redirectd/racer.h"
#include "src/redirectd/reload.h"

namespace cdn::redirectd {

struct DaemonConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()

  /// Candidate replicas raced per request (the paper's SN list depth).
  std::size_t top_k = 3;
  RaceParams race{};
  HealthParams health{};

  /// Adaptive latency health: outlier endpoints are demoted in ranking.
  bool adaptive = true;
  EwmaParams ewma{};

  /// In-flight race limit; beyond it requests are shed with UNAVAILABLE.
  std::size_t max_inflight_races = 256;
  /// Per-session output backlog cap on both sockets; a reader slower than
  /// this is disconnected (counted in redirect/slow_reader_closes, or
  /// redirect/control/slow_reader_closes on the control socket).
  std::size_t max_session_outbuf = 64 * 1024;
  /// Drain budget after request_stop() before the loop is forced down.
  std::chrono::milliseconds drain_timeout{2000};
  /// Seeds per-request backoff jitter streams.
  std::uint64_t seed = 1;

  /// Optional control socket for RELOAD/STATUS/DRAIN (control.h).
  bool control = false;
  std::string control_host = "127.0.0.1";
  std::uint16_t control_port = 0;  // 0 = ephemeral; control_port() reads back

  /// Paths re-read on request_reload() (SIGHUP); empty = SIGHUP ignores
  /// that kind.
  std::string reload_placement_path;
  std::string reload_endpoints_path;

  /// Non-owning wiring; system and placement are required and must
  /// outlive the daemon.
  const sys::CdnSystem* system = nullptr;
  const placement::PlacementResult* placement = nullptr;
  /// Optional: real endpoints to probe and race (empty/null = model mode).
  const EndpointMap* endpoints = nullptr;
  /// Optional: scheduled faults replayed on the wall clock.
  fault::WallClockTimeline* timeline = nullptr;
  obs::Registry* metrics = nullptr;
  obs::SpanTracer* spans = nullptr;
};

class RedirectorDaemon {
 public:
  explicit RedirectorDaemon(const DaemonConfig& config);
  ~RedirectorDaemon();

  RedirectorDaemon(const RedirectorDaemon&) = delete;
  RedirectorDaemon& operator=(const RedirectorDaemon&) = delete;

  /// Binds the listener(s) and starts the health prober.  port() and
  /// control_port() are valid afterwards.
  void start();

  /// Serves until request_stop() completes the drain.  Returns the number
  /// of requests answered.
  std::uint64_t run();

  /// Async-signal-safe shutdown request (callable from SIGINT/SIGTERM
  /// handlers and from other threads).
  void request_stop() noexcept;

  /// Async-signal-safe reload request (the SIGHUP handler): re-reads the
  /// configured reload paths through the same validate-then-swap pipeline
  /// as the control socket.
  void request_reload() noexcept;

  std::uint16_t port() const noexcept { return data_.port(); }
  std::uint16_t control_port() const noexcept { return control_.port(); }
  net::EventLoop& loop() noexcept { return loop_; }
  bool draining() const noexcept { return draining_; }
  /// Serving-state generation (starts at 1, bumped per applied reload).
  std::uint64_t generation() const noexcept { return state_->generation; }
  const LatencyEwma* latency_ewma() const noexcept { return ewma_.get(); }

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t replica_answers = 0;
    std::uint64_t origin_answers = 0;
    std::uint64_t unavailable_no_live_copy = 0;
    std::uint64_t unavailable_shed = 0;
    std::uint64_t unavailable_deadline = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t races = 0;
    std::uint64_t retries = 0;
    std::uint64_t reloads_applied = 0;
    std::uint64_t reloads_failed = 0;
    std::uint64_t slow_reader_closes = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  /// One immutable generation of serving state.  Swapped wholesale; race
  /// callbacks pin the generation they started with via shared_ptr.
  struct ServingState {
    std::uint64_t generation = 1;
    /// Points into config wiring (generation 1) or the owned_* members
    /// (reloaded generations).
    const placement::PlacementResult* placement = nullptr;
    const EndpointMap* endpoints = nullptr;  // null/empty = model mode
    std::shared_ptr<const placement::PlacementResult> owned_placement;
    std::shared_ptr<const EndpointMap> owned_endpoints;
    std::vector<std::vector<sys::ServerIndex>> holders;  // per site
    std::uint64_t placement_digest = 0;
    std::uint64_t endpoints_digest = 0;

    bool racing() const noexcept {
      return endpoints != nullptr && !endpoints->empty();
    }
  };

  void on_request_line(net::SessionId id, std::string_view line);
  void on_control_line(net::SessionId id, std::string_view line);
  void control_reply(net::SessionId id, const std::string& reply);
  void handle_request(net::SessionId id, const RedirectRequest& request);
  void answer(net::SessionId id, const RedirectAnswer& out,
              std::uint64_t started_ns);
  void record_outcome(const RedirectAnswer& out);
  void feed_ewma(sys::SiteIndex site,
                 const std::vector<sys::NearestCopy>& copies,
                 const RaceResult& result);
  void arm_tick();
  void begin_drain();
  void maybe_finish_drain();
  void advance_timeline();
  void on_wakeup();
  void start_prober(const ServingState& state);
  void submit_reload(ReloadKind kind, const std::string& path,
                     std::function<void(std::string)> done);
  std::string apply_reload(const ReloadOutcome& outcome);
  std::string status_line() const;

  DaemonConfig config_;
  net::EventLoop loop_;
  net::LineServer data_;     // GET lines, kMaxRequestLine
  net::LineServer control_;  // control commands, kMaxControlLine
  std::shared_ptr<const ServingState> state_;
  std::unique_ptr<LatencyEwma> ewma_;
  std::unique_ptr<HealthProber> prober_;
  std::unique_ptr<ReloadWorker> reload_worker_;
  std::vector<std::uint8_t> health_scratch_;  // merged server mask

  std::size_t inflight_races_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> reload_requested_{false};
  bool draining_ = false;
  net::TimerId drain_timer_ = 0;
  net::TimerId tick_timer_ = 0;
  Stats stats_;

  // Resolved metric handles (null when metrics are off).
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_replica_ = nullptr;
  obs::Counter* m_origin_ = nullptr;
  obs::Counter* m_unavailable_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_parse_errors_ = nullptr;
  obs::Counter* m_races_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_backoff_ms_ = nullptr;
  obs::Counter* m_slow_reader_ = nullptr;
  obs::Counter* m_reload_applied_ = nullptr;
  obs::Counter* m_reload_failed_ = nullptr;
  obs::Gauge* m_generation_ = nullptr;
  obs::TimerStat* m_answer_latency_ = nullptr;
  obs::Counter* m_control_commands_ = nullptr;
  obs::Counter* m_control_errors_ = nullptr;
  obs::Counter* m_control_slow_reader_ = nullptr;
  std::vector<obs::Counter*> m_won_by_rank_;  // index 0 = rank 1
};

}  // namespace cdn::redirectd
