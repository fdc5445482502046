#include "src/redirectd/daemon.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "src/placement/placement_io.h"
#include "src/util/error.h"
#include "src/util/serial.h"

namespace cdn::redirectd {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          net::Clock::now().time_since_epoch())
          .count());
}

std::string to_hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t endpoint_map_digest(const EndpointMap& endpoints) {
  const std::string canonical = endpoints.serialize();
  return util::fnv1a(canonical.data(), canonical.size());
}

net::LineServer::Limits line_limits(std::size_t max_line,
                                    std::size_t max_outbuf,
                                    const char* what) {
  return {max_line, max_outbuf,
          std::string("ERR ") + what + " line exceeds " +
              std::to_string(max_line) + " bytes\n"};
}

}  // namespace

RedirectorDaemon::RedirectorDaemon(const DaemonConfig& config)
    : config_(config),
      data_(loop_,
            line_limits(kMaxRequestLine, config.max_session_outbuf, "request"),
            {[this](net::SessionId id, std::string_view line) {
               on_request_line(id, line);
             },
             [this](net::LineServer::Cap cap) {
               if (cap != net::LineServer::Cap::kOutbuf) return;
               ++stats_.slow_reader_closes;
               if (m_slow_reader_ != nullptr) m_slow_reader_->add();
             }}),
      control_(loop_,
               line_limits(kMaxControlLine, config.max_session_outbuf,
                           "control"),
               {[this](net::SessionId id, std::string_view line) {
                  on_control_line(id, line);
                },
                [this](net::LineServer::Cap cap) {
                  obs::Counter* counter = cap == net::LineServer::Cap::kLine
                                              ? m_control_errors_
                                              : m_control_slow_reader_;
                  if (counter != nullptr) counter->add();
                }}) {
  CDN_EXPECT(config_.system != nullptr && config_.placement != nullptr,
             "redirector daemon needs a system and a placement");
  CDN_EXPECT(config_.top_k >= 1, "top_k must be at least 1");
  CDN_EXPECT(config_.max_inflight_races >= 1,
             "max_inflight_races must be at least 1");
  CDN_EXPECT(config_.max_session_outbuf >= kMaxRequestLine,
             "max_session_outbuf must hold at least one line");
  CDN_EXPECT(config_.drain_timeout.count() > 0,
             "drain timeout must be positive");
  config_.race.validate();
  config_.health.validate();
  if (config_.adaptive) config_.ewma.validate();

  const std::size_t servers = config_.system->server_count();
  const std::size_t sites = config_.system->site_count();
  CDN_EXPECT(config_.placement->placement.server_count() == servers &&
                 config_.placement->placement.site_count() == sites,
             "placement and system disagree on fleet shape");
  if (config_.endpoints != nullptr && !config_.endpoints->empty()) {
    config_.endpoints->validate(servers, sites);
  }

  // Generation 1: serving state built from the constructor wiring.
  auto initial = std::make_shared<ServingState>();
  initial->generation = 1;
  initial->placement = config_.placement;
  initial->endpoints = config_.endpoints;
  initial->holders.resize(sites);
  for (std::size_t j = 0; j < sites; ++j) {
    initial->holders[j] = config_.placement->placement.replicators(
        static_cast<sys::SiteIndex>(j));
  }
  initial->placement_digest =
      placement::placement_digest(config_.placement->placement);
  if (initial->racing()) {
    initial->endpoints_digest = endpoint_map_digest(*initial->endpoints);
  }
  state_ = std::move(initial);

  if (config_.adaptive) {
    ewma_ = std::make_unique<LatencyEwma>(servers, sites, config_.ewma,
                                          config_.metrics);
  }
  health_scratch_.assign(servers, 1);

  if (config_.metrics != nullptr) {
    obs::Registry& r = *config_.metrics;
    m_requests_ = &r.counter("redirect/requests");
    m_replica_ = &r.counter("redirect/answers/replica");
    m_origin_ = &r.counter("redirect/answers/origin");
    m_unavailable_ = &r.counter("redirect/answers/unavailable");
    m_shed_ = &r.counter("redirect/shed");
    m_parse_errors_ = &r.counter("redirect/parse_errors");
    m_races_ = &r.counter("redirect/races/started");
    m_retries_ = &r.counter("redirect/retries");
    m_backoff_ms_ = &r.counter("redirect/backoff_ms");
    m_slow_reader_ = &r.counter("redirect/slow_reader_closes");
    m_reload_applied_ = &r.counter("redirect/reload/applied");
    m_reload_failed_ = &r.counter("redirect/reload/failed");
    m_generation_ = &r.gauge("redirect/reload/generation");
    m_generation_->set(1.0);
    m_answer_latency_ = &r.timer("redirect/answer_latency");
    if (config_.control) {
      m_control_commands_ = &r.counter("redirect/control/commands");
      m_control_errors_ = &r.counter("redirect/control/errors");
      m_control_slow_reader_ =
          &r.counter("redirect/control/slow_reader_closes");
    }
    m_won_by_rank_.reserve(config_.top_k);
    for (std::size_t rank = 1; rank <= config_.top_k; ++rank) {
      m_won_by_rank_.push_back(
          &r.counter("redirect/races/won_rank_" + std::to_string(rank)));
    }
  }
}

RedirectorDaemon::~RedirectorDaemon() = default;

void RedirectorDaemon::start() {
  data_.listen(config_.host, config_.port);
  loop_.set_wakeup_handler([this] { on_wakeup(); });
  start_prober(*state_);
  if (config_.control || !config_.reload_placement_path.empty() ||
      !config_.reload_endpoints_path.empty()) {
    reload_worker_ = std::make_unique<ReloadWorker>(loop_, *config_.system);
  }
  if (config_.control) {
    control_.listen(config_.control_host, config_.control_port);
  }
  if (config_.timeline != nullptr) {
    // Idle tick: faults keep playing out even between requests, so health
    // probes and the next request see current masks.
    arm_tick();
  }
}

void RedirectorDaemon::start_prober(const ServingState& state) {
  prober_.reset();  // in-flight probe callbacks are disarmed by its alive flag
  if (!state.racing()) return;
  prober_ = std::make_unique<HealthProber>(
      loop_, *state.endpoints, config_.system->server_count(),
      config_.system->site_count(), config_.health, config_.metrics,
      ewma_.get());
  prober_->start();
}

void RedirectorDaemon::advance_timeline() {
  if (config_.timeline != nullptr) {
    config_.timeline->advance_to(net::Clock::now());
  }
}

std::uint64_t RedirectorDaemon::run() {
  loop_.run();
  return stats_.requests;
}

void RedirectorDaemon::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_relaxed);
  loop_.wakeup();
}

void RedirectorDaemon::request_reload() noexcept {
  reload_requested_.store(true, std::memory_order_relaxed);
  loop_.wakeup();
}

void RedirectorDaemon::on_wakeup() {
  // Reload completions swap serving state here — between dispatch passes,
  // never under a request callback's feet.
  if (reload_worker_ != nullptr) reload_worker_->drain_completions();
  if (reload_requested_.exchange(false, std::memory_order_relaxed) &&
      !draining_) {
    // SIGHUP path: re-read whichever files the daemon was configured to
    // watch.  Outcomes land in stats/metrics; there is no reply channel.
    if (!config_.reload_placement_path.empty()) {
      submit_reload(ReloadKind::kPlacement, config_.reload_placement_path,
                    [](std::string) {});
    }
    if (!config_.reload_endpoints_path.empty()) {
      submit_reload(ReloadKind::kEndpoints, config_.reload_endpoints_path,
                    [](std::string) {});
    }
  }
  if (stop_requested_.load(std::memory_order_relaxed)) begin_drain();
}

void RedirectorDaemon::submit_reload(ReloadKind kind, const std::string& path,
                                     std::function<void(std::string)> done) {
  if (draining_) {
    done("ERR draining");
    return;
  }
  if (reload_worker_ == nullptr) {
    reload_worker_ = std::make_unique<ReloadWorker>(loop_, *config_.system);
  }
  reload_worker_->submit(
      kind, path, [this, done = std::move(done)](const ReloadOutcome& outcome) {
        done(apply_reload(outcome));
      });
}

std::string RedirectorDaemon::apply_reload(const ReloadOutcome& outcome) {
  if (draining_) return "ERR draining";
  if (!outcome.ok) {
    ++stats_.reloads_failed;
    if (m_reload_failed_ != nullptr) m_reload_failed_->add();
    return std::string("ERR reload ") + reload_kind_name(outcome.kind) +
           ": " + outcome.error;
  }
  auto next = std::make_shared<ServingState>(*state_);
  next->generation = state_->generation + 1;
  if (outcome.kind == ReloadKind::kPlacement) {
    next->owned_placement = outcome.placement;
    next->placement = outcome.placement.get();
    next->placement_digest = outcome.digest;
    const std::size_t sites = config_.system->site_count();
    for (std::size_t j = 0; j < sites; ++j) {
      next->holders[j] = next->placement->placement.replicators(
          static_cast<sys::SiteIndex>(j));
    }
  } else {
    next->owned_endpoints = outcome.endpoints;
    next->endpoints = outcome.endpoints.get();
    next->endpoints_digest = outcome.digest;
  }
  const std::uint64_t generation = next->generation;
  state_ = std::move(next);
  if (outcome.kind == ReloadKind::kEndpoints) {
    // The prober probes a fixed endpoint list; swap it with the map.  Its
    // up/down masks restart all-up and re-converge within the hysteresis
    // window (documented in docs/REDIRECTOR.md).
    start_prober(*state_);
  }
  ++stats_.reloads_applied;
  if (m_reload_applied_ != nullptr) m_reload_applied_->add();
  if (m_generation_ != nullptr) {
    m_generation_->set(static_cast<double>(generation));
  }
  return "OK generation=" + std::to_string(generation) +
         " digest=" + to_hex(outcome.digest);
}

std::string RedirectorDaemon::status_line() const {
  const ServingState& state = *state_;
  return "OK generation=" + std::to_string(state.generation) +
         " placement_digest=" + to_hex(state.placement_digest) +
         " endpoints_digest=" + to_hex(state.endpoints_digest) +
         " requests=" + std::to_string(stats_.requests) +
         " inflight=" + std::to_string(inflight_races_) +
         " sessions=" + std::to_string(data_.session_count()) +
         " reloads=" + std::to_string(stats_.reloads_applied) +
         " reload_failures=" + std::to_string(stats_.reloads_failed) +
         " draining=" + (draining_ ? "1" : "0");
}

void RedirectorDaemon::on_control_line(net::SessionId id,
                                       std::string_view line) {
  if (m_control_commands_ != nullptr) m_control_commands_->add();
  ControlCommand command;
  try {
    command = parse_control_command(line);
  } catch (const PreconditionError& e) {
    control_reply(id, "ERR " + e.diagnostic());
    return;
  }
  switch (command.verb) {
    case ControlCommand::Verb::kStatus:
      control_reply(id, status_line());
      return;
    case ControlCommand::Verb::kDrain:
      // The drain runs from the wakeup handler, after this reply has been
      // written.
      request_stop();
      control_reply(id, "OK draining");
      return;
    case ControlCommand::Verb::kReload:
      control_.hold(id);
      submit_reload(command.reload_kind, command.path,
                    [this, id](std::string reply) {
                      control_reply(id, reply);
                      control_.release(id);
                    });
      return;
  }
}

void RedirectorDaemon::control_reply(net::SessionId id,
                                     const std::string& reply) {
  if (reply.rfind("ERR", 0) == 0 && m_control_errors_ != nullptr) {
    m_control_errors_->add();
  }
  control_.reply(id, reply + "\n");
}

void RedirectorDaemon::on_request_line(net::SessionId id,
                                       std::string_view line) {
  RedirectRequest request;
  try {
    request = parse_request(line);
  } catch (const PreconditionError& e) {
    ++stats_.parse_errors;
    if (m_parse_errors_ != nullptr) m_parse_errors_->add();
    data_.reply(id, "ERR " + e.diagnostic() + "\n");
    return;
  }
  handle_request(id, request);
}

void RedirectorDaemon::handle_request(net::SessionId id,
                                      const RedirectRequest& request) {
  const std::uint64_t started_ns = steady_now_ns();
  ++stats_.requests;
  if (m_requests_ != nullptr) m_requests_->add();
  advance_timeline();

  // Pin this request's generation: a reload that lands while the race is
  // in flight swaps state_ under us, but this request resolves and answers
  // against the generation it started with.
  const std::shared_ptr<const ServingState> state = state_;

  const std::size_t servers = config_.system->server_count();
  const std::size_t sites = config_.system->site_count();
  if (request.client_server >= servers) {
    data_.reply(id, "ERR client server index out of range\n");
    return;
  }
  if (request.site >= sites) {
    data_.reply(id, "ERR site index out of range\n");
    return;
  }

  // Health = AND(scheduled faults, observed socket health).
  if (config_.timeline != nullptr) {
    health_scratch_ = config_.timeline->server_up_mask();
  } else {
    health_scratch_.assign(servers, 1);
  }
  bool origin_up = config_.timeline == nullptr ||
                   config_.timeline->origin_up(request.site);
  if (prober_ != nullptr) {
    const auto& probed = prober_->server_up();
    for (std::size_t i = 0; i < servers; ++i) {
      health_scratch_[i] =
          static_cast<std::uint8_t>(health_scratch_[i] != 0 && probed[i] != 0);
    }
    origin_up = origin_up && prober_->origin_up()[request.site] != 0;
  }

  auto candidates = state->placement->nearest.nearest_live_candidates(
      request.client_server, request.site, state->holders[request.site],
      health_scratch_, origin_up, config_.top_k);

  // Adaptive health: stable-demote latency outliers to the back of the
  // ranking — still raceable as a last resort, never preferred.
  if (ewma_ != nullptr && candidates.size() > 1) {
    const net::TimePoint now = net::Clock::now();
    std::stable_partition(
        candidates.begin(), candidates.end(),
        [&](const sys::NearestCopy& copy) {
          return !ewma_->demoted(
              copy.at_primary ? LatencyEwma::Kind::kOrigin
                              : LatencyEwma::Kind::kReplica,
              copy.at_primary ? static_cast<std::uint32_t>(request.site)
                              : static_cast<std::uint32_t>(copy.server),
              now);
        });
  }

  RedirectAnswer out;
  out.site = request.site;
  if (candidates.empty()) {
    out.kind = AnswerKind::kUnavailable;
    out.reason = UnavailableReason::kNoLiveCopy;
    answer(id, out, started_ns);
    return;
  }

  // Resolve each ranked candidate to a real endpoint, keeping the model
  // candidate alongside so the winner maps back to a placement answer.
  std::vector<RaceCandidate> raced;
  std::vector<sys::NearestCopy> raced_copies;
  if (state->racing()) {
    raced.reserve(candidates.size());
    raced_copies.reserve(candidates.size());
    for (const auto& copy : candidates) {
      const std::optional<Endpoint>* slot = nullptr;
      if (copy.at_primary) {
        if (request.site < state->endpoints->origins.size()) {
          slot = &state->endpoints->origins[request.site];
        }
      } else if (copy.server < state->endpoints->replicas.size()) {
        slot = &state->endpoints->replicas[copy.server];
      }
      if (slot != nullptr && slot->has_value()) {
        raced.push_back(
            {**slot, static_cast<std::uint32_t>(raced.size() + 1)});
        raced_copies.push_back(copy);
      }
    }
  }

  if (raced.empty()) {
    // Model mode (or nothing mapped): answer from the ranking directly.
    const sys::NearestCopy& best = candidates.front();
    if (best.at_primary) {
      out.kind = AnswerKind::kOrigin;
    } else {
      out.kind = AnswerKind::kReplica;
      out.server = best.server;
    }
    out.cost = best.cost;
    out.winner_rank = 1;
    out.attempts = 0;
    answer(id, out, started_ns);
    return;
  }

  if (inflight_races_ >= config_.max_inflight_races) {
    ++stats_.unavailable_shed;
    if (m_shed_ != nullptr) m_shed_->add();
    out.kind = AnswerKind::kUnavailable;
    out.reason = UnavailableReason::kShed;
    answer(id, out, started_ns);
    return;
  }

  data_.hold(id);
  ++inflight_races_;
  ++stats_.races;
  if (m_races_ != nullptr) m_races_->add();
  const std::uint64_t backoff_seed =
      config_.seed * 0x9e3779b97f4a7c15ULL + stats_.requests;
  start_race(
      loop_, std::move(raced), config_.race, backoff_seed,
      [this, id, started_ns, site = request.site, state,
       copies = std::move(raced_copies)](const RaceResult& result) {
        --inflight_races_;
        stats_.retries += result.retries;
        if (m_retries_ != nullptr) m_retries_->add(result.retries);
        if (m_backoff_ms_ != nullptr) {
          m_backoff_ms_->add(
              static_cast<std::uint64_t>(result.backoff_total.count()));
        }
        feed_ewma(site, copies, result);
        RedirectAnswer reply;
        reply.site = site;
        if (result.success) {
          const sys::NearestCopy& winner = copies[result.winner_rank - 1];
          if (winner.at_primary) {
            reply.kind = AnswerKind::kOrigin;
          } else {
            reply.kind = AnswerKind::kReplica;
            reply.server = winner.server;
          }
          reply.cost = winner.cost;
          reply.winner_rank = result.winner_rank;
          reply.attempts = result.attempts;
          if (result.winner_rank <= m_won_by_rank_.size()) {
            m_won_by_rank_[result.winner_rank - 1]->add();
          }
        } else {
          reply.kind = AnswerKind::kUnavailable;
          reply.reason = UnavailableReason::kDeadline;
          reply.attempts = result.attempts;
        }
        if (data_.open(id)) {
          answer(id, reply, started_ns);
          data_.release(id);
        } else {
          // Session died mid-race; still account the outcome.
          record_outcome(reply);
        }
        maybe_finish_drain();
      });
}

void RedirectorDaemon::feed_ewma(sys::SiteIndex site,
                                 const std::vector<sys::NearestCopy>& copies,
                                 const RaceResult& result) {
  if (ewma_ == nullptr) return;
  // A failed attempt is charged at least the attempt timeout: a fast
  // refusal (connection reset) must read as a slow endpoint, not a fast
  // one, or refusing replicas would look attractive.
  const std::uint64_t penalty = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          config_.race.attempt_timeout)
          .count());
  const net::TimePoint now = net::Clock::now();
  for (const AttemptSample& sample : result.samples) {
    if (sample.rank == 0 || sample.rank > copies.size()) continue;
    const sys::NearestCopy& copy = copies[sample.rank - 1];
    const std::uint64_t latency_ns =
        sample.success ? sample.latency_ns
                       : std::max(sample.latency_ns, penalty);
    ewma_->record(copy.at_primary ? LatencyEwma::Kind::kOrigin
                                  : LatencyEwma::Kind::kReplica,
                  copy.at_primary ? static_cast<std::uint32_t>(site)
                                  : static_cast<std::uint32_t>(copy.server),
                  latency_ns, now);
  }
}

void RedirectorDaemon::record_outcome(const RedirectAnswer& out) {
  switch (out.kind) {
    case AnswerKind::kReplica:
      ++stats_.replica_answers;
      if (m_replica_ != nullptr) m_replica_->add();
      break;
    case AnswerKind::kOrigin:
      ++stats_.origin_answers;
      if (m_origin_ != nullptr) m_origin_->add();
      break;
    case AnswerKind::kUnavailable:
      if (out.reason == UnavailableReason::kShed) {
        // counted at shed time
      } else if (out.reason == UnavailableReason::kDeadline) {
        ++stats_.unavailable_deadline;
      } else {
        ++stats_.unavailable_no_live_copy;
      }
      if (m_unavailable_ != nullptr) m_unavailable_->add();
      break;
  }
}

void RedirectorDaemon::answer(net::SessionId id, const RedirectAnswer& out,
                              std::uint64_t started_ns) {
  record_outcome(out);
  const std::uint64_t latency_ns = steady_now_ns() - started_ns;
  if (m_answer_latency_ != nullptr) m_answer_latency_->record_ns(latency_ns);
  if (config_.spans != nullptr) {
    const std::uint64_t end = config_.spans->now_ns();
    const std::uint64_t begin = end >= latency_ns ? end - latency_ns : 0;
    config_.spans->complete("redirect/request", "redirectd", begin, end,
                            "attempts", static_cast<double>(out.attempts));
  }
  data_.reply(id, format_answer(out));
}

void RedirectorDaemon::begin_drain() {
  if (draining_) return;
  draining_ = true;
  control_.drain(nullptr);
  if (prober_ != nullptr) prober_->stop();
  if (tick_timer_ != 0) {
    loop_.cancel_timer(tick_timer_);
    tick_timer_ = 0;
  }
  drain_timer_ = loop_.add_timer_after(config_.drain_timeout,
                                       [this] { loop_.stop(); });
  // Idle sessions close now; busy ones get their answer first.
  data_.drain([this] { maybe_finish_drain(); });
}

void RedirectorDaemon::maybe_finish_drain() {
  if (!draining_) return;
  if (data_.session_count() == 0 && inflight_races_ == 0) {
    if (drain_timer_ != 0) {
      loop_.cancel_timer(drain_timer_);
      drain_timer_ = 0;
    }
    loop_.stop();
  }
}

void RedirectorDaemon::arm_tick() {
  tick_timer_ = loop_.add_timer_after(std::chrono::milliseconds(50), [this] {
    advance_timeline();
    if (!draining_) arm_tick();
  });
}

}  // namespace cdn::redirectd
