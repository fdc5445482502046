// Deterministic fault-injection schedule for degraded-mode simulation.
//
// The paper's evaluation (Section 5) assumes a perfectly healthy fleet;
// this module supplies the stress regimes a production CDN must survive:
// server crash/recover intervals, origin (primary) outages, per-server
// link degradation, and flash-crowd demand surges composable with the
// SURGE workload of workload/surge.h.  All faults are expressed on the
// simulator's clock — the request index t — so a schedule plus a seed
// fully determines a run: no wall-clock, no hidden randomness.
//
// Two layers:
//   * FaultSchedule — the declarative interval set.  Built by hand, parsed
//     from a small text format (--fault-schedule), or generated from
//     MTBF/MTTR parameters (random()).
//   * FaultTimeline — the stepper the simulator drives: advance(t) applies
//     every transition with time <= t and exposes the current health mask,
//     link multipliers, surge multipliers, and the servers that just
//     recovered (which restart with a cold cache); next_transition() says
//     how long that state holds.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/cdn/distance_oracle.h"

namespace cdn::fault {

/// One half-open outage interval [begin, end) in request-time units.
struct OutageInterval {
  std::uint32_t target = 0;  // server or site index, per schedule section
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Multiplies the hop latency of traffic leaving `server` while active
/// (congested or lossy uplink; retransmissions stretch the transfer).
struct LinkDegradation {
  std::uint32_t server = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double latency_multiplier = 1.0;
};

/// Multiplies `site`'s share of the request mix while active — the
/// flash-crowd regime of the adaptive-replication experiments, now
/// composable with outages.
struct DemandSurge {
  std::uint32_t site = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double multiplier = 1.0;
};

/// Parameters of random() — independent alternating-renewal up/down
/// processes per server, exponential with the given means.
struct RandomFaultParams {
  /// Mean up-time between failures, in requests.
  double mtbf_requests = 0.0;
  /// Mean time to repair, in requests.
  double mttr_requests = 0.0;
  std::uint64_t seed = 1;
  /// Optional: also take each site's origin down with the same process
  /// scaled by this factor on MTBF (0 disables origin faults).
  double origin_mtbf_scale = 0.0;
};

/// Declarative, order-independent set of fault intervals.
class FaultSchedule {
 public:
  void add_server_outage(std::uint32_t server, std::uint64_t begin,
                         std::uint64_t end);
  void add_origin_outage(std::uint32_t site, std::uint64_t begin,
                         std::uint64_t end);
  void add_link_degradation(std::uint32_t server, std::uint64_t begin,
                            std::uint64_t end, double latency_multiplier);
  void add_demand_surge(std::uint32_t site, std::uint64_t begin,
                        std::uint64_t end, double multiplier);

  bool empty() const noexcept {
    return server_outages_.empty() && origin_outages_.empty() &&
           link_degradations_.empty() && demand_surges_.empty();
  }

  const std::vector<OutageInterval>& server_outages() const noexcept {
    return server_outages_;
  }
  const std::vector<OutageInterval>& origin_outages() const noexcept {
    return origin_outages_;
  }
  const std::vector<LinkDegradation>& link_degradations() const noexcept {
    return link_degradations_;
  }
  const std::vector<DemandSurge>& demand_surges() const noexcept {
    return demand_surges_;
  }

  /// Throws PreconditionError when any interval references a server >= n
  /// or a site >= m.
  void validate(std::size_t server_count, std::size_t site_count) const;

  /// Seed-driven schedule: every server alternates exponential up
  /// (mean mtbf) and down (mean mttr) phases over [0, horizon).  The same
  /// (params, horizon) always yields the same schedule.
  static FaultSchedule random(std::size_t server_count,
                              std::size_t site_count, std::uint64_t horizon,
                              const RandomFaultParams& params);

  /// Text format, one directive per line ('#' starts a comment):
  ///   server <i> down <begin> <end>
  ///   origin <j> down <begin> <end>
  ///   link <i> degrade <begin> <end> <multiplier>
  ///   surge <j> <begin> <end> <multiplier>
  static FaultSchedule parse(const std::string& text);
  static FaultSchedule load(const std::string& path);
  std::string serialize() const;

 private:
  std::vector<OutageInterval> server_outages_;
  std::vector<OutageInterval> origin_outages_;
  std::vector<LinkDegradation> link_degradations_;
  std::vector<DemandSurge> demand_surges_;
};

/// The simulator-facing stepper.  advance(t) must be called with
/// non-decreasing t; it applies every transition scheduled at or before t
/// and is O(transitions) over the whole run, O(1) amortised per request.
class FaultTimeline {
 public:
  FaultTimeline(const FaultSchedule& schedule, std::size_t server_count,
                std::size_t site_count);

  /// Applies all transitions with time <= t.  Returns true when any state
  /// changed; just_recovered() is refreshed on every call.
  bool advance(std::uint64_t t);

  bool server_up(std::uint32_t server) const {
    return server_down_depth_[server] == 0;
  }
  /// Byte mask (1 = up) over all servers, for health-masked lookups.
  const std::vector<std::uint8_t>& server_up_mask() const noexcept {
    return server_up_mask_;
  }
  bool origin_up(std::uint32_t site) const {
    return origin_down_depth_[site] == 0;
  }
  /// Current hop-latency multiplier of traffic leaving `server` (>= 1;
  /// overlapping degradations multiply).
  double latency_multiplier(std::uint32_t server) const {
    return link_multiplier_[server];
  }
  /// Current demand multiplier of `site` (1 when no surge is active).
  double demand_multiplier(std::uint32_t site) const {
    return surge_multiplier_[site];
  }
  /// Max over sites of demand_multiplier() — the rejection-sampling bound.
  double max_demand_multiplier() const noexcept { return surge_max_; }
  bool any_surge_active() const noexcept { return surge_active_ > 0; }
  bool any_server_down() const noexcept { return servers_down_ > 0; }

  /// Servers whose last outage ended at the most recent advance() — they
  /// restart with a cold cache.
  const std::vector<std::uint32_t>& just_recovered() const noexcept {
    return just_recovered_;
  }

  /// Transitions applied so far.
  std::uint64_t transitions() const noexcept { return transitions_; }

  /// Time of the first transition not applied yet (UINT64_MAX when none is
  /// left): the state above holds until then.
  std::uint64_t next_transition() const noexcept {
    return next_ < transitions_sorted_.size()
               ? transitions_sorted_[next_].time
               : std::numeric_limits<std::uint64_t>::max();
  }

 private:
  struct Transition {
    std::uint64_t time = 0;
    enum class Kind : std::uint8_t {
      kServerDown,
      kServerUp,
      kOriginDown,
      kOriginUp,
      kLinkBegin,
      kLinkEnd,
      kSurgeBegin,
      kSurgeEnd,
    } kind = Kind::kServerDown;
    std::uint32_t target = 0;
    double value = 1.0;  // link / surge multiplier
  };

  void apply(const Transition& tr);
  void recompute_surge_max();

  std::vector<Transition> transitions_sorted_;
  std::size_t next_ = 0;
  std::uint64_t transitions_ = 0;

  // Depth counters tolerate overlapping intervals on the same target.
  std::vector<std::uint8_t> server_up_mask_;
  std::vector<std::uint32_t> server_down_depth_;
  std::vector<std::uint32_t> origin_down_depth_;
  std::vector<double> link_multiplier_;
  std::vector<double> surge_multiplier_;
  std::vector<std::uint32_t> surge_depth_;
  std::size_t surge_active_ = 0;
  std::size_t servers_down_ = 0;
  double surge_max_ = 1.0;
  std::vector<std::uint32_t> just_recovered_;
};

}  // namespace cdn::fault
