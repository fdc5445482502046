// Server-selection policies for redirected (cache-miss) traffic.
//
// Section 2.2's second design axis: "where to redirect a client request".
// The paper always picks the nearest copy SN_j^(i); [9] (Fei et al.) showed
// that folding server load into the choice improves response time.  This
// module implements flow-level load-aware selection: each server has a
// service capacity, a queueing penalty grows with its assigned flow, and
// miss traffic is (re)assigned to the holder minimising
//
//     C(i, holder) + queue_weight * rho / (1 - rho),   rho = load/capacity
//
// by iterating to a fixed point (the M/M/1 waiting-time shape).

#pragma once

#include <cstdint>
#include <vector>

#include "src/cdn/system.h"
#include "src/placement/placement_result.h"

namespace cdn::redirect {

enum class SelectionPolicy {
  kNearest,    // the paper's rule: always SN_j^(i)
  kLoadAware,  // [9]-style: distance + queueing penalty
};

struct SelectionParams {
  SelectionPolicy policy = SelectionPolicy::kLoadAware;
  /// Service capacity per server, in the demand matrix's request unit.
  /// 0 = auto: 1.5x the load the nearest-copy rule would put on the most
  /// loaded server (a mildly provisioned fleet), clamped to a positive
  /// floor so a zero-load fleet cannot yield a zero capacity (and a
  /// divide-by-zero utilisation).
  double server_capacity = 0.0;
  /// Capacity of each primary origin (they also serve misses).  0 = auto,
  /// same rule.
  double primary_capacity = 0.0;
  /// Weight converting utilisation penalty into hop units.
  double queue_weight = 2.0;
  /// Fixed-point iterations (each pass reassigns all flows).
  std::size_t iterations = 12;

  /// Optional fleet health masks (non-owning; null = fully healthy).
  /// `server_up` has length N (1 = up), `origin_up` length M.  Dead
  /// servers and dead origins are excluded as redirect holders under both
  /// policies, and the FULL demand of a dead first-hop server becomes
  /// redirect flow (its warm cache is unreachable, so even would-be hits
  /// spill to the next-best copy).
  const std::vector<std::uint8_t>* server_up = nullptr;
  const std::vector<std::uint8_t>* origin_up = nullptr;
};

/// Where each (server, site) miss flow is sent and what it costs.
struct SelectionResult {
  /// Hop cost plus queueing penalty, averaged over all redirected requests.
  double mean_response_cost = 0.0;
  /// Pure network component of the same average.
  double mean_network_hops = 0.0;
  /// Max and mean utilisation over servers (assigned flow / capacity).
  double max_server_utilization = 0.0;
  double mean_server_utilization = 0.0;
  /// Assigned miss flow per server (length N) and per primary (length M).
  std::vector<double> server_flow;
  std::vector<double> primary_flow;

  /// Flow that originated at a dead first-hop server and was spilled to
  /// other holders (0 without a health mask).
  double failed_over_flow = 0.0;
  /// Flow with no live holder at all — the modelled availability gap.
  double unserved_flow = 0.0;
};

/// Assigns every miss flow of `result` (placement + modelled hit ratios) to
/// a copy holder under the given policy.  Flows are demand * (1 - h).
SelectionResult assign_miss_traffic(const sys::CdnSystem& system,
                                    const placement::PlacementResult& result,
                                    const SelectionParams& params = {});

}  // namespace cdn::redirect
