#include "src/placement/local_search.h"

#include <algorithm>
#include <numeric>

#include "src/cdn/cost.h"
#include "src/obs/scoped_timer.h"
#include "src/placement/greedy_global.h"
#include "src/util/error.h"

namespace cdn::placement {

namespace {

/// Computes column `site` of the redirection-cost matrix from the
/// placement's holder list into out[0], out[stride], ... — the same scan
/// NearestReplicaIndex::rebuild runs for one column, so the values are
/// identical doubles (pure selection, no arithmetic).  Pass stride = M with
/// out = &costs[site] to refresh a matrix column in place, stride = 1 for a
/// dense scratch column.
void compute_cost_column(const sys::CdnSystem& system,
                         const sys::ReplicaPlacement& placement,
                         sys::SiteIndex site, double* out,
                         std::size_t stride) {
  const std::size_t n = system.server_count();
  const auto& dist = system.distances();
  const auto holders = placement.replicators(site);
  for (std::size_t i = 0; i < n; ++i) {
    const auto server = static_cast<sys::ServerIndex>(i);
    double best = dist.server_to_primary(server, site);
    for (const sys::ServerIndex holder : holders) {
      const double c = dist.server_to_server(server, holder);
      if (c < best) best = c;
    }
    out[i * stride] = best;
  }
}

}  // namespace

// Pricing a trial swap with a fresh NearestReplicaIndex and a full
// remote-cost sum takes O(N*M*holders) per trial.  But a swap only changes
// two site columns of the redirection costs: removing (i, j) touches column
// j, adding (i', j') touches column j'.  This engine maintains the exact
// cost matrix, derives the trial's two columns on the fly (a column
// recompute for the removal, a min() against the inserted holder for the
// addition), and accumulates the total in the same row-major order with the
// same `c == 0` skip as total_remote_cost — every cell value and the
// accumulation order are identical, so the trial costs, the chosen swaps
// and the stop decision are bit-identical to the fresh-index pricing
// (tests/placement_oracle.h).
LocalSearchStats local_search_refine(const sys::CdnSystem& system,
                                     PlacementResult& result,
                                     const LocalSearchOptions& options) {
  CDN_EXPECT(options.min_relative_gain >= 0.0,
             "minimum gain must be non-negative");
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();
  const auto& demand = system.demand();
  const auto& dist = system.distances();

  obs::Registry* const metrics = options.metrics;
  const std::string& pfx = options.metrics_prefix;
  obs::TimerStat* const t_total =
      metrics ? &metrics->timer(pfx + "phase/total") : nullptr;
  obs::Table* const swap_log =
      metrics ? &metrics->table(pfx + "swaps",
                                {"swap", "out_server", "out_site",
                                 "in_server", "in_site", "cost_before",
                                 "cost_after"})
              : nullptr;
  obs::SpanTracer* const spans = options.spans;
  const char* sp_total =
      spans != nullptr ? spans->intern(pfx + "total") : nullptr;
  obs::ScopedTimer total_timer(t_total);
  obs::ScopedSpan total_span(spans, sp_total, "placement");

  std::vector<double> costs(n * m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    compute_cost_column(system, result.placement,
                        static_cast<sys::SiteIndex>(j), &costs[j], m);
  }
  auto matrix_cost = [&] {
    // Mirrors total_remote_cost with no hit function: (1 - 0) * r * c
    // collapses to r * c exactly, in the same row-major order.
    double d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const double c = costs[i * m + j];
        if (c == 0.0) continue;  // replicated locally
        d += demand.requests(static_cast<sys::ServerIndex>(i),
                             static_cast<sys::SiteIndex>(j)) *
             c;
      }
    }
    return d;
  };

  LocalSearchStats stats;
  stats.initial_cost = matrix_cost();
  double current = stats.initial_cost;

  std::vector<double> removed_col(n, 0.0);
  for (;;) {
    if (options.max_swaps != 0 && stats.swaps_applied >= options.max_swaps) {
      break;
    }
    double best_cost = current;
    sys::ServerIndex best_out_server = 0, best_in_server = 0;
    sys::SiteIndex best_out_site = 0, best_in_site = 0;
    bool found = false;

    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const auto out_server = static_cast<sys::ServerIndex>(i);
        const auto out_site = static_cast<sys::SiteIndex>(j);
        if (!result.placement.is_replicated(out_server, out_site)) continue;
        result.placement.remove(out_server, out_site);
        compute_cost_column(system, result.placement, out_site,
                            removed_col.data(), 1);

        for (std::size_t i2 = 0; i2 < n; ++i2) {
          for (std::size_t j2 = 0; j2 < m; ++j2) {
            const auto in_server = static_cast<sys::ServerIndex>(i2);
            const auto in_site = static_cast<sys::SiteIndex>(j2);
            if (in_server == out_server && in_site == out_site) continue;
            if (!result.placement.can_add(in_server, in_site)) continue;
            double cost = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
              const auto row = static_cast<sys::ServerIndex>(k);
              for (std::size_t jj = 0; jj < m; ++jj) {
                double c;
                if (jj == j2) {
                  const double base =
                      jj == j ? removed_col[k] : costs[k * m + jj];
                  const double added = dist.server_to_server(row, in_server);
                  c = added < base ? added : base;
                } else if (jj == j) {
                  c = removed_col[k];
                } else {
                  c = costs[k * m + jj];
                }
                if (c == 0.0) continue;
                cost += demand.requests(row,
                                        static_cast<sys::SiteIndex>(jj)) *
                        c;
              }
            }
            if (cost < best_cost) {
              best_cost = cost;
              best_out_server = out_server;
              best_out_site = out_site;
              best_in_server = in_server;
              best_in_site = in_site;
              found = true;
            }
          }
        }
        result.placement.add(out_server, out_site);
      }
    }

    if (!found ||
        current - best_cost <= options.min_relative_gain * current) {
      break;
    }
    result.placement.remove(best_out_server, best_out_site);
    result.placement.add(best_in_server, best_in_site);
    compute_cost_column(system, result.placement, best_out_site,
                        &costs[best_out_site], m);
    compute_cost_column(system, result.placement, best_in_site,
                        &costs[best_in_site], m);
    if (swap_log != nullptr) {
      swap_log->add_row({static_cast<double>(stats.swaps_applied),
                         static_cast<double>(best_out_server),
                         static_cast<double>(best_out_site),
                         static_cast<double>(best_in_server),
                         static_cast<double>(best_in_site), current,
                         best_cost});
    }
    current = best_cost;
    ++stats.swaps_applied;
  }

  result.nearest.rebuild(result.placement);
  result.predicted_total_cost = current;
  result.predicted_cost_per_request = current / system.demand().total();
  result.replicas_created = result.placement.replica_count();
  result.cost_trajectory.push_back(current);
  stats.final_cost = current;

  if (metrics != nullptr) {
    metrics->gauge(pfx + "swaps_applied")
        .set(static_cast<double>(stats.swaps_applied));
    metrics->gauge(pfx + "initial_cost").set(stats.initial_cost);
    metrics->gauge(pfx + "final_cost").set(stats.final_cost);
  }
  return stats;
}

PlacementResult greedy_with_backtracking(const sys::CdnSystem& system,
                                         const LocalSearchOptions& options) {
  PlacementResult result = greedy_global(system);
  local_search_refine(system, result, options);
  result.algorithm = "greedy-backtracking";
  return result;
}

PlacementResult topology_informed_placement(const sys::CdnSystem& system) {
  const std::size_t n = system.server_count();
  const std::size_t m = system.site_count();

  // Rank servers by total distance to all other servers (proxy for the
  // "highest-connectivity nodes first" rule of [25]).
  std::vector<sys::ServerIndex> server_order(n);
  std::iota(server_order.begin(), server_order.end(), 0);
  std::vector<double> centrality(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      centrality[i] += system.distances().server_to_server(
          static_cast<sys::ServerIndex>(i), static_cast<sys::ServerIndex>(k));
    }
  }
  std::sort(server_order.begin(), server_order.end(),
            [&](sys::ServerIndex a, sys::ServerIndex b) {
              return centrality[a] < centrality[b];
            });

  std::vector<sys::SiteIndex> site_order(m);
  std::iota(site_order.begin(), site_order.end(), 0);
  std::sort(site_order.begin(), site_order.end(),
            [&](sys::SiteIndex a, sys::SiteIndex b) {
              return system.demand().site_total(a) >
                     system.demand().site_total(b);
            });

  sys::ReplicaPlacement placement(system.server_storage(),
                                  system.site_bytes());
  // Round-robin the hottest sites over the most central servers.
  std::size_t server_cursor = 0;
  for (sys::SiteIndex site : site_order) {
    std::size_t attempts = 0;
    while (attempts < n) {
      const sys::ServerIndex server = server_order[server_cursor];
      server_cursor = (server_cursor + 1) % n;
      ++attempts;
      if (placement.can_add(server, site)) {
        placement.add(server, site);
        break;
      }
    }
  }

  sys::NearestReplicaIndex nearest(system.distances(), placement);
  PlacementResult result{.algorithm = "topology-informed",
                         .placement = std::move(placement),
                         .nearest = std::move(nearest)};
  result.modeled_hit.assign(n * m, 0.0);
  result.caching_enabled = false;
  result.predicted_total_cost =
      sys::total_remote_cost(system.demand(), result.nearest);
  result.predicted_cost_per_request =
      result.predicted_total_cost / system.demand().total();
  result.replicas_created = result.placement.replica_count();
  result.cost_trajectory.push_back(result.predicted_total_cost);
  return result;
}

}  // namespace cdn::placement
