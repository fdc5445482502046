// Streaming synthetic request generation for the trace-driven simulator.
//
// The stream is i.i.d.: each request independently picks a (server, site)
// cell proportional to the demand matrix and an object rank from the
// site's Zipf law — the independence assumption underlying the paper's
// analytical model (Section 3.2).
//
// A stream may be restricted to a subset of first-hop servers: it then
// samples cells from those servers' demand rows only (renormalised), which
// is exactly the conditional distribution of the full stream given the
// first hop — the decomposition the parallel sharded simulator relies on.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/rng.h"
#include "src/util/serial.h"
#include "src/util/zipf.h"
#include "src/workload/demand.h"
#include "src/workload/site_catalog.h"

namespace cdn::workload {

/// One HTTP request as seen by the CDN: which first-hop server received it,
/// which site and which object (by popularity rank) it asks for.
struct Request {
  ServerId server = 0;
  SiteId site = 0;
  std::uint32_t rank = 1;  // 1-based within-site popularity rank
};

/// Structure-of-arrays batch of requests — the data-oriented hot-loop
/// input.  Parallel arrays (server[i], site[i], rank[i]) describe request
/// i; the flat layout lets the simulator's per-request path stream through
/// ids without touching a struct per request.
struct RequestBatch {
  std::vector<ServerId> server;
  std::vector<SiteId> site;
  std::vector<std::uint32_t> rank;  // 1-based within-site popularity rank

  std::size_t size() const noexcept { return server.size(); }
  void resize(std::size_t n) {
    server.resize(n);
    site.resize(n);
    rank.resize(n);
  }
};

/// Infinite request stream.  Deterministic given the seed.
class RequestStream {
 public:
  /// A non-empty `servers` restricts the stream to those first-hop servers
  /// (distinct ids < demand.server_count()); empty means all servers.
  RequestStream(const SiteCatalog& catalog, const DemandMatrix& demand,
                std::uint64_t seed, std::span<const ServerId> servers = {});

  /// Generates the next request.
  Request next();

  /// Fills `out` (resized to `count`) with the next `count` requests.
  /// Draws exactly the same RNG sequence as `count` calls to next() — the
  /// contract that lets the simulator draw a block in one batch, or one
  /// request at a time while a surge rejects draws, and stay byte-identical
  /// to the per-request test oracle (tests/sim_oracle.h).
  void next_batch(RequestBatch& out, std::size_t count);

  const SiteCatalog& catalog() const noexcept { return *catalog_; }

  /// Checkpointing: the RNG position.  The alias sampler, catalog pointer
  /// and server subset are construction-time state — the resuming run
  /// rebuilds the stream with the same constructor arguments and then
  /// restores the RNG.
  void save_state(util::ByteWriter& w) const;
  void restore_state(util::ByteReader& r);

 private:
  const SiteCatalog* catalog_;
  std::size_t sites_;
  util::Rng rng_;
  util::AliasSampler cell_sampler_;  // over owned-server*site cells
  std::vector<ServerId> servers_;    // owned subset; empty = all servers
};

}  // namespace cdn::workload
