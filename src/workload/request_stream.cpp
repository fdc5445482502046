#include "src/workload/request_stream.h"

#include "src/util/error.h"

namespace cdn::workload {

RequestStream::RequestStream(const SiteCatalog& catalog,
                             const DemandMatrix& demand, std::uint64_t seed,
                             std::span<const ServerId> servers)
    : catalog_(&catalog),
      sites_(demand.site_count()),
      rng_(seed),
      servers_(servers.begin(), servers.end()) {
  CDN_EXPECT(catalog.site_count() == demand.site_count(),
             "catalog and demand matrix disagree on site count");
  const std::size_t rows =
      servers_.empty() ? demand.server_count() : servers_.size();
  std::vector<double> weights;
  weights.reserve(rows * sites_);
  for (std::size_t r = 0; r < rows; ++r) {
    const ServerId server =
        servers_.empty() ? static_cast<ServerId>(r) : servers_[r];
    CDN_EXPECT(server < demand.server_count(),
               "stream server subset exceeds the demand matrix");
    const auto row = demand.row(server);
    weights.insert(weights.end(), row.begin(), row.end());
  }
  cell_sampler_ = util::AliasSampler(weights);
}

Request RequestStream::next() {
  const std::size_t cell = cell_sampler_.sample(rng_);
  const std::size_t row = cell / sites_;
  Request req;
  req.server =
      servers_.empty() ? static_cast<ServerId>(row) : servers_[row];
  req.site = static_cast<SiteId>(cell % sites_);
  req.rank = static_cast<std::uint32_t>(
      catalog_->object_popularity().sample(rng_));
  return req;
}

void RequestStream::next_batch(RequestBatch& out, std::size_t count) {
  out.resize(count);
  // Same per-request draw order as next() — cell first, then rank — with
  // straight-line SoA writes.
  const util::ZipfDistribution& zipf = catalog_->object_popularity();
  if (servers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t cell = cell_sampler_.sample(rng_);
      out.server[i] = static_cast<ServerId>(cell / sites_);
      out.site[i] = static_cast<SiteId>(cell % sites_);
      out.rank[i] = static_cast<std::uint32_t>(zipf.sample(rng_));
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t cell = cell_sampler_.sample(rng_);
      out.server[i] = servers_[cell / sites_];
      out.site[i] = static_cast<SiteId>(cell % sites_);
      out.rank[i] = static_cast<std::uint32_t>(zipf.sample(rng_));
    }
  }
}

void RequestStream::save_state(util::ByteWriter& w) const {
  for (const std::uint64_t word : rng_.state()) w.u64(word);
}

void RequestStream::restore_state(util::ByteReader& r) {
  std::array<std::uint64_t, 4> state;
  for (auto& word : state) word = r.u64();
  rng_.set_state(state);
}

}  // namespace cdn::workload
