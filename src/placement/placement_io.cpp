#include "src/placement/placement_io.h"

#include <sstream>

#include "src/util/error.h"
#include "src/util/serial.h"
#include "src/util/text_parse.h"

namespace cdn::placement {

namespace {

const std::string kWhat = "placement file";

}  // namespace

std::string serialize_placement(const sys::ReplicaPlacement& placement) {
  std::ostringstream os;
  os << "placement " << placement.server_count() << ' '
     << placement.site_count() << '\n';
  for (std::size_t i = 0; i < placement.server_count(); ++i) {
    for (std::size_t j = 0; j < placement.site_count(); ++j) {
      if (placement.is_replicated(static_cast<sys::ServerIndex>(i),
                                  static_cast<sys::SiteIndex>(j))) {
        os << "replica " << i << ' ' << j << '\n';
      }
    }
  }
  return os.str();
}

void save_placement(const sys::ReplicaPlacement& placement,
                    const std::string& path) {
  util::write_file(path, serialize_placement(placement), kWhat);
}

std::uint64_t placement_digest(const sys::ReplicaPlacement& placement) {
  const std::string text = serialize_placement(placement);
  return util::fnv1a(text.data(), text.size());
}

PlacementResult parse_placement_result(const std::string& text,
                                       const sys::CdnSystem& system,
                                       const std::string& algorithm) {
  const std::size_t servers = system.server_count();
  const std::size_t sites = system.site_count();

  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  sys::ReplicaPlacement placement(system.server_storage(),
                                  system.site_bytes());
  std::size_t replicas = 0;

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    util::LineTokens tokens(line, kWhat, line_no);
    if (tokens.at_end()) continue;
    const std::string_view verb = tokens.expect("'placement' or 'replica'");
    if (!saw_header) {
      CDN_EXPECT(verb == "placement",
                 tokens.last_where() +
                     ": expected the 'placement <servers> <sites>' header "
                     "first (got '" +
                     std::string(verb) + "')");
      const std::uint32_t file_servers = tokens.u32("a server count");
      const std::uint32_t file_sites = tokens.u32("a site count");
      tokens.done();
      CDN_EXPECT(file_servers == servers && file_sites == sites,
                 tokens.last_where() + ": placement shape " +
                     std::to_string(file_servers) + "x" +
                     std::to_string(file_sites) +
                     " does not match the system's " +
                     std::to_string(servers) + "x" + std::to_string(sites));
      saw_header = true;
      continue;
    }
    CDN_EXPECT(verb == "replica",
               tokens.last_where() + ": unknown directive '" +
                   std::string(verb) + "' (expected 'replica')");
    const std::uint32_t server = tokens.u32("a server index");
    const std::uint32_t site = tokens.u32("a site index");
    const std::string where = tokens.last_where();
    tokens.done();
    CDN_EXPECT(server < servers, where + ": server index " +
                                     std::to_string(server) +
                                     " is out of range (fleet has " +
                                     std::to_string(servers) + " servers)");
    CDN_EXPECT(site < sites, where + ": site index " + std::to_string(site) +
                                 " is out of range (catalogue has " +
                                 std::to_string(sites) + " sites)");
    CDN_EXPECT(!placement.is_replicated(server, site),
               where + ": duplicate replica (" + std::to_string(server) +
                   ", " + std::to_string(site) + ")");
    CDN_EXPECT(placement.can_add(server, site),
               where + ": replica (" + std::to_string(server) + ", " +
                   std::to_string(site) + ") exceeds server " +
                   std::to_string(server) + "'s storage budget");
    placement.add(server, site);
    ++replicas;
  }
  CDN_EXPECT(saw_header,
             kWhat + ": missing 'placement <servers> <sites>' header");
  CDN_EXPECT(replicas > 0,
             kWhat + ": no replicas — an empty placement cannot serve");

  sys::NearestReplicaIndex nearest(system.distances(), placement);
  return PlacementResult{algorithm,
                         std::move(placement),
                         std::move(nearest),
                         std::vector<double>(servers * sites, 0.0),
                         0.0,
                         0.0,
                         {},
                         replicas,
                         true};
}

PlacementResult load_placement_result(const std::string& path,
                                      const sys::CdnSystem& system,
                                      const std::string& algorithm) {
  return parse_placement_result(util::read_file(path, kWhat), system,
                                algorithm);
}

}  // namespace cdn::placement
