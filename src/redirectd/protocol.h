// Line-based redirector wire protocol + endpoint-map configuration.
//
// Request (one line, '\n'-terminated):
//
//   GET <client_server> <site> <object>\n
//
// where <client_server> is the first-hop server index the client is mapped
// to (what DNS resolution picked), <site> the site index, and <object> the
// object id / popularity rank.  Responses:
//
//   REPLICA <server> <cost> <rank> <attempts>\n   served by a replica
//   ORIGIN <site> <cost> <attempts>\n             origin fallback
//   UNAVAILABLE <reason>\n                        reason in
//                                                 {no_live_copy, shed,
//                                                  deadline}
//   ERR <message>\n                               malformed request
//
// Parsing is hardened with util::text_parse exactly like the fault
// schedule format: every malformed line throws PreconditionError with a
// line/column location, never crashes or accepts garbage — the adversarial
// corpus (tests/data/corpus/rp_*) holds the regression inputs.
//
// The endpoint map (--endpoints file) gives each server index and each
// site's origin a real host:port to probe and race:
//
//   replica <server> <host> <port>
//   origin <site> <host> <port>
//
// Ports must be decimal integers in [1, 65535] — "nan", floats and
// overflowing values are rejected — and indices must lie inside the fleet
// shape (corpus prefix rd_*).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cdn::redirectd {

/// Hard cap on an inbound request line (including '\n').  Longer lines are
/// an attack or a broken client; sessions reject them without buffering.
inline constexpr std::size_t kMaxRequestLine = 128;

struct RedirectRequest {
  std::uint32_t client_server = 0;
  std::uint32_t site = 0;
  std::uint64_t object = 0;
};

/// Parses one request line ('\n' / '\r\n' optional).  Throws
/// PreconditionError on any malformed input: wrong verb, missing fields,
/// trailing junk, non-numeric / overflowing ids, or a line longer than
/// kMaxRequestLine.
RedirectRequest parse_request(std::string_view line);

/// Formats the request line (with '\n').
std::string format_request(const RedirectRequest& request);

/// Machine-readable outcome of one redirect answer.
enum class AnswerKind : std::uint8_t {
  kReplica,
  kOrigin,
  kUnavailable,
};

enum class UnavailableReason : std::uint8_t {
  kNoLiveCopy,  // nearest_live_candidates returned nothing
  kShed,        // load-shed: too many in-flight races
  kDeadline,    // retry budget / overall deadline exhausted
};

struct RedirectAnswer {
  AnswerKind kind = AnswerKind::kUnavailable;
  UnavailableReason reason = UnavailableReason::kNoLiveCopy;
  std::uint32_t server = 0;  // kReplica
  std::uint32_t site = 0;    // kOrigin
  double cost = 0.0;
  std::uint32_t winner_rank = 0;  // 1-based candidate rank (kReplica)
  std::uint32_t attempts = 0;     // connection attempts spent
};

/// Formats the response line (with '\n').
std::string format_answer(const RedirectAnswer& answer);

/// Parses a response line (used by redirect_load and the tests).  Throws
/// PreconditionError on malformed responses.
RedirectAnswer parse_answer(std::string_view line);

/// One replica/origin endpoint.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Endpoint map: replica endpoint per server index, origin endpoint per
/// site index.  Entries are optional — an unmapped server simply cannot be
/// raced (model-mode answers still work).
struct EndpointMap {
  std::vector<std::optional<Endpoint>> replicas;  // by server index
  std::vector<std::optional<Endpoint>> origins;   // by site index

  bool empty() const noexcept { return replicas.empty() && origins.empty(); }

  /// Text format parser (see header comment).  Throws PreconditionError
  /// with line/column locations on malformed input; duplicate indices and
  /// indices outside the fleet shape (`server_count` servers, `site_count`
  /// sites) are rejected, the latter before any slot is allocated.
  static EndpointMap parse(const std::string& text, std::size_t server_count,
                           std::size_t site_count);
  static EndpointMap load(const std::string& path, std::size_t server_count,
                          std::size_t site_count);

  /// Throws PreconditionError when an index exceeds the fleet shape (for
  /// maps built in code rather than parsed).
  void validate(std::size_t server_count, std::size_t site_count) const;

  std::string serialize() const;
};

}  // namespace cdn::redirectd
