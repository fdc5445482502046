#include "src/redirectd/protocol.h"

#include <sstream>

#include "src/util/error.h"
#include "src/util/serial.h"
#include "src/util/text_parse.h"

namespace cdn::redirectd {

namespace {

constexpr std::string_view kRequestWhat = "redirect request";
constexpr std::string_view kAnswerWhat = "redirect answer";
constexpr std::string_view kEndpointsWhat = "endpoint map";

}  // namespace

RedirectRequest parse_request(std::string_view line) {
  CDN_EXPECT(line.size() <= kMaxRequestLine,
             "redirect request line exceeds " +
                 std::to_string(kMaxRequestLine) + " bytes (" +
                 std::to_string(line.size()) + ")");
  util::LineTokens tokens(util::strip_eol(line), kRequestWhat, 1);
  tokens.literal("GET");
  RedirectRequest request;
  request.client_server = tokens.u32("the client's first-hop server index");
  request.site = tokens.u32("a site index");
  request.object = tokens.u64("an object id");
  tokens.done();
  return request;
}

std::string format_request(const RedirectRequest& request) {
  std::ostringstream os;
  os << "GET " << request.client_server << ' ' << request.site << ' '
     << request.object << '\n';
  return os.str();
}

namespace {

const char* reason_word(UnavailableReason reason) {
  switch (reason) {
    case UnavailableReason::kNoLiveCopy:
      return "no_live_copy";
    case UnavailableReason::kShed:
      return "shed";
    case UnavailableReason::kDeadline:
      return "deadline";
  }
  return "no_live_copy";
}

}  // namespace

std::string format_answer(const RedirectAnswer& answer) {
  std::ostringstream os;
  switch (answer.kind) {
    case AnswerKind::kReplica:
      os << "REPLICA " << answer.server << ' ' << answer.cost << ' '
         << answer.winner_rank << ' ' << answer.attempts << '\n';
      break;
    case AnswerKind::kOrigin:
      os << "ORIGIN " << answer.site << ' ' << answer.cost << ' '
         << answer.attempts << '\n';
      break;
    case AnswerKind::kUnavailable:
      os << "UNAVAILABLE " << reason_word(answer.reason) << '\n';
      break;
  }
  return os.str();
}

RedirectAnswer parse_answer(std::string_view line) {
  util::LineTokens tokens(util::strip_eol(line), kAnswerWhat, 1);
  const std::string_view verb = tokens.expect("a response verb");
  RedirectAnswer answer;
  if (verb == "REPLICA") {
    answer.kind = AnswerKind::kReplica;
    answer.server = tokens.u32("a server index");
    answer.cost = tokens.finite("the redirection cost");
    answer.winner_rank = tokens.u32("the winning candidate rank");
    answer.attempts = tokens.u32("the attempt count");
  } else if (verb == "ORIGIN") {
    answer.kind = AnswerKind::kOrigin;
    answer.site = tokens.u32("a site index");
    answer.cost = tokens.finite("the redirection cost");
    answer.attempts = tokens.u32("the attempt count");
  } else if (verb == "UNAVAILABLE") {
    answer.kind = AnswerKind::kUnavailable;
    const std::string_view reason = tokens.expect("an unavailability reason");
    if (reason == "no_live_copy") {
      answer.reason = UnavailableReason::kNoLiveCopy;
    } else if (reason == "shed") {
      answer.reason = UnavailableReason::kShed;
    } else if (reason == "deadline") {
      answer.reason = UnavailableReason::kDeadline;
    } else {
      CDN_EXPECT(false, tokens.last_where() +
                            ": unknown unavailability reason '" +
                            std::string(reason) + "'");
    }
  } else {
    CDN_EXPECT(false, tokens.last_where() + ": unknown response verb '" +
                          std::string(verb) + "'");
  }
  tokens.done();
  return answer;
}

EndpointMap EndpointMap::parse(const std::string& text,
                               std::size_t server_count,
                               std::size_t site_count) {
  EndpointMap map;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    util::LineTokens tokens(line, kEndpointsWhat, line_no);
    if (tokens.at_end()) continue;
    const std::string_view kind = tokens.expect("'replica' or 'origin'");
    CDN_EXPECT(kind == "replica" || kind == "origin",
               tokens.last_where() + ": unknown directive '" +
                   std::string(kind) + "' (expected 'replica' or 'origin')");
    const bool replica = kind == "replica";
    // The index sizes a slot vector, so it is checked against the fleet
    // shape before anything is allocated.
    const std::uint32_t index = tokens.u32("a target index");
    const std::size_t limit = replica ? server_count : site_count;
    CDN_EXPECT(index < limit,
               tokens.last_where() +
                   (replica ? ": server index " : ": site index ") +
                   std::to_string(index) + " is out of range (" +
                   (replica ? "fleet has " : "catalogue has ") +
                   std::to_string(limit) + (replica ? " servers)" : " sites)"));
    const std::string_view host = tokens.expect("a host");
    const std::uint32_t port = tokens.u32("a port");
    const std::string port_where = tokens.last_where();
    tokens.done();
    CDN_EXPECT(port >= 1 && port <= 65535,
               port_where + ": port " + std::to_string(port) +
                   " is outside [1, 65535]");
    std::vector<std::optional<Endpoint>>& slots =
        replica ? map.replicas : map.origins;
    if (slots.size() <= index) slots.resize(index + 1);
    CDN_EXPECT(!slots[index].has_value(),
               port_where + ": duplicate " + std::string(kind) +
                   " entry for index " + std::to_string(index));
    slots[index] =
        Endpoint{std::string(host), static_cast<std::uint16_t>(port)};
  }
  return map;
}

EndpointMap EndpointMap::load(const std::string& path,
                              std::size_t server_count,
                              std::size_t site_count) {
  return parse(util::read_file(path, "endpoint map"), server_count,
               site_count);
}

void EndpointMap::validate(std::size_t server_count,
                           std::size_t site_count) const {
  CDN_EXPECT(replicas.size() <= server_count,
             "endpoint map names a replica index >= the server count");
  CDN_EXPECT(origins.size() <= site_count,
             "endpoint map names an origin index >= the site count");
}

std::string EndpointMap::serialize() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i]) {
      os << "replica " << i << ' ' << replicas[i]->host << ' '
         << replicas[i]->port << '\n';
    }
  }
  for (std::size_t j = 0; j < origins.size(); ++j) {
    if (origins[j]) {
      os << "origin " << j << ' ' << origins[j]->host << ' '
         << origins[j]->port << '\n';
    }
  }
  return os.str();
}

}  // namespace cdn::redirectd
