// Redirector wire protocol, endpoint map, and backoff policy unit tests.

#include "src/redirectd/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "src/redirectd/backoff.h"
#include "src/util/error.h"

namespace cdn::redirectd {
namespace {

using namespace std::chrono_literals;

// --- requests ---

TEST(Protocol, RequestRoundtrip) {
  RedirectRequest request{.client_server = 7, .site = 42, .object = 1234};
  const RedirectRequest parsed = parse_request(format_request(request));
  EXPECT_EQ(parsed.client_server, 7u);
  EXPECT_EQ(parsed.site, 42u);
  EXPECT_EQ(parsed.object, 1234u);
}

TEST(Protocol, RequestAcceptsCrLf) {
  const RedirectRequest parsed = parse_request("GET 1 2 3\r\n");
  EXPECT_EQ(parsed.client_server, 1u);
}

TEST(Protocol, RequestRejectsMalformedLines) {
  EXPECT_THROW(parse_request(""), PreconditionError);
  EXPECT_THROW(parse_request("PUT 1 2 3\n"), PreconditionError);
  EXPECT_THROW(parse_request("GET 1 2\n"), PreconditionError);       // truncated
  EXPECT_THROW(parse_request("GET 1 2 3 4\n"), PreconditionError);   // junk
  EXPECT_THROW(parse_request("GET -1 2 3\n"), PreconditionError);
  EXPECT_THROW(parse_request("GET 1.5 2 3\n"), PreconditionError);
  EXPECT_THROW(parse_request("GET nan 2 3\n"), PreconditionError);
  EXPECT_THROW(parse_request("GET 99999999999999999999 2 3\n"),
               PreconditionError);
}

TEST(Protocol, RequestRejectsOversizedLine) {
  std::string line = "GET 1 2 ";
  line.append(kMaxRequestLine, '9');
  line += '\n';
  EXPECT_THROW(parse_request(line), PreconditionError);
}

// --- answers ---

TEST(Protocol, ReplicaAnswerRoundtrip) {
  RedirectAnswer answer;
  answer.kind = AnswerKind::kReplica;
  answer.server = 3;
  answer.cost = 2.5;
  answer.winner_rank = 2;
  answer.attempts = 4;
  const RedirectAnswer parsed = parse_answer(format_answer(answer));
  EXPECT_EQ(parsed.kind, AnswerKind::kReplica);
  EXPECT_EQ(parsed.server, 3u);
  EXPECT_DOUBLE_EQ(parsed.cost, 2.5);
  EXPECT_EQ(parsed.winner_rank, 2u);
  EXPECT_EQ(parsed.attempts, 4u);
}

TEST(Protocol, OriginAnswerRoundtrip) {
  RedirectAnswer answer;
  answer.kind = AnswerKind::kOrigin;
  answer.site = 17;
  answer.cost = 6.0;
  answer.attempts = 1;
  const RedirectAnswer parsed = parse_answer(format_answer(answer));
  EXPECT_EQ(parsed.kind, AnswerKind::kOrigin);
  EXPECT_EQ(parsed.site, 17u);
  EXPECT_DOUBLE_EQ(parsed.cost, 6.0);
}

TEST(Protocol, UnavailableAnswerRoundtripAllReasons) {
  for (const auto reason :
       {UnavailableReason::kNoLiveCopy, UnavailableReason::kShed,
        UnavailableReason::kDeadline}) {
    RedirectAnswer answer;
    answer.kind = AnswerKind::kUnavailable;
    answer.reason = reason;
    const RedirectAnswer parsed = parse_answer(format_answer(answer));
    EXPECT_EQ(parsed.kind, AnswerKind::kUnavailable);
    EXPECT_EQ(parsed.reason, reason);
  }
}

TEST(Protocol, AnswerRejectsMalformedLines) {
  EXPECT_THROW(parse_answer("WAT 1\n"), PreconditionError);
  EXPECT_THROW(parse_answer("REPLICA 1 nan 1 1\n"), PreconditionError);
  EXPECT_THROW(parse_answer("UNAVAILABLE because\n"), PreconditionError);
  EXPECT_THROW(parse_answer("ORIGIN 1 2.0 1 junk\n"), PreconditionError);
}

// --- endpoint map ---

TEST(EndpointMapTest, ParseSerializeRoundtrip) {
  const std::string text =
      "# comment\n"
      "replica 0 127.0.0.1 9000\n"
      "replica 2 127.0.0.1 9002\n"
      "origin 1 127.0.0.1 9500\n";
  const EndpointMap map = EndpointMap::parse(text, 3, 2);
  ASSERT_EQ(map.replicas.size(), 3u);
  EXPECT_TRUE(map.replicas[0].has_value());
  EXPECT_FALSE(map.replicas[1].has_value());
  EXPECT_EQ(map.replicas[2]->port, 9002);
  ASSERT_EQ(map.origins.size(), 2u);
  EXPECT_EQ(map.origins[1]->host, "127.0.0.1");

  const EndpointMap again = EndpointMap::parse(map.serialize(), 3, 2);
  EXPECT_EQ(again.serialize(), map.serialize());
}

TEST(EndpointMapTest, RejectsBadInput) {
  EXPECT_THROW(EndpointMap::parse("replica 0 127.0.0.1 nan\n", 1, 1),
               PreconditionError);
  EXPECT_THROW(EndpointMap::parse("replica 0 127.0.0.1 0\n", 1, 1),
               PreconditionError);
  EXPECT_THROW(EndpointMap::parse("replica 0 127.0.0.1 70000\n", 1, 1),
               PreconditionError);
  EXPECT_THROW(EndpointMap::parse("replica 0 127.0.0.1\n", 1, 1),
               PreconditionError);
  EXPECT_THROW(EndpointMap::parse("gateway 0 127.0.0.1 9000\n", 1, 1),
               PreconditionError);
  EXPECT_THROW(EndpointMap::parse("replica 0 h 1\nreplica 0 h 2\n", 1, 1),
               PreconditionError);
  EXPECT_THROW(EndpointMap::parse("replica 0 h 80 junk\n", 1, 1),
               PreconditionError);
}

TEST(EndpointMapTest, RejectsAnIndexOutsideTheFleetWithItsLocation) {
  // Checked before any slot is allocated: 4294967295 would wrap the slot
  // count to 0, and 20000000 would size a ~0.9 GB vector.
  const std::pair<const char*, const char*> cases[] = {
      {"replica 4294967295 127.0.0.1 9000\n",
       "endpoint map line 1, col 9: server index 4294967295 is out of range "
       "(fleet has 4 servers)"},
      {"replica 20000000 127.0.0.1 9000\n",
       "endpoint map line 1, col 9: server index 20000000 is out of range "
       "(fleet has 4 servers)"},
      {"replica 3 h 1\norigin 8 h 2\n",
       "endpoint map line 2, col 8: site index 8 is out of range "
       "(catalogue has 8 sites)"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)EndpointMap::parse(text, 4, 8);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(EndpointMapTest, ValidateChecksFleetShape) {
  const EndpointMap map =
      EndpointMap::parse("replica 5 127.0.0.1 9000\n", 6, 1);
  EXPECT_NO_THROW(map.validate(6, 1));
  EXPECT_THROW(map.validate(5, 1), PreconditionError);
}

TEST(EndpointMapTest, LoadMissingFileThrows) {
  EXPECT_THROW(EndpointMap::load("/nonexistent/endpoints.txt", 1, 1),
               PreconditionError);
}

// --- backoff ---

TEST(BackoffTest, DelaysGrowAndRespectCap) {
  BackoffPolicy policy;
  policy.base = 20ms;
  policy.cap = 100ms;
  policy.multiplier = 2.0;
  policy.jitter = 0.2;
  Backoff backoff(policy, 42);
  for (std::uint32_t retry = 0; retry < 8; ++retry) {
    const auto delay = backoff.next(retry);
    const double unjittered =
        std::min(100.0, 20.0 * std::pow(2.0, static_cast<double>(retry)));
    EXPECT_GE(delay.count(),
              static_cast<std::int64_t>(unjittered * 0.8) - 1);
    EXPECT_LE(delay.count(),
              static_cast<std::int64_t>(unjittered * 1.2) + 1);
  }
}

TEST(BackoffTest, SameSeedSameSchedule) {
  BackoffPolicy policy;
  Backoff a(policy, 7), b(policy, 7), c(policy, 8);
  bool any_diff = false;
  for (std::uint32_t retry = 0; retry < 6; ++retry) {
    const auto da = a.next(retry);
    const auto db = b.next(retry);
    const auto dc = c.next(retry);
    EXPECT_EQ(da.count(), db.count());
    any_diff = any_diff || da != dc;
  }
  // Different seeds should diverge somewhere (jitter is per-stream).
  EXPECT_TRUE(any_diff);
}

TEST(BackoffTest, PolicyValidation) {
  BackoffPolicy bad;
  bad.cap = 1ms;
  bad.base = 10ms;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = BackoffPolicy{};
  bad.jitter = 1.5;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = BackoffPolicy{};
  bad.multiplier = 0.5;
  EXPECT_THROW(bad.validate(), PreconditionError);
}

}  // namespace
}  // namespace cdn::redirectd
