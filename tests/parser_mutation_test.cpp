// Generated malformed-input corpus: every file family of
// tests/data/corpus/ is mutated from a fixed seed and fed to its loader.
//
// The seeds of a family are its hand-written corpus files plus one valid
// file built here.  A mutant is one to three edits: a byte flip, a deleted
// or duplicated span, a truncation, or a whole token replaced with a
// hostile one (4294967295, 18446744073709551616, -1, 1e309, nan, 0x10, +5,
// a 5 KiB token; in the binary format, a word of hostile bytes).
// Checkpoint mutants get their FNV-1a trailer re-sealed, so they reach the
// payload parser instead of stopping at the checksum.
//
// Every mutant must be accepted or rejected with a PreconditionError; any
// other exception or a crash fails.  For the formats with a serializer
// (fault schedule, endpoint map, placement file, request line) an
// accepted mutant must also survive the round trip: serialize(parse(m))
// parses back to an equal value.  The hand-written files stay the named
// cases in parser_corpus_test.cpp.  Runs under the sanitizer CI job.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/placement/placement_io.h"
#include "src/recover/checkpoint.h"
#include "src/redirectd/control.h"
#include "src/redirectd/protocol.h"
#include "src/util/error.h"
#include "src/util/serial.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;

constexpr std::size_t kMutantsPerFamily = 2000;

const std::array<std::string, 8> kHostileTokens = {
    "4294967295", "18446744073709551616", "-1", "1e309", "nan", "0x10", "+5",
    std::string(5 * 1024, '7')};

constexpr std::array<std::uint64_t, 5> kHostileWords = {
    0xffffffffULL, 0xffffffffffffffffULL, 0x8000000000000000ULL,
    0x100000000ULL, 0};

using Bytes = std::string;

enum class Trailer { kNone, kCheckpoint };

Bytes read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

std::vector<Bytes> corpus_seeds(const char* prefix) {
  const auto dir = std::filesystem::path(HYBRIDCDN_TEST_DATA_DIR) / "corpus";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Bytes> seeds;
  for (const auto& file : files) seeds.push_back(read_bytes(file));
  return seeds;
}

bool is_separator(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ',';
}

/// One random edit of `m`.
void mutate_once(Bytes& m, bool binary, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  switch (rng() % 5) {
    case 0:  // byte flip
      if (!m.empty()) {
        m[pick(m.size())] ^= static_cast<char>(1 + rng() % 255);
      }
      break;
    case 1: {  // deleted span
      const std::size_t at = pick(m.size());
      m.erase(at, 1 + pick(16));
      break;
    }
    case 2: {  // duplicated span
      if (m.empty()) break;
      const std::size_t at = pick(m.size());
      const Bytes span = m.substr(at, 1 + pick(24));
      m.insert(pick(m.size() + 1), span);
      break;
    }
    case 3:  // truncation
      m.resize(pick(m.size() + 1));
      break;
    default: {  // a whole token (text) or word (binary) made hostile
      if (binary) {
        if (m.size() < 8) break;
        const std::uint64_t word = kHostileWords[pick(kHostileWords.size())];
        std::memcpy(m.data() + pick(m.size() - 7), &word, 8);
        break;
      }
      if (m.empty()) break;
      std::size_t begin = pick(m.size());
      while (begin < m.size() && is_separator(m[begin])) ++begin;
      while (begin > 0 && !is_separator(m[begin - 1])) --begin;
      std::size_t end = begin;
      while (end < m.size() && !is_separator(m[end])) ++end;
      m.replace(begin, end - begin,
                kHostileTokens[pick(kHostileTokens.size())]);
      break;
    }
  }
}

/// Rewrites the FNV-1a trailer over what the loader checksums: the whole
/// file before it, stored little-endian.
void reseal(Bytes& m, Trailer trailer) {
  if (trailer == Trailer::kNone || m.size() < 8) return;
  const std::size_t body = m.size() - 8;
  const std::uint64_t sum = util::fnv1a(m.data(), body);
  for (std::size_t i = 0; i < 8; ++i) {
    m[body + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
}

struct Family {
  const char* prefix;
  bool binary;
  Trailer trailer;
  Bytes valid;
  /// Loads the mutant; throws what the loader throws, and fails the test
  /// when an accepted mutant does not survive its round trip.
  std::function<void(const Bytes&)> load;
};

struct Tally {
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

Tally run_family(const Family& family, std::uint64_t seed) {
  std::vector<Bytes> seeds = corpus_seeds(family.prefix);
  EXPECT_FALSE(seeds.empty()) << family.prefix;
  std::mt19937_64 rng(seed);
  Tally tally;
  for (std::size_t i = 0; i < kMutantsPerFamily; ++i) {
    // Half the mutants grow from the valid file, the rest from the
    // hand-written corpus in turn.
    Bytes m = i % 2 == 0 || seeds.empty() ? family.valid
                                          : seeds[(i / 2) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) mutate_once(m, family.binary, rng);
    reseal(m, family.trailer);
    ++tally.mutants;
    try {
      family.load(m);
      ++tally.accepted;
    } catch (const PreconditionError&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << family.prefix << " mutant " << i << " threw "
                    << typeid(e).name() << " (" << e.what()
                    << ") instead of PreconditionError";
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << family.prefix << " mutant " << i << " (from seed "
                    << seed << ") was the first to fail";
      break;
    }
  }
  return tally;
}

/// Temporary file for loaders that only read paths.
class TempFile {
 public:
  explicit TempFile(const char* tag)
      : path_(std::filesystem::temp_directory_path() /
              ("hybridcdn_mutant_" + std::string(tag) + "_" +
               std::to_string(::getpid()))) {}
  ~TempFile() { std::filesystem::remove(path_); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& write(const Bytes& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    text_ = path_.string();
    return text_;
  }

 private:
  std::filesystem::path path_;
  std::string text_;
};

bool same_schedule(const fault::FaultSchedule& a,
                   const fault::FaultSchedule& b) {
  const auto outages = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(),
                      [](const auto& p, const auto& q) {
                        return p.target == q.target && p.begin == q.begin &&
                               p.end == q.end;
                      });
  };
  const auto links = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(),
                      [](const auto& p, const auto& q) {
                        return p.server == q.server && p.begin == q.begin &&
                               p.end == q.end &&
                               p.latency_multiplier == q.latency_multiplier;
                      });
  };
  const auto surges = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(),
                      [](const auto& p, const auto& q) {
                        return p.site == q.site && p.begin == q.begin &&
                               p.end == q.end && p.multiplier == q.multiplier;
                      });
  };
  return outages(a.server_outages(), b.server_outages()) &&
         outages(a.origin_outages(), b.origin_outages()) &&
         links(a.link_degradations(), b.link_degradations()) &&
         surges(a.demand_surges(), b.demand_surges());
}

bool same_endpoints(const redirectd::EndpointMap& a,
                    const redirectd::EndpointMap& b) {
  const auto slots = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::equal(x.begin(), x.end(), y.begin(),
                      [](const auto& p, const auto& q) {
                        return p.has_value() == q.has_value() &&
                               (!p || (p->host == q->host &&
                                       p->port == q->port));
                      });
  };
  return slots(a.replicas, b.replicas) && slots(a.origins, b.origins);
}

Bytes valid_checkpoint(TempFile& temp) {
  recover::Checkpoint ckpt;
  ckpt.fingerprint = {{"scenario", 0x1234}, {"placement", 0xabcdef}};
  ckpt.payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::string path = temp.write({});
  (void)recover::write_file(path, ckpt);
  return read_bytes(path);
}

class ParserMutationTest : public ::testing::Test {
 protected:
  void expect_family(const Family& family, std::uint64_t seed) {
    const Tally tally = run_family(family, seed);
    EXPECT_GE(tally.mutants, kMutantsPerFamily) << family.prefix;
    // A sweep that rejects everything, or accepts everything, has not
    // reached past the first check.
    EXPECT_GT(tally.rejected, 0u) << family.prefix;
    EXPECT_GT(tally.accepted, 0u) << family.prefix;
    RecordProperty(std::string(family.prefix) + "accepted",
                   static_cast<int>(tally.accepted));
  }

  const test::TestSystem t_ = test::TestSystem::make();
};

TEST_F(ParserMutationTest, FaultSchedule) {
  expect_family(
      {"fs_", false, Trailer::kNone,
       "server 0 down 5 10\norigin 1 down 0 100\n"
       "link 1 degrade 5 10 2.5\nsurge 2 5 10 3\n",
       [](const Bytes& m) {
         const fault::FaultSchedule parsed = fault::FaultSchedule::parse(m);
         const fault::FaultSchedule again =
             fault::FaultSchedule::parse(parsed.serialize());
         EXPECT_TRUE(same_schedule(parsed, again))
             << "fault schedule round trip\n" << m;
       }},
      101);
}

TEST_F(ParserMutationTest, RedirectRequest) {
  expect_family({"rp_", false, Trailer::kNone, "GET 1 2 3\n",
                 [](const Bytes& m) {
                   const redirectd::RedirectRequest parsed =
                       redirectd::parse_request(m);
                   const redirectd::RedirectRequest again =
                       redirectd::parse_request(
                           redirectd::format_request(parsed));
                   EXPECT_TRUE(again.client_server == parsed.client_server &&
                               again.site == parsed.site &&
                               again.object == parsed.object)
                       << "request round trip\n" << m;
                 }},
                102);
}

TEST_F(ParserMutationTest, EndpointMap) {
  const std::size_t servers = t_.system->server_count();
  const std::size_t sites = t_.system->site_count();
  expect_family(
      {"rd_", false, Trailer::kNone,
       "# comment\nreplica 0 127.0.0.1 9000\nreplica 3 127.0.0.1 9003\n"
       "origin 1 127.0.0.1 9501\n",
       [&](const Bytes& m) {
         const redirectd::EndpointMap parsed =
             redirectd::EndpointMap::parse(m, servers, sites);
         const redirectd::EndpointMap again =
             redirectd::EndpointMap::parse(parsed.serialize(), servers, sites);
         EXPECT_TRUE(same_endpoints(parsed, again))
             << "endpoint map round trip\n" << m;
       }},
      103);
}

TEST_F(ParserMutationTest, PlacementFile) {
  expect_family(
      {"rc_placement_", false, Trailer::kNone,
       "placement 4 8\nreplica 1 0\nreplica 2 0\nreplica 3 5\n",
       [&](const Bytes& m) {
         const placement::PlacementResult parsed =
             placement::parse_placement_result(m, *t_.system);
         const std::string text =
             placement::serialize_placement(parsed.placement);
         const placement::PlacementResult again =
             placement::parse_placement_result(text, *t_.system);
         EXPECT_EQ(placement::serialize_placement(again.placement), text)
             << "placement round trip\n" << m;
       }},
      104);
}

TEST_F(ParserMutationTest, ControlCommand) {
  expect_family({"rc_control_", false, Trailer::kNone,
                 "RELOAD placement /tmp/plan.txt\n",
                 [](const Bytes& m) {
                   (void)redirectd::parse_control_command(m);
                 }},
                105);
}

TEST_F(ParserMutationTest, Checkpoint) {
  TempFile temp("ck");
  const Bytes valid = valid_checkpoint(temp);
  expect_family({"ck_", true, Trailer::kCheckpoint, valid,
                 [&](const Bytes& m) {
                   (void)recover::read_file(temp.write(m));
                 }},
                108);
}

}  // namespace
