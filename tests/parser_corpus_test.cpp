// Malformed-input corpus: every file under tests/data/corpus/ is an
// adversarial input (truncated, NaN/Inf, negative/overflowing numbers,
// wrong field counts, corrupted checksums, allocation bombs) and its
// loader — selected by filename prefix — must reject it with a clean
// PreconditionError: never a crash, a hang, an InternalError or a foreign
// exception type.  Runs under the sanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
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
#include "src/workload/trace_io.h"
#include "tests/test_support.h"

namespace {

using namespace cdn;

std::filesystem::path corpus_dir() {
  return std::filesystem::path(HYBRIDCDN_TEST_DATA_DIR) / "corpus";
}

std::vector<std::filesystem::path> corpus_files(const char* prefix) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// `load(path)` must throw a PreconditionError whose message holds
/// `names` (empty: any message).
template <typename Loader>
void expect_rejected(const std::filesystem::path& path, const Loader& load,
                     const std::string& names) {
  try {
    load(path.string());
    ADD_FAILURE() << path << " was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
        << path << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << path << " threw " << typeid(e).name() << " ("
                  << e.what() << ") instead of PreconditionError";
  }
}

/// Every corpus file of the family, and the corpus directory itself: a
/// directory is a read error naming it, never an empty file to parse or a
/// size to allocate.
template <typename Loader>
void expect_all_rejected(const char* prefix, std::size_t at_least,
                         Loader&& load) {
  const auto files = corpus_files(prefix);
  ASSERT_GE(files.size(), at_least)
      << "corpus lost its '" << prefix << "' files";
  for (const auto& file : files) expect_rejected(file, load, "");
  expect_rejected(corpus_dir(), load, corpus_dir().string());
}

TEST(ParserCorpusTest, CorpusIsPresentAndSubstantial) {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus_dir())) {
    (void)entry;
    ++count;
  }
  EXPECT_GE(count, 30u);
}

TEST(ParserCorpusTest, FaultScheduleFilesAllRejected) {
  expect_all_rejected("fs_", 15, [](const std::string& p) {
    (void)fault::FaultSchedule::load(p);
  });
}

TEST(ParserCorpusTest, CsvTraceFilesAllRejected) {
  expect_all_rejected("tr_", 9, [](const std::string& p) {
    (void)workload::RecordedTrace::load_csv(p);
  });
}

TEST(ParserCorpusTest, BinaryTraceFilesAllRejected) {
  expect_all_rejected("tb_", 7, [](const std::string& p) {
    (void)workload::RecordedTrace::load_binary(p);
  });
}

TEST(ParserCorpusTest, CheckpointFilesAllRejected) {
  expect_all_rejected("ck_", 8, [](const std::string& p) {
    (void)recover::read_file(p);
  });
}

TEST(ParserCorpusTest, RedirectRequestFilesAllRejected) {
  // Each rp_ file holds one adversarial redirector request line (truncated,
  // bad verb, negative/float/NaN/overflowing numbers, oversized line).
  expect_all_rejected("rp_", 9, [](const std::string& p) {
    (void)redirectd::parse_request(util::read_file(p, "request line file"));
  });
}

TEST(ParserCorpusTest, EndpointMapFilesAllRejected) {
  const test::TestSystem t = test::TestSystem::make();
  expect_all_rejected("rd_", 10, [&](const std::string& p) {
    (void)redirectd::EndpointMap::load(p, t.system->server_count(),
                                       t.system->site_count());
  });
}

TEST(ParserCorpusTest, ReloadPlacementFilesAllRejected) {
  // Each rc_placement_ file is a hot-reload placement input (truncated,
  // out-of-range indices, duplicates, wrong shape, empty) that must leave
  // the daemon's previous generation serving — i.e. throw cleanly here.
  const test::TestSystem t = test::TestSystem::make();
  expect_all_rejected("rc_placement_", 6, [&](const std::string& p) {
    (void)placement::load_placement_result(p, *t.system);
  });
}

TEST(ParserCorpusTest, ReloadEndpointFilesAllRejected) {
  const test::TestSystem t = test::TestSystem::make();
  expect_all_rejected("rc_endpoints_", 1, [&](const std::string& p) {
    redirectd::EndpointMap map = redirectd::EndpointMap::load(
        p, t.system->server_count(), t.system->site_count());
    map.validate(t.system->server_count(), t.system->site_count());
  });
}

TEST(ParserCorpusTest, ControlCommandFilesAllRejected) {
  expect_all_rejected("rc_control_", 5, [](const std::string& p) {
    (void)redirectd::parse_control_command(
        util::read_file(p, "control line file"));
  });
}

TEST(ParserCorpusTest, PlacementErrorsCarryLineAndColumn) {
  const test::TestSystem t = test::TestSystem::make();
  try {
    (void)placement::parse_placement_result("placement 4 8\nreplica 0 nope\n",
                                            *t.system);
    FAIL() << "bad site index accepted";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("col 11"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'nope'"), std::string::npos) << msg;
  }
}

TEST(ParserCorpusTest, RedirectErrorsCarryLineAndColumn) {
  try {
    redirectd::parse_request("GET 1 2 nan\n");
    FAIL() << "NaN object accepted";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("col 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'nan'"), std::string::npos) << msg;
  }
}

TEST(ParserCorpusTest, FaultErrorsCarryLineAndColumn) {
  // Spot-check the diagnostics, not just the exception type.
  try {
    fault::FaultSchedule::parse("server 0 down 5 10\nsurge 1 5 10 nan\n");
    FAIL() << "NaN multiplier accepted";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("col 14"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'nan'"), std::string::npos) << msg;
  }
  try {
    fault::FaultSchedule::parse("link 3 degrade 5");
    FAIL() << "short line accepted";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line ended"), std::string::npos) << msg;
  }
}

TEST(ParserCorpusTest, CsvErrorsCarryLineAndColumn) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto p = dir / ("hybridcdn_csv_diag_" + std::to_string(::getpid()));
  util::write_file(p.string(), "server,site,rank\n0,1,2\n3,-4,5\n",
                   "trace file");
  try {
    workload::RecordedTrace::load_csv(p.string());
    FAIL() << "negative field accepted";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("col 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'-4'"), std::string::npos) << msg;
  }
  std::filesystem::remove(p);
}

}  // namespace
