// The one checked file reader and writer (util::read_file/write_file) and
// every writer that saves through it.  A table row per writer writes once
// to /dev/full (every write fails with ENOSPC, as on a full disk) and once
// to a directory; each must throw a PreconditionError naming the path,
// never drop its output silently.  The reader rows pin what stays
// supported: round trips, empty files, and FIFOs read to EOF.

#include "src/util/serial.h"

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_artifact.h"
#include "src/cdn/replication.h"
#include "src/obs/registry.h"
#include "src/obs/run_manifest.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/placement/placement_io.h"
#include "src/recover/checkpoint.h"

namespace cdn {
namespace {

namespace fs = std::filesystem;

/// A fresh directory per test, removed with everything in it.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = std::string(info->test_suite_name()) + "_" +
                      info->name() + "_" + std::to_string(::getpid());
    for (char& c : tag) {
      if (c == '/') c = '_';
    }
    path_ = fs::temp_directory_path() / ("hybridcdn_file_io_" + tag);
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::remove(path_.string() + ".tmp", ec);
  }

  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

struct WriterRow {
  std::string name;
  std::function<void(const std::string& path)> write;
  /// Publishes by writing `<path>.tmp`, then renaming it over `path`.
  bool via_tmp = false;
};

/// Without this, gtest prints a row as its raw bytes, heap and code
/// addresses included, and every build gets different test names.
void PrintTo(const WriterRow& row, std::ostream* os) { *os << row.name; }

std::string row_name(const ::testing::TestParamInfo<WriterRow>& info) {
  return info.param.name;
}

const std::vector<WriterRow>& writer_rows() {
  static const std::vector<WriterRow> rows = {
      {"placement",
       [](const std::string& p) {
         const std::uint64_t storage[] = {100, 100};
         const std::uint64_t bytes[] = {10, 10, 10};
         sys::ReplicaPlacement placement(storage, bytes);
         placement.add(1, 2);
         placement::save_placement(placement, p);
       }},
      {"metrics",
       [](const std::string& p) {
         obs::Registry registry;
         registry.counter("requests").add(3);
         obs::write_json_file(registry, p);
       }},
      {"trace_sink_csv",
       [](const std::string& p) { obs::TraceSink(1.0).write_csv(p); }},
      {"manifest",
       [](const std::string& p) {
         obs::make_run_manifest("util_file_io_test").write_json_file(p);
       }},
      {"spans",
       [](const std::string& p) { obs::SpanTracer(16).write_json_file(p); }},
      {"checkpoint",
       [](const std::string& p) {
         recover::Checkpoint ckpt;
         ckpt.fingerprint.emplace_back("config", 42);
         ckpt.payload = {1, 2, 3};
         recover::write_file(p, ckpt);
       },
       true},
      {"bench_artifact",
       [](const std::string& p) {
         bench::BenchArtifact artifact("util_file_io_test");
         artifact.set("requests_per_sec", 1.0, "1/s", true, 10.0);
         obs::RunManifest manifest = obs::make_run_manifest("bench");
         artifact.write_json_file(p, manifest);
       }},
  };
  return rows;
}

void expect_fails_naming(const WriterRow& row, const std::string& path) {
  try {
    row.write(path);
    ADD_FAILURE() << row.name << " wrote to " << path << " without an error";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

class WriterTable : public ::testing::TestWithParam<WriterRow> {};

TEST_P(WriterTable, FullDeviceFailsNamingThePath) {
  if (!fs::is_character_file("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent on this host";
  }
  if (!GetParam().via_tmp) {
    expect_fails_naming(GetParam(), "/dev/full");
    return;
  }
  // Never rename over a device: the tmp sibling is a symlink to it, so
  // the bytes still go to /dev/full.
  const TempDir dir;
  const std::string path = (dir.path() / "out.bin").string();
  fs::create_symlink("/dev/full", path + ".tmp");
  expect_fails_naming(GetParam(), path);
}

TEST_P(WriterTable, DirectoryFailsNamingThePath) {
  const TempDir dir;
  expect_fails_naming(GetParam(), dir.path().string());
  EXPECT_TRUE(fs::is_directory(dir.path()));
  EXPECT_FALSE(fs::exists(dir.path().string() + ".tmp"));
}

TEST_P(WriterTable, WritesARegularFile) {
  const TempDir dir;
  const fs::path path = dir.path() / "out";
  GetParam().write(path.string());
  EXPECT_GT(fs::file_size(path), 0u);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

INSTANTIATE_TEST_SUITE_P(Writers, WriterTable,
                         ::testing::ValuesIn(writer_rows()), row_name);

TEST(FileIoTest, RoundTripKeepsEveryByte) {
  const TempDir dir;
  const std::string path = (dir.path() / "bytes").string();
  std::string bytes(200 * 1024, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 31 % 251);
  }
  util::write_file(path, bytes, "test file");
  EXPECT_EQ(util::read_file(path, "test file"), bytes);
  // A second write truncates: no tail of the longer first file survives.
  util::write_file(path, "short", "test file");
  EXPECT_EQ(util::read_file(path, "test file"), "short");
}

TEST(FileIoTest, EmptyFileReadsAsEmpty) {
  const TempDir dir;
  const std::string path = (dir.path() / "empty").string();
  util::write_file(path, "", "test file");
  ASSERT_TRUE(fs::is_regular_file(path));
  EXPECT_EQ(util::read_file(path, "test file"), "");
}

TEST(FileIoTest, FifoWithAWriterReadsToEof) {
  const TempDir dir;
  const std::string path = (dir.path() / "fifo").string();
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // More than a pipe buffer, so the reader sees many short reads.
  const std::string bytes(300 * 1024, 'f');
  std::string writer_error;
  std::thread writer([&] {
    try {
      util::write_file(path, bytes, "test fifo");
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  });
  const std::string read = util::read_file(path, "test fifo");
  writer.join();
  EXPECT_EQ(writer_error, "");
  EXPECT_EQ(read, bytes);
}

TEST(FileIoTest, MissingAndDirectoryPathsNameThePathAndTheReason) {
  const TempDir dir;
  const std::string missing = (dir.path() / "missing").string();
  try {
    (void)util::read_file(missing, "fault schedule file");
    FAIL() << "a missing file was read";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.diagnostic(), "cannot open fault schedule file " + missing +
                                  ": No such file or directory");
  }
  try {
    (void)util::read_file(dir.path().string(), "endpoint map");
    FAIL() << "a directory was read";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.diagnostic(), "cannot read endpoint map " +
                                  dir.path().string() + ": Is a directory");
  }
}

}  // namespace
}  // namespace cdn
