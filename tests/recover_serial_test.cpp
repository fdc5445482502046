// Unit tests of the serialisation primitives and the checkpoint file
// format: roundtrips, atomic writes, and rejection of every corruption
// mode (truncation, bit flips, bad magic, bad version, trailing bytes).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/recover/checkpoint.h"
#include "src/util/error.h"
#include "src/util/serial.h"

namespace {

using namespace cdn;

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hybridcdn_recover_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

recover::Checkpoint sample_checkpoint() {
  recover::Checkpoint ckpt;
  ckpt.fingerprint = {{"config", 0x1111u}, {"system", 0x2222u}};
  util::ByteWriter w;
  w.u64(123456789u);
  w.f64(3.25);
  w.str("payload");
  ckpt.payload = w.buffer();
  return ckpt;
}

TEST(ByteCodecTest, RoundTripsEveryPrimitive) {
  util::ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(-0.0);
  w.f64(1e300);
  w.str("hello");
  w.str("");

  util::ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xabu);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // exact bit pattern survives
  EXPECT_EQ(r.f64(), 1e300);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(ByteCodecTest, ReaderRejectsTruncatedInput) {
  util::ByteWriter w;
  w.u64(7);
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes.pop_back();
  util::ByteReader r(bytes);
  EXPECT_THROW(r.u64(), PreconditionError);
}

TEST(ByteCodecTest, ReaderRejectsOverlongStringLength) {
  util::ByteWriter w;
  w.u64(1u << 30);  // claims a gigabyte of string, provides none
  util::ByteReader r(w.buffer());
  EXPECT_THROW(r.str(), PreconditionError);
}

TEST(ByteCodecTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of "a" from the reference specification.
  const char a = 'a';
  EXPECT_EQ(util::fnv1a(&a, 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a("", 0), 0xcbf29ce484222325ull);
}

TEST_F(CheckpointFileTest, RoundTripsFingerprintAndPayload) {
  const auto ckpt = sample_checkpoint();
  const std::uint64_t size = recover::write_file(path("ck.bin"), ckpt);
  EXPECT_EQ(size, std::filesystem::file_size(path("ck.bin")));

  const auto loaded = recover::read_file(path("ck.bin"));
  EXPECT_EQ(loaded.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(loaded.payload, ckpt.payload);
}

TEST_F(CheckpointFileTest, WriteLeavesNoTempFileBehind) {
  recover::write_file(path("ck.bin"), sample_checkpoint());
  EXPECT_TRUE(std::filesystem::exists(path("ck.bin")));
  EXPECT_FALSE(std::filesystem::exists(path("ck.bin") + ".tmp"));
}

TEST_F(CheckpointFileTest, RewriteReplacesAtomically) {
  auto ckpt = sample_checkpoint();
  recover::write_file(path("ck.bin"), ckpt);
  ckpt.payload.push_back(0x5a);
  recover::write_file(path("ck.bin"), ckpt);
  const auto loaded = recover::read_file(path("ck.bin"));
  EXPECT_EQ(loaded.payload, ckpt.payload);
}

// Publishing renames over the target, so a target that is not a regular
// file is refused before anything is written: it stays what it was, a
// symlink's own target keeps its bytes, and no temp file is left behind.
TEST_F(CheckpointFileTest, NonRegularTargetIsRefused) {
  ASSERT_EQ(::mkfifo(path("fifo").c_str(), 0600), 0);
  recover::write_file(path("real.bin"), sample_checkpoint());
  std::filesystem::create_symlink(path("real.bin"), path("link"));
  const std::string real = util::read_file(path("real.bin"), "checkpoint");
  auto other = sample_checkpoint();
  other.payload.push_back(0x5a);

  const struct {
    const char* name;
    std::filesystem::file_type type;
  } rows[] = {
      {"fifo", std::filesystem::file_type::fifo},
      {"link", std::filesystem::file_type::symlink},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string target = path(row.name);
    try {
      recover::write_file(target, other);
      ADD_FAILURE() << "published over a non-regular target";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(target), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(std::filesystem::symlink_status(target).type(), row.type);
    EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  }
  EXPECT_EQ(util::read_file(path("real.bin"), "checkpoint"), real);
}

TEST_F(CheckpointFileTest, MissingFileRejected) {
  EXPECT_THROW(recover::read_file(path("absent.bin")), PreconditionError);
}

TEST_F(CheckpointFileTest, EveryTruncationRejected) {
  recover::write_file(path("ck.bin"), sample_checkpoint());
  std::ifstream in(path("ck.bin"), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Cutting the file at any length, including zero, must be rejected.
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::ofstream out(path("cut.bin"), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_THROW(recover::read_file(path("cut.bin")), PreconditionError)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST_F(CheckpointFileTest, EveryBitFlipRejected) {
  recover::write_file(path("ck.bin"), sample_checkpoint());
  std::ifstream in(path("ck.bin"), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    auto flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x40);
    std::ofstream out(path("flip.bin"), std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    out.close();
    EXPECT_THROW(recover::read_file(path("flip.bin")), PreconditionError)
        << "flipped byte " << i;
  }
}

TEST_F(CheckpointFileTest, TrailingBytesRejected) {
  recover::write_file(path("ck.bin"), sample_checkpoint());
  std::ofstream out(path("ck.bin"),
                    std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  EXPECT_THROW(recover::read_file(path("ck.bin")), PreconditionError);
}

TEST_F(CheckpointFileTest, ForeignFileRejected) {
  std::ofstream(path("junk.bin"), std::ios::binary)
      << "this is not a checkpoint, but it is long enough to have a header";
  EXPECT_THROW(recover::read_file(path("junk.bin")), PreconditionError);
}

TEST_F(CheckpointFileTest, FingerprintMismatchNamesTheSections) {
  const auto ckpt = sample_checkpoint();
  recover::write_file(path("ck.bin"), ckpt);
  const auto loaded = recover::read_file(path("ck.bin"));

  // Identical fingerprint passes.
  EXPECT_NO_THROW(recover::check_fingerprint(loaded, ckpt.fingerprint));

  // A changed hash names the changed section.
  try {
    recover::check_fingerprint(loaded, {{"config", 0x9999u},
                                        {"system", 0x2222u}});
    FAIL() << "mismatch not detected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("config"), std::string::npos);
    EXPECT_EQ(std::string(e.what()).find("system"), std::string::npos);
  }

  // A section the run expects but the file lacks is named too.
  try {
    recover::check_fingerprint(
        loaded,
        {{"config", 0x1111u}, {"system", 0x2222u}, {"faults", 0x3333u}});
    FAIL() << "missing section not detected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("faults"), std::string::npos);
  }
}

TEST(InterruptedTest, CarriesIndexAndPath) {
  const recover::Interrupted e(42, "ck.bin");
  EXPECT_EQ(e.request_index(), 42u);
  EXPECT_EQ(e.checkpoint_path(), "ck.bin");
  EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
  EXPECT_EQ(recover::kInterruptedExitCode, 75);
}

}  // namespace
