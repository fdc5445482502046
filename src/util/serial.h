// Bounds-checked binary (de)serialisation primitives for crash-safe state
// snapshots (src/recover) and the trace formats, and checked file I/O.
//
// ByteWriter appends little-endian fixed-width fields to a growable buffer;
// ByteReader walks a read-only view of such a buffer and throws
// PreconditionError — never reads out of bounds, never crashes — when the
// data is truncated or a declared length exceeds what is actually there.
// Both are deliberately dumb: framing, versioning and checksums live in the
// layers above (src/recover/checkpoint.h, workload/trace_io.cpp).

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace cdn::util {

/// FNV-1a over a byte range; `seed` chains incremental runs.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

/// The whole of `path` read to EOF, FIFOs and devices too.  A failed open
/// or read (a directory reads as EISDIR) throws PreconditionError naming
/// `what` (the file's role), the path and the OS reason.
std::string read_file(const std::string& path, std::string_view what);

/// Creates or truncates `path` (mode 0666 under the umask) and writes
/// `bytes`; a failed open, a short or failed write, or an error at close
/// (a full disk) throws like read_file, so no output is lost silently.
void write_file(const std::string& path, std::string_view bytes,
                std::string_view what);

/// Append-only little-endian buffer writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw_int(v); }
  void u64(std::uint64_t v) { raw_int(v); }
  void i64(std::int64_t v) { raw_int(static_cast<std::uint64_t>(v)); }
  /// Doubles travel as their exact bit pattern — round-trips are identity.
  void f64(double v) { raw_int(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void raw(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + bytes);
  }

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::string_view bytes() const noexcept {
    return {reinterpret_cast<const char*>(buf_.data()), buf_.size()};
  }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void raw_int(T v) {
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    raw(bytes, sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a serialized byte range (non-owning).  Every
/// read validates the remaining length first and throws PreconditionError
/// on truncation, so corrupt or hostile inputs produce a clean error.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(std::string_view bytes)
      : data_(reinterpret_cast<const std::uint8_t*>(bytes.data()),
              bytes.size()) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() { return read_int<std::uint32_t>("u32"); }
  std::uint64_t u64() { return read_int<std::uint64_t>("u64"); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(read_int<std::uint64_t>("f64")); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n, "string body");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  void raw(void* out, std::size_t bytes) {
    need(bytes, "raw bytes");
    if (bytes == 0) return;  // `out` may be an empty vector's null data()
    std::memcpy(out, data_.data() + pos_, bytes);
    pos_ += bytes;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }

  /// Validates that `n` more bytes exist (used before bulk reads whose size
  /// comes from the data itself, e.g. `count * record_size`).
  void need(std::uint64_t n, const char* what) const {
    CDN_EXPECT(n <= remaining(),
               "serialized data truncated: need " + std::to_string(n) +
                   " bytes for " + what + " at offset " +
                   std::to_string(pos_) + ", only " +
                   std::to_string(remaining()) + " left");
  }

 private:
  template <typename T>
  T read_int(const char* what) {
    need(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cdn::util
