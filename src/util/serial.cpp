#include "src/util/serial.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace cdn::util {

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

/// Throws for the failed `verb` on `path` with errno's reason.
[[noreturn]] void io_failure(const char* verb, std::string_view what,
                             const std::string& path) {
  const int err = errno;  // before anything below can overwrite it
  CDN_EXPECT(false, "cannot " + std::string(verb) + ' ' + std::string(what) +
                        ' ' + path + ": " + std::strerror(err));
}

/// Opens `path` and closes it on every way out, exceptions included.
struct File {
  File(const std::string& path, int flags, std::string_view what) {
    while ((fd = ::open(path.c_str(), flags | O_CLOEXEC, 0666)) < 0) {
      if (errno != EINTR) io_failure("open", what, path);
    }
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() { if (fd >= 0) ::close(fd); }
  int fd = -1;
};

}  // namespace

std::string read_file(const std::string& path, std::string_view what) {
  const File file(path, O_RDONLY, what);
  std::string bytes;
  char chunk[64 * 1024];
  for (ssize_t n; (n = ::read(file.fd, chunk, sizeof(chunk))) != 0;) {
    if (n > 0) {
      bytes.append(chunk, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      io_failure("read", what, path);  // EISDIR for a directory
    }
  }
  return bytes;
}

void write_file(const std::string& path, std::string_view bytes,
                std::string_view what) {
  File file(path, O_WRONLY | O_CREAT | O_TRUNC, what);
  while (!bytes.empty()) {
    const ssize_t n = ::write(file.fd, bytes.data(), bytes.size());
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      if (n == 0) errno = EIO;  // no progress
      io_failure("write", what, path);
    }
  }
  // Delayed allocation and network filesystems report a full disk here.
  const int fd = std::exchange(file.fd, -1);
  if (::close(fd) != 0) io_failure("close", what, path);
}

}  // namespace cdn::util
