// Error handling primitives for hybridcdn.
//
// The library follows the C++ Core Guidelines convention of throwing on
// precondition violations in API boundaries (I.5/I.6 via CDN_EXPECT) and
// aborting on internal invariant corruption in debug builds (CDN_DCHECK).

#pragma once

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cdn {

/// Exception thrown when a caller violates a documented precondition.
/// what() names the failed check and where it sits, for logs and the CLI;
/// diagnostic() is the message alone, for answers sent over a socket.
class PreconditionError : public std::invalid_argument {
 public:
  explicit PreconditionError(const std::string& what)
      : PreconditionError(what, what) {}
  PreconditionError(const std::string& what, const std::string& diagnostic)
      : std::invalid_argument(what),
        diagnostic_(std::make_shared<const std::string>(diagnostic)) {}

  const std::string& diagnostic() const noexcept { return *diagnostic_; }

 private:
  std::shared_ptr<const std::string> diagnostic_;  // copies never throw
};

/// Exception thrown when an internal invariant fails at runtime in a way
/// that cannot be attributed to caller input (e.g. numeric breakdown).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(
      os.str(), msg.empty() ? "precondition failed: " + std::string(expr) : msg);
}

[[noreturn]] inline void throw_internal(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  std::ostringstream os;
  os << "internal invariant failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail

/// Validate a documented precondition on caller input; throws
/// cdn::PreconditionError when violated. Always on, also in release builds:
/// all uses are O(1) checks at API boundaries.
#define CDN_EXPECT(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::cdn::detail::throw_precondition(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                      \
  } while (0)

/// Validate an internal invariant; throws cdn::InternalError when violated.
#define CDN_CHECK(cond, msg)                                           \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::cdn::detail::throw_internal(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                  \
  } while (0)

#ifndef NDEBUG
/// Debug-only invariant check for hot paths (compiled out in release).
#define CDN_DCHECK(cond, msg) CDN_CHECK(cond, msg)
#else
#define CDN_DCHECK(cond, msg) \
  do {                        \
  } while (0)
#endif

}  // namespace cdn
