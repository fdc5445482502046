#include "src/util/text_parse.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/util/error.h"

namespace cdn::util {

namespace {

[[noreturn]] void fail(const std::string& where, const char* expected,
                       std::string_view token) {
  CDN_EXPECT(false, where + ": expected " + expected + " (got '" +
                        std::string(token) + "')");
  std::abort();  // unreachable; CDN_EXPECT(false, ...) always throws
}

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// The scanners return what the token failed to be, or nullptr on success.

const char* scan_u64(std::string_view token, std::uint64_t& value) {
  // Pure decimal digits only: no whitespace, no sign (strtoull would wrap
  // negatives), no prefix, no trailing junk.
  if (token.empty()) return "an unsigned integer";
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  bool overflow = false;
  for (const char c : token) {
    if (c < '0' || c > '9') return "an unsigned integer";
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - digit) / 10) overflow = true;
    v = v * 10 + digit;
  }
  if (overflow) return "an unsigned integer in range";
  value = v;
  return nullptr;
}

const char* scan_u32(std::string_view token, std::uint32_t& value) {
  std::uint64_t wide = 0;
  if (const char* err = scan_u64(token, wide)) return err;
  if (wide > std::numeric_limits<std::uint32_t>::max()) {
    return "an unsigned 32-bit integer";
  }
  value = static_cast<std::uint32_t>(wide);
  return nullptr;
}

const char* scan_finite(std::string_view token, double& value) {
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0]))) {
    return "a finite number";
  }
  const std::string text(token);  // strtod needs a terminated string
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size() ||
      !std::isfinite(v)) {
    return "a finite number";
  }
  value = v;
  return nullptr;
}

}  // namespace

std::uint32_t parse_u32_token(std::string_view token,
                              const std::string& where) {
  std::uint32_t value = 0;
  if (const char* err = scan_u32(token, value)) fail(where, err, token);
  return value;
}

std::string_view strip_eol(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  return line;
}

std::size_t LineTokens::next_start() const {
  std::size_t p = pos_;
  while (p < line_.size() && is_space(line_[p])) ++p;
  return p;
}

std::string LineTokens::location(std::size_t pos) const {
  return std::string(what_) + " line " + std::to_string(line_no_) +
         ", col " + std::to_string(text_column(std::min(pos, line_.size())));
}

std::string_view LineTokens::expect(const char* what) {
  const std::size_t start = next_start();
  CDN_EXPECT(start < line_.size(),
             where() + ": expected " + what + ", but the line ended");
  std::size_t end = start;
  while (end < line_.size() && !is_space(line_[end])) ++end;
  last_start_ = start;
  pos_ = end;
  return line_.substr(start, end - start);
}

std::uint32_t LineTokens::u32(const char* what) {
  const std::string_view token = expect(what);
  std::uint32_t value = 0;
  if (const char* err = scan_u32(token, value)) fail(last_where(), err, token);
  return value;
}

std::uint64_t LineTokens::u64(const char* what) {
  const std::string_view token = expect(what);
  std::uint64_t value = 0;
  if (const char* err = scan_u64(token, value)) fail(last_where(), err, token);
  return value;
}

double LineTokens::finite(const char* what) {
  const std::string_view token = expect(what);
  double value = 0.0;
  if (const char* err = scan_finite(token, value)) {
    fail(last_where(), err, token);
  }
  return value;
}

void LineTokens::literal(const char* word) {
  const std::string_view tok = expect(word);
  CDN_EXPECT(tok == word, last_where() + ": expected '" + word +
                              "' (got '" + std::string(tok) + "')");
}

void LineTokens::done() const {
  const std::size_t start = next_start();
  CDN_EXPECT(at_end(),
             where() + ": unexpected trailing token '" +
                 std::string(line_.substr(
                     start, line_.find_first_of(" \t", start) - start)) +
                 "'");
}

}  // namespace cdn::util
