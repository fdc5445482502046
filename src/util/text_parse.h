// Strict token-level parsing of untrusted text inputs (fault schedules,
// placement files, endpoint maps, redirector and control lines, CSV
// traces).  Every function consumes exactly one whole token or throws
// PreconditionError with a location prefix and the offending token quoted
// — no silent wrap-around of negative numbers, no NaN/Inf smuggled through
// operator>>, no partially-consumed garbage.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cdn::util {

/// Parses `token` as a full unsigned 32-bit decimal integer.  Rejects
/// empty tokens, signs, hex/octal prefixes doing anything, trailing junk
/// and out-of-range values.  `where` prefixes the error, e.g.
/// "trace CSV line 3, col 8".
std::uint32_t parse_u32_token(std::string_view token,
                              const std::string& where);

/// 1-based column of `pos` within a line (for error messages).
inline std::size_t text_column(std::size_t pos) { return pos + 1; }

/// `line` without its trailing '\n' / '\r' characters.
std::string_view strip_eol(std::string_view line);

/// Whitespace tokenizer over one line of a text format.  Tokens are split
/// on ' ', '\t' and '\r'; every error names "<what> line <n>, col <c>".
/// The location string is built only on an error or when a caller asks
/// for one, so tokenizing a valid line allocates nothing.
class LineTokens {
 public:
  /// `line` and `what` must outlive the tokenizer.
  LineTokens(std::string_view line, std::string_view what,
             std::size_t line_no)
      : line_(line), what_(what), line_no_(line_no) {}

  /// Location of the most recently consumed token.
  std::string last_where() const { return location(last_start_); }

  bool at_end() const { return next_start() >= line_.size(); }

  /// The next token; throws when the line has ended.  `what` names the
  /// expected token in that error.
  std::string_view expect(const char* what);
  /// The next token as an unsigned decimal integer, under the rules of
  /// parse_u32_token.
  std::uint32_t u32(const char* what);
  std::uint64_t u64(const char* what);
  /// The next token as a finite double (scientific notation allowed; NaN,
  /// Inf and overflow rejected).
  double finite(const char* what);
  /// Consumes the token `word` or throws naming the token it got.
  void literal(const char* word);
  /// Throws naming the first unconsumed token unless the line is used up.
  void done() const;

 private:
  std::size_t next_start() const;
  std::string location(std::size_t pos) const;
  /// Location of the next token (or of the end of the line).
  std::string where() const { return location(next_start()); }

  std::string_view line_;
  std::string_view what_;
  std::size_t line_no_;
  std::size_t pos_ = 0;
  std::size_t last_start_ = 0;
};

}  // namespace cdn::util
