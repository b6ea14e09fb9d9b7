// Small string utilities shared by the text-protocol parsers (SIP, SDP, ACC).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scidive::str {

// The text protocols are ASCII: whitespace and letter case are classified
// inline by byte value, the same in every locale (and without the libc
// call per byte that <cctype> costs on the SIP hot path).

/// SP, HTAB, LF, VT, FF, CR — what std::isspace accepts in the C locale.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

constexpr bool is_alnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Remove leading and trailing ASCII whitespace.
inline std::string_view trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII comparison.
inline bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

/// Case-insensitive prefix test.
inline bool istarts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && iequals(s.substr(0, prefix.size()), prefix);
}

/// Index of the first `needle` byte at or after `from`; npos when absent.
/// 16-bytes-per-iteration SSE2 scan (SWAR fallback elsewhere) — the SIP
/// parser's CRLF and colon scans, split() and split_once() all route
/// through this, so header-heavy messages are scanned a cache line at a
/// time instead of byte-by-byte.
size_t find_byte(std::string_view s, char needle, size_t from = 0);

/// Index of the first "\r\n" at or after `from`; npos when absent.
size_t find_crlf(std::string_view s, size_t from = 0);

/// Index of the first `needle` byte at or after `from` that is outside a
/// double-quoted string; npos when absent. Inside quotes a backslash
/// escapes the next byte (RFC 3261 quoted-pair), so `"a\"<b"` hides its `<`.
/// The SIP readers use it where a quoted display name or digest parameter
/// may contain the separator they split on.
size_t find_unquoted(std::string_view s, char needle, size_t from = 0);

/// Split on a separator character. Empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Split on the first occurrence of sep. Returns nullopt if sep is absent.
std::optional<std::pair<std::string_view, std::string_view>> split_once(std::string_view s,
                                                                        char sep);

/// Strict non-negative decimal parse; rejects empty/overflow/trailing junk.
inline std::optional<uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    // Overflow, tested against constants (no division per digit).
    if (v > UINT64_MAX / 10 || (v == UINT64_MAX / 10 && digit > UINT64_MAX % 10))
      return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

inline std::optional<uint32_t> parse_u32(std::string_view s) {
  auto v = parse_u64(s);
  if (!v || *v > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(*v);
}

inline std::optional<uint16_t> parse_u16(std::string_view s) {
  auto v = parse_u64(s);
  if (!v || *v > UINT16_MAX) return std::nullopt;
  return static_cast<uint16_t>(*v);
}

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace scidive::str
