#include "common/strings.h"

#include <bit>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace scidive::str {

namespace {
constexpr size_t npos = std::string_view::npos;
}  // namespace

size_t find_byte(std::string_view s, char needle, size_t from) {
  const char* data = s.data();
  const size_t n = s.size();
  size_t i = from;
#if defined(__SSE2__)
  const __m128i pat = _mm_set1_epi8(needle);
  for (; i + 16 <= n; i += 16) {
    const __m128i chunk = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(chunk, pat)));
    if (mask != 0) return i + static_cast<size_t>(std::countr_zero(mask));
  }
#else
  // SWAR: a lane is 0x80 iff its byte equalled the needle (the classic
  // haszero(x ^ pat) trick), and the lowest set bit indexes the first hit.
  const uint64_t pat = 0x0101010101010101ULL * static_cast<uint8_t>(needle);
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    const uint64_t x = word ^ pat;
    const uint64_t hit = (x - 0x0101010101010101ULL) & ~x & 0x8080808080808080ULL;
    if (hit != 0) return i + static_cast<size_t>(std::countr_zero(hit)) / 8;
  }
#endif
  for (; i < n; ++i) {
    if (data[i] == needle) return i;
  }
  return npos;
}

size_t find_crlf(std::string_view s, size_t from) {
  size_t i = from;
  for (;;) {
    const size_t r = find_byte(s, '\r', i);
    if (r == npos || r + 1 >= s.size()) return npos;
    if (s[r + 1] == '\n') return r;
    i = r + 1;  // lone CR: keep scanning
  }
}

size_t find_unquoted(std::string_view s, char needle, size_t from) {
  bool quoted = false;
  for (size_t i = from; i < s.size(); ++i) {
    const char c = s[i];
    if (quoted) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == needle) {
      return i;
    }
  }
  return npos;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (;;) {
    const size_t pos = find_byte(s, sep, start);
    if (pos == npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<std::pair<std::string_view, std::string_view>> split_once(std::string_view s,
                                                                        char sep) {
  size_t pos = find_byte(s, sep);
  if (pos == npos) return std::nullopt;
  return std::make_pair(s.substr(0, pos), s.substr(pos + 1));
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

}  // namespace scidive::str
