#include "common/bytes.h"

#include <bit>
#include <cstring>

namespace scidive {

std::string to_hex(std::span<const uint8_t> data) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(data.size() * 2);
  for (uint8_t b : data) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

Bytes from_string(std::string_view s) {
  return Bytes(reinterpret_cast<const uint8_t*>(s.data()),
               reinterpret_cast<const uint8_t*>(s.data()) + s.size());
}

std::string to_string_view_copy(std::span<const uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

uint16_t internet_checksum(std::span<const uint8_t> data, uint32_t initial) {
  // RFC 1071 §2(B): the one's-complement sum does not depend on byte order,
  // so sum native 32-bit words into a 64-bit accumulator (no carry can be
  // lost below 2^32 words), fold, and swap into network order once. Two
  // words come from each 8-byte load.
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t sum = 0;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t pair;
    std::memcpy(&pair, p, 8);
    sum += (pair & 0xffffffff) + (pair >> 32);
  }
  if (n >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    sum += word;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    uint16_t half;
    std::memcpy(&half, p, 2);
    sum += half;
    p += 2;
    n -= 2;
  }
  // An odd tail byte is the high byte of a zero-padded network-order word.
  if (n != 0) sum += std::endian::native == std::endian::little ? p[0] : uint32_t{p[0]} << 8;
  auto fold = [](uint64_t s) {
    while (s >> 16) s = (s & 0xffff) + (s >> 16);
    return static_cast<uint16_t>(s);
  };
  uint16_t folded = fold(sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<uint16_t>(folded << 8 | folded >> 8);
  }
  return static_cast<uint16_t>(~fold(uint64_t{folded} + initial));
}

}  // namespace scidive
