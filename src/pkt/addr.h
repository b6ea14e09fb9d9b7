// IPv4 addresses, transport endpoints and flow keys.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/strings.h"

namespace scidive::pkt {

/// An IPv4 address stored host-order for arithmetic, rendered dotted-quad.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(uint32_t value) : value_(value) {}
  constexpr Ipv4Address(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : value_(static_cast<uint32_t>(a) << 24 | static_cast<uint32_t>(b) << 16 |
               static_cast<uint32_t>(c) << 8 | d) {}

  /// Dotted quad: exactly four '.'-separated, non-empty runs of decimal
  /// digits, each worth at most 255 (leading zeros allowed). Allocates
  /// nothing (the SIP scanner reads SDP and Contact addresses with it).
  static std::optional<Ipv4Address> parse(std::string_view s) {
    uint32_t v = 0;
    size_t i = 0;
    for (int octets = 1;; ++octets) {
      const size_t start = i;
      uint32_t octet = 0;
      for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
        octet = octet * 10 + static_cast<uint32_t>(s[i] - '0');
        if (octet > 255) return std::nullopt;
      }
      if (i == start) return std::nullopt;
      v = (v << 8) | octet;
      if (octets == 4) {
        if (i != s.size()) return std::nullopt;
        return Ipv4Address(v);
      }
      if (i == s.size() || s[i] != '.') return std::nullopt;
      ++i;
    }
  }

  constexpr uint32_t value() const { return value_; }
  constexpr bool is_unspecified() const { return value_ == 0; }

  std::string to_string() const {
    return str::format("%u.%u.%u.%u", value_ >> 24, (value_ >> 16) & 0xff, (value_ >> 8) & 0xff,
                       value_ & 0xff);
  }

  auto operator<=>(const Ipv4Address&) const = default;

 private:
  uint32_t value_ = 0;
};

/// addr:port pair.
struct Endpoint {
  Ipv4Address addr;
  uint16_t port = 0;

  std::string to_string() const { return str::format("%s:%u", addr.to_string().c_str(), port); }
  auto operator<=>(const Endpoint&) const = default;
};

/// Transport 5-tuple identifying a flow (directional).
struct FlowKey {
  Ipv4Address src;
  Ipv4Address dst;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;  // IP protocol number

  auto operator<=>(const FlowKey&) const = default;

  FlowKey reversed() const { return {dst, src, dst_port, src_port, protocol}; }

  std::string to_string() const {
    return str::format("%s:%u->%s:%u/%u", src.to_string().c_str(), src_port,
                       dst.to_string().c_str(), dst_port, protocol);
  }
};

}  // namespace scidive::pkt

template <>
struct std::hash<scidive::pkt::Ipv4Address> {
  size_t operator()(const scidive::pkt::Ipv4Address& a) const noexcept {
    return std::hash<uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<scidive::pkt::Endpoint> {
  size_t operator()(const scidive::pkt::Endpoint& e) const noexcept {
    return std::hash<uint64_t>{}(static_cast<uint64_t>(e.addr.value()) << 16 | e.port);
  }
};

template <>
struct std::hash<scidive::pkt::FlowKey> {
  size_t operator()(const scidive::pkt::FlowKey& k) const noexcept {
    uint64_t a = static_cast<uint64_t>(k.src.value()) << 32 | k.dst.value();
    uint64_t b = static_cast<uint64_t>(k.src_port) << 32 | static_cast<uint64_t>(k.dst_port) << 8 |
                 k.protocol;
    return std::hash<uint64_t>{}(a * 0x9e3779b97f4a7c15ULL ^ b);
  }
};
