#include "pkt/addr.h"

#include <gtest/gtest.h>

#include "pkt/ipv4.h"

#include <unordered_set>

namespace scidive::pkt {
namespace {

TEST(Ipv4Address, ParseValid) {
  auto a = Ipv4Address::parse("192.168.1.10");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0xc0a8010au);
  EXPECT_EQ(a->to_string(), "192.168.1.10");
}

TEST(Ipv4Address, ParseEdges) {
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255")->value(), 0xffffffffu);
}

TEST(Ipv4Address, ParseInvalid) {
  EXPECT_FALSE(Ipv4Address::parse(""));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.256"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.x"));
  EXPECT_FALSE(Ipv4Address::parse("1..3.4"));
}

TEST(Ipv4Address, ParseAgreesWithSplitReference) {
  // The parser scans in place; it must accept exactly what splitting on
  // '.' into four decimal fields of at most 255 accepts.
  auto reference = [](std::string_view s) -> std::optional<uint32_t> {
    auto parts = str::split(s, '.');
    if (parts.size() != 4) return std::nullopt;
    uint32_t v = 0;
    for (auto part : parts) {
      auto octet = str::parse_u32(part);
      if (!octet || *octet > 255) return std::nullopt;
      v = (v << 8) | *octet;
    }
    return v;
  };
  std::vector<std::string> inputs = {"1.2.3.4.",         ".1.2.3",
                                     "1.2.3.4 ",         " 1.2.3.4",
                                     "01.002.0003.255",  "0000000000255.0.0.0",
                                     "1.2.3.-4",         "1.2.3.+4",
                                     "4294967296.0.0.0", "..."};
  // Three to five fields drawn from valid and invalid octet spellings.
  const std::vector<std::string> fields = {"0", "7", "255", "010", "256", "0000000255", "",
                                           "x", " 1", "1 ", "-1", "4294967296", "99", "1.5"};
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state](size_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>(state >> 33) % n;
  };
  for (int i = 0; i < 20000; ++i) {
    const size_t count = 3 + next(3);
    std::string s;
    for (size_t k = 0; k < count; ++k) {
      if (k > 0) s += '.';
      s += fields[next(next(2) == 0 ? 4 : fields.size())];  // half from the first four, all valid
    }
    inputs.push_back(s);
  }
  size_t accepted = 0;
  for (const std::string& s : inputs) {
    auto got = Ipv4Address::parse(s);
    auto want = reference(s);
    ASSERT_EQ(got.has_value(), want.has_value()) << s;
    if (got) {
      EXPECT_EQ(got->value(), *want) << s;
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 100u);
}

TEST(Ipv4Address, OctetConstructor) {
  Ipv4Address a(10, 0, 0, 1);
  EXPECT_EQ(a.to_string(), "10.0.0.1");
  EXPECT_FALSE(a.is_unspecified());
  EXPECT_TRUE(Ipv4Address().is_unspecified());
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(Ipv4Address(10, 0, 0, 1), *Ipv4Address::parse("10.0.0.1"));
}

TEST(Endpoint, FormatAndCompare) {
  Endpoint e{Ipv4Address(10, 0, 0, 1), 5060};
  EXPECT_EQ(e.to_string(), "10.0.0.1:5060");
  Endpoint f{Ipv4Address(10, 0, 0, 1), 5061};
  EXPECT_NE(e, f);
  EXPECT_LT(e, f);
}

TEST(FlowKey, ReversedSwapsDirections) {
  FlowKey k{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 100, 200, kProtoUdp};
  FlowKey r = k.reversed();
  EXPECT_EQ(r.src, k.dst);
  EXPECT_EQ(r.src_port, k.dst_port);
  EXPECT_EQ(r.reversed(), k);
}

TEST(FlowKey, HashDistinguishesDirections) {
  FlowKey k{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 100, 200, kProtoUdp};
  std::unordered_set<FlowKey> set;
  set.insert(k);
  set.insert(k.reversed());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(k));
}

TEST(FlowKey, ToStringMentionsBothEndpoints) {
  FlowKey k{Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 10, 20, kProtoUdp};
  auto s = k.to_string();
  EXPECT_NE(s.find("1.2.3.4:10"), std::string::npos);
  EXPECT_NE(s.find("5.6.7.8:20"), std::string::npos);
}

}  // namespace
}  // namespace scidive::pkt
