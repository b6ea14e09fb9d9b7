#include "common/strings.h"

#include <gtest/gtest.h>

namespace scidive::str {
namespace {

TEST(Trim, StripsWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("Hello World 123"), "hello world 123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("abc", "abcd"));
  EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(IStartsWith, Prefixes) {
  EXPECT_TRUE(istarts_with("SIP/2.0 200 OK", "sip/2.0"));
  EXPECT_FALSE(istarts_with("SIP", "SIP/2.0"));
  EXPECT_TRUE(istarts_with("anything", ""));
}

TEST(Split, PreservesEmptyFields) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Split, SingleField) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, LeadingAndTrailingSeparators) {
  auto parts = split(",a,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(SplitOnce, FirstOccurrence) {
  auto p = split_once("Via: SIP/2.0/UDP host", ':');
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, "Via");
  EXPECT_EQ(p->second, " SIP/2.0/UDP host");
  EXPECT_FALSE(split_once("no-separator", ':').has_value());
}

TEST(ParseU64, StrictDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("12345"), 12345u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12a"));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64(" 1"));
}

TEST(ParseU16, RangeChecked) {
  EXPECT_EQ(parse_u16("65535"), 65535);
  EXPECT_FALSE(parse_u16("65536"));
}

TEST(ParseU32, RangeChecked) {
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_u32("4294967296"));
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(FindByte, MatchesNaiveScanAtEveryLengthAndPosition) {
  // Cross the 16-byte SIMD block boundary in every phase: needle in the
  // vector body, in the scalar tail, absent, at position 0, repeated.
  for (size_t len = 0; len < 50; ++len) {
    std::string s(len, 'a');
    EXPECT_EQ(find_byte(s, 'x'), std::string_view::npos) << len;
    for (size_t pos = 0; pos < len; ++pos) {
      std::string t = s;
      t[pos] = 'x';
      EXPECT_EQ(find_byte(t, 'x'), pos) << len << "/" << pos;
      t[len - 1] = 'x';  // a later duplicate must not win
      EXPECT_EQ(find_byte(t, 'x'), pos) << len << "/" << pos;
    }
  }
}

TEST(FindByte, HonorsFromOffset) {
  std::string s = "a:bb:ccc:dddd:eeee:ffff:gggg:hhhh";
  EXPECT_EQ(find_byte(s, ':'), 1u);
  EXPECT_EQ(find_byte(s, ':', 2), 4u);
  EXPECT_EQ(find_byte(s, ':', 5), 8u);
  EXPECT_EQ(find_byte(s, ':', s.size()), std::string_view::npos);
}

TEST(FindCrlf, SkipsLoneCrAndBareLf) {
  EXPECT_EQ(find_crlf("abc\r\ndef"), 3u);
  EXPECT_EQ(find_crlf("abc\rdef\r\n"), 7u);
  EXPECT_EQ(find_crlf("abc\ndef"), std::string_view::npos);
  EXPECT_EQ(find_crlf("no line ending at all, longer than one simd block"),
            std::string_view::npos);
  EXPECT_EQ(find_crlf("trailing cr only\r"), std::string_view::npos);
  EXPECT_EQ(find_crlf("\r\n"), 0u);
  EXPECT_EQ(find_crlf("a\r\nb\r\nc", 2), 4u);
}

TEST(FindUnquoted, SkipsQuotedStringsAndEscapes) {
  EXPECT_EQ(find_unquoted("a,b", ','), 1u);
  EXPECT_EQ(find_unquoted("uri=\"x,y\", r=1", ','), 9u);
  EXPECT_EQ(find_unquoted("\"a<b\" <sip:x>", '<'), 6u);
  // An escaped quote does not close the string.
  EXPECT_EQ(find_unquoted("\"a\\\"<b\" <c>", '<'), 8u);
  EXPECT_EQ(find_unquoted("\"unterminated, still quoted", ','), std::string_view::npos);
  EXPECT_EQ(find_unquoted("a,b,c", ',', 2), 3u);
}

TEST(Split, LongInputCrossesSimdBlocks) {
  std::string s;
  for (int i = 0; i < 40; ++i) s += "field" + std::to_string(i) + ",";
  auto parts = split(s, ',');
  ASSERT_EQ(parts.size(), 41u);  // trailing empty field preserved
  EXPECT_EQ(parts[0], "field0");
  EXPECT_EQ(parts[39], "field39");
  EXPECT_EQ(parts[40], "");
}

}  // namespace
}  // namespace scidive::str
