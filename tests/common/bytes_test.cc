#include "common/bytes.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scidive {
namespace {

TEST(BufWriter, WritesBigEndian) {
  BufWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  Bytes expected = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                    0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  EXPECT_EQ(w.data(), expected);
}

TEST(BufReader, ReadsBackWhatWriterWrote) {
  BufWriter w;
  w.u8(0xab);
  w.u16(0xcdef);
  w.u32(0x12345678);
  w.u64(0xdeadbeefcafebabeULL);
  w.str("hello");

  BufReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0xcdef);
  EXPECT_EQ(r.u32().value(), 0x12345678u);
  EXPECT_EQ(r.u64().value(), 0xdeadbeefcafebabeULL);
  auto rest = r.copy(5).value();
  EXPECT_EQ(to_string_view_copy(rest), "hello");
  EXPECT_TRUE(r.empty());
}

TEST(BufReader, TruncatedReadsFail) {
  Bytes data = {0x01, 0x02, 0x03};
  BufReader r(data);
  EXPECT_FALSE(r.u32().ok());
  // Failed read must not consume.
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_TRUE(r.u16().ok());
  EXPECT_FALSE(r.u16().ok());
  EXPECT_TRUE(r.u8().ok());
  EXPECT_FALSE(r.u8().ok());
}

TEST(BufReader, SkipAndRest) {
  Bytes data = {1, 2, 3, 4, 5};
  BufReader r(data);
  ASSERT_TRUE(r.skip(2).ok());
  EXPECT_EQ(r.rest().size(), 3u);
  EXPECT_EQ(r.rest()[0], 3);
  EXPECT_FALSE(r.skip(10).ok());
}

TEST(BufReader, EmptyBuffer) {
  BufReader r(std::span<const uint8_t>{});
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.u8().ok());
  EXPECT_EQ(r.u8().error().code, Errc::kTruncated);
}

TEST(BufWriter, PatchU16) {
  BufWriter w;
  w.u16(0);
  w.u32(0x11223344);
  w.patch_u16(0, 0xbeef);
  BufReader r(w.data());
  EXPECT_EQ(r.u16().value(), 0xbeef);
}

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x7f, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "007fff10");
}

TEST(FromString, PreservesBytes) {
  std::string with_nul("ab\0cd", 5);
  Bytes b = from_string(with_nul);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b[2], 0u);
  EXPECT_EQ(to_string_view_copy(b), with_nul);
}

// RFC 1071 examples and invariants.
TEST(InternetChecksum, KnownVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(InternetChecksum, VerifiesToZero) {
  Bytes data = {0x45, 0x00, 0x00, 0x28, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11};
  uint16_t csum = internet_checksum(data);
  Bytes with_csum = data;
  with_csum.push_back(static_cast<uint8_t>(csum >> 8));
  with_csum.push_back(static_cast<uint8_t>(csum));
  EXPECT_EQ(internet_checksum(with_csum), 0);
}

TEST(InternetChecksum, OddLength) {
  Bytes data = {0x01, 0x02, 0x03};
  // Odd tail is padded with zero: words are 0x0102, 0x0300.
  uint32_t sum = 0x0102 + 0x0300;
  EXPECT_EQ(internet_checksum(data), static_cast<uint16_t>(~sum));
}

TEST(InternetChecksum, EmptyIsAllOnes) {
  EXPECT_EQ(internet_checksum({}), 0xffff);
}

// The byte-pair loop RFC 1071 §4.1 describes, kept as the reference the
// word-wide implementation must match bit for bit.
uint16_t reference_checksum(std::span<const uint8_t> data, uint32_t initial) {
  uint32_t sum = initial;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
  if (i < data.size()) sum += static_cast<uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum);
}

TEST(InternetChecksum, MatchesBytePairReferenceAtEveryLength) {
  // The UDP pseudo-header's largest sum: two all-ones addresses, the
  // protocol number and a maximal length.
  constexpr uint32_t kPseudoMax = 4 * 0xffff + 17 + 0xffff;
  const uint32_t initials[] = {0, 1, 0xfffe, 0xffff, 0x10000, 0x2c4d1, kPseudoMax};
  Rng rng(0xc5c5);
  Bytes random(1501);
  for (uint8_t& b : random) b = static_cast<uint8_t>(rng.next_u32());
  const Bytes zeros(1501, 0x00);
  const Bytes ones(1501, 0xff);
  for (const Bytes* buf : std::initializer_list<const Bytes*>{&random, &zeros, &ones}) {
    for (size_t offset : {size_t{0}, size_t{1}}) {  // aligned and unaligned starts
      for (size_t len = 0; len + offset <= 1501 && len <= 1500; ++len) {
        const std::span<const uint8_t> data(buf->data() + offset, len);
        for (uint32_t initial : initials) {
          ASSERT_EQ(internet_checksum(data, initial), reference_checksum(data, initial))
              << "len " << len << " offset " << offset << " initial " << initial;
        }
      }
    }
  }
}

}  // namespace
}  // namespace scidive
