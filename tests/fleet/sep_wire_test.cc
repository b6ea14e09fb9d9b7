// SEP-v2 wire format: exact round-trips for every record type, strict
// rejection of anything truncated, oversized or trailing (a retired SEP1
// text line included), forward-compatible skip of unknown record types, the
// RLE body codec and the pinned event wire ids. The decoder handles bytes
// from other machines — the never-crash sweep hammers it with mutated
// frames.
#include "fleet/sep_wire.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scidive::fleet {
namespace {

core::Event sample_event(SimTime t = msec(1234)) {
  core::Event e;
  e.type = core::EventType::kRtpAfterBye;
  e.session = "call-77@lab.net";
  e.time = t;
  e.aor = "bob@lab.net";
  e.endpoint = {pkt::Ipv4Address(10, 0, 0, 2), 16384};
  e.value = -42;
  e.detail = "orphan RTP after BYE";
  return e;
}

TEST(SepWire, VarintRoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     0xdeadbeefull, ~0ull}) {
    BufWriter w;
    put_varint(w, v);
    const Bytes buf = std::move(w).take();
    BufReader r(buf);
    auto back = get_varint(r);
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(back.value(), v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(SepWire, ZigzagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1000000},
                    int64_t{-1000000}, std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    BufWriter w;
    put_zigzag(w, v);
    const Bytes buf = std::move(w).take();
    BufReader r(buf);
    auto back = get_zigzag(r);
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(back.value(), v);
  }
}

TEST(SepWire, VarintRejectsOverlongAndTruncated) {
  // 10 continuation bytes: more than a u64 can hold.
  Bytes overlong(11, 0x80);
  BufReader r1(overlong);
  EXPECT_FALSE(get_varint(r1).ok());
  Bytes truncated = {0x80};  // continuation bit set, nothing follows
  BufReader r2(truncated);
  EXPECT_FALSE(get_varint(r2).ok());
}

TEST(SepWire, RleRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes in(static_cast<size_t>(rng.uniform_int(0, 600)));
    for (auto& b : in) {
      // Mix runs and noise so both token kinds are exercised.
      b = rng.chance(0.5) ? 0xaa : static_cast<uint8_t>(rng.uniform_int(0, 255));
    }
    Bytes packed = rle_compress(in);
    auto back = rle_decompress(packed, 1 << 20);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), in);
  }
}

TEST(SepWire, RleDecompressEnforcesCap) {
  // One token expanding to 131 bytes against a 16-byte cap.
  Bytes packed = {0xff, 0x41};
  EXPECT_FALSE(rle_decompress(packed, 16).ok());
  EXPECT_TRUE(rle_decompress(packed, 4096).ok());
  // Literal token claiming more bytes than follow.
  Bytes truncated = {0x05, 'a', 'b'};
  EXPECT_FALSE(rle_decompress(truncated, 4096).ok());
}

TEST(SepWire, AllRecordTypesRoundTrip) {
  SepEncoder enc("node-a", 3);
  const core::Event e1 = sample_event(msec(1000));
  const core::Event e2 = sample_event(msec(1001));  // delta-encoded
  const SepVerdict verdict{"spit-graylist", core::VerdictAction::kRateLimit,
                           "caller:spam@lab.net", "spam@lab.net",
                           {pkt::Ipv4Address(10, 0, 0, 66), 5083}, msec(1500)};
  const SepCounter counter{CounterKind::kRegisterFlood, "10.0.0.66", sec(10), 17};
  const SepVouch vouch{VouchKind::kBye, "call-77@lab.net", msec(1200)};
  const SepHandoff handoff{"call-77@lab.net", "node-b", 9};
  enc.add_event(e1);
  enc.add_event(e2);
  enc.add_verdict(verdict);
  enc.add_counter(counter);
  enc.add_vouch(vouch);
  enc.add_handoff(handoff);
  enc.add_hello();
  EXPECT_EQ(enc.record_count(), 7u);

  auto frame = decode_frame(enc.finish());
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  EXPECT_EQ(frame.value().node, "node-a");
  EXPECT_EQ(frame.value().epoch, 3u);
  EXPECT_EQ(frame.value().unknown_skipped, 0u);
  // kHello carries no record payload; six materialized records.
  ASSERT_EQ(frame.value().records.size(), 6u);
  const auto& recs = frame.value().records;
  ASSERT_TRUE(std::holds_alternative<core::Event>(recs[0]));
  const auto& d1 = std::get<core::Event>(recs[0]);
  EXPECT_EQ(d1.type, e1.type);
  EXPECT_EQ(d1.session, e1.session);
  EXPECT_EQ(d1.time, e1.time);
  EXPECT_EQ(d1.aor, e1.aor);
  EXPECT_EQ(d1.endpoint, e1.endpoint);
  EXPECT_EQ(d1.value, e1.value);
  EXPECT_EQ(d1.detail, e1.detail);
  EXPECT_EQ(std::get<core::Event>(recs[1]).time, e2.time);
  EXPECT_EQ(std::get<SepVerdict>(recs[2]), verdict);
  EXPECT_EQ(std::get<SepCounter>(recs[3]), counter);
  EXPECT_EQ(std::get<SepVouch>(recs[4]), vouch);
  EXPECT_EQ(std::get<SepHandoff>(recs[5]), handoff);
}

TEST(SepWire, CompressedAndUncompressedDecodeIdentically) {
  SepEncoder enc_packed("n", 1);
  SepEncoder enc_raw("n", 1);
  core::Event e = sample_event();
  e.detail = std::string(200, 'x');  // compressible
  enc_packed.add_event(e);
  enc_raw.add_event(e);
  Bytes packed = enc_packed.finish(/*compress=*/true);
  Bytes raw = enc_raw.finish(/*compress=*/false);
  EXPECT_LT(packed.size(), raw.size());
  auto a = decode_frame(packed);
  auto b = decode_frame(raw);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().records.size(), 1u);
  EXPECT_EQ(std::get<core::Event>(a.value().records[0]).detail,
            std::get<core::Event>(b.value().records[0]).detail);
}

TEST(SepWire, EncoderResetsBetweenFrames) {
  SepEncoder enc("n", 1);
  enc.add_event(sample_event(sec(5)));
  Bytes first = enc.finish();
  enc.add_event(sample_event(sec(5)));
  Bytes second = enc.finish();
  // Same content, fresh delta base: byte-identical frames.
  EXPECT_EQ(first, second);
}

TEST(SepWire, RejectsTruncationAtEveryByte) {
  SepEncoder enc("node-a", 3);
  enc.add_event(sample_event());
  enc.add_counter({CounterKind::kDigestGuess, "10.0.0.66", 0, 3});
  Bytes frame = enc.finish();
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    auto r = decode_frame(std::span<const uint8_t>(frame.data(), keep));
    EXPECT_FALSE(r.ok()) << "prefix of " << keep << " bytes decoded";
  }
  auto whole = decode_frame(frame);
  EXPECT_TRUE(whole.ok());
}

TEST(SepWire, RejectsTrailingBytes) {
  SepEncoder enc("n", 1);
  enc.add_vouch({VouchKind::kIm, "bob@lab.net", msec(10)});
  Bytes frame = enc.finish(/*compress=*/false);
  frame.push_back(0x00);
  EXPECT_FALSE(decode_frame(frame).ok());
}

TEST(SepWire, RejectsWrongMagicVersionFlagsName) {
  SepEncoder enc("n", 1);
  enc.add_hello();
  const Bytes good = enc.finish();
  Bytes bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(decode_frame(bad).ok());
  bad = good;
  bad[4] = 9;  // unknown version
  EXPECT_FALSE(decode_frame(bad).ok());
  bad = good;
  bad[5] |= 0x80;  // unknown flag bit
  EXPECT_FALSE(decode_frame(bad).ok());
  bad = good;
  bad[6] = 0;  // empty node name
  EXPECT_FALSE(decode_frame(bad).ok());
  bad = good;
  bad[6] = 200;  // name longer than the 64-byte bound
  EXPECT_FALSE(decode_frame(bad).ok());
}

TEST(SepWire, UnknownRecordTypesAreSkippedNotFatal) {
  // Hand-build a frame: one unknown type-200 record, then a known vouch.
  SepEncoder enc("n", 1);
  enc.add_vouch({VouchKind::kIm, "bob@lab.net", msec(10)});
  Bytes known = enc.finish(/*compress=*/false);
  // Splice an unknown record in front of the known one: rebuild the body.
  BufWriter w;
  w.bytes(std::span<const uint8_t>(known.data(), 6));  // magic+version+flags
  w.u8(1);
  w.str("n");
  put_varint(w, 1);  // epoch
  put_varint(w, 2);  // two records now
  w.u8(200);         // unknown type
  put_varint(w, 3);
  w.str("xyz");
  // The known record bytes start after the original header; recover them by
  // re-encoding the vouch payload.
  BufWriter payload;
  payload.u8(static_cast<uint8_t>(VouchKind::kIm));
  put_varint(payload, 11);
  payload.str("bob@lab.net");
  put_zigzag(payload, msec(10));
  Bytes p = std::move(payload).take();
  w.u8(static_cast<uint8_t>(SepRecordType::kVouch));
  put_varint(w, p.size());
  w.bytes(p);
  auto frame = decode_frame(std::move(w).take());
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  EXPECT_EQ(frame.value().unknown_skipped, 1u);
  ASSERT_EQ(frame.value().records.size(), 1u);
  EXPECT_EQ(std::get<SepVouch>(frame.value().records[0]).key, "bob@lab.net");
}

TEST(SepWire, RecordCountCapEnforced) {
  BufWriter w;
  w.str("SEP2");
  w.u8(kSepVersion);
  w.u8(0);
  w.u8(1);
  w.str("n");
  put_varint(w, 1);
  put_varint(w, kMaxRecordsPerFrame + 1);
  EXPECT_FALSE(decode_frame(std::move(w).take()).ok());
}

TEST(SepWire, Sep1LineIsRejected) {
  // The retired SEP1 text format (one tab-separated event per datagram) has
  // no decoder left: a well-formed SEP1 line is just another datagram that
  // is not a SEP2 frame.
  const std::string line =
      "SEP1\tids-b\t14\tcall-77@lab.net\t1234000\tbob@lab.net\t10.0.0.2:16384\t-42\t"
      "orphan RTP after BYE";
  auto frame = decode_frame(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(line.data()), line.size()));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, Errc::kUnsupported);
}

TEST(SepWire, EveryEventTypeHasStableWireId) {
  // Wire ids are protocol state: pinned here, never reordered or reused.
  using core::EventType;
  const std::pair<EventType, int> pinned[] = {
      {EventType::kSipInviteSeen, 1},          {EventType::kSipReinviteSeen, 2},
      {EventType::kSipSessionEstablished, 3},  {EventType::kSipByeSeen, 4},
      {EventType::kSipMalformed, 5},           {EventType::kSip4xxSeen, 6},
      {EventType::kSipRegisterSeen, 7},        {EventType::kSipAuthChallenge, 8},
      {EventType::kSipAuthFailure, 9},         {EventType::kImMessageSeen, 10},
      {EventType::kRtpStreamStarted, 11},      {EventType::kRtpSeqJump, 12},
      {EventType::kRtpUnexpectedSource, 13},   {EventType::kRtpAfterBye, 14},
      {EventType::kRtpAfterReinvite, 15},      {EventType::kRtpJitter, 16},
      {EventType::kNonRtpOnMediaPort, 17},     {EventType::kAccStartSeen, 18},
      {EventType::kAccUnmatched, 19},          {EventType::kAccBilledPartyAbsent, 20},
      {EventType::kRtpPacketSeen, 22},         {EventType::kRtcpByeSeen, 23},
      {EventType::kRtpAfterRtcpBye, 24},
  };
  ASSERT_EQ(std::size(pinned), core::kEventTypeCount) << "pin every event type";
  for (size_t t = 0; t < core::kEventTypeCount; ++t) {
    EXPECT_GT(event_type_wire_id(static_cast<EventType>(t)), 0)
        << core::event_type_name(static_cast<EventType>(t));
  }
  for (const auto& [type, id] : pinned) {
    EXPECT_EQ(event_type_wire_id(type), id) << core::event_type_name(type);
    auto back = event_type_from_wire_id(id);
    ASSERT_TRUE(back.ok()) << id;
    EXPECT_EQ(back.value(), type);
  }
  // 21 belonged to the retired host-side IM event: unassigned, so rejected.
  for (int unassigned : {0, 21, 25, -1}) {
    EXPECT_FALSE(event_type_from_wire_id(unassigned).ok()) << unassigned;
  }
}

TEST(SepWire, MutationSweepNeverCrashesAndRoundTripsSurvivors) {
  // 10k mutated frames: decode must never crash, never partially apply
  // (Result is all-or-nothing by construction), and every frame that DOES
  // decode with no unknown-type skips must re-encode to an equivalent frame.
  Rng rng(0x5e9f);
  SepEncoder enc("node-a", 1);
  enc.add_event(sample_event());
  enc.add_counter({CounterKind::kRegisterFlood, "10.0.0.66", sec(10), 21});
  enc.add_vouch({VouchKind::kReinvite, "call-9@lab.net", msec(900)});
  enc.add_verdict({"spit-graylist", core::VerdictAction::kDrop, "caller:x@lab.net",
                   "x@lab.net", {pkt::Ipv4Address(1, 2, 3, 4), 5060}, sec(2)});
  const Bytes seed = enc.finish();

  size_t decoded_ok = 0;
  for (int i = 0; i < 10000; ++i) {
    Bytes mutated = seed;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<uint8_t>(rng.uniform_int(0, 255));
    }
    if (rng.chance(0.2) && mutated.size() > 2) {
      mutated.resize(static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(mutated.size()) - 1)));
    }
    auto frame = decode_frame(mutated);
    if (!frame.ok()) continue;
    if (frame.value().unknown_skipped != 0) continue;
    ++decoded_ok;
    // Round-trip: re-encode the decoded records and decode again — the two
    // frames must carry identical records (the fuzz target's invariant).
    SepEncoder re(frame.value().node, frame.value().epoch);
    for (const SepRecord& rec : frame.value().records) {
      std::visit(
          [&](const auto& r) {
            using T = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<T, core::Event>) re.add_event(r);
            if constexpr (std::is_same_v<T, SepVerdict>) re.add_verdict(r);
            if constexpr (std::is_same_v<T, SepCounter>) re.add_counter(r);
            if constexpr (std::is_same_v<T, SepVouch>) re.add_vouch(r);
            if constexpr (std::is_same_v<T, SepHandoff>) re.add_handoff(r);
          },
          rec);
    }
    auto again = decode_frame(re.finish());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().records.size(), frame.value().records.size());
  }
  // The unmutated seed itself decodes, so the sweep is not vacuous.
  EXPECT_TRUE(decode_frame(seed).ok());
  (void)decoded_ok;
}

}  // namespace
}  // namespace scidive::fleet
