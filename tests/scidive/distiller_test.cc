#include "scidive/distiller.h"

#include <gtest/gtest.h>

#include <random>

#include "pkt/fragment.h"
#include "rtp/rtcp.h"
#include "rtp/rtp.h"
#include "voip/accounting.h"

namespace scidive::core {
namespace {

const pkt::Endpoint kA{pkt::Ipv4Address(10, 0, 0, 1), 5060};
const pkt::Endpoint kB{pkt::Ipv4Address(10, 0, 0, 2), 5060};
const pkt::Endpoint kAMedia{pkt::Ipv4Address(10, 0, 0, 1), 16384};
const pkt::Endpoint kBMedia{pkt::Ipv4Address(10, 0, 0, 2), 16384};

pkt::Packet udp(pkt::Endpoint src, pkt::Endpoint dst, const std::string& payload,
                SimTime ts = 0) {
  auto p = pkt::make_udp_packet(src, dst, from_string(payload));
  p.timestamp = ts;
  return p;
}

constexpr const char* kBye =
    "BYE sip:alice@10.0.0.1 SIP/2.0\r\n"
    "Via: SIP/2.0/UDP 10.0.0.2;branch=z9hG4bK77\r\n"
    "From: <sip:bob@lab.net>;tag=tb\r\n"
    "To: <sip:alice@lab.net>;tag=ta\r\n"
    "Call-ID: call-1\r\n"
    "CSeq: 2 BYE\r\n"
    "\r\n";

TEST(Distiller, DecodesSip) {
  Distiller d;
  auto fp = d.distill(udp(kB, kA, kBye, msec(5)));
  ASSERT_TRUE(fp.has_value());
  EXPECT_EQ(fp->protocol, Protocol::kSip);
  EXPECT_EQ(fp->time, msec(5));
  EXPECT_EQ(fp->src, kB);
  ASSERT_NE(fp->sip(), nullptr);
  EXPECT_TRUE(fp->sip()->is_request);
  EXPECT_EQ(fp->sip()->method, "BYE");
  EXPECT_EQ(fp->sip()->call_id, "call-1");
  EXPECT_EQ(fp->sip()->from_aor, "bob@lab.net");
  EXPECT_EQ(fp->sip()->from_tag, "tb");
  EXPECT_EQ(fp->sip()->to_tag, "ta");
  EXPECT_TRUE(fp->sip()->well_formed);
  EXPECT_EQ(d.stats().sip_footprints, 1u);
}

TEST(Distiller, DecodesSipWithSdp) {
  std::string invite =
      "INVITE sip:bob@lab.net SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK1\r\n"
      "From: <sip:alice@lab.net>;tag=ta\r\n"
      "To: <sip:bob@lab.net>\r\n"
      "Call-ID: call-2\r\n"
      "CSeq: 1 INVITE\r\n"
      "Contact: <sip:alice@10.0.0.1:5060>\r\n"
      "Content-Type: application/sdp\r\n";
  std::string sdp = "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=-\r\nc=IN IP4 10.0.0.1\r\n"
                    "m=audio 16384 RTP/AVP 0\r\n";
  invite += "Content-Length: " + std::to_string(sdp.size()) + "\r\n\r\n" + sdp;
  Distiller d;
  auto fp = d.distill(udp(kA, kB, invite));
  ASSERT_TRUE(fp.has_value());
  ASSERT_NE(fp->sip(), nullptr);
  ASSERT_TRUE(fp->sip()->sdp_media.has_value());
  EXPECT_EQ(*fp->sip()->sdp_media, kAMedia);
  ASSERT_TRUE(fp->sip()->contact.has_value());
  EXPECT_EQ(*fp->sip()->contact, kA);
}

TEST(Distiller, MalformedSipOnSipPortStillAFootprint) {
  Distiller d;
  auto fp = d.distill(udp(kA, kB, "THIS IS NOT SIP AT ALL"));
  ASSERT_TRUE(fp.has_value());
  EXPECT_EQ(fp->protocol, Protocol::kSip);
  ASSERT_NE(fp->sip(), nullptr);
  EXPECT_FALSE(fp->sip()->well_formed);
}

TEST(Distiller, DecodesRtp) {
  rtp::RtpHeader h;
  h.sequence = 77;
  h.ssrc = 0xabc;
  Bytes payload(160, 0xd5);
  auto wire = rtp::serialize_rtp(h, payload);
  Distiller d;
  const pkt::Packet packet =
      udp(kAMedia, kBMedia, std::string(reinterpret_cast<const char*>(wire.data()), wire.size()));
  // The bypass's pre-peek lookup key: the header's endpoints, which the
  // peek must report unchanged.
  auto peek = d.peek_rtp(packet);
  ASSERT_TRUE(peek.has_value());
  auto endpoints = Distiller::header_endpoints(packet);
  ASSERT_TRUE(endpoints.has_value());
  EXPECT_EQ(endpoints->first, peek->src);
  EXPECT_EQ(endpoints->second, peek->dst);
  EXPECT_EQ(peek->dst, kBMedia);
  auto fp = d.distill(packet);
  ASSERT_TRUE(fp.has_value());
  EXPECT_EQ(fp->protocol, Protocol::kRtp);
  ASSERT_NE(fp->rtp(), nullptr);
  EXPECT_EQ(fp->rtp()->sequence, 77);
  EXPECT_EQ(fp->rtp()->ssrc, 0xabcu);
  EXPECT_EQ(fp->rtp()->payload_len, 160u);
}

TEST(Distiller, DecodesRtcpByeOnOddPort) {
  rtp::RtcpBye bye;
  bye.ssrcs = {0x42};
  auto wire = rtp::serialize_rtcp(bye);
  Distiller d;
  pkt::Endpoint rtcp_src{kAMedia.addr, 16385};
  pkt::Endpoint rtcp_dst{kBMedia.addr, 16385};
  auto fp = d.distill(udp(rtcp_src, rtcp_dst,
                          std::string(reinterpret_cast<const char*>(wire.data()), wire.size())));
  ASSERT_TRUE(fp.has_value());
  EXPECT_EQ(fp->protocol, Protocol::kRtcp);
  ASSERT_NE(fp->rtcp(), nullptr);
  EXPECT_TRUE(fp->rtcp()->is_bye);
  EXPECT_EQ(fp->rtcp()->ssrc, 0x42u);
}

TEST(Distiller, DecodesAcc) {
  voip::AccRecord record{voip::AccRecord::Kind::kStart, "call-9", "alice@lab.net",
                         "bob@lab.net", msec(10)};
  Distiller d;
  pkt::Endpoint db{pkt::Ipv4Address(10, 0, 0, 200), voip::kAccPort};
  pkt::Endpoint proxy_acc{pkt::Ipv4Address(10, 0, 0, 100), 9010};
  auto fp = d.distill(udp(proxy_acc, db, record.serialize()));
  ASSERT_TRUE(fp.has_value());
  EXPECT_EQ(fp->protocol, Protocol::kAcc);
  ASSERT_NE(fp->acc(), nullptr);
  EXPECT_TRUE(fp->acc()->is_start);
  EXPECT_EQ(fp->acc()->call_id, "call-9");
  EXPECT_EQ(fp->acc()->from_aor, "alice@lab.net");
}

TEST(Distiller, GarbageOnMediaPortIsUnknown) {
  Distiller d;
  auto fp = d.distill(udp({kAMedia.addr, 40000}, kBMedia, "definitely not rtp"));
  ASSERT_TRUE(fp.has_value());
  EXPECT_EQ(fp->protocol, Protocol::kUnknown);
  EXPECT_NE(fp->unknown(), nullptr);
}

TEST(Distiller, NonUdpDropped) {
  Distiller d;
  pkt::Ipv4Header h;
  h.protocol = pkt::kProtoTcp;
  h.src = kA.addr;
  h.dst = kB.addr;
  pkt::Packet p;
  p.data = pkt::serialize_ipv4(h, from_string("tcp-ish"));
  EXPECT_FALSE(d.distill(p).has_value());
  EXPECT_EQ(d.stats().undecodable, 1u);
}

TEST(Distiller, ReassemblesFragmentedSip) {
  // A big SIP message fragmented at the IP layer: the Distiller must
  // produce exactly one footprint, after the last fragment.
  std::string big_body(2000, 'x');
  std::string msg =
      "MESSAGE sip:alice@10.0.0.1 SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.0.0.2;branch=z9hG4bK9\r\n"
      "From: <sip:bob@lab.net>;tag=tb\r\n"
      "To: <sip:alice@lab.net>\r\n"
      "Call-ID: frag-call\r\n"
      "CSeq: 1 MESSAGE\r\n"
      "Content-Length: " + std::to_string(big_body.size()) + "\r\n\r\n" + big_body;
  auto whole = pkt::make_udp_packet(kB, kA, from_string(msg));
  auto frags = pkt::fragment_ipv4(whole.data, 500).value();
  ASSERT_GT(frags.size(), 2u);

  Distiller d;
  int footprints = 0;
  for (auto& frag : frags) {
    pkt::Packet p;
    p.data = frag;
    p.timestamp = msec(1);
    if (d.distill(p).has_value()) ++footprints;
  }
  EXPECT_EQ(footprints, 1);
  EXPECT_EQ(d.stats().sip_footprints, 1u);
  EXPECT_GT(d.stats().fragments_held, 0u);
}

TEST(Distiller, FuzzedPacketsNeverCrash) {
  Distiller d;
  std::mt19937 rng(1234);
  for (int i = 0; i < 1000; ++i) {
    pkt::Packet p;
    p.data.resize(rng() % 200);
    for (auto& b : p.data) b = static_cast<uint8_t>(rng());
    (void)d.distill(p);
  }
  EXPECT_EQ(d.stats().packets_in, 1000u);
}

TEST(Distiller, StatsAddUp) {
  Distiller d;
  (void)d.distill(udp(kB, kA, kBye));
  (void)d.distill(udp({kAMedia.addr, 40000}, kBMedia, "junk"));
  EXPECT_EQ(d.stats().packets_in, 2u);
  EXPECT_EQ(d.stats().footprints_out, 2u);
  EXPECT_EQ(d.stats().sip_footprints + d.stats().rtp_footprints + d.stats().rtcp_footprints +
                d.stats().acc_footprints + d.stats().unknown_footprints,
            d.stats().footprints_out);
}

}  // namespace
}  // namespace scidive::core
