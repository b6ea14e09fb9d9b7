// The one-pass SIP scanner (sip/scan.h) against the endpoint parser. The
// IDS must read every message exactly as the UA and the proxy do, so the
// distiller's footprint and the shard router's keys are compared, field by
// field, with SipMessage::parse plus its accessors (fuzz/sip_reference.h)
// over the SIP seeds, the checked-in fuzz corpus, the hand-written torture
// corpus under tests/sip/data/torture and tens of thousands of mutations.
//
// The torture corpus follows the RFC 4475 categories and the malformed-
// message attacks of Keshavarz et al.: compact and mixed-case names, folded
// lines, duplicate and lying Content-Length, duplicate Call-ID/CSeq/From,
// missing mandatory headers, start-line damage, odd whitespace and bodies
// that look like SDP but are not. Each message's footprint is pinned in
// the `.expected` file beside it; regenerate them intentionally with
//   SCIDIVE_REGEN_GOLDEN=1 ./scidive_tests --gtest_filter='SipTorture.*'
#include "sip/scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/corpus.h"
#include "fuzz/mutator.h"
#include "fuzz/sip_reference.h"
#include "scidive/distiller.h"
#include "sip/auth.h"
#include "sip/message.h"
#include "sip/sdp.h"

namespace scidive::sip {
namespace {

namespace fs = std::filesystem;

const fs::path kTortureDir = fs::path(SCIDIVE_SIP_DATA_DIR) / "torture";

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct NamedMessage {
  std::string name;
  std::string text;
};

/// Every `*.sip` file of the torture corpus, sorted by name.
std::vector<NamedMessage> torture_corpus() {
  std::vector<NamedMessage> out;
  for (const auto& entry : fs::directory_iterator(kTortureDir)) {
    if (entry.path().extension() == ".sip")
      out.push_back({entry.path().stem().string(), read_file(entry.path())});
  }
  std::sort(out.begin(), out.end(),
            [](const NamedMessage& a, const NamedMessage& b) { return a.name < b.name; });
  return out;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// The scanner and the endpoint parser agree on `text`, with the fold
/// buffer carried across calls as the distiller and the router carry it.
::testing::AssertionResult agrees(std::string_view text, std::string& fold_buf) {
  const std::vector<std::string> divergences = fuzz::sip_scan_divergences(text, fold_buf);
  if (divergences.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << joined(divergences) << "message:\n"
                                       << std::string(text);
}

TEST(SipScanParity, SeedsAgree) {
  std::string fold_buf;
  for (const std::string& seed : fuzz::sip_seeds()) EXPECT_TRUE(agrees(seed, fold_buf));
}

TEST(SipScanParity, CheckedInFuzzCorpusAgrees) {
  // The sip_*.bin files are SIP text; every other corpus file is a
  // non-SIP input both readers must reject with the same reason.
  std::string fold_buf;
  size_t sip_files = 0;
  for (const auto& entry : fs::directory_iterator(SCIDIVE_FUZZ_CORPUS_DIR)) {
    const std::string text = read_file(entry.path());
    EXPECT_TRUE(agrees(text, fold_buf)) << entry.path();
    sip_files += entry.path().filename().string().starts_with("sip_");
  }
  EXPECT_GE(sip_files, 4u);
}

TEST(SipScanParity, TortureCorpusAgrees) {
  std::string fold_buf;
  for (const NamedMessage& m : torture_corpus()) EXPECT_TRUE(agrees(m.text, fold_buf)) << m.name;
}

std::vector<std::string> mutation_seeds() {
  std::vector<std::string> seeds = fuzz::sip_seeds();
  for (NamedMessage& m : torture_corpus()) seeds.push_back(std::move(m.text));
  return seeds;
}

TEST(SipScanParity, TenThousandGrammarMutationsAgree) {
  fuzz::Mutator m(0x5ca45ca4);
  const std::vector<std::string> seeds = mutation_seeds();
  std::string fold_buf;
  size_t parsed = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string twisted = m.mutate_sip(seeds[static_cast<size_t>(i) % seeds.size()]);
    ASSERT_TRUE(agrees(twisted, fold_buf)) << "mutation " << i;
    parsed += SipMessage::parse(twisted).ok();
  }
  // Vacuity guard: the mutations exercise both verdicts.
  EXPECT_GT(parsed, 1000u);
  EXPECT_LT(parsed, 9900u);
}

TEST(SipScanParity, TenThousandByteMutationsAgree) {
  fuzz::Mutator m(0xb17eb17e);
  const std::vector<std::string> seeds = mutation_seeds();
  std::string fold_buf;
  for (int i = 0; i < 10000; ++i) {
    const std::string& seed = seeds[static_cast<size_t>(i) % seeds.size()];
    Bytes raw(seed.begin(), seed.end());
    m.mutate_bytes(raw, 1 + i % 3);
    ASSERT_TRUE(agrees(std::string(raw.begin(), raw.end()), fold_buf)) << "mutation " << i;
  }
}

TEST(SipScanParity, FoldedLinesKeepEarlierViewsValid) {
  // Several folded headers share the caller's buffer; views into the first
  // must survive the later ones being assembled (the buffer never regrows
  // mid-scan).
  const std::string text =
      "INVITE sip:bob@lab.net SIP/2.0\r\n"
      "Via: SIP/2.0/UDP 10.0.0.1:5060;\r\n branch=z9hG4bK-1\r\n"
      "From: <sip:alice@lab.net>\r\n ;tag=folded-from\r\n"
      "To: <sip:bob@lab.net>\r\n\t;tag=folded-to\r\n"
      "Call-ID: fold-\r\n call\r\n"
      "CSeq: 7\r\n INVITE\r\n"
      "Content-Length: 0\r\n\r\n";
  std::string fold_buf;
  SipScan scan;
  ASSERT_EQ(scan_sip(text, fold_buf, scan), Errc::kOk);
  EXPECT_EQ(scan.from->tag, "folded-from");
  EXPECT_EQ(scan.to->tag, "folded-to");
  EXPECT_EQ(scan.call_id, "fold- call");
  EXPECT_EQ(scan.cseq->method, "INVITE");
  EXPECT_TRUE(scan.well_formed);
  EXPECT_TRUE(agrees(text, fold_buf));
}

TEST(SipScanParity, BlankLineThenSpaceBodyIsTheBody) {
  const std::string text =
      "MESSAGE sip:bob@lab.net SIP/2.0\r\n"
      "Call-ID: blank-then-space\r\n"
      "\r\n"
      " hello";
  std::string fold_buf;
  SipScan scan;
  ASSERT_EQ(scan_sip(text, fold_buf, scan), Errc::kOk);
  EXPECT_EQ(scan.body, " hello");
  EXPECT_TRUE(agrees(text, fold_buf));
}

TEST(SipScanParity, UnfoldedMessageLeavesTheBufferUntouched) {
  const std::string text = fuzz::sip_seeds().front();
  std::string fold_buf;
  SipScan scan;
  ASSERT_EQ(scan_sip(text, fold_buf, scan), Errc::kOk);
  EXPECT_EQ(fold_buf.capacity(), std::string().capacity());
  // Every view points into the input.
  const auto inside = [&](std::string_view v) {
    return v.data() >= text.data() && v.data() + v.size() <= text.data() + text.size();
  };
  EXPECT_TRUE(inside(*scan.call_id));
  EXPECT_TRUE(inside(scan.from->uri.aor));
  EXPECT_TRUE(inside(scan.body));
}

/// Header values and bodies around each helper's accept/reject edges, plus
/// byte mutations of them.
std::vector<std::string> helper_inputs() {
  std::vector<std::string> base = {
      "", " ", "sip:", "sip:alice@lab.net", "SIP:alice@lab.net:5070;transport=udp",
      "sip:@lab.net", "sip:alice@", "sip:alice@lab.net:0", "sip:alice@lab.net:65536",
      "sip:a:b@lab.net", "sip:lab.net;x=1;tag=t", "sip:alice@lab!net", "sips:alice@lab.net",
      "\"Alice\" <sip:alice@lab.net>;tag=ta", "<sip:alice@lab.net>;tag=a;tag=b",
      "<sip:alice@lab.net>;tag=a;tag", "sip:alice@lab.net;tag=bare", "<sip:alice@lab.net",
      "< sip:alice@10.0.0.1:5060 > ; tag = x ", "Alice <sip:alice@lab.net>junk;tag=t",
      "<sip:alice@lab.net>;tag=a=b", "*", "1 INVITE", "  42   BYE  ", "1\tINVITE", "1",
      "x INVITE", "4294967296 INVITE", "1 INVITE extra", "SIP/2.0/UDP 10.0.0.1:5060;branch=z",
      "SIP/2.0/UDP 10.0.0.1:99999", "SIP/2.0/UDP", "SIP/2.0/ host", "sip/2.0/tcp h:1, junk",
      "SIP/2.0/UDP :5060", "SIP/2.0/UDP h;branch=1,SIP/2.0/UDP g",
      "Digest username=\"a\", realm=\"r\", nonce=\"n\", uri=\"u\", response=\"r1\"",
      "digest USERNAME=a,REALM=r,NONCE=n,URI=u,RESPONSE=x,response=y",
      "Digest username=\"a\", realm=\"r\", uri=\"u\", response=\"r1\"",
      "Digest username=\"a\", realm=\"r\", nonce=\"n,m\", uri=\"u\", response=\"r1\"",
      "Digest =x, username=a", "Basic abc", "Digestusername=a,realm=r,nonce=n,uri=u,response=\"",
      "v=0\r\nc=IN IP4 10.0.0.1\r\nm=audio 4000 RTP/AVP 0\r\n",
      "v=0\nm=video 5000 RTP/AVP 31\nm=audio 4000 RTP/AVP 0 8\nc=IN IP4 10.0.0.9\n",
      "v=0\r\nc=IN IP4 10.0.0.1\r\nc=IN IP4 10.0.0.2\r\nm=audio 4000 RTP/AVP\r\n",
      "v=1\r\nc=IN IP4 10.0.0.1\r\nm=audio 4000 RTP/AVP 0\r\n",
      "v=0\r\no=a 1 x IN IP4 h\r\nc=IN IP4 10.0.0.1\r\nm=audio 4000 RTP/AVP 0\r\n",
      "v=0\r\nc=IN IP4 10.0.0.1 extra\r\nm=audio 4000 RTP/AVP 0\r\n",
      "v=0\r\nc=IN IP4 10.0.0.256\r\nm=audio 4000 RTP/AVP 0\r\n",
      "v=0\r\nc=IN IP4 1.2.3.4.\r\nm=audio 4000 RTP/AVP 128\r\n", "v=0\r\nx\r\n",
      " v = 0 \r\n\r\nc=IN IP4 10.0.0.1\r\nm=audio 65535 RTP/AVP 127\r\n"};
  fuzz::Mutator m(0x4e1f4e1f);
  const size_t n = base.size();
  for (int i = 0; i < 4000; ++i) {
    const std::string& seed = base[static_cast<size_t>(i) % n];
    Bytes raw(seed.begin(), seed.end());
    m.mutate_bytes(raw, 1 + i % 2);
    base.emplace_back(raw.begin(), raw.end());
  }
  return base;
}

TEST(SipScanHelpers, AgreeWithEndpointParsers) {
  for (const std::string& v : helper_inputs()) {
    SCOPED_TRACE(testing::Message() << "input: " << v);
    auto uri = SipUri::parse(v);
    auto uri_view = scan_uri(v);
    ASSERT_EQ(uri.ok(), uri_view.has_value());
    if (uri.ok()) {
      EXPECT_EQ(uri_view->aor, uri.value().address_of_record());
      EXPECT_EQ(uri_view->host, uri.value().host());
      EXPECT_EQ(uri_view->port, uri.value().port());
    }

    auto na = NameAddr::parse(v);
    auto na_view = scan_name_addr(v);
    ASSERT_EQ(na.ok(), na_view.has_value());
    if (na.ok()) {
      EXPECT_EQ(na_view->uri.aor, na.value().uri.address_of_record());
      EXPECT_EQ(na_view->tag, na.value().tag().value_or(""));
    }

    auto cseq = CSeq::parse(v);
    auto cseq_view = scan_cseq(v);
    ASSERT_EQ(cseq.ok(), cseq_view.has_value());
    if (cseq.ok()) {
      EXPECT_EQ(cseq_view->number, cseq.value().number);
      EXPECT_EQ(cseq_view->method, cseq.value().method);
    }

    std::string_view top_via = v;
    top_via = top_via.substr(0, top_via.find(','));
    EXPECT_EQ(scan_top_via(v), Via::parse(top_via).ok());

    auto creds = DigestCredentials::parse(v);
    auto response = scan_digest_response(v);
    ASSERT_EQ(creds.ok(), response.has_value());
    if (creds.ok()) {
      EXPECT_EQ(*response, creds.value().response);
    }

    auto sdp = Sdp::parse(v);
    std::optional<pkt::Endpoint> media;
    if (sdp.ok() && sdp.value().audio() != nullptr) {
      if (auto ip = pkt::Ipv4Address::parse(sdp.value().connection_addr))
        media = pkt::Endpoint{*ip, sdp.value().audio()->port};
    }
    EXPECT_EQ(scan_sdp_audio(v), media);
  }
}

TEST(SipScanKeys, KeysModeReadsOnlyTheRoutingFields) {
  const std::string text = fuzz::sip_seeds().front();
  std::string fold_buf;
  SipScan scan;
  ASSERT_EQ(scan_sip(text, fold_buf, scan, ScanMode::kKeys), Errc::kOk);
  EXPECT_TRUE(scan.call_id.has_value());
  EXPECT_TRUE(scan.cseq.has_value());
  EXPECT_TRUE(scan.from.has_value());
  EXPECT_TRUE(scan.sdp_media.has_value());
  EXPECT_FALSE(scan.to.has_value());
  EXPECT_FALSE(scan.contact.has_value());
  EXPECT_FALSE(scan.well_formed);
}

TEST(SipTorture, PinnedFootprints) {
  const bool regen = std::getenv("SCIDIVE_REGEN_GOLDEN") != nullptr;
  std::string fold_buf;
  for (const NamedMessage& m : torture_corpus()) {
    core::SipFootprint fp;
    const Errc error = core::distill_sip(m.text, fold_buf, fp);
    const std::string rendered = fuzz::render_sip_footprint(error, fp);
    const fs::path expected_path = kTortureDir / (m.name + ".expected");
    if (regen) {
      std::ofstream(expected_path, std::ios::binary) << rendered;
      continue;
    }
    ASSERT_TRUE(fs::exists(expected_path))
        << expected_path << " missing — run once with SCIDIVE_REGEN_GOLDEN=1";
    EXPECT_EQ(rendered, read_file(expected_path)) << m.name;
  }
}

TEST(SipTorture, ScannerAndEndpointAcceptTheSameMessages) {
  std::string fold_buf;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t ill_formed = 0;
  for (const NamedMessage& m : torture_corpus()) {
    SipScan scan;
    const Errc scanned = scan_sip(m.text, fold_buf, scan);
    auto parsed = SipMessage::parse(m.text);
    EXPECT_EQ(scanned, parsed.ok() ? Errc::kOk : parsed.error().code) << m.name;
    if (parsed.ok()) {
      ++accepted;
      EXPECT_EQ(scan.well_formed, parsed.value().well_formed()) << m.name;
      ill_formed += !scan.well_formed;
    } else {
      ++rejected;
    }
  }
  // The corpus spans every verdict: parses well-formed, parses ill-formed,
  // rejected.
  EXPECT_GE(accepted - ill_formed, 20u);
  EXPECT_GE(ill_formed, 10u);
  EXPECT_GE(rejected, 10u);
}

}  // namespace
}  // namespace scidive::sip
