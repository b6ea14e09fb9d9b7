// CI-friendly fuzzing without libFuzzer: every fuzz target is driven over
// (a) the checked-in minimized crash corpus and (b) a large deterministic
// seeded input set built by the Mutator from valid seeds. The bar is the
// targets' contract — any input returns 0, no crash, no hang — plus the
// distiller's accounting identity: every malformed packet is *counted*,
// never silently swallowed.
#include "fuzz/fuzz_targets.h"

#include <gtest/gtest.h>

#include <string>

#include "fuzz/corpus.h"
#include "fuzz/mutator.h"
#include "obs/metrics.h"
#include "ruledsl/loader.h"
#include "scidive/distiller.h"
#include "scidive/engine.h"

namespace scidive::fuzz {
namespace {

/// [u16 be length][bytes] framing used by the multi-packet targets.
Bytes to_record_stream(const std::vector<Bytes>& chunks) {
  Bytes out;
  for (const Bytes& c : chunks) {
    size_t len = std::min<size_t>(c.size(), 0xffff);
    out.push_back(static_cast<uint8_t>(len >> 8));
    out.push_back(static_cast<uint8_t>(len));
    out.insert(out.end(), c.begin(), c.begin() + static_cast<ptrdiff_t>(len));
  }
  return out;
}

TEST(CorpusReplay, CheckedInCorpusThroughEveryTarget) {
  const std::vector<Bytes> corpus =
      load_corpus_dir(std::string(SCIDIVE_FUZZ_CORPUS_DIR));
  ASSERT_FALSE(corpus.empty()) << "checked-in corpus missing";
  for (const FuzzTarget& target : kFuzzTargets) {
    for (const Bytes& input : corpus) {
      EXPECT_EQ(target.fn(input.data(), input.size()), 0) << target.name;
    }
  }
}

TEST(CorpusReplay, SeedsPassEveryTargetUnmutated) {
  // Valid inputs must of course be accepted; this also pins that the seed
  // builders stay in sync with the parsers they feed.
  for (const std::string& s : sip_seeds()) {
    EXPECT_EQ(fuzz_sip_message(reinterpret_cast<const uint8_t*>(s.data()), s.size()), 0);
    EXPECT_EQ(fuzz_sip_scan(reinterpret_cast<const uint8_t*>(s.data()), s.size()), 0);
  }
  for (const Bytes& b : rtp_seeds()) EXPECT_EQ(fuzz_rtp(b.data(), b.size()), 0);
  for (const Bytes& b : rtcp_seeds()) EXPECT_EQ(fuzz_rtcp(b.data(), b.size()), 0);
  Bytes packets = to_record_stream(datagram_seeds());
  EXPECT_EQ(fuzz_distiller(packets.data(), packets.size()), 0);
  EXPECT_EQ(fuzz_engine(packets.data(), packets.size()), 0);
  EXPECT_EQ(fuzz_verdict(packets.data(), packets.size()), 0);
  EXPECT_EQ(fuzz_fragment_reassembly(packets.data(), packets.size()), 0);
  for (const Bytes& b : sep_frame_seeds()) EXPECT_EQ(fuzz_sep_wire(b.data(), b.size()), 0);
  for (const std::string& r : ruleset_seeds()) {
    EXPECT_EQ(fuzz_ruledsl(reinterpret_cast<const uint8_t*>(r.data()), r.size()), 0);
    // The DSL seeds must actually be valid, not merely survivable.
    EXPECT_TRUE(ruledsl::compile_ruleset_text(r, "<seed>").ok()) << r;
  }
}

TEST(CorpusReplay, TenThousandMutatedSipMessages) {
  Mutator m(0x51515151);
  const std::vector<std::string> seeds = sip_seeds();
  for (int i = 0; i < 10000; ++i) {
    const std::string& seed = seeds[static_cast<size_t>(i) % seeds.size()];
    std::string twisted = m.mutate_sip(seed);
    ASSERT_EQ(
        fuzz_sip_message(reinterpret_cast<const uint8_t*>(twisted.data()), twisted.size()),
        0);
    ASSERT_EQ(fuzz_sdp(reinterpret_cast<const uint8_t*>(twisted.data()), twisted.size()),
              0);
    ASSERT_EQ(
        fuzz_sip_scan(reinterpret_cast<const uint8_t*>(twisted.data()), twisted.size()), 0);
  }
}

TEST(CorpusReplay, TenThousandMutatedRulesets) {
  // Ruleset files are operator input: the loader must reject anything
  // malformed with a diagnostic and never crash or partially load. The SIP
  // text mutators (torn lines, splices, duplicated lines) and raw byte
  // mutations both apply cleanly to `.sdr` text.
  Mutator m(0x5d5d5d5d);
  const std::vector<std::string> seeds = ruleset_seeds();
  for (int i = 0; i < 10000; ++i) {
    const std::string& seed = seeds[static_cast<size_t>(i) % seeds.size()];
    std::string twisted;
    if (i % 3 != 2) {
      twisted = m.mutate_sip(seed);
    } else {
      Bytes raw(seed.begin(), seed.end());
      m.mutate_bytes(raw, 1 + i % 4);
      twisted.assign(raw.begin(), raw.end());
    }
    ASSERT_EQ(
        fuzz_ruledsl(reinterpret_cast<const uint8_t*>(twisted.data()), twisted.size()),
        0);
    // All-or-nothing loading: a rejected text yields a diagnostic, an
    // accepted one yields only complete rules.
    auto compiled = ruledsl::compile_ruleset_text(twisted, "<mutated>");
    if (compiled.ok()) {
      for (const auto& def : compiled.value().rules) ASSERT_NE(def, nullptr);
    } else {
      ASSERT_FALSE(compiled.error().message.empty());
    }
  }
}

TEST(CorpusReplay, TenThousandMutatedSepFrames) {
  // Gossip frames arrive from other machines over an unauthenticated UDP
  // channel: the decoder must survive anything, and whatever it does accept
  // must hold the re-encode/decode round-trip invariant (fuzz_sep_wire
  // traps on violation, which this harness would report as a crash).
  Mutator m(0x5e95e95e);
  const std::vector<Bytes> seeds = sep_frame_seeds();
  for (int i = 0; i < 10000; ++i) {
    Bytes b = seeds[static_cast<size_t>(i) % seeds.size()];
    m.mutate_bytes(b, 1 + i % 4);
    ASSERT_EQ(fuzz_sep_wire(b.data(), b.size()), 0);
  }
}

TEST(CorpusReplay, TenThousandMutatedMediaPackets) {
  Mutator m(0x72727272);
  const std::vector<Bytes> rtp = rtp_seeds();
  const std::vector<Bytes> rtcp = rtcp_seeds();
  for (int i = 0; i < 10000; ++i) {
    Bytes b = (i % 2 == 0) ? rtp[static_cast<size_t>(i / 2) % rtp.size()]
                           : rtcp[static_cast<size_t>(i / 2) % rtcp.size()];
    m.mutate_bytes(b, 1 + i % 3);
    ASSERT_EQ(fuzz_rtp(b.data(), b.size()), 0);
    ASSERT_EQ(fuzz_rtcp(b.data(), b.size()), 0);
  }
}

TEST(CorpusReplay, MutatedPacketStreamsThroughDistillerAndEngine) {
  // Batches of mutated datagrams and fragment trains through the stateful
  // multi-packet targets.
  Mutator m(0x93939393);
  const std::vector<Bytes> seeds = datagram_seeds();
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<Bytes> chunks;
    for (int i = 0; i < 25; ++i) {
      pkt::Packet p;
      p.data = seeds[static_cast<size_t>(
          m.rng().uniform_int(0, static_cast<int64_t>(seeds.size()) - 1))];
      if (m.rng().chance(0.25)) {
        for (pkt::Packet& frag : m.adversarial_fragments(p))
          chunks.push_back(std::move(frag.data));
      } else {
        chunks.push_back(m.mutate_packet(p).data);
      }
    }
    Bytes stream = to_record_stream(chunks);
    ASSERT_EQ(fuzz_fragment_reassembly(stream.data(), stream.size()), 0);
    ASSERT_EQ(fuzz_distiller(stream.data(), stream.size()), 0);
    ASSERT_EQ(fuzz_engine(stream.data(), stream.size()), 0);
    // Same mutated streams through the inline prevention engine: decisions
    // must stay total and the per-packet accounting identity must hold.
    ASSERT_EQ(fuzz_verdict(stream.data(), stream.size()), 0);
  }
}

TEST(CorpusReplay, DistillerCountsEveryMalformedPacket) {
  // The hardening contract: a packet is either distilled into a footprint,
  // held as an incomplete fragment, or *counted* undecodable — and every
  // carrier-level reject shows up in parse_errors.
  core::Distiller distiller;
  const std::vector<pkt::Packet> stream = adversarial_stream(0xfeedbeef);
  for (const pkt::Packet& p : stream) (void)distiller.distill(p);

  const core::DistillerStats& stats = distiller.stats();
  EXPECT_EQ(stats.packets_in, stream.size());
  EXPECT_EQ(stats.packets_in,
            stats.footprints_out + stats.fragments_held + stats.undecodable);
  // The stream contains raw garbage and checksum-breaking mutations, so
  // carrier-level parse errors must have been recorded.
  EXPECT_GT(stats.parse_errors.total, 0u);
  uint64_t ipv4_errors = 0;
  for (size_t r = 0; r < core::kParseReasonCount; ++r) {
    ipv4_errors += stats.parse_errors.count(core::ParseProto::kIpv4, static_cast<Errc>(r));
  }
  EXPECT_GT(ipv4_errors, 0u);
  // Every undecodable packet traces back to a recorded reason.
  EXPECT_GE(stats.parse_errors.total, stats.undecodable);
}

TEST(CorpusReplay, ParseErrorsSurfaceInEngineMetrics) {
  core::EngineConfig config;
  config.obs.time_stages = false;
  core::ScidiveEngine engine(config);
  for (const pkt::Packet& p : adversarial_stream(0xcafef00d)) engine.on_packet(p);
  obs::Snapshot snapshot = engine.metrics_snapshot();

  uint64_t total = 0;
  for (const obs::Sample& s : snapshot.samples()) {
    if (s.name == "scidive_parse_errors_total") total += s.counter;
  }
  EXPECT_EQ(total, engine.distiller().stats().parse_errors.total);
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace scidive::fuzz
