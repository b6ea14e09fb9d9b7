// Seed corpora and deterministic adversarial stream generation. The seeds
// are built with the repo's own serializers, so every seed starts valid and
// each mutation is one structured step away from well-formed — the shape
// that exercises a parser's error paths rather than its fast rejects.
//
// load_corpus_dir() replays the checked-in minimized crash corpus under
// plain ctest (no libFuzzer required); adversarial_stream() is the input
// the topology oracle feeds to its baseline and every topology.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "pkt/packet.h"

namespace scidive::fuzz {

/// Wire-format SIP messages: requests and responses across the methods the
/// stack models, with and without SDP bodies and auth headers.
std::vector<std::string> sip_seeds();

/// Serialized RTP packets over a spread of seq/timestamp/ssrc/payload sizes,
/// including CSRC lists and wraparound-adjacent sequence numbers.
std::vector<Bytes> rtp_seeds();

/// Serialized RTCP sender reports, receiver reports and BYEs.
std::vector<Bytes> rtcp_seeds();

/// Whole IPv4/UDP datagrams: the SIP/RTP/RTCP seeds above wrapped in real
/// carriers addressed at the distiller's conventional ports, plus a few
/// non-UDP and minimal-size datagrams.
std::vector<Bytes> datagram_seeds();

/// Valid SEP-v2 gossip frames (fleet/sep_wire.h): every record type, both
/// compression settings, a run-heavy body, plus one deprecated SEP1 text
/// line for the compat decode path.
std::vector<Bytes> sep_frame_seeds();

/// Valid `.sdr` ruleset texts spanning the DSL grammar: the Table-1 rule
/// ports plus small rules touching every slot type, expression function,
/// template format and escape. Each compiles cleanly, so a mutation is one
/// structured step from well-formed.
std::vector<std::string> ruleset_seeds();

/// Read every regular file in `dir` sorted by filename (deterministic
/// replay order). A missing or empty directory yields an empty vector.
std::vector<Bytes> load_corpus_dir(const std::string& dir);

struct StreamConfig {
  /// Complete INVITE/200/ACK + RTP + BYE/200 call flows (benign backbone;
  /// gives the stateful rules real sessions to track).
  size_t benign_calls = 3;
  /// Structure-aware mutations of benign packets interleaved in the stream.
  size_t mutated = 120;
  /// Adversarial fragment trains (overlap/duplicate/hole/zero-length/...).
  size_t fragment_trains = 12;
  /// Raw random datagram-shaped noise.
  size_t garbage = 24;
};

/// Deterministic adversarial packet stream: same (seed, config) produces a
/// byte-identical packet sequence with strictly increasing timestamps.
std::vector<pkt::Packet> adversarial_stream(uint64_t seed, const StreamConfig& config = {});

}  // namespace scidive::fuzz
