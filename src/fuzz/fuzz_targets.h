// Fuzz entry points shared by two drivers:
//   - libFuzzer executables (src/fuzz/targets/*.cc, built only when the
//     compiler is Clang and SCIDIVE_FUZZ=ON) call one target per binary;
//   - the ctest corpus-replay tests call every target over the checked-in
//     corpus plus a deterministic seeded input set, so the same code paths
//     are exercised on every platform without a fuzzing toolchain.
//
// Each target must be total: any byte string returns 0 without crashing,
// hanging or allocating unboundedly. Multi-packet targets interpret the
// input as length-prefixed records ([u16 be length][bytes] repeated) so a
// fuzzer can evolve packet sequences, not just single packets.
#pragma once

#include <cstddef>
#include <cstdint>

namespace scidive::fuzz {

/// SIP message grammar: SipMessage::parse + reserialization + the lazy
/// structured-header accessors.
int fuzz_sip_message(const uint8_t* data, size_t size);

/// The IDS's one-pass SIP scan against the endpoint parser: the input is
/// one SIP payload, read both by core::distill_sip / core::sip_route_keys
/// and by SipMessage::parse plus its accessors (fuzz/sip_reference.h). The
/// target traps on any divergence — parse verdict, Errc, a footprint field
/// or a routing key — so a fuzzer hunts for messages the IDS and the
/// endpoint read differently.
int fuzz_sip_scan(const uint8_t* data, size_t size);

/// SDP body parser.
int fuzz_sdp(const uint8_t* data, size_t size);

/// RTP codec: parse, and reserialize-reparse when the input parses.
int fuzz_rtp(const uint8_t* data, size_t size);

/// RTCP compound parser.
int fuzz_rtcp(const uint8_t* data, size_t size);

/// IPv4 fragment reassembly: input is length-prefixed datagram records fed
/// to one Ipv4Reassembler with advancing timestamps (exercises overlap,
/// duplicate and hole handling plus expiry).
int fuzz_fragment_reassembly(const uint8_t* data, size_t size);

/// Full Distiller over length-prefixed packet records.
int fuzz_distiller(const uint8_t* data, size_t size);

/// Whole single-threaded engine (distiller + trails + events + rules) over
/// length-prefixed packet records.
int fuzz_engine(const uint8_t* data, size_t size);

/// Ruleset DSL front end: lexer + parser + compiler over the raw input as
/// `.sdr` text. Rulesets are operator input, so the loader must reject any
/// malformed text with a diagnostic — never crash, hang, or partially load.
/// When the input compiles, the target also instantiates the rules, runs
/// the disassembler, and drives the transition programs over a small
/// synthetic event sweep so fuzzer-shaped rules exercise the interpreter.
int fuzz_ruledsl(const uint8_t* data, size_t size);

/// Prevention path: length-prefixed packet records through an inline-mode
/// engine running SPIT graylisting at a hair-trigger threshold, so
/// fuzzer-shaped SIP reaches the verdict/enforcement machinery. Beyond
/// no-crash, the target traps if the per-packet accounting identity breaks:
/// every inspected packet must get exactly one decision, the engine's
/// decision counters must agree with the actions on_packet returned, and
/// the non-mutating peek must never change them.
int fuzz_verdict(const uint8_t* data, size_t size);

/// Established-flow fast-path differential: the same stream — a
/// deterministic prelude that leaves a media flow mid-bypass, then the
/// fuzzer's length-prefixed packet records — through two single engines,
/// fast path on vs off. Mutated RTP trains (SSRC flips, sequence jumps,
/// mid-stream BYEs, garbage) must never diverge the rendered alert
/// sequence or the packet accounting; the target traps on any difference.
int fuzz_fastpath(const uint8_t* data, size_t size);

/// SEP-v2 gossip frame decoder (fleet/sep_wire.h). Beyond no-crash: any
/// frame this build fully decodes (no unknown record types) must survive
/// a re-encode/decode round
/// trip with an identical record list, under both compression settings —
/// the property that makes versioned gossip safe to evolve.
int fuzz_sep_wire(const uint8_t* data, size_t size);

/// Pcap file decoder: the raw input is read as a capture file (global
/// header, record headers, bodies). Exercises truncated/oversized record
/// lengths, snaplen lies, malformed global headers, both byte orders and
/// both supported link types. When the stream decodes cleanly, the decoded
/// packets are re-exported under both link types and re-read (round trip).
int fuzz_pcap(const uint8_t* data, size_t size);

struct FuzzTarget {
  const char* name;
  int (*fn)(const uint8_t*, size_t);
};

/// Every target above, for table-driven replay tests.
constexpr FuzzTarget kFuzzTargets[] = {
    {"sip_message", fuzz_sip_message},
    {"sip_scan", fuzz_sip_scan},
    {"sdp", fuzz_sdp},
    {"rtp", fuzz_rtp},
    {"rtcp", fuzz_rtcp},
    {"fragment_reassembly", fuzz_fragment_reassembly},
    {"distiller", fuzz_distiller},
    {"engine", fuzz_engine},
    {"ruledsl", fuzz_ruledsl},
    {"verdict", fuzz_verdict},
    {"fastpath", fuzz_fastpath},
    {"sep_wire", fuzz_sep_wire},
    {"pcap", fuzz_pcap},
};

}  // namespace scidive::fuzz
