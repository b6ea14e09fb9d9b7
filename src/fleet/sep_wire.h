// SEP version 2: the fleet's binary event-exchange wire format.
//
// A frame is one UDP datagram:
//
//   magic   "SEP2"                 (4 bytes)
//   version u8 = 2                 (unknown versions are rejected)
//   flags   u8                     (bit0: body is run-compressed)
//   name    u8 len + bytes         (sender node name, 1..64 bytes)
//   epoch   varint                 (sender's node epoch; bumps on restart)
//   count   varint                 (record count, <= kMaxRecordsPerFrame)
//   body    count records, possibly compressed as one block:
//     type  u8
//     len   varint                 (payload length; unknown types are
//                                   skipped over it — forward compatible)
//     payload                      (len bytes)
//
// Event records delta-encode their timestamps against the previous event
// record in the frame (zigzag varint), so a batch of near-simultaneous
// events costs one or two bytes of time each. Compression is a simple
// self-describing run-length scheme (see rle_compress) applied to the whole
// body when it actually shrinks it.
//
// The decoder is strict: every length is bounds-checked, string and record
// caps are enforced, trailing bytes are an error, and any failure returns a
// Result<T> diagnostic — never an exception, never a partial frame. Peers
// are other machines; their traffic is untrusted input.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "scidive/event.h"
#include "scidive/verdict.h"

namespace scidive::fleet {

constexpr uint16_t kFleetPort = 6000;  // SEP-v2 gossip
constexpr uint8_t kSepVersion = 2;

// Decoder hard limits. A frame violating any of them is malformed.
constexpr size_t kMaxNodeNameBytes = 64;
constexpr size_t kMaxRecordsPerFrame = 4096;
constexpr size_t kMaxRecordBytes = 64 * 1024;
constexpr size_t kMaxStringBytes = 4096;
constexpr size_t kMaxBodyBytes = 1024 * 1024;  // post-decompression cap

enum class SepRecordType : uint8_t {
  kEvent = 1,     // a shared engine event
  kVerdict = 2,   // verdict/graylist propagation (screen everywhere)
  kCounter = 3,   // per-node partial counter for fleet-wide aggregation
  kVouch = 4,     // host-truth vouching (IM / BYE / re-INVITE really sent)
  kHandoff = 5,   // session ownership transfer announcement
  kHello = 6,     // liveness heartbeat (empty payload)
};

enum class CounterKind : uint8_t {
  kRegisterFlood = 1,  // REGISTERs per source address, fleet-wide
  kDigestGuess = 2,    // auth failures per source address, fleet-wide
};

enum class VouchKind : uint8_t {
  kIm = 1,        // key = sender AOR
  kBye = 2,       // key = call-id
  kReinvite = 3,  // key = call-id
};

/// Per-node partial counter: "this node has seen `count` hits for `key` in
/// the tumbling window starting at `window_start`". Counts are cumulative
/// within the window, so re-delivery and reordering merge with max().
struct SepCounter {
  CounterKind kind = CounterKind::kRegisterFlood;
  std::string key;
  SimTime window_start = 0;
  uint64_t count = 0;

  bool operator==(const SepCounter&) const = default;
};

/// Host-based ground truth: the co-located client really performed the
/// keyed action (sent the IM, hung up, moved its media) around `time`.
struct SepVouch {
  VouchKind kind = VouchKind::kIm;
  std::string key;
  SimTime time = 0;

  bool operator==(const SepVouch&) const = default;
};

/// Ownership-transfer announcement. The session record itself moves
/// in-process (ScidiveEngine::extract_session / install_session); this
/// record is the wire-visible half peers use to update their view of who
/// owns what.
struct SepHandoff {
  std::string session;
  std::string to_node;
  uint64_t slot = 0;

  bool operator==(const SepHandoff&) const = default;
};

struct SepVerdict {
  std::string rule;
  core::VerdictAction action = core::VerdictAction::kPass;
  std::string session;
  std::string aor;
  pkt::Endpoint endpoint;
  SimTime time = 0;

  bool operator==(const SepVerdict&) const = default;
};

using SepRecord =
    std::variant<core::Event, SepVerdict, SepCounter, SepVouch, SepHandoff>;

struct SepFrame {
  std::string node;     // sender
  uint64_t epoch = 0;   // sender's incarnation
  std::vector<SepRecord> records;
  /// Records whose type byte this build does not know, skipped over their
  /// length prefix (forward compatibility; counted, never fatal).
  uint64_t unknown_skipped = 0;
};

/// Batches records into one frame. Records are appended in call order and
/// decoded in the same order.
class SepEncoder {
 public:
  SepEncoder(std::string node, uint64_t epoch);

  void add_event(const core::Event& event);
  void add_verdict(const SepVerdict& verdict);
  void add_counter(const SepCounter& counter);
  void add_vouch(const SepVouch& vouch);
  void add_handoff(const SepHandoff& handoff);
  void add_hello();

  size_t record_count() const { return record_count_; }
  size_t body_size() const { return body_.size(); }

  /// Finish the frame. With `compress`, the body is run-compressed when
  /// that actually shrinks it (flag bit0 signals which). The encoder is
  /// reset and may be reused for the next frame.
  Bytes finish(bool compress = true);

 private:
  void record(SepRecordType type, const Bytes& payload);

  std::string node_;
  uint64_t epoch_ = 0;
  BufWriter body_;
  size_t record_count_ = 0;
  SimTime last_event_time_ = 0;  // delta base for event timestamps
};

/// Strict SEP-v2 decode. All-or-nothing: on any error the frame is
/// discarded (no partial application).
Result<SepFrame> decode_frame(std::span<const uint8_t> datagram);

/// Self-describing run-length coding used for frame bodies. Token stream:
/// a control byte c < 0x80 copies c+1 literal bytes; c >= 0x80 repeats the
/// following byte c-0x80+4 times (runs of 4..131). decompress enforces
/// `max_out` and rejects truncated token streams.
Bytes rle_compress(std::span<const uint8_t> in);
Result<Bytes> rle_decompress(std::span<const uint8_t> in, size_t max_out);

/// Unsigned LEB128-style varints plus zigzag for signed values — exposed
/// for tests and the fuzz target.
void put_varint(BufWriter& w, uint64_t v);
Result<uint64_t> get_varint(BufReader& r);
void put_zigzag(BufWriter& w, int64_t v);
Result<int64_t> get_zigzag(BufReader& r);

/// Stable numeric ids for EventType in SEP-v2 event records (do not
/// reorder or reuse).
int event_type_wire_id(core::EventType type);
Result<core::EventType> event_type_from_wire_id(int id);

}  // namespace scidive::fleet
