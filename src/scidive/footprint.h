// Footprints — the paper's protocol-dependent information units (§3.1).
// The Distiller turns each network packet into one Footprint; Footprints
// that belong to the same session are grouped into Trails.
//
// A footprint is a compact, decoded summary: rich enough for every rule in
// the paper (and for the "crude information directly from the Trails" access
// path), small enough to retain thousands per session.
//
// Storage: a Footprint is 72 bytes and trails keep it by value in their
// rings. Media footprints (RTP, RTCP, garbage on a media port) live inline
// in those 72 bytes and never touch the heap. A SIP footprint is one heap
// block per message, sized to it: the fixed fields plus the message's texts
// (method, Call-ID, AORs, tags, ...) back to back, read through views into
// the block. The block is owned by the ring slot, not by the session arena,
// so overwriting a slot frees it.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/box.h"
#include "common/clock.h"
#include "common/result.h"
#include "pkt/addr.h"

namespace scidive::core {

/// Which protocol a footprint was distilled from.
enum class Protocol { kSip, kRtp, kRtcp, kAcc, kH225, kRas, kUnknown };
inline constexpr size_t kProtocolCount = static_cast<size_t>(Protocol::kUnknown) + 1;

std::string_view protocol_name(Protocol p);

/// A text field of a SIP footprint: a view that never owns its bytes. In a
/// footprint a Footprint holds, it points into that footprint's own block
/// (see SipRecord); in a draft handed to SipRecord::make, into storage the
/// caller keeps alive for the call. It binds to literals, views and string
/// lvalues; binding it to a temporary std::string is a compile error rather
/// than a dangling view.
class SipText : public std::string_view {
 public:
  constexpr SipText() = default;
  constexpr SipText(std::string_view text) : std::string_view(text) {}
  constexpr SipText(const char* text) : std::string_view(text) {}
  SipText(const std::string& text) : std::string_view(text) {}
  SipText(std::string&&) = delete;
};

/// Decoded summary of one SIP message. The same struct is the draft the
/// distiller (and every test or tool) fills with views into its own
/// storage, and the stored footprint SipRecord::make copies that draft into.
/// The views come first so the fixed fields pack behind them.
struct SipFootprint {
  SipText method;        // "INVITE", "BYE", ... (requests)
  SipText cseq_method;   // method the CSeq names (responses too)
  SipText call_id;
  SipText from_aor;
  SipText from_tag;
  SipText to_aor;
  SipText to_tag;
  SipText auth_response;                   // digest response value (for guess counting)
  std::optional<pkt::Endpoint> sdp_media;  // media endpoint offered/answered
  std::optional<pkt::Endpoint> contact;    // Contact endpoint if IP-literal
  size_t body_len = 0;
  int status_code = 0;  // responses
  uint32_t cseq = 0;
  bool is_request = true;
  bool well_formed = false;
  bool has_auth = false;       // Authorization header present
  bool has_challenge = false;  // WWW-Authenticate present

  bool is_response() const { return !is_request; }
};

/// One stored SIP footprint in one heap block sized to it: the SipFootprint,
/// then its texts back to back, each text field a view into the block's
/// tail. Copying makes a fresh block; moving steals it. The block is freed
/// with the record, so a ring slot that is overwritten frees its old
/// footprint and a wrapping ring stays bounded. A default-constructed or
/// moved-from record is empty and allocates nothing, so a default Footprint
/// (whose variant starts on this alternative) costs the media path no heap.
class SipRecord {
 public:
  /// The one way to build a stored SIP footprint: copies `draft`'s fields
  /// and texts into a block of sizeof(SipFootprint) + the texts' bytes.
  static SipRecord make(const SipFootprint& draft);

  SipRecord() = default;
  SipRecord(const SipRecord& other) : SipRecord(other.fp_ ? make(*other.fp_) : SipRecord()) {}
  SipRecord(SipRecord&& other) noexcept : fp_(std::exchange(other.fp_, nullptr)) {}
  SipRecord& operator=(SipRecord other) noexcept {
    std::swap(fp_, other.fp_);
    return *this;
  }
  ~SipRecord() { ::operator delete(fp_); }  // SipFootprint is trivially destructible

  const SipFootprint* get() const { return fp_; }
  const SipFootprint& operator*() const { return *fp_; }
  const SipFootprint* operator->() const { return fp_; }

 private:
  explicit SipRecord(SipFootprint* fp) : fp_(fp) {}

  SipFootprint* fp_ = nullptr;
};

/// Decoded summary of one RTP packet.
struct RtpFootprint {
  uint32_t ssrc = 0;
  uint16_t sequence = 0;
  uint32_t timestamp = 0;
  uint8_t payload_type = 0;
  size_t payload_len = 0;
};

/// The fields of one RTP media packet the event generator's steady-state
/// step reads: what Distiller::peek_rtp extracts without building a
/// Footprint, and what an RTP footprint carries.
struct RtpPeek {
  pkt::Endpoint src;
  pkt::Endpoint dst;
  uint32_t ssrc = 0;
  uint16_t sequence = 0;
  uint32_t timestamp = 0;
  SimTime time = 0;
};

/// Decoded summary of one RTCP packet.
struct RtcpFootprint {
  bool is_bye = false;
  bool is_sender_report = false;
  bool is_receiver_report = false;
  uint32_t ssrc = 0;
};

/// Decoded summary of one accounting (ACC) transaction.
struct AccFootprint {
  bool is_start = true;
  std::string call_id;
  std::string from_aor;
  std::string to_aor;
};

/// Decoded summary of one H.225.0/Q.931 call-signaling message (the H.323
/// CMP; the architecture is CMP-agnostic, §1).
struct H225Footprint {
  uint8_t message_type = 0;      // Q931MessageType value
  std::string message_name;      // "SETUP", "CONNECT", ...
  std::string call_id;
  std::string calling_alias;
  std::string called_alias;
  std::optional<pkt::Endpoint> media;
  bool is_setup = false;
  bool is_connect = false;
  bool is_release = false;
};

/// Decoded summary of one RAS (gatekeeper control) message.
struct RasFootprint {
  uint8_t type = 0;          // RasType value
  std::string type_name;     // "RRQ", "ACF", ...
  std::string alias;
  std::string dest_alias;
  std::string call_id;
  std::optional<pkt::Endpoint> signal_address;
};

/// A packet that reached the tap but decodes as none of the above (garbage
/// on a media port, an unparsed ACC, H.225 or RAS datagram): the reason its
/// protocol's parser gave. Malformed SIP is a SipFootprint instead.
struct UnknownFootprint {
  Errc reason = Errc::kOk;
};

struct Footprint {
  Protocol protocol = Protocol::kUnknown;
  SimTime time = 0;
  pkt::Endpoint src;
  pkt::Endpoint dst;
  size_t wire_len = 0;
  // Every alternative is at most one pointer or a few small fields, so the
  // variant's (and therefore the Trail ring slot's) stride stays at the size
  // of the small media footprints: a steady-state RTP append writes one
  // cache line. SIP holds one right-sized block (SipRecord); the other
  // string-heavy signaling alternatives are boxed. Both cost one heap cell
  // per signaling footprint and nothing on the media path, which stays
  // inline, garbage included.
  std::variant<SipRecord, RtpFootprint, RtcpFootprint, Box<AccFootprint>, Box<H225Footprint>,
               Box<RasFootprint>, UnknownFootprint>
      data;

  const SipFootprint* sip() const {
    const auto* r = std::get_if<SipRecord>(&data);
    return r ? r->get() : nullptr;
  }
  const RtpFootprint* rtp() const { return std::get_if<RtpFootprint>(&data); }
  const RtcpFootprint* rtcp() const { return std::get_if<RtcpFootprint>(&data); }
  const AccFootprint* acc() const { return unbox<AccFootprint>(); }
  const H225Footprint* h225() const { return unbox<H225Footprint>(); }
  const RasFootprint* ras() const { return unbox<RasFootprint>(); }
  const UnknownFootprint* unknown() const { return std::get_if<UnknownFootprint>(&data); }

  /// Mutable accessors for the boxed alternatives (tests and tools that
  /// tweak a distilled footprint in place). A SIP footprint is rebuilt
  /// through SipRecord::make instead: its texts live in its block.
  AccFootprint* mutable_acc() { return unbox_mut<AccFootprint>(); }
  H225Footprint* mutable_h225() { return unbox_mut<H225Footprint>(); }
  RasFootprint* mutable_ras() { return unbox_mut<RasFootprint>(); }

 private:
  template <typename T>
  const T* unbox() const {
    const auto* b = std::get_if<Box<T>>(&data);
    return b ? b->get() : nullptr;
  }
  template <typename T>
  T* unbox_mut() {
    auto* b = std::get_if<Box<T>>(&data);
    return b ? b->get() : nullptr;
  }
};

// Ring slots hold Footprints by value: the stride every trail pays per slot.
static_assert(sizeof(Footprint) == 72, "Footprint grew: ring slots and arena chunks assume 72 B");

}  // namespace scidive::core
