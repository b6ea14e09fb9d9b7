// Shard routing for the sharded engine front-end (and, over virtual slots,
// the fleet dispatcher). Every packet is mapped to a stable shard so that all state any rule consults for it
// lives in exactly one shard's private engine:
//
//   - SIP dialog traffic (INVITE/ACK/BYE/CANCEL and their responses) routes
//     by Call-ID — a dialog's trails, mirrored state machine and media
//     monitors stay together;
//   - SIP REGISTER and MESSAGE traffic routes by the From AOR (the claimed
//     principal): the fake-IM sender history and the passive registration
//     mirror are per-principal state, so every message claiming one identity
//     must land where that identity's history lives;
//   - media (RTP/RTCP) routes through an endpoint map learned from the SDP
//     carried in signaling — the same endpoints the engines' TrailManagers
//     bind — so media lands on the shard holding its session (RTCP's odd
//     port is normalized down, mirroring TrailManager::classify);
//   - ACC billing records route by CDR call-id (they correlate with the SIP
//     session of the same call-id);
//   - H.225 routes by Q.931 call-id, RAS by gatekeeper call-id/alias;
//   - anything else falls back to a symmetric 4-tuple hash, which keeps both
//     directions of an unsignaled flow on one shard.
//
// SIP is read by the distiller's one-pass scanner in keys-only mode
// (sip/scan.h), hashing views into the datagram without allocating; H.225,
// RAS and ACC use their codecs. Signaling teaches the router state (media
// bindings, Call-ID pins), so it is only read from datagrams the shard's
// distiller accepts: SIP and H.225 first pass the distiller's IPv4+UDP
// validation, checksums included, and a datagram failing it goes to shard
// 0 with the other undecodables. The media hot path is two hash lookups on
// trivially-hashable endpoints.
//
// One router per feeding thread: the router owns every piece of routing
// state — the reassembler, the learned media endpoint -> shard map and the
// session-affinity overrides — as plain single-threaded maps, so nothing on
// the routing path is shared or atomic.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/flat_map.h"
#include "pkt/fragment.h"
#include "pkt/packet.h"
#include "scidive/distiller.h"

namespace scidive::core {

struct ShardRouterConfig {
  size_t num_shards = 4;
  /// The shard engines' distiller config: the router reads its port
  /// conventions and reassembly timeout, so it classifies exactly as the
  /// distillers it feeds.
  DistillerConfig distiller;
  /// Route initial INVITEs by the caller's From AOR and pin the dialog's
  /// Call-ID to that shard (session override), so per-caller rule state
  /// (SPIT graylisting) stays coherent: every call attempt of one caller —
  /// and every later packet of each dialog — lands on the caller's shard.
  bool route_invite_by_caller = false;
};

struct ShardRouterStats {
  uint64_t by_call_id = 0;       // SIP dialogs, ACC, H.225, RAS
  uint64_t by_principal = 0;     // REGISTER / MESSAGE traffic by From AOR
  uint64_t by_media_binding = 0; // RTP/RTCP via the learned endpoint map
  uint64_t by_flow_hash = 0;     // 4-tuple fallback
  uint64_t media_bindings_learned = 0;
  uint64_t fragments_held = 0;   // fragment consumed, datagram incomplete
  uint64_t datagrams_reassembled = 0;  // fragmented datagrams completed
};

/// What the router hashes of one SIP message, as views into it.
struct SipRouteKeys {
  std::string_view call_id;
  /// The CSeq method; for a request without a valid CSeq, its method.
  std::string_view cseq_method;
  std::string_view from_aor;
  std::optional<pkt::Endpoint> sdp_media;
};

/// The keys-only scan of one SIP payload; nothing when the message does not
/// parse. `fold_buf` is the scanner's reusable folded-line buffer.
std::optional<SipRouteKeys> sip_route_keys(std::string_view text, std::string& fold_buf);

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterConfig config);

  struct Routed {
    size_t shard = 0;
    /// Set when the input was the final fragment of a datagram: the shard
    /// must be fed this reassembled datagram instead of the fragment.
    std::optional<pkt::Packet> reassembled;
  };

  /// Route one packet. Returns nothing for fragments that do not yet
  /// complete a datagram (there is nothing to deliver) and for packets too
  /// mangled to carry even an IPv4 header (routed nowhere — shard 0 gets
  /// them so their error accounting is not lost).
  std::optional<Routed> route(const pkt::Packet& packet);

  /// The hash every routing key goes through (session overrides key on it).
  static uint64_t key_hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }
  /// The pure key -> shard mapping (no overrides), exposed so other layers
  /// that must agree with the router — the fleet ring maps the same keys to
  /// ownership slots — use the identical hash instead of a lookalike.
  static size_t shard_of(std::string_view key, size_t num_shards);

  /// The shard a session-keyed route (Call-ID / CDR / Q.931 / RAS call-id)
  /// takes: its override when one is set, else the hash. Principal
  /// (From-AOR) routes never consult overrides, so a same-string collision
  /// between a call-id and an AOR cannot drag the AOR's traffic along.
  size_t session_shard(std::string_view key) const;

  /// `shard` retired `session`'s record: drop the session's pin if it points
  /// there, so pins live as long as the state they route to. A pin to
  /// another shard stays (that shard may still hold the session).
  void forget(std::string_view session, size_t shard);

  /// Send `session` and its media endpoints to `shard` from now on (the
  /// session record was just installed there).
  void repoint(std::string_view session, size_t shard,
               std::span<const pkt::Endpoint> media);

  const ShardRouterStats& stats() const { return stats_; }
  size_t media_binding_count() const { return media_shard_.size(); }
  size_t override_count() const { return overrides_.size(); }

 private:
  size_t shard_of_key(std::string_view key) const;
  size_t session_shard(uint64_t hash) const;
  std::optional<uint32_t> override_shard(uint64_t hash) const;
  std::optional<uint32_t> media_shard(pkt::Endpoint media) const;
  size_t route_datagram(const pkt::Packet& packet);
  void learn_media(pkt::Endpoint media, size_t shard);

  ShardRouterConfig config_;
  pkt::Ipv4Reassembler reassembler_;
  /// Packed media endpoint -> shard, learned from SDP / H.245 signaling.
  /// Entries are only ever added or overwritten (mirroring
  /// TrailManager::bind_media_endpoint); stale entries are harmless because
  /// an unbound flow is classified identically on every shard.
  FlatMap<uint64_t, uint32_t> media_shard_;
  /// key_hash(session) -> shard: by-caller dialog pins, principal call-id
  /// pins and repointed sessions. Every principal-routed call-id is pinned:
  /// a packet of that session the router cannot route by principal (a
  /// mangled From or CSeq method) follows its session's state instead of
  /// splitting it, and the fleet's churn handoff recovers a principal-routed
  /// session's slot from its id alone. A pin lives as long as its session's
  /// record: forget() drops it when the pinned shard retires the session
  /// (ShardedEngine::expire_idle). A hash collision merely makes the
  /// colliding session follow the override too, so affinity holds.
  FlatMap<uint64_t, uint32_t> overrides_;
  ShardRouterStats stats_;
  std::string fold_buf_;
};

}  // namespace scidive::core
