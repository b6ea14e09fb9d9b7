// Producer-side shard routing for the sharded engine front-end. Every packet
// is mapped to a stable shard so that all state any rule consults for it
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
// Signaling is parsed with the real codecs (it is rare); the media hot path
// is two hash lookups on trivially-hashable endpoints.
//
// Multi-producer operation: each capture thread owns one ShardRouter (the
// reassembler and stats are per-stream), while the learned media map, the
// rebalancer's affinity overrides and the principal-routed pin set live in
// a ShardDirectory shared by every router of the engine (see
// shard_directory.h). A standalone router owns a private directory.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string_view>

#include "pkt/fragment.h"
#include "pkt/packet.h"
#include "scidive/shard_directory.h"

namespace scidive::core {

struct ShardRouterConfig {
  size_t num_shards = 4;
  /// Port conventions — mirror DistillerConfig so the router and the shard
  /// distillers classify identically.
  std::set<uint16_t> sip_ports = {5060, 5061, 5062, 5064, 5070, 5080, 5081, 5082};
  uint16_t acc_port = 9009;
  SimDuration reassembly_timeout = sec(30);
  /// Route initial INVITEs by the caller's From AOR and pin the dialog's
  /// Call-ID to that shard (directory override), so per-caller rule state
  /// (SPIT graylisting) stays coherent: every call attempt of one caller —
  /// and every later packet of each dialog — lands on the caller's shard.
  bool route_invite_by_caller = false;
  /// Record a directory override for *every* principal-routed call-id
  /// (REGISTER/MESSAGE, not just pinned INVITEs). Routing is unchanged —
  /// those packets carry their From on every message — but the override
  /// makes the session's shard recoverable from its id alone, which the
  /// fleet's churn handoff needs to relocate principal-routed sessions.
  bool pin_principal_call_ids = false;
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

class ShardRouter {
 public:
  /// Standalone router with a private directory (tests, single producer).
  explicit ShardRouter(ShardRouterConfig config);
  /// Router sharing an engine-owned directory with sibling producers.
  /// `directory` must outlive the router.
  ShardRouter(ShardRouterConfig config, ShardDirectory* directory);

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

  /// The pure key -> shard mapping (no overrides), exposed so other layers
  /// that must agree with the router — the fleet ring maps the same keys to
  /// ownership slots — use the identical hash instead of a lookalike.
  static size_t shard_of(std::string_view key, size_t num_shards);
  static size_t shard_of_hash(uint64_t key_hash, size_t num_shards);

  const ShardRouterStats& stats() const { return stats_; }
  size_t media_binding_count() const { return directory_->media_binding_count(); }
  const ShardDirectory& directory() const { return *directory_; }

 private:
  size_t shard_of_key(std::string_view key) const;
  /// shard_of_key plus the rebalancer's affinity overrides. Only
  /// session-keyed routes (Call-ID / CDR / Q.931 / RAS call-id) consult
  /// overrides; principal (From-AOR) routes never do — principal state is
  /// never migrated, so a same-string collision between a call-id and an
  /// AOR must not drag the AOR's traffic along with a migrated session.
  size_t session_shard(std::string_view key) const;
  size_t session_shard(uint64_t key_hash) const;
  size_t route_datagram(const pkt::Packet& packet);
  void learn_media(pkt::Endpoint media, size_t shard);

  ShardRouterConfig config_;
  pkt::Ipv4Reassembler reassembler_;
  /// Shared routing state (media endpoint -> shard, affinity overrides,
  /// principal pins). Entries are only ever added or overwritten (mirroring
  /// TrailManager::bind_media_endpoint); stale entries are harmless because
  /// an unbound flow is classified identically on every shard.
  ShardDirectory* directory_;
  std::unique_ptr<ShardDirectory> owned_directory_;  // standalone mode only
  ShardRouterStats stats_;
};

}  // namespace scidive::core
