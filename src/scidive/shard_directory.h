// ShardDirectory: the routing state shared by every producer-side
// ShardRouter of one ShardedEngine. With MPSC ingestion each capture thread
// owns a private router (its own reassembler and stats — those are
// inherently per-stream), but three pieces of routing state must be global,
// or two producers would route one session to two shards:
//
//   - the media endpoint -> shard map learned from SDP/H.245 signaling
//     (producer A may see the INVITE while producer B sees the RTP);
//   - the session-affinity overrides installed by the skew rebalancer
//     (a migrated session's packets must land on its new shard no matter
//     which producer captures them);
//   - the set of call-ids that ever routed by principal (From-AOR): those
//     sessions share per-principal rule state with other sessions and are
//     therefore pinned — the rebalancer must never migrate them.
//
// All three are AtomicU64Maps: lock-free reads on the per-packet path,
// mutex-serialized writes on the rare signaling/rebalance path. The
// per-shard EWMA load trace also lives here; it is only read and written at
// flush-quiesce points by the rebalancer, so plain doubles suffice.
//
// Affinity overrides key on the 64-bit hash of the session key string, not
// the string itself. A hash collision merely makes the colliding session
// follow the override too — consistently, on every producer — so affinity
// (every packet of a session on one shard) is preserved even then.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/atomic_u64_map.h"
#include "common/clock.h"
#include "pkt/addr.h"
#include "scidive/enforce.h"

namespace scidive::core {

class ShardDirectory : public SharedEnforcement {
 public:
  explicit ShardDirectory(size_t num_shards)
      : ewma_(num_shards == 0 ? 1 : num_shards, 0.0) {}

  static uint64_t key_hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }
  static uint64_t pack_endpoint(const pkt::Endpoint& ep) {
    return static_cast<uint64_t>(ep.addr.value()) << 16 | ep.port;
  }

  /// Returns true when the binding was new (not an overwrite).
  bool learn_media(const pkt::Endpoint& media, uint32_t shard) {
    return media_shard_.insert_or_assign(pack_endpoint(media), shard);
  }
  std::optional<uint32_t> media_shard(const pkt::Endpoint& media) const {
    uint32_t shard;
    if (media_shard_.find(pack_endpoint(media), shard)) return shard;
    return std::nullopt;
  }
  size_t media_binding_count() const { return media_shard_.size(); }

  void set_override(uint64_t session_key_hash, uint32_t shard) {
    overrides_.insert_or_assign(session_key_hash, shard);
  }
  std::optional<uint32_t> override_shard(uint64_t session_key_hash) const {
    if (overrides_.size() == 0) return std::nullopt;  // one load on the common path
    uint32_t shard;
    if (overrides_.find(session_key_hash, shard)) return shard;
    return std::nullopt;
  }
  size_t override_count() const { return overrides_.size(); }

  void mark_principal_routed(uint64_t call_id_hash) {
    if (!principal_routed_.contains(call_id_hash))
      principal_routed_.insert_or_assign(call_id_hash, 1);
  }
  bool principal_routed(uint64_t call_id_hash) const {
    return principal_routed_.size() != 0 && principal_routed_.contains(call_id_hash);
  }

  // --- published enforcement (SharedEnforcement) ------------------------
  // A verdict applied on one worker is published here so every other
  // shard's decide() honors it. Values pack into the map's u32:
  // ceil-seconds of the expiry (30 bits, saturated) over the 2-bit action.
  // The map cannot erase, so expiry is value-level: a published entry past
  // its deadline reads as kPass, and a re-publish overwrites in place.

  static uint32_t pack_enforcement(VerdictAction action, SimTime expires_at) {
    const SimTime whole_sec = expires_at <= 0 ? 0 : (expires_at + 999'999) / 1'000'000;
    const uint64_t capped =
        static_cast<uint64_t>(whole_sec) > ((uint64_t{1} << 30) - 1)
            ? ((uint64_t{1} << 30) - 1)
            : static_cast<uint64_t>(whole_sec);
    return static_cast<uint32_t>(capped << 2) | static_cast<uint32_t>(action);
  }

  void publish(uint64_t key, VerdictAction action, SimTime expires_at) override {
    const uint32_t packed = pack_enforcement(action, expires_at);
    uint32_t cur;
    if (published_.find(key, cur)) {
      // Merge-upgrade: never downgrade the action, never shorten the TTL.
      const uint32_t merged =
          ((cur >> 2) > (packed >> 2) ? cur & ~uint32_t{3} : packed & ~uint32_t{3}) |
          ((cur & 3) > (packed & 3) ? cur & 3 : packed & 3);
      if (merged != cur) published_.insert_or_assign(key, merged);
      return;
    }
    published_.insert_or_assign(key, packed);
  }

  VerdictAction published(uint64_t key, SimTime now) const override {
    if (published_.size() == 0) return VerdictAction::kPass;  // common-path fast exit
    uint32_t packed;
    if (!published_.find(key, packed)) return VerdictAction::kPass;
    const SimTime expires = static_cast<SimTime>(packed >> 2) * 1'000'000;
    if (expires <= now) return VerdictAction::kPass;
    return static_cast<VerdictAction>(packed & 3);
  }

  size_t published_count() const { return published_.size(); }

  /// Per-shard EWMA of recent load (packets processed between rebalance
  /// points). Quiesce-only: the rebalancer is the single reader and writer.
  void update_load(size_t shard, double sample, double alpha) {
    ewma_[shard] = alpha * sample + (1.0 - alpha) * ewma_[shard];
  }
  double load(size_t shard) const { return ewma_[shard]; }
  size_t num_shards() const { return ewma_.size(); }

 private:
  AtomicU64Map media_shard_{1024};
  AtomicU64Map overrides_{64};
  AtomicU64Map principal_routed_{256};
  AtomicU64Map published_{256};
  std::vector<double> ewma_;
};

}  // namespace scidive::core
