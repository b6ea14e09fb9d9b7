// TrailManager: routes footprints into per-session, per-protocol Trails and
// owns the cross-protocol session correlation:
//   - SIP footprints key by Call-ID;
//   - RTP/RTCP footprints key by media endpoints learned from the session's
//     SDP (both offered and answered);
//   - ACC footprints key by the CDR's call_id field.
// RTP with no known session gets a synthetic per-flow session so that rules
// can still reason about unsignaled media ("flow:<src>-><dst>").
//
// Session-scale memory layout (§3 trail model at 10k+ concurrent sessions):
//   - every session id is interned once into a SymbolTable; all internal
//     tables key on the dense uint32 symbol, so routing compares integers,
//     never strings;
//   - the trail table is a flat open-addressing map keyed by the packed
//     (symbol, protocol) word — one mix, one probe, no per-node heap blocks;
//   - each session owns an Arena; its Trail objects and their footprint
//     rings bump-allocate from it, so session teardown is one arena release
//     instead of per-trail frees.
//
// The media path is the hot path: once a flow's first packet has been
// classified, a (src, dst, protocol) -> Trail* cache routes every further
// packet of that flow with a single hash lookup on trivially-hashable keys —
// no session-id strings are built or copied, so steady-state in-session RTP
// classification performs zero heap allocations. A binding change (SDP
// offer/answer, re-INVITE) drops only the cached routes whose classification
// looked the rebound endpoint up, so call setup elsewhere leaves established
// flows cached; expiry and session migration still drop every route.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/change_log.h"
#include "common/flat_map.h"
#include "common/symbol.h"
#include "scidive/trail.h"

namespace scidive::core {

struct TrailManagerStats {
  uint64_t footprints_routed = 0;
  uint64_t sessions_created = 0;
  uint64_t rtp_bound_to_session = 0;   // matched via SDP-learned endpoints
  uint64_t rtp_unbound = 0;            // synthetic flow session
  uint64_t flow_cache_hits = 0;        // media packets routed without classify
  uint64_t trails_expired = 0;         // trails dropped by expire_idle
};

class TrailManager {
 private:
  struct SessionSlot;  // all of one session's storage; defined below

 public:
  explicit TrailManager(size_t max_footprints_per_trail = 4096)
      : max_footprints_per_trail_(max_footprints_per_trail) {}

  /// Route one footprint and append it. Returns the trail it joined.
  Trail& add(Footprint fp);

  /// Routing only (creates the trail on a flow's first packet). Exposed so
  /// the allocation benchmark can measure the steady-state classify cost in
  /// isolation.
  Trail& route(const Footprint& fp);

  /// Register a media endpoint as belonging to a session (the Distiller
  /// sees SDP; the EventGenerator calls this when signaling reveals where a
  /// call's media will flow).
  void bind_media_endpoint(const pkt::Endpoint& media, const SessionId& session);
  void unbind_media_endpoint(const pkt::Endpoint& media);
  std::optional<SessionId> session_for_media(const pkt::Endpoint& media) const;

  /// Lookup; nullptr when the trail does not exist.
  const Trail* find(const SessionId& session, Protocol protocol) const;
  Trail* find_mut(const SessionId& session, Protocol protocol);

  /// All trails of one session (the §3.2 "multiple trails for each
  /// session, one for each protocol"), in creation order. O(trails of that
  /// session) via the per-session slot.
  std::vector<const Trail*> session_trails(const SessionId& session) const;

  std::vector<SessionId> sessions() const;
  /// Bumped whenever the media routing picture changes: a binding learned,
  /// changed or dropped, or a wholesale change (session extracted or
  /// installed, trails expired). The engine's established-flow fast path
  /// compares it with the generation it last caught up to.
  uint64_t media_generation() const { return rebound_.generation(); }
  /// Visit every endpoint whose binding changed after generation `since`.
  /// Returns false when that cannot be replayed endpoint by endpoint (a
  /// wholesale change, or more changes than the log holds): the caller must
  /// then drop every media route it cached.
  template <typename Fn>
  bool for_each_rebound_since(uint64_t since, Fn&& fn) const {
    return rebound_.for_each_since(since, fn);
  }
  size_t trail_count() const { return trails_.size(); }
  size_t session_count() const { return sessions_.size(); }
  size_t media_binding_count() const { return media_to_session_.size(); }
  const TrailManagerStats& stats() const { return stats_; }

  /// The interner shared by every downstream consumer of this manager's
  /// session ids (EventGenerator keys its per-session state by these).
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  /// Bytes reserved across all live session arenas (observability gauge).
  size_t arena_bytes_reserved() const;

  /// Drop every trail whose newest footprint is older than `cutoff`.
  size_t expire_idle(SimTime cutoff);

  // --- Session migration (sharded-engine rebalance) ---------------------
  // A session's whole trail state moves between managers as one opaque
  // package: the arena-owning SessionSlot plus the media endpoints bound to
  // the session. Trail pointers stay valid across the move (the arena
  // moves, not the objects); install re-interns the id and rebinds the
  // trails to the adopting manager's symbol.

  struct ExtractedSession {
    SessionId id;
    std::unique_ptr<SessionSlot> slot;  // null when extraction failed
    std::vector<pkt::Endpoint> media;   // endpoints that were bound to it
    bool valid() const { return slot != nullptr; }
    ExtractedSession();
    ExtractedSession(ExtractedSession&&) noexcept;
    ExtractedSession& operator=(ExtractedSession&&) noexcept;
    ~ExtractedSession();
  };

  bool has_session(const SessionId& session) const;
  /// Footprints ever routed to this session's trails — the rebalancer's
  /// (deterministic) load proxy for hot-vs-cold ordering.
  uint64_t session_activity(const SessionId& session) const;
  std::vector<pkt::Endpoint> media_endpoints(const SessionId& session) const;

  /// Detach a session (trails, arena, media bindings) for transplant.
  /// Returns an invalid package when the session does not exist. Counters
  /// (sessions_created etc.) are monotone and unaffected.
  ExtractedSession extract_session(const SessionId& session);
  /// Adopt an extracted session. Precondition: no session with this id
  /// exists here (the router's affinity guarantees it; callers check
  /// has_session first). Does NOT count a session creation — across a
  /// sharded engine the session was created exactly once.
  void install_session(ExtractedSession&& moved);

 private:
  /// All of a session's storage: trails plus their footprint rings live in
  /// the arena; the slot destructor runs the Trail destructors and then the
  /// arena release reclaims every byte at once. Held behind unique_ptr so
  /// the arena's address survives table rehashes (trail rings keep Arena*).
  struct SessionSlot {
    Arena arena;
    std::vector<Trail*> trails;  // creation order, arena-placed
    ~SessionSlot() {
      for (Trail* t : trails) t->~Trail();
    }
  };

  /// (symbol, protocol) packed into one word: Protocol has 7 values, so the
  /// low 3 bits hold it exactly. Hashing this integer is the whole trail
  /// lookup — the old TrailKeyHash re-hashed the session string every time.
  static uint64_t trail_slot_key(Symbol sym, Protocol protocol) {
    return (static_cast<uint64_t>(sym) << 3) | static_cast<uint64_t>(protocol);
  }

  /// One direction of a media flow. Trivially hashable: the steady-state
  /// lookup never touches a string.
  struct MediaFlowKey {
    pkt::Endpoint src;
    pkt::Endpoint dst;
    Protocol protocol;
    bool operator==(const MediaFlowKey&) const = default;
  };
  struct MediaFlowKeyHash {
    uint64_t operator()(const MediaFlowKey& k) const noexcept {
      uint64_t h = (static_cast<uint64_t>(std::hash<pkt::Endpoint>{}(k.src)) << 20) ^
                   static_cast<uint64_t>(std::hash<pkt::Endpoint>{}(k.dst)) ^
                   (static_cast<uint64_t>(k.protocol) << 61);
      return flat_mix64(h);
    }
  };
  struct CachedRoute {
    Trail* trail = nullptr;
    bool bound = false;  // preserved so stats stay exact on cache hits
  };

  /// The binding a media footprint's classification looks up for `ep`:
  /// RTCP runs on media-port + 1, so an odd RTCP port maps to the even RTP
  /// port.
  static pkt::Endpoint binding_key(pkt::Endpoint ep, Protocol protocol) {
    if (protocol == Protocol::kRtcp && ep.port % 2 == 1) ep.port -= 1;
    return ep;
  }

  Symbol classify(const Footprint& fp, bool& media_bound);
  Trail& trail_for(Symbol sym, Protocol protocol);
  /// The binding of `ep` changed: drop the cached routes that looked it up
  /// and log it, so downstream flow caches (the engine fast path) drop the
  /// flows through it too.
  void forget_routes_through(const pkt::Endpoint& ep);
  /// Cached routes may point into departed or destroyed trails: drop all.
  void forget_all_routes();
  void release_route_ref(const pkt::Endpoint& ep);
  std::optional<Symbol> media_session_sym(pkt::Endpoint ep, Protocol protocol) const;

  size_t max_footprints_per_trail_;
  SymbolTable symbols_;
  /// packed (symbol, protocol) -> trail; the Trail objects live in their
  /// session's arena, not here.
  FlatMap<uint64_t, Trail*> trails_;
  FlatMap<Symbol, std::unique_ptr<SessionSlot>> sessions_;
  FlatMap<pkt::Endpoint, Symbol> media_to_session_;
  /// Flow-direction -> trail fast path.
  FlatMap<MediaFlowKey, CachedRoute, MediaFlowKeyHash> media_flow_cache_;
  /// Binding key -> cached routes whose classification looked it up. A
  /// rebound endpoint absent here has no cached route to drop, which is the
  /// common case: SDP names fresh media endpoints.
  FlatMap<pkt::Endpoint, uint32_t> route_refs_;
  /// Endpoints whose binding changed, for the engine's fast path. Sixteen
  /// covers the bindings one packet's processing can make.
  ChangeLog<pkt::Endpoint, 16> rebound_;
  TrailManagerStats stats_;
};

}  // namespace scidive::core
