// TrailManager: routes footprints into per-session, per-protocol Trails and
// owns the cross-protocol session correlation:
//   - SIP footprints key by Call-ID;
//   - RTP/RTCP footprints key by media endpoints learned from the session's
//     SDP (both offered and answered);
//   - ACC footprints key by the CDR's call_id field.
// RTP with no known session gets a synthetic per-flow session so that rules
// can still reason about unsignaled media ("flow:<src>-><dst>").
//
// Each session has one record: its trails, its event state and the state
// each session-keyed rule keeps about it. The record table is the only table
// keyed by session:
//   - every session id is interned once into a SymbolTable; the record
//     table keys on the dense uint32 symbol, so routing compares integers,
//     never strings;
//   - a session's trail is found by scanning its record's trail list, which
//     holds at most one trail per protocol;
//   - each record owns an Arena; its Trail objects and their footprint
//     rings bump-allocate from it, so session teardown is one arena release
//     instead of per-trail frees. (A SIP footprint's own block is owned by
//     its ring slot, not the arena, so a wrapping ring frees what it
//     overwrites.) The event state is an ordinary member of
//     the record (not arena-placed), and so is each rule's state (one
//     slot per rule position, empty until that rule first writes): they
//     live and die with the record.
// Expiry and fleet handoff therefore drop or move one record.
//
// Each principal (a claimed AOR) has one record too, in the principal table
// beside the session table — the only AOR-keyed table. It holds what each
// principal-keyed rule (`key aor`: fake-IM, SPIT graylisting) keeps about
// the AOR, in the same per-rule-position slots a session record has, and
// the AOR's registered locations (the passive mirror of the registrar's
// location service). A principal outlives any one session, so its record
// is created on first use and never expires; a hot reload empties its rule
// slots and keeps its locations, and fleet handoff moves it whole.
//
// The media path is the hot path: once a flow's first packet has been
// classified, a (src, dst, protocol) -> MediaFlow cache routes every further
// packet of that flow with a single hash lookup on trivially-hashable keys —
// no session-id strings are built or copied, so steady-state in-session RTP
// classification performs zero heap allocations. The cache entry is also the
// flow's one record: the event generator attaches the session's RTP state to
// it, and the slow path and the engine's bypass both step that state in
// place. A binding change (SDP offer/answer, re-INVITE) drops only the cached
// routes whose classification looked the rebound endpoint up, so call setup
// elsewhere leaves established flows cached; expiry and session migration
// still drop every route.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/symbol.h"
#include "scidive/session_state.h"
#include "scidive/trail.h"

namespace scidive::core {

/// One direction of a media flow as routed: the flow-cache entry and, for
/// RTP, the flow's one record. The trail manager fills the route; the event
/// generator attaches the session's RTP state on the flow's first RTP
/// packet. From then on the slow path and the engine's bypass step that
/// state in place through these pointers, so nothing is copied and nothing
/// needs writing back. The pointees live in the session's record; the trail
/// manager drops every route before it drops or moves a record.
struct MediaFlow {
  Trail* trail = nullptr;
  bool bound = false;  // routed via an SDP binding; keeps stats exact on cache hits
  EventSessionState* session = nullptr;
  RtpEndpointState* src = nullptr;  // the sending endpoint's state in the session
  RtpEndpointState* dst = nullptr;  // the receiving endpoint's state in the session
};

/// One address the registrar accepted for a principal, and when it last did.
struct RegisteredLocation {
  pkt::Ipv4Address addr;
  SimTime at = 0;
};

struct TrailManagerStats {
  uint64_t footprints_routed = 0;
  uint64_t sessions_created = 0;
  uint64_t rtp_bound_to_session = 0;   // matched via SDP-learned endpoints
  uint64_t rtp_unbound = 0;            // synthetic flow session
  uint64_t flow_cache_hits = 0;        // media packets routed without classify
  uint64_t trails_expired = 0;         // trails dropped by expire_idle
  uint64_t sessions_expired = 0;       // records dropped with their last trail
};

class TrailManager {
 private:
  struct SessionSlot;  // all of one session's storage; defined below

  /// One principal's record. Stored by value in the principal table:
  /// nothing keeps a pointer into it past one rule call.
  struct PrincipalRecord {
    /// Indexed by rule position; grown only as far as the rules that wrote.
    std::vector<std::unique_ptr<RuleSessionState>> rules;
    /// Addresses the registrar accepted for the AOR, one entry each.
    std::vector<RegisteredLocation> locations;
  };

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
  /// The cached route of one media flow direction, nullptr when the flow's
  /// next packet would have to be classified. Lookup only: no stats move.
  /// The pointer is valid until the next route, binding change or expiry.
  MediaFlow* find_flow(const pkt::Endpoint& src, const pkt::Endpoint& dst, Protocol protocol) {
    return media_flow_cache_.find(MediaFlowKey{src, dst, protocol});
  }
  /// Cached RTP routes with session state attached: the flows the engine's
  /// bypass can step.
  size_t attached_flows() const;
  /// The event state of the session `trail` belongs to. Precondition:
  /// `trail` was routed by this manager and has not expired.
  EventSessionState& session_state(const Trail& trail) {
    return (*sessions_.find(trail.sym()))->events;
  }
  size_t trail_count() const { return trail_count_; }
  size_t session_count() const { return sessions_.size(); }
  size_t media_binding_count() const { return media_to_session_.size(); }
  const TrailManagerStats& stats() const { return stats_; }

  /// The interner shared by every downstream consumer of this manager's
  /// session ids.
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  /// Bytes reserved across all live session arenas (observability gauge).
  size_t arena_bytes_reserved() const;

  // --- Rule state (one slot per rule position) ---------------------------

  /// The slot of rule position `rule` in `session`'s record, created empty
  /// on first use; nullptr when the session has no record.
  std::unique_ptr<RuleSessionState>* rule_slot(const SessionId& session, size_t rule);
  /// The slot of rule position `rule` in `aor`'s principal record, created
  /// empty on first use, the record with it.
  std::unique_ptr<RuleSessionState>* principal_slot(std::string_view aor, size_t rule);
  /// Session and principal records holding state, for each rule position
  /// below `rules`.
  std::vector<size_t> rule_state_counts(size_t rules) const;
  /// Drop every record's rule state: a new ruleset starts fresh. Registered
  /// locations stay; a principal record without any goes.
  void clear_rule_states();

  // --- Principals (AOR-keyed records) ------------------------------------

  /// The registrar accepted `addr` for `aor` at `time` (its 200 to a
  /// REGISTER).
  void commit_location(std::string_view aor, pkt::Ipv4Address addr, SimTime time);
  /// Every address the registrar accepted for `aor`; empty when it never
  /// accepted one.
  std::span<const RegisteredLocation> registered_locations(std::string_view aor) const;
  /// When the registrar last accepted `addr` for `aor`; nullopt if never.
  std::optional<SimTime> registered_at(std::string_view aor, pkt::Ipv4Address addr) const;

  size_t principal_count() const { return principals_.size(); }
  bool has_principal(std::string_view aor) const;
  /// Every AOR with a record, sorted.
  std::vector<std::string> principals() const;

  /// Drop every trail whose newest footprint is older than `cutoff`. A
  /// record goes with its last trail, event state, rule state and media
  /// bindings included; its id is appended to `retired` when given.
  /// Returns the trails dropped.
  size_t expire_idle(SimTime cutoff, std::vector<SessionId>* retired = nullptr);

  // --- Session migration (fleet churn handoff) --------------------------
  // A session moves between managers as one opaque package: its record
  // (arena, trails, event state, rule state) plus the media endpoints bound
  // to it. Rule state is indexed by rule position, so both managers must
  // serve the same ruleset.
  // Trail and state pointers stay valid across the move (the record moves,
  // not the objects); install re-interns the id and rebinds the trails to
  // the adopting manager's symbol.

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
  /// True for the ids classify() synthesizes rather than reads off the
  /// traffic ("flow:...", "sip-anon", "ras-reg:<alias>", ...). They collide
  /// across unrelated flows or carry per-principal state, so fleet handoff
  /// leaves these sessions where they are.
  static bool synthetic_session(std::string_view session);
  std::vector<pkt::Endpoint> media_endpoints(const SessionId& session) const;

  /// Detach a session (its record and media bindings) for transplant.
  /// Returns an invalid package when the session does not exist. Counters
  /// (sessions_created etc.) are monotone and unaffected.
  ExtractedSession extract_session(const SessionId& session);
  /// Adopt an extracted session. Precondition: no session with this id
  /// exists here (the router's affinity guarantees it; callers check
  /// has_session first). Does NOT count a session creation — across a
  /// sharded engine the session was created exactly once.
  void install_session(ExtractedSession&& moved);

  /// A principal moves the same way: its whole record (rule slots and
  /// registered locations), indexed by the same rule positions.
  struct ExtractedPrincipal {
    std::string aor;
    std::optional<PrincipalRecord> record;  // empty when extraction failed
    bool valid() const { return record.has_value(); }
  };
  /// Detach `aor`'s record; an invalid package when it has none.
  ExtractedPrincipal extract_principal(std::string_view aor);
  /// Adopt an extracted principal. Precondition: !has_principal(moved.aor).
  void install_principal(ExtractedPrincipal&& moved);

 private:
  /// One session's record: trails plus their footprint rings live in the
  /// arena; the slot destructor runs the Trail destructors and then the
  /// arena release reclaims every byte at once. Held behind unique_ptr so
  /// the arena's and the event state's addresses survive table rehashes
  /// (trail rings keep Arena*, flow records keep state pointers).
  struct SessionSlot {
    /// A one-trail session (a trail and its first ring block, 416 B) fits
    /// the first chunk; the second chunk (twice the size) holds a second
    /// trail plus the first trail's ring regrown to eight slots.
    static constexpr size_t kFirstChunkBytes = 512;

    Arena arena{kFirstChunkBytes};
    std::vector<Trail*> trails;  // creation order, arena-placed, one per protocol
    EventSessionState events;
    /// Indexed by rule position; grown only as far as the rules that wrote.
    std::vector<std::unique_ptr<RuleSessionState>> rules;
    ~SessionSlot() {
      for (Trail* t : trails) t->~Trail();
    }
    Trail* find(Protocol protocol) const {
      for (Trail* t : trails) {
        if (t->key().protocol == protocol) return t;
      }
      return nullptr;
    }
  };

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

  /// The binding a media footprint's classification looks up for `ep`:
  /// RTCP runs on media-port + 1, so an odd RTCP port maps to the even RTP
  /// port.
  static pkt::Endpoint binding_key(pkt::Endpoint ep, Protocol protocol) {
    if (protocol == Protocol::kRtcp && ep.port % 2 == 1) ep.port -= 1;
    return ep;
  }

  Symbol classify(const Footprint& fp, bool& media_bound);
  Trail& trail_for(Symbol sym, Protocol protocol);
  /// The record of `session`, nullptr when it has none. Shallow const, like
  /// the trail pointers the record holds.
  SessionSlot* slot_of(const SessionId& session) const;
  /// Drop every cached route: they may point into a record being dropped
  /// or moved.
  void forget_routes();
  /// The binding of `ep` changed: drop the cached routes that looked it up.
  void forget_routes_through(const pkt::Endpoint& ep);
  void release_route_ref(const pkt::Endpoint& ep);
  std::optional<Symbol> media_session_sym(pkt::Endpoint ep, Protocol protocol) const;

  /// The record of `aor`, nullptr when it has none.
  const PrincipalRecord* principal_of(std::string_view aor) const;

  size_t max_footprints_per_trail_;
  SymbolTable symbols_;
  /// Session symbol -> its record.
  FlatMap<Symbol, std::unique_ptr<SessionSlot>> sessions_;
  /// AORs, interned apart from session ids: a principal symbol keys only
  /// the principal table.
  SymbolTable principal_symbols_;
  /// Principal symbol -> its record.
  FlatMap<Symbol, PrincipalRecord> principals_;
  size_t trail_count_ = 0;
  FlatMap<pkt::Endpoint, Symbol> media_to_session_;
  /// Flow direction -> flow record.
  FlatMap<MediaFlowKey, MediaFlow, MediaFlowKeyHash> media_flow_cache_;
  /// Binding key -> cached routes whose classification looked it up. A
  /// rebound endpoint absent here has no cached route to drop, which is the
  /// common case: SDP names fresh media endpoints.
  FlatMap<pkt::Endpoint, uint32_t> route_refs_;
  TrailManagerStats stats_;
};

}  // namespace scidive::core
