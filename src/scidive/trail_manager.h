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
//     overwrites.) The event state is an ordinary member of the record (not
//     arena-placed), and so is its rule state: one block laid out by the
//     ruleset (scidive/rule_state.h), allocated on the record's first rule
//     write, with each stateful rule's area at a fixed offset and one
//     presence bit per rule. Both live and die with the record.
// Retirement and fleet handoff therefore drop or move one record.
//
// Records retire on packet time. The engine advances the manager's expiry
// wheel to each inspected packet's time (the clock is the largest time
// seen, so it never runs backwards); each record sits on the wheel once, at
// its deadline. A touch writes nothing to the wheel — the record's trails
// already keep their last times — so a record whose deadline comes due
// either retires or re-arms at its real deadline: idle past its retention.
// Retention comes from the ruleset (set_retention): a closed record (its
// dialog mirror saw a BYE, the initial INVITE failing or an out-of-dialog
// transaction completing) is kept for the window m and the horizon of every
// rule whose presence bit is set in its block; an open one for the longest
// horizon in the ruleset. Ticks are coarse, which can only delay a
// retirement. Retiring a record drops exactly what is its own: its arena,
// trails, event and rule state, the media bindings still pointing at it and
// the cached routes into it — nothing else in the tables is read. Whether a record is retired when
// its next packet arrives depends only on its own footprints and that
// packet's time, so every topology retires the same records.
//
// Each principal (a claimed AOR) has one record too, in the principal table
// beside the session table — the only AOR-keyed table. It holds what each
// principal-keyed rule (`key aor`: fake-IM, SPIT graylisting) keeps about
// the AOR, in one block laid out like a session record's, and the AOR's
// registered locations (the passive mirror of the registrar's location
// service) — two pointers, so a table slot is 24 bytes. A principal
// outlives any one session, so its record is created on first use and does
// not expire yet (its presence bits are what expiry will read); a hot
// reload frees its block and keeps its locations, and fleet handoff moves
// it whole. A block that arrives under a layout other than the adopting
// manager's is dropped, never misread.
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
// elsewhere leaves established flows cached; retirement and session
// migration drop only the routes into the record that goes.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/symbol.h"
#include "scidive/rule_state.h"
#include "scidive/session_state.h"
#include "scidive/trail.h"

namespace scidive::core {

/// One direction of a media flow as routed: the flow-cache entry and, for
/// RTP, the flow's one record. The trail manager fills the route; the event
/// generator attaches the session's RTP state on the flow's first RTP
/// packet. From then on the slow path and the engine's bypass step that
/// state in place through these pointers, so nothing is copied and nothing
/// needs writing back. The pointees live in the session's record; the trail
/// manager drops a record's routes before it drops or moves the record.
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
  uint64_t sessions_retired_closed = 0;  // records retired after their dialog closed
  uint64_t sessions_retired_idle = 0;    // records retired while still open
};

/// How long an idle session record is kept, derived from the ruleset by the
/// engine (ScidiveEngine keeps it in step with its rules).
struct RetentionPolicy {
  /// The least a closed record is kept: the monitoring window m of §4.3,
  /// so orphan media after a BYE still meets the record.
  SimDuration closed = 0;
  /// An open record's retention: the longest horizon in the ruleset, and
  /// at least `closed`.
  SimDuration open = 0;
  /// Each rule position's horizon: a closed record holding that rule's
  /// state is kept at least this long.
  std::vector<SimDuration> rule_horizons;
};

class TrailManager {
 private:
  struct SessionSlot;  // all of one session's storage; defined below

  /// Addresses the registrar accepted for one AOR, one entry each: a count,
  /// a capacity and the entries in one heap block behind one pointer, none
  /// while empty.
  class Locations {
   public:
    Locations() = default;
    Locations(Locations&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
    Locations& operator=(Locations&& other) noexcept {
      std::swap(p_, other.p_);
      return *this;
    }
    ~Locations() { ::operator delete(p_); }

    bool empty() const { return p_ == nullptr; }
    std::span<const RegisteredLocation> view() const {
      if (p_ == nullptr) return {};
      return {entries(), header().size};
    }
    /// The registrar accepted `addr` at `time`.
    void commit(pkt::Ipv4Address addr, SimTime time);

   private:
    struct Header {
      uint32_t size;
      uint32_t capacity;
    };
    static_assert(sizeof(Header) % alignof(RegisteredLocation) == 0);
    Header& header() const { return *reinterpret_cast<Header*>(p_); }
    RegisteredLocation* entries() const {
      return reinterpret_cast<RegisteredLocation*>(p_ + sizeof(Header));
    }

    std::byte* p_ = nullptr;
  };

  /// One principal's record, stored by value in the principal table. The
  /// block and the location entries live behind their pointers, so a rule
  /// area stays put when the table rehashes.
  struct PrincipalRecord {
    RuleStateBlock rules;
    Locations locations;
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
  /// call's media will flow). The session's record owns the binding, so it
  /// goes when the record retires or moves; a binding made while the
  /// session has no record yet belongs to no record.
  void bind_media_endpoint(const pkt::Endpoint& media, const SessionId& session);
  void unbind_media_endpoint(const pkt::Endpoint& media);
  std::optional<SessionId> session_for_media(const pkt::Endpoint& media) const;

  /// Lookup; nullptr when the trail does not exist.
  const Trail* find(const SessionId& session, Protocol protocol) const;

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
  /// `trail` was routed by this manager and has not retired.
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

  // --- Rule state (one block per record, laid out by the ruleset) -------
  // The engine installs its ruleset's layout; a manager without one keeps
  // no rule state. A rule area stays valid until the record retires or
  // moves, or the layout changes.

  /// Free every block (clear_rule_states), then lay records out by `layout`.
  void set_rule_layout(std::shared_ptr<const RuleStateLayout> layout);
  /// The area of rule position `rule` in `session`'s record, built on first
  /// use; nullptr when the session has no record or the rule keeps no
  /// session state.
  void* rule_slot(const SessionId& session, size_t rule);
  /// Whether rule position `rule` has built its area in `session`'s record.
  bool has_rule_state(const SessionId& session, size_t rule) const;
  /// The area of rule position `rule` in `aor`'s principal record, built on
  /// first use, the record with it; nullptr when the rule keeps no
  /// principal state.
  void* principal_slot(std::string_view aor, size_t rule);
  /// The area of rule position `rule` in the engine block (which no record
  /// carries), built on first use; nullptr for a rule without engine state.
  void* engine_slot(size_t rule);
  /// Records (the engine block counted as one) holding state, for each rule
  /// position below `rules`.
  std::vector<size_t> rule_state_counts(size_t rules) const;
  /// Records (the engine block counted as one) holding a rule-state block.
  size_t rule_state_blocks() const;
  /// Free every record's rule state and the engine block. Registered
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

  // --- Retirement on packet time --------------------------------------

  /// The retention every record is judged by from now on. A record whose
  /// retention shrank keeps its wake and retires at it, late but never
  /// early.
  void set_retention(RetentionPolicy policy) { retention_ = std::move(policy); }
  const RetentionPolicy& retention() const { return retention_; }
  /// Move the expiry wheel's clock to `now` (never backwards) and retire
  /// every record whose deadline has come due. One compare while the clock
  /// stays inside the current tick.
  void advance(SimTime now) {
    if (now >= next_tick_at_) advance_wheel(now);
  }
  /// The start of the wheel tick holding the largest time advanced to.
  SimTime wheel_time() const { return wheel_tick_ << kWheelTickShift; }
  /// The dialog mirror closed `trail`'s session: its retention may have
  /// shrunk, so its wake moves up to its deadline when that comes sooner.
  void note_closed(const Trail& trail);
  uint64_t sessions_retired() const {
    return stats_.sessions_retired_closed + stats_.sessions_retired_idle;
  }

  /// Forced sweep through the same retire path: retire every record whose
  /// newest footprint is older than `cutoff`, whatever its retention. Each
  /// retired id is appended to `retired` when given. Returns the records
  /// retired.
  size_t expire_idle(SimTime cutoff, std::vector<SessionId>* retired = nullptr);

  // --- Session migration (fleet churn handoff) --------------------------
  // A session moves between managers as one opaque package: its record
  // (arena, trails, event state, rule-state block, the media endpoints
  // bound to it), from which its deadline follows. The block is kept only
  // when the adopting manager's session layout is compatible with the one
  // it was built under, so both managers must serve the same ruleset for
  // rule state to cross.
  // Trail and state pointers stay valid across the move (the record moves,
  // not the objects); install re-interns the id, rebinds the trails to
  // the adopting manager's symbol and re-arms the record on its wheel.

  struct ExtractedSession {
    SessionId id;
    /// Keeps the block's layout alive in transit.
    std::shared_ptr<const RuleStateLayout> layout;
    std::unique_ptr<SessionSlot> slot;  // null when extraction failed
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

  /// Detach a session (its record and media bindings) for transplant; only
  /// the record's own cached routes are dropped. Returns an invalid package
  /// when the session does not exist. Counters (sessions_created etc.) are
  /// monotone and unaffected.
  ExtractedSession extract_session(const SessionId& session);
  /// Adopt an extracted session. Precondition: no session with this id
  /// exists here (the router's affinity guarantees it; callers check
  /// has_session first). Does NOT count a session creation — across a
  /// sharded engine the session was created exactly once. A record already
  /// past its deadline on this manager's clock retires at once, as it would
  /// have where it came from.
  void install_session(ExtractedSession&& moved);

  /// A principal moves the same way: its whole record (rule-state block and
  /// registered locations), the block kept as a session's is.
  struct ExtractedPrincipal {
    std::string aor;
    /// Keeps the block's layout alive in transit.
    std::shared_ptr<const RuleStateLayout> layout;
    std::optional<PrincipalRecord> record;  // empty when extraction failed
    bool valid() const { return record.has_value(); }
  };
  /// Detach `aor`'s record; an invalid package when it has none.
  ExtractedPrincipal extract_principal(std::string_view aor);
  /// Adopt an extracted principal. Precondition: !has_principal(moved.aor).
  void install_principal(ExtractedPrincipal&& moved);

 private:
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

  /// One session's record: trails plus their footprint rings live in the
  /// arena; the slot destructor runs the Trail destructors and then the
  /// arena release reclaims every byte at once. Held behind unique_ptr so
  /// the arena's and the event state's addresses survive table rehashes
  /// (trail rings keep Arena*, flow records keep state pointers, the wheel
  /// links records).
  struct SessionSlot {
    /// A one-trail session (a trail and its first ring block, 416 B) fits
    /// the first chunk; the second chunk (twice the size) holds a second
    /// trail plus the first trail's ring regrown to eight slots.
    static constexpr size_t kFirstChunkBytes = 512;

    Arena arena{kFirstChunkBytes};
    /// Creation order, arena-placed, one per protocol.
    std::array<Trail*, kProtocolCount> trails{};
    uint8_t trail_count = 0;
    Symbol sym = kInvalidSymbol;
    /// The wheel tick the record's one wake entry sits at, and its
    /// neighbours in that tick's list.
    int64_t wake_tick = 0;
    SessionSlot* wake_prev = nullptr;
    SessionSlot* wake_next = nullptr;
    EventSessionState events;
    RuleStateBlock rules;
    /// Endpoints bound to this session, each once; a binding that has since
    /// moved to another session is skipped when this record goes.
    std::vector<pkt::Endpoint> media;
    /// Cached routes into this record's trails, each once; a route that has
    /// since been dropped or re-routed elsewhere is skipped.
    std::vector<MediaFlowKey> routes;

    ~SessionSlot() {
      for (Trail* t : trail_list()) t->~Trail();
    }
    std::span<Trail* const> trail_list() const { return {trails.data(), trail_count}; }
    Trail* find(Protocol protocol) const {
      for (Trail* t : trail_list()) {
        if (t->key().protocol == protocol) return t;
      }
      return nullptr;
    }
    /// The newest footprint time across the record's trails.
    SimTime last_touch() const;
  };

  /// The binding a media footprint's classification looks up for `ep`:
  /// RTCP runs on media-port + 1, so an odd RTCP port maps to the even RTP
  /// port.
  static pkt::Endpoint binding_key(pkt::Endpoint ep, Protocol protocol) {
    if (protocol == Protocol::kRtcp && ep.port % 2 == 1) ep.port -= 1;
    return ep;
  }

  Symbol classify(const Footprint& fp, bool& media_bound);
  /// The record of `sym`, created (and armed from `time`) on first use.
  SessionSlot& record_for(Symbol sym, SimTime time);
  Trail& trail_in(SessionSlot& slot, Protocol protocol);
  /// The record of `session`, nullptr when it has none. Shallow const, like
  /// the trail pointers the record holds.
  SessionSlot* slot_of(const SessionId& session) const;
  /// Drop the cached routes into `slot`'s trails, and nothing else: the
  /// record is retiring or moving.
  void forget_routes_into(SessionSlot& slot);
  /// The binding of `ep` changed: drop the cached routes that looked it up.
  void forget_routes_through(const pkt::Endpoint& ep);
  void release_route_ref(const pkt::Endpoint& ep);
  std::optional<Symbol> media_session_sym(pkt::Endpoint ep, Protocol protocol) const;

  /// The record of `aor`, nullptr when it has none.
  const PrincipalRecord* principal_of(std::string_view aor) const;
  /// Where rule position `rule` keeps its state under the current layout.
  RuleStateLayout::Place rule_place(size_t rule) const {
    return rule_layout_ == nullptr ? RuleStateLayout::Place{} : rule_layout_->place(rule);
  }
  /// Keep `block` (built under another manager's layout) when the current
  /// layout of its key kind is compatible, else free it.
  void adopt_block(RuleStateBlock& block, StateKey key) const;

  // --- The expiry wheel ---------------------------------------------------
  // A hashed wheel of kWheelSlots tick lists; a record's wake sits in the
  // list of its tick modulo the wheel size, and an entry more than one turn
  // away is passed over until its turn.

  /// Ticks of 2^16 µs (about 65 ms); one turn of the wheel is about 134 s.
  static constexpr int kWheelTickShift = 16;
  static constexpr size_t kWheelSlots = 2048;

  void advance_wheel(SimTime now);
  /// The first tick starting at or after `time + keep` (saturating).
  static int64_t tick_at_or_after(SimTime time, SimDuration keep);
  /// The tick by which `slot` has been idle for its retention.
  int64_t due_tick(const SessionSlot& slot) const;
  SimDuration retention_of(const SessionSlot& slot) const;
  void link(SessionSlot& slot, int64_t tick);
  void unlink(SessionSlot& slot);
  /// A record's wake: retire it if due by the wheel's tick, else re-arm it
  /// at its deadline.
  void wake(SessionSlot& slot);
  /// Drop one unlinked record: routes, bindings, then the record itself.
  void retire(SessionSlot& slot);

  size_t max_footprints_per_trail_;
  /// Where each rule keeps its state; null until the engine installs one.
  /// Declared before the blocks: they point into it.
  std::shared_ptr<const RuleStateLayout> rule_layout_;
  /// The kEngine rules' state, across every session.
  RuleStateBlock engine_rules_;
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
  RetentionPolicy retention_;
  /// Tick list heads, allocated on the first arm.
  std::vector<SessionSlot*> wheel_;
  /// The tick of the largest time advanced to; valid once started.
  int64_t wheel_tick_ = 0;
  bool wheel_started_ = false;
  /// The first time of the next tick: advance() does nothing below it.
  SimTime next_tick_at_ = INT64_MIN;
  TrailManagerStats stats_;
};

}  // namespace scidive::core
