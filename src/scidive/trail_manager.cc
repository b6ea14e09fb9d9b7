#include "scidive/trail_manager.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/strings.h"

namespace scidive::core {

namespace {

bool is_media(Protocol p) {
  return p == Protocol::kRtp || p == Protocol::kRtcp || p == Protocol::kUnknown;
}

}  // namespace

std::optional<Symbol> TrailManager::media_session_sym(pkt::Endpoint ep, Protocol protocol) const {
  // Media correlates through SDP-learned endpoints.
  const Symbol* sym = media_to_session_.find(binding_key(ep, protocol));
  if (sym == nullptr) return std::nullopt;
  return *sym;
}

namespace {

/// Every id prefix classify() mints for a session the traffic does not name.
constexpr std::string_view kSyntheticPrefixes[] = {
    "flow:", "sip-anon", "acc-anon", "h225-anon", "ras-anon", "ras-reg:", "unclassified"};

}  // namespace

bool TrailManager::synthetic_session(std::string_view session) {
  for (std::string_view prefix : kSyntheticPrefixes) {
    if (session.starts_with(prefix)) return true;
  }
  return false;
}

Symbol TrailManager::classify(const Footprint& fp, bool& media_bound) {
  media_bound = false;
  switch (fp.protocol) {
    case Protocol::kSip: {
      const SipFootprint* sip = fp.sip();
      if (sip != nullptr && !sip->call_id.empty()) return symbols_.intern(sip->call_id);
      return symbols_.intern("sip-anon");  // unparseable/malformed SIP shares one bucket
    }
    case Protocol::kAcc: {
      const AccFootprint* acc = fp.acc();
      if (acc != nullptr && !acc->call_id.empty()) return symbols_.intern(acc->call_id);
      return symbols_.intern("acc-anon");
    }
    case Protocol::kH225: {
      const H225Footprint* h225 = fp.h225();
      if (h225 != nullptr && !h225->call_id.empty()) return symbols_.intern(h225->call_id);
      return symbols_.intern("h225-anon");
    }
    case Protocol::kRas: {
      const RasFootprint* ras = fp.ras();
      if (ras != nullptr && !ras->call_id.empty()) return symbols_.intern(ras->call_id);
      if (ras != nullptr && !ras->alias.empty()) {
        return symbols_.intern("ras-reg:" + ras->alias);
      }
      return symbols_.intern("ras-anon");
    }
    case Protocol::kRtp:
    case Protocol::kRtcp:
    case Protocol::kUnknown: {
      for (pkt::Endpoint ep : {fp.src, fp.dst}) {
        if (auto sym = media_session_sym(ep, fp.protocol)) {
          media_bound = true;
          return *sym;
        }
      }
      return symbols_.intern(str::format("flow:%s->%s", fp.src.to_string().c_str(),
                                         fp.dst.to_string().c_str()));
    }
  }
  return symbols_.intern("unclassified");
}

TrailManager::SessionSlot& TrailManager::record_for(Symbol sym, SimTime time) {
  auto [slot_ptr, created] = sessions_.try_emplace(sym);
  if (created) {
    *slot_ptr = std::make_unique<SessionSlot>();
    SessionSlot& slot = **slot_ptr;
    slot.sym = sym;
    ++stats_.sessions_created;
    // Armed for the open retention from its first footprint; a touch before
    // then moves nothing here, the wake re-arms instead.
    link(slot, tick_at_or_after(time, retention_.open));
  }
  return **slot_ptr;
}

Trail& TrailManager::trail_in(SessionSlot& slot, Protocol protocol) {
  if (Trail* found = slot.find(protocol)) return *found;
  Trail* trail = slot.arena.create<Trail>(
      TrailKey{std::string(symbols_.name(slot.sym)), protocol}, max_footprints_per_trail_,
      slot.sym, &slot.arena);
  slot.trails[slot.trail_count++] = trail;
  ++trail_count_;
  return *trail;
}

Trail& TrailManager::route(const Footprint& fp) {
  if (is_media(fp.protocol)) {
    MediaFlowKey flow{fp.src, fp.dst, fp.protocol};
    if (const MediaFlow* cached = media_flow_cache_.find(flow)) {
      ++stats_.flow_cache_hits;
      if (cached->bound) {
        ++stats_.rtp_bound_to_session;
      } else {
        ++stats_.rtp_unbound;
      }
      return *cached->trail;
    }
    bool bound = false;
    Symbol sym = classify(fp, bound);
    if (bound) {
      ++stats_.rtp_bound_to_session;
    } else {
      ++stats_.rtp_unbound;
    }
    SessionSlot& slot = record_for(sym, fp.time);
    Trail& trail = trail_in(slot, fp.protocol);
    media_flow_cache_.try_emplace(flow, MediaFlow{.trail = &trail, .bound = bound});
    ++route_refs_[binding_key(fp.src, fp.protocol)];
    ++route_refs_[binding_key(fp.dst, fp.protocol)];
    if (std::find(slot.routes.begin(), slot.routes.end(), flow) == slot.routes.end()) {
      slot.routes.push_back(flow);
    }
    return trail;
  }
  bool bound = false;
  const Symbol sym = classify(fp, bound);
  return trail_in(record_for(sym, fp.time), fp.protocol);
}

Trail& TrailManager::add(Footprint fp) {
  Trail& trail = route(fp);
  trail.append(std::move(fp));
  ++stats_.footprints_routed;
  return trail;
}

void TrailManager::bind_media_endpoint(const pkt::Endpoint& media, const SessionId& session) {
  const Symbol sym = symbols_.intern(session);
  auto [bound, inserted] = media_to_session_.try_emplace(media, sym);
  if (!inserted) {
    if (*bound == sym) return;  // re-signaled same binding: keep cache
    *bound = sym;
  }
  if (const std::unique_ptr<SessionSlot>* slot = sessions_.find(sym)) {
    std::vector<pkt::Endpoint>& own = (*slot)->media;
    if (std::find(own.begin(), own.end(), media) == own.end()) own.push_back(media);
  }
  // A new or changed binding can redirect flows through `media` that
  // previously resolved to a synthetic flow-session (or another call).
  forget_routes_through(media);
}

void TrailManager::unbind_media_endpoint(const pkt::Endpoint& media) {
  if (media_to_session_.erase(media)) forget_routes_through(media);
}

void TrailManager::forget_routes_through(const pkt::Endpoint& ep) {
  // A route depends only on the bindings of its two endpoints, so every
  // other cached route still classifies the same way.
  if (!route_refs_.contains(ep)) return;
  media_flow_cache_.erase_if([&](const MediaFlowKey& flow, const MediaFlow&) {
    const pkt::Endpoint src = binding_key(flow.src, flow.protocol);
    const pkt::Endpoint dst = binding_key(flow.dst, flow.protocol);
    if (src != ep && dst != ep) return false;
    release_route_ref(src);
    release_route_ref(dst);
    return true;
  });
}

void TrailManager::release_route_ref(const pkt::Endpoint& ep) {
  uint32_t* refs = route_refs_.find(ep);
  if (refs != nullptr && --*refs == 0) route_refs_.erase(ep);
}

void TrailManager::forget_routes_into(SessionSlot& slot) {
  for (const MediaFlowKey& key : slot.routes) {
    const MediaFlow* flow = media_flow_cache_.find(key);
    if (flow == nullptr || flow->trail->sym() != slot.sym) continue;
    media_flow_cache_.erase(key);
    release_route_ref(binding_key(key.src, key.protocol));
    release_route_ref(binding_key(key.dst, key.protocol));
  }
  slot.routes.clear();
}

size_t TrailManager::attached_flows() const {
  size_t n = 0;
  media_flow_cache_.for_each([&n](const MediaFlowKey&, const MediaFlow& flow) {
    if (flow.session != nullptr) ++n;
  });
  return n;
}

std::optional<SessionId> TrailManager::session_for_media(const pkt::Endpoint& media) const {
  const Symbol* sym = media_to_session_.find(media);
  if (sym == nullptr) return std::nullopt;
  return SessionId(symbols_.name(*sym));
}

TrailManager::SessionSlot* TrailManager::slot_of(const SessionId& session) const {
  auto sym = symbols_.find(session);
  if (!sym) return nullptr;
  const std::unique_ptr<SessionSlot>* slot = sessions_.find(*sym);
  return slot == nullptr ? nullptr : slot->get();
}

const Trail* TrailManager::find(const SessionId& session, Protocol protocol) const {
  const SessionSlot* slot = slot_of(session);
  return slot == nullptr ? nullptr : slot->find(protocol);
}

Trail* TrailManager::find_mut(const SessionId& session, Protocol protocol) {
  const SessionSlot* slot = slot_of(session);
  return slot == nullptr ? nullptr : slot->find(protocol);
}

std::vector<const Trail*> TrailManager::session_trails(const SessionId& session) const {
  std::vector<const Trail*> out;
  if (const SessionSlot* slot = slot_of(session)) {
    out.assign(slot->trail_list().begin(), slot->trail_list().end());
  }
  return out;
}

std::vector<SessionId> TrailManager::sessions() const {
  std::vector<SessionId> out;
  out.reserve(sessions_.size());
  sessions_.for_each([&](const Symbol& sym, const std::unique_ptr<SessionSlot>&) {
    out.emplace_back(symbols_.name(sym));
  });
  std::sort(out.begin(), out.end());
  return out;
}

size_t TrailManager::arena_bytes_reserved() const {
  size_t bytes = 0;
  sessions_.for_each([&](const Symbol&, const std::unique_ptr<SessionSlot>& slot) {
    bytes += slot->arena.bytes_reserved();
  });
  return bytes;
}

void TrailManager::set_rule_layout(RuleStateLayout layout) {
  auto next = std::make_shared<const RuleStateLayout>(std::move(layout));
  auto keeps = [&](StateKey key) {
    return rule_layout_ != nullptr && next->block(key).compatible(rule_layout_->block(key));
  };
  const bool keep_sessions = keeps(StateKey::kSession);
  const bool keep_principals = keeps(StateKey::kPrincipal);
  sessions_.for_each([&](const Symbol&, std::unique_ptr<SessionSlot>& slot) {
    if (keep_sessions) {
      slot->rules.relayout(next->block(StateKey::kSession));
    } else {
      slot->rules.reset();
    }
  });
  if (!keep_principals) {
    principals_.erase_if(
        [](const Symbol&, const PrincipalRecord& record) { return record.locations.empty(); });
  }
  principals_.for_each([&](const Symbol&, PrincipalRecord& record) {
    if (keep_principals) {
      record.rules.relayout(next->block(StateKey::kPrincipal));
    } else {
      record.rules.reset();
    }
  });
  rule_layout_ = std::move(next);
}

void* TrailManager::rule_slot(const SessionId& session, size_t rule) {
  const RuleStateLayout::Place place = rule_place(rule);
  if (place.key != StateKey::kSession) return nullptr;
  SessionSlot* slot = slot_of(session);
  if (slot == nullptr) return nullptr;
  return slot->rules.area(rule_layout_->block(StateKey::kSession), place.entry);
}

bool TrailManager::has_rule_state(const SessionId& session, size_t rule) const {
  const RuleStateLayout::Place place = rule_place(rule);
  if (place.key != StateKey::kSession) return false;
  const SessionSlot* slot = slot_of(session);
  return slot != nullptr && slot->rules.holds(place.entry);
}

void* TrailManager::principal_slot(std::string_view aor, size_t rule) {
  const RuleStateLayout::Place place = rule_place(rule);
  if (place.key != StateKey::kPrincipal) return nullptr;
  PrincipalRecord& record = *principals_.try_emplace(principal_symbols_.intern(aor)).first;
  return record.rules.area(rule_layout_->block(StateKey::kPrincipal), place.entry);
}

std::vector<size_t> TrailManager::rule_state_counts(size_t rules) const {
  std::vector<size_t> counts(rules, 0);
  auto count = [&](const RuleStateBlock& block) {
    block.for_each_held([&](size_t entry) {
      const uint32_t rule = block.layout()->entries()[entry].rule;
      if (rule < rules) ++counts[rule];
    });
  };
  sessions_.for_each(
      [&](const Symbol&, const std::unique_ptr<SessionSlot>& slot) { count(slot->rules); });
  principals_.for_each([&](const Symbol&, const PrincipalRecord& record) { count(record.rules); });
  return counts;
}

size_t TrailManager::rule_state_blocks() const {
  size_t n = 0;
  sessions_.for_each([&](const Symbol&, const std::unique_ptr<SessionSlot>& slot) {
    n += slot->rules.empty() ? 0 : 1;
  });
  principals_.for_each(
      [&](const Symbol&, const PrincipalRecord& record) { n += record.rules.empty() ? 0 : 1; });
  return n;
}

void TrailManager::clear_rule_states() {
  sessions_.for_each(
      [](const Symbol&, std::unique_ptr<SessionSlot>& slot) { slot->rules.reset(); });
  principals_.erase_if(
      [](const Symbol&, const PrincipalRecord& record) { return record.locations.empty(); });
  principals_.for_each([](const Symbol&, PrincipalRecord& record) { record.rules.reset(); });
}

void TrailManager::adopt_block(RuleStateBlock& block, StateKey key) const {
  if (block.empty()) return;
  if (rule_layout_ != nullptr && rule_layout_->block(key).compatible(*block.layout())) {
    block.relayout(rule_layout_->block(key));
  } else {
    block.reset();
  }
}

const TrailManager::PrincipalRecord* TrailManager::principal_of(std::string_view aor) const {
  auto sym = principal_symbols_.find(aor);
  return sym ? principals_.find(*sym) : nullptr;
}

void TrailManager::Locations::commit(pkt::Ipv4Address addr, SimTime time) {
  const uint32_t size = p_ == nullptr ? 0 : header().size;
  for (uint32_t i = 0; i < size; ++i) {
    if (entries()[i].addr == addr) {
      entries()[i].at = time;
      return;
    }
  }
  if (p_ == nullptr || size == header().capacity) {
    const uint32_t capacity = size == 0 ? 1 : 2 * size;
    auto* grown = static_cast<std::byte*>(
        ::operator new(sizeof(Header) + capacity * sizeof(RegisteredLocation)));
    ::new (grown) Header{size, capacity};
    if (p_ != nullptr) {
      std::memcpy(grown + sizeof(Header), entries(), size * sizeof(RegisteredLocation));
    }
    ::operator delete(p_);
    p_ = grown;
  }
  ::new (entries() + size) RegisteredLocation{addr, time};
  header().size = size + 1;
}

void TrailManager::commit_location(std::string_view aor, pkt::Ipv4Address addr, SimTime time) {
  principals_.try_emplace(principal_symbols_.intern(aor)).first->locations.commit(addr, time);
}

std::span<const RegisteredLocation> TrailManager::registered_locations(
    std::string_view aor) const {
  const PrincipalRecord* record = principal_of(aor);
  if (record == nullptr) return {};
  return record->locations.view();
}

std::optional<SimTime> TrailManager::registered_at(std::string_view aor,
                                                   pkt::Ipv4Address addr) const {
  for (const RegisteredLocation& location : registered_locations(aor)) {
    if (location.addr == addr) return location.at;
  }
  return std::nullopt;
}

bool TrailManager::has_principal(std::string_view aor) const {
  return principal_of(aor) != nullptr;
}

std::vector<std::string> TrailManager::principals() const {
  std::vector<std::string> out;
  out.reserve(principals_.size());
  principals_.for_each([&](const Symbol& sym, const PrincipalRecord&) {
    out.emplace_back(principal_symbols_.name(sym));
  });
  std::sort(out.begin(), out.end());
  return out;
}

TrailManager::ExtractedPrincipal TrailManager::extract_principal(std::string_view aor) {
  ExtractedPrincipal out;
  auto sym = principal_symbols_.find(aor);
  if (!sym) return out;
  PrincipalRecord* record = principals_.find(*sym);
  if (record == nullptr) return out;
  out.aor = std::string(aor);
  out.layout = rule_layout_;
  out.record = std::move(*record);
  principals_.erase(*sym);
  return out;
}

void TrailManager::install_principal(ExtractedPrincipal&& moved) {
  if (!moved.valid()) return;
  adopt_block(moved.record->rules, StateKey::kPrincipal);
  if (moved.record->rules.empty() && moved.record->locations.empty()) return;
  principals_.try_emplace(principal_symbols_.intern(moved.aor), std::move(*moved.record));
}

TrailManager::ExtractedSession::ExtractedSession() = default;
TrailManager::ExtractedSession::ExtractedSession(ExtractedSession&&) noexcept = default;
TrailManager::ExtractedSession& TrailManager::ExtractedSession::operator=(
    ExtractedSession&&) noexcept = default;
TrailManager::ExtractedSession::~ExtractedSession() = default;

bool TrailManager::has_session(const SessionId& session) const {
  return slot_of(session) != nullptr;
}

std::vector<pkt::Endpoint> TrailManager::media_endpoints(const SessionId& session) const {
  std::vector<pkt::Endpoint> out;
  const SessionSlot* slot = slot_of(session);
  if (slot == nullptr) return out;
  for (const pkt::Endpoint& ep : slot->media) {
    const Symbol* bound = media_to_session_.find(ep);
    if (bound != nullptr && *bound == slot->sym) out.push_back(ep);
  }
  return out;
}

TrailManager::ExtractedSession TrailManager::extract_session(const SessionId& session) {
  ExtractedSession out;
  auto sym = symbols_.find(session);
  if (!sym) return out;
  std::unique_ptr<SessionSlot>* found = sessions_.find(*sym);
  if (found == nullptr) return out;
  out.id = session;
  out.layout = rule_layout_;
  out.slot = std::move(*found);
  sessions_.erase(*sym);
  SessionSlot& slot = *out.slot;
  unlink(slot);
  trail_count_ -= slot.trail_count;
  // The bindings still pointing at the record move with it; the ones that
  // moved on stay behind.
  std::erase_if(slot.media, [&](const pkt::Endpoint& ep) {
    const Symbol* bound = media_to_session_.find(ep);
    if (bound == nullptr || *bound != *sym) return true;
    media_to_session_.erase(ep);
    return false;
  });
  // Cached routes into the departed record would dangle. The source symbol
  // stays interned (symbols are never recycled); it simply has no state
  // behind it any more.
  forget_routes_into(slot);
  return out;
}

void TrailManager::install_session(ExtractedSession&& moved) {
  if (!moved.valid()) return;
  const Symbol sym = symbols_.intern(moved.id);
  if (sessions_.contains(sym)) return;  // precondition broken: keep what is here
  // Intentionally no ++stats_.sessions_created: the session already exists
  // from the pipeline's point of view, it just lives here now.
  SessionSlot& slot = *moved.slot;
  slot.sym = sym;
  adopt_block(slot.rules, StateKey::kSession);
  for (Trail* trail : slot.trail_list()) trail->rebind(sym);
  trail_count_ += slot.trail_count;
  for (const pkt::Endpoint& ep : slot.media) {
    media_to_session_.insert_or_assign(ep, sym);
    forget_routes_through(ep);
  }
  sessions_.try_emplace(sym, std::move(moved.slot));
  wake(slot);
}

SimTime TrailManager::SessionSlot::last_touch() const {
  SimTime last = INT64_MIN;
  for (const Trail* t : trail_list()) last = std::max(last, t->last_time());
  return last;
}

SimDuration TrailManager::retention_of(const SessionSlot& slot) const {
  if (!slot.events.closed) return retention_.open;
  SimDuration keep = retention_.closed;
  slot.rules.for_each_held([&](size_t entry) {
    const uint32_t rule = slot.rules.layout()->entries()[entry].rule;
    if (rule < retention_.rule_horizons.size()) {
      keep = std::max(keep, retention_.rule_horizons[rule]);
    }
  });
  return keep;
}

int64_t TrailManager::tick_at_or_after(SimTime time, SimDuration keep) {
  const SimTime due = time > INT64_MAX - keep ? INT64_MAX : time + keep;
  // Round up: a wake at the tick's start never comes before the deadline.
  return (due >> kWheelTickShift) + ((due & ((SimTime{1} << kWheelTickShift) - 1)) != 0);
}

int64_t TrailManager::due_tick(const SessionSlot& slot) const {
  return tick_at_or_after(slot.last_touch(), retention_of(slot));
}

void TrailManager::link(SessionSlot& slot, int64_t tick) {
  if (wheel_.empty()) wheel_.assign(kWheelSlots, nullptr);
  // A tick the wheel has already passed would wait a whole turn.
  if (wheel_started_ && tick <= wheel_tick_) tick = wheel_tick_ + 1;
  SessionSlot*& head = wheel_[static_cast<uint64_t>(tick) & (kWheelSlots - 1)];
  slot.wake_tick = tick;
  slot.wake_prev = nullptr;
  slot.wake_next = head;
  if (head != nullptr) head->wake_prev = &slot;
  head = &slot;
}

void TrailManager::unlink(SessionSlot& slot) {
  if (slot.wake_prev != nullptr) {
    slot.wake_prev->wake_next = slot.wake_next;
  } else {
    wheel_[static_cast<uint64_t>(slot.wake_tick) & (kWheelSlots - 1)] = slot.wake_next;
  }
  if (slot.wake_next != nullptr) slot.wake_next->wake_prev = slot.wake_prev;
  slot.wake_prev = slot.wake_next = nullptr;
}

void TrailManager::wake(SessionSlot& slot) {
  const int64_t due = due_tick(slot);
  if (wheel_started_ && due <= wheel_tick_) {
    retire(slot);
  } else {
    link(slot, due);
  }
}

void TrailManager::note_closed(const Trail& trail) {
  SessionSlot& slot = **sessions_.find(trail.sym());
  // The closing footprint is the record's newest, and a closed record is
  // kept at least the window m: the wake never needs to come sooner. Rule
  // state that keeps it longer re-arms it at that wake.
  const int64_t due = tick_at_or_after(trail.last_time(), retention_.closed);
  if (due >= slot.wake_tick) return;
  unlink(slot);
  link(slot, due);
}

void TrailManager::advance_wheel(SimTime now) {
  const int64_t target = now >> kWheelTickShift;
  // Ticks to visit: those after the last one visited, at most one turn (a
  // turn visits every list once). Before the first packet nothing was
  // visited, and installed records may already wait anywhere.
  const uint64_t steps =
      wheel_started_
          ? std::min<uint64_t>(static_cast<uint64_t>(target) - static_cast<uint64_t>(wheel_tick_),
                               kWheelSlots)
          : kWheelSlots;
  wheel_started_ = true;
  wheel_tick_ = target;
  next_tick_at_ =
      target >= (INT64_MAX >> kWheelTickShift) ? INT64_MAX : (target + 1) << kWheelTickShift;
  if (wheel_.empty()) return;
  for (uint64_t k = steps; k-- > 0;) {
    SessionSlot* entry = wheel_[static_cast<uint64_t>(target - static_cast<int64_t>(k)) &
                                (kWheelSlots - 1)];
    while (entry != nullptr) {
      SessionSlot* next = entry->wake_next;
      // Entries of a later turn share the list and stay.
      if (entry->wake_tick <= target) {
        unlink(*entry);
        wake(*entry);  // a re-armed entry lands ahead of `target`
      }
      entry = next;
    }
  }
}

void TrailManager::retire(SessionSlot& slot) {
  const Symbol sym = slot.sym;
  forget_routes_into(slot);
  // A binding left pointing at the record would re-create it on the
  // endpoint's next packet.
  for (const pkt::Endpoint& ep : slot.media) {
    const Symbol* bound = media_to_session_.find(ep);
    if (bound != nullptr && *bound == sym) media_to_session_.erase(ep);
  }
  ++(slot.events.closed ? stats_.sessions_retired_closed : stats_.sessions_retired_idle);
  trail_count_ -= slot.trail_count;
  // The arena (every byte the session's trails ever allocated) goes in one
  // release, the event and rule state with it.
  sessions_.erase(sym);
}

size_t TrailManager::expire_idle(SimTime cutoff, std::vector<SessionId>* retired) {
  std::vector<SessionSlot*> idle;
  sessions_.for_each([&](const Symbol&, const std::unique_ptr<SessionSlot>& slot) {
    if (slot->last_touch() < cutoff) idle.push_back(slot.get());
  });
  for (SessionSlot* slot : idle) {
    if (retired != nullptr) retired->emplace_back(symbols_.name(slot->sym));
    unlink(*slot);
    retire(*slot);
  }
  return idle.size();
}

}  // namespace scidive::core
