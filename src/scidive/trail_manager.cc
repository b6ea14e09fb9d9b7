#include "scidive/trail_manager.h"

#include <algorithm>

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

Trail& TrailManager::trail_for(Symbol sym, Protocol protocol) {
  auto [slot_ptr, created] = sessions_.try_emplace(sym);
  if (created) {
    *slot_ptr = std::make_unique<SessionSlot>();
    ++stats_.sessions_created;
  }
  SessionSlot& slot = **slot_ptr;
  if (Trail* found = slot.find(protocol)) return *found;
  Trail* trail = slot.arena.create<Trail>(TrailKey{std::string(symbols_.name(sym)), protocol},
                                          max_footprints_per_trail_, sym, &slot.arena);
  slot.trails.push_back(trail);
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
    Trail& trail = trail_for(sym, fp.protocol);
    media_flow_cache_.try_emplace(flow, MediaFlow{.trail = &trail, .bound = bound});
    ++route_refs_[binding_key(fp.src, fp.protocol)];
    ++route_refs_[binding_key(fp.dst, fp.protocol)];
    return trail;
  }
  bool bound = false;
  return trail_for(classify(fp, bound), fp.protocol);
}

Trail& TrailManager::add(Footprint fp) {
  Trail& trail = route(fp);
  trail.append(std::move(fp));
  ++stats_.footprints_routed;
  return trail;
}

void TrailManager::bind_media_endpoint(const pkt::Endpoint& media, const SessionId& session) {
  const Symbol sym = symbols_.intern(session);
  auto [slot, inserted] = media_to_session_.try_emplace(media, sym);
  if (!inserted) {
    if (*slot == sym) return;  // re-signaled same binding: keep cache
    *slot = sym;
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

void TrailManager::forget_routes() {
  media_flow_cache_.clear();
  route_refs_.clear();
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
    out.assign(slot->trails.begin(), slot->trails.end());
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

std::unique_ptr<RuleSessionState>* TrailManager::rule_slot(const SessionId& session,
                                                           size_t rule) {
  SessionSlot* slot = slot_of(session);
  if (slot == nullptr) return nullptr;
  if (slot->rules.size() <= rule) slot->rules.resize(rule + 1);
  return &slot->rules[rule];
}

std::unique_ptr<RuleSessionState>* TrailManager::principal_slot(std::string_view aor,
                                                                size_t rule) {
  PrincipalRecord& record = *principals_.try_emplace(principal_symbols_.intern(aor)).first;
  if (record.rules.size() <= rule) record.rules.resize(rule + 1);
  return &record.rules[rule];
}

std::vector<size_t> TrailManager::rule_state_counts(size_t rules) const {
  std::vector<size_t> counts(rules, 0);
  auto count = [&](const std::vector<std::unique_ptr<RuleSessionState>>& slots) {
    for (size_t i = 0; i < std::min(rules, slots.size()); ++i) {
      if (slots[i] != nullptr) ++counts[i];
    }
  };
  sessions_.for_each(
      [&](const Symbol&, const std::unique_ptr<SessionSlot>& slot) { count(slot->rules); });
  principals_.for_each([&](const Symbol&, const PrincipalRecord& record) { count(record.rules); });
  return counts;
}

void TrailManager::clear_rule_states() {
  sessions_.for_each(
      [](const Symbol&, std::unique_ptr<SessionSlot>& slot) { slot->rules.clear(); });
  principals_.erase_if(
      [](const Symbol&, const PrincipalRecord& record) { return record.locations.empty(); });
  principals_.for_each([](const Symbol&, PrincipalRecord& record) { record.rules.clear(); });
}

const TrailManager::PrincipalRecord* TrailManager::principal_of(std::string_view aor) const {
  auto sym = principal_symbols_.find(aor);
  return sym ? principals_.find(*sym) : nullptr;
}

void TrailManager::commit_location(std::string_view aor, pkt::Ipv4Address addr, SimTime time) {
  PrincipalRecord& record = *principals_.try_emplace(principal_symbols_.intern(aor)).first;
  for (RegisteredLocation& location : record.locations) {
    if (location.addr == addr) {
      location.at = time;
      return;
    }
  }
  record.locations.push_back({addr, time});
}

std::span<const RegisteredLocation> TrailManager::registered_locations(
    std::string_view aor) const {
  const PrincipalRecord* record = principal_of(aor);
  if (record == nullptr) return {};
  return record->locations;
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
  out.record = std::move(*record);
  principals_.erase(*sym);
  return out;
}

void TrailManager::install_principal(ExtractedPrincipal&& moved) {
  if (!moved.valid()) return;
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
  auto sym = symbols_.find(session);
  if (!sym) return out;
  media_to_session_.for_each([&](const pkt::Endpoint& ep, const Symbol& bound) {
    if (bound == *sym) out.push_back(ep);
  });
  return out;
}

TrailManager::ExtractedSession TrailManager::extract_session(const SessionId& session) {
  ExtractedSession out;
  auto sym = symbols_.find(session);
  if (!sym) return out;
  std::unique_ptr<SessionSlot>* slot = sessions_.find(*sym);
  if (slot == nullptr) return out;
  out.id = session;
  out.slot = std::move(*slot);
  sessions_.erase(*sym);
  trail_count_ -= out.slot->trails.size();
  media_to_session_.erase_if([&](const pkt::Endpoint& ep, const Symbol& bound) {
    if (bound != *sym) return false;
    out.media.push_back(ep);
    return true;
  });
  // Cached media routes may point into the departed record. The source
  // symbol stays interned (symbols are never recycled); it simply has no
  // state behind it any more.
  forget_routes();
  return out;
}

void TrailManager::install_session(ExtractedSession&& moved) {
  if (!moved.valid()) return;
  const Symbol sym = symbols_.intern(moved.id);
  // Intentionally no ++stats_.sessions_created: the session already exists
  // from the pipeline's point of view, it just lives here now.
  for (Trail* trail : moved.slot->trails) trail->rebind(sym);
  trail_count_ += moved.slot->trails.size();
  for (const pkt::Endpoint& ep : moved.media) {
    media_to_session_.insert_or_assign(ep, sym);
    forget_routes_through(ep);
  }
  sessions_.try_emplace(sym, std::move(moved.slot));
}

size_t TrailManager::expire_idle(SimTime cutoff, std::vector<SessionId>* retired) {
  size_t dropped = 0;
  FlatSet<Symbol> gone;
  sessions_.erase_if([&](const Symbol& sym, std::unique_ptr<SessionSlot>& slot) {
    dropped += std::erase_if(slot->trails, [&](Trail* trail) {
      if (trail->last_time() >= cutoff) return false;
      trail->~Trail();
      return true;
    });
    if (!slot->trails.empty()) return false;
    // The record goes with its last trail: the arena (every byte the
    // session's trails ever allocated) in one release, the event state
    // with it.
    gone.insert(sym);
    return true;
  });
  trail_count_ -= dropped;
  stats_.trails_expired += dropped;
  stats_.sessions_expired += gone.size();
  if (retired != nullptr)
    gone.for_each([&](const Symbol& sym) { retired->emplace_back(symbols_.name(sym)); });
  // A binding to a dropped record would re-create it on the endpoint's
  // next packet.
  if (!gone.empty()) {
    media_to_session_.erase_if(
        [&](const pkt::Endpoint&, const Symbol& bound) { return gone.contains(bound); });
  }
  // Cached media routes may point into expired trails or dropped records.
  if (dropped != 0) forget_routes();
  return dropped;
}

}  // namespace scidive::core
