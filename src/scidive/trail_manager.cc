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
  const uint64_t slot_key = trail_slot_key(sym, protocol);
  if (Trail* const* found = trails_.find(slot_key)) return **found;

  auto [slot_ptr, created] = sessions_.try_emplace(sym);
  if (created) {
    *slot_ptr = std::make_unique<SessionSlot>();
    ++stats_.sessions_created;
  }
  SessionSlot& slot = **slot_ptr;
  Trail* trail = slot.arena.create<Trail>(TrailKey{std::string(symbols_.name(sym)), protocol},
                                          max_footprints_per_trail_, sym, &slot.arena);
  slot.trails.push_back(trail);
  trails_.try_emplace(slot_key, trail);
  return *trail;
}

Trail& TrailManager::route(const Footprint& fp) {
  if (is_media(fp.protocol)) {
    MediaFlowKey flow{fp.src, fp.dst, fp.protocol};
    if (const CachedRoute* cached = media_flow_cache_.find(flow)) {
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
    media_flow_cache_.try_emplace(flow, CachedRoute{&trail, bound});
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
  rebound_.record(ep);
  // A route depends only on the bindings of its two endpoints, so every
  // other cached route still classifies the same way.
  if (!route_refs_.contains(ep)) return;
  media_flow_cache_.erase_if([&](const MediaFlowKey& flow, const CachedRoute&) {
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

void TrailManager::forget_all_routes() {
  media_flow_cache_.clear();
  route_refs_.clear();
  rebound_.record_reset();
}

std::optional<SessionId> TrailManager::session_for_media(const pkt::Endpoint& media) const {
  const Symbol* sym = media_to_session_.find(media);
  if (sym == nullptr) return std::nullopt;
  return SessionId(symbols_.name(*sym));
}

const Trail* TrailManager::find(const SessionId& session, Protocol protocol) const {
  auto sym = symbols_.find(session);
  if (!sym) return nullptr;
  Trail* const* found = trails_.find(trail_slot_key(*sym, protocol));
  return found == nullptr ? nullptr : *found;
}

Trail* TrailManager::find_mut(const SessionId& session, Protocol protocol) {
  auto sym = symbols_.find(session);
  if (!sym) return nullptr;
  Trail* const* found = trails_.find(trail_slot_key(*sym, protocol));
  return found == nullptr ? nullptr : *found;
}

std::vector<const Trail*> TrailManager::session_trails(const SessionId& session) const {
  std::vector<const Trail*> out;
  auto sym = symbols_.find(session);
  if (!sym) return out;
  const std::unique_ptr<SessionSlot>* slot = sessions_.find(*sym);
  if (slot == nullptr) return out;
  out.assign((*slot)->trails.begin(), (*slot)->trails.end());
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

TrailManager::ExtractedSession::ExtractedSession() = default;
TrailManager::ExtractedSession::ExtractedSession(ExtractedSession&&) noexcept = default;
TrailManager::ExtractedSession& TrailManager::ExtractedSession::operator=(
    ExtractedSession&&) noexcept = default;
TrailManager::ExtractedSession::~ExtractedSession() = default;

bool TrailManager::has_session(const SessionId& session) const {
  auto sym = symbols_.find(session);
  return sym && sessions_.contains(*sym);
}

uint64_t TrailManager::session_activity(const SessionId& session) const {
  auto sym = symbols_.find(session);
  if (!sym) return 0;
  const std::unique_ptr<SessionSlot>* slot = sessions_.find(*sym);
  if (slot == nullptr) return 0;
  uint64_t appended = 0;
  for (const Trail* trail : (*slot)->trails) appended += trail->total_appended();
  return appended;
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
  // Detach the trail index entries (the Trail objects travel in the slot's
  // arena) and the session's media bindings.
  for (const Trail* trail : out.slot->trails)
    trails_.erase(trail_slot_key(*sym, trail->key().protocol));
  media_to_session_.erase_if([&](const pkt::Endpoint& ep, const Symbol& bound) {
    if (bound != *sym) return false;
    out.media.push_back(ep);
    return true;
  });
  // Cached media routes may point into the departed trails. The source
  // symbol stays interned (symbols are never recycled); it simply has no
  // state behind it any more.
  forget_all_routes();
  return out;
}

void TrailManager::install_session(ExtractedSession&& moved) {
  if (!moved.valid()) return;
  const Symbol sym = symbols_.intern(moved.id);
  // Intentionally no ++stats_.sessions_created: the session already exists
  // from the pipeline's point of view, it just lives here now.
  for (Trail* trail : moved.slot->trails) {
    trail->rebind(sym);
    trails_.try_emplace(trail_slot_key(sym, trail->key().protocol), trail);
  }
  for (const pkt::Endpoint& ep : moved.media) {
    media_to_session_.insert_or_assign(ep, sym);
    forget_routes_through(ep);
  }
  sessions_.try_emplace(sym, std::move(moved.slot));
}

size_t TrailManager::expire_idle(SimTime cutoff) {
  size_t dropped = trails_.erase_if([&](const uint64_t&, Trail*& trail) {
    if (trail->last_time() >= cutoff) return false;
    const Symbol sym = trail->sym();
    if (std::unique_ptr<SessionSlot>* slot = sessions_.find(sym)) {
      std::erase((*slot)->trails, trail);
      trail->~Trail();
      // The arena (and every byte the session's trails ever allocated) is
      // reclaimed in one release once the last trail expires.
      if ((*slot)->trails.empty()) sessions_.erase(sym);
    } else {
      trail->~Trail();
    }
    ++stats_.trails_expired;
    return true;
  });
  // Expired trails may still be referenced by cached media routes.
  if (dropped != 0) forget_all_routes();
  return dropped;
}

}  // namespace scidive::core
