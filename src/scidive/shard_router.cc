#include "scidive/shard_router.h"

#include <algorithm>

#include "h323/q931.h"
#include "h323/ras.h"
#include "sip/scan.h"
#include "voip/acc_record.h"

namespace scidive::core {

namespace {

/// Header-only UDP peek: no checksum verification, no copies — enough to
/// pick a shard for traffic the router learns nothing from. The shard's own
/// Distiller re-parses defensively.
struct UdpPeek {
  pkt::Endpoint src;
  pkt::Endpoint dst;
  std::span<const uint8_t> payload;
};

std::optional<UdpPeek> peek_udp(std::span<const uint8_t> d) {
  if (d.size() < 20) return std::nullopt;
  if ((d[0] >> 4) != 4) return std::nullopt;
  const size_t ihl = static_cast<size_t>(d[0] & 0x0f) * 4;
  if (ihl < 20 || d.size() < ihl + pkt::kUdpHeaderLen) return std::nullopt;
  if (d[9] != pkt::kProtoUdp) return std::nullopt;
  UdpPeek p;
  p.src.addr = pkt::Ipv4Address(d[12], d[13], d[14], d[15]);
  p.dst.addr = pkt::Ipv4Address(d[16], d[17], d[18], d[19]);
  p.src.port = static_cast<uint16_t>(d[ihl] << 8 | d[ihl + 1]);
  p.dst.port = static_cast<uint16_t>(d[ihl + 2] << 8 | d[ihl + 3]);
  const size_t udp_len = static_cast<size_t>(d[ihl + 4]) << 8 | d[ihl + 5];
  size_t payload_len = udp_len >= pkt::kUdpHeaderLen ? udp_len - pkt::kUdpHeaderLen : 0;
  payload_len = std::min(payload_len, d.size() - ihl - pkt::kUdpHeaderLen);
  p.payload = d.subspan(ihl + pkt::kUdpHeaderLen, payload_len);
  return p;
}

bool is_fragment(std::span<const uint8_t> d) {
  if (d.size() < 20 || (d[0] >> 4) != 4) return false;
  // MF flag or a non-zero fragment offset.
  return ((static_cast<uint16_t>(d[6]) << 8 | d[7]) & 0x3fff) != 0;
}

uint64_t pack_endpoint(pkt::Endpoint ep) {
  return static_cast<uint64_t>(ep.addr.value()) << 16 | ep.port;
}

}  // namespace

std::optional<SipRouteKeys> sip_route_keys(std::string_view text, std::string& fold_buf) {
  sip::SipScan scan;
  if (sip::scan_sip(text, fold_buf, scan, sip::ScanMode::kKeys) != Errc::kOk)
    return std::nullopt;
  SipRouteKeys keys;
  keys.call_id = scan.call_id.value_or("");
  if (scan.cseq) {
    keys.cseq_method = scan.cseq->method;
  } else if (scan.is_request) {
    keys.cseq_method = scan.method;
  }
  if (scan.from) keys.from_aor = scan.from->uri.aor;
  keys.sdp_media = scan.sdp_media;
  return keys;
}

ShardRouter::ShardRouter(ShardRouterConfig config)
    : config_(std::move(config)),
      reassembler_(pkt::Ipv4Reassembler::Config{.timeout = config_.distiller.reassembly_timeout}),
      media_shard_(1024) {
  if (config_.num_shards == 0) config_.num_shards = 1;
}

size_t ShardRouter::shard_of(std::string_view key, size_t num_shards) {
  return flat_mix64(key_hash(key)) % (num_shards == 0 ? 1 : num_shards);
}

size_t ShardRouter::shard_of_key(std::string_view key) const {
  return flat_mix64(key_hash(key)) % config_.num_shards;
}

size_t ShardRouter::session_shard(std::string_view key) const {
  return session_shard(key_hash(key));
}

size_t ShardRouter::session_shard(uint64_t hash) const {
  if (auto moved = override_shard(hash)) return *moved % config_.num_shards;
  return flat_mix64(hash) % config_.num_shards;
}

std::optional<uint32_t> ShardRouter::override_shard(uint64_t hash) const {
  if (overrides_.empty()) return std::nullopt;  // the common case: nothing pinned
  if (const uint32_t* shard = overrides_.find(hash)) return *shard;
  return std::nullopt;
}

std::optional<uint32_t> ShardRouter::media_shard(pkt::Endpoint media) const {
  if (const uint32_t* shard = media_shard_.find(pack_endpoint(media))) return *shard;
  return std::nullopt;
}

void ShardRouter::learn_media(pkt::Endpoint media, size_t shard) {
  if (media_shard_.insert_or_assign(pack_endpoint(media), static_cast<uint32_t>(shard))) {
    ++stats_.media_bindings_learned;
  }
}

void ShardRouter::repoint(std::string_view session, size_t shard,
                          std::span<const pkt::Endpoint> media) {
  overrides_.insert_or_assign(key_hash(session), static_cast<uint32_t>(shard));
  for (const pkt::Endpoint& ep : media)
    media_shard_.insert_or_assign(pack_endpoint(ep), static_cast<uint32_t>(shard));
}

void ShardRouter::forget(std::string_view session, size_t shard) {
  const uint64_t hash = key_hash(session);
  if (const uint32_t* pinned = overrides_.find(hash); pinned && *pinned % config_.num_shards == shard)
    overrides_.erase(hash);
}

std::optional<ShardRouter::Routed> ShardRouter::route(const pkt::Packet& packet) {
  if (is_fragment(packet.data)) {
    auto whole = reassembler_.push(packet.data, packet.timestamp);
    if (!whole.ok()) {
      if (whole.error().code == Errc::kState) {
        ++stats_.fragments_held;
        return std::nullopt;  // datagram incomplete — nothing to deliver yet
      }
      // Invalid fragment: hand the raw packet to shard 0 so its distiller
      // accounts for it as undecodable (never silently lost).
      return Routed{0, std::nullopt};
    }
    pkt::Packet datagram;
    datagram.data = std::move(whole.value());
    datagram.timestamp = packet.timestamp;
    ++stats_.datagrams_reassembled;
    size_t shard = route_datagram(datagram);
    return Routed{shard, std::move(datagram)};
  }
  return Routed{route_datagram(packet), std::nullopt};
}

size_t ShardRouter::route_datagram(const pkt::Packet& packet) {
  auto peek = peek_udp(packet.data);
  if (!peek) return 0;  // undecodable — shard 0 keeps the error accounting

  // Port precedence follows Distiller::decode: ACC, SIP, H.225, RAS, media.
  const uint16_t acc_port = config_.distiller.acc_port;
  if (peek->src.port == acc_port || peek->dst.port == acc_port) {
    std::string_view text(reinterpret_cast<const char*>(peek->payload.data()),
                          peek->payload.size());
    ++stats_.by_call_id;
    auto record = voip::AccRecord::parse(text);
    if (record.ok() && !record.value().call_id.empty())
      return session_shard(record.value().call_id);
    return session_shard("acc-anon");
  }

  const bool sip_port = config_.distiller.sip_ports.contains(peek->src.port) ||
                        config_.distiller.sip_ports.contains(peek->dst.port);
  const bool h225_port = peek->src.port == h323::kH225Port || peek->dst.port == h323::kH225Port;
  std::span<const uint8_t> payload = peek->payload;
  if (sip_port || h225_port) {
    // These teach the router state; a datagram the distillers reject must
    // not (it would repoint a live call's media, or pin a Call-ID, with a
    // packet no engine ever sees).
    auto udp = pkt::parse_udp_packet(packet.data);
    if (!udp.ok()) return 0;
    payload = udp.value().payload;
  }

  if (sip_port) {
    const std::string_view text(reinterpret_cast<const char*>(payload.data()), payload.size());
    const std::optional<SipRouteKeys> keys = sip_route_keys(text, fold_buf_);
    if (!keys) {
      // Unparseable SIP shares the "sip-anon" session on every engine.
      ++stats_.by_call_id;
      return session_shard("sip-anon");
    }
    const std::string_view call_id = keys->call_id;
    const std::string_view cseq_method = keys->cseq_method;

    size_t shard;
    // REGISTER and MESSAGE feed per-principal rule state (the registration
    // mirror, the fake-IM sender history); everything claiming one identity
    // must meet on one shard. Dialog traffic routes by Call-ID instead so a
    // call's two directions (whose From AORs differ) stay together. With
    // route_invite_by_caller, INVITE-transaction traffic also routes by the
    // caller's AOR (per-caller graylist state), and the Call-ID is pinned
    // via an override so mid-dialog packets whose From differs (a callee's
    // BYE) still land on the caller's shard. Only the dialog's first INVITE
    // routes by caller: once the Call-ID is pinned, every later INVITE-CSeq
    // packet (responses, re-INVITEs, a forged re-INVITE from another From)
    // follows the pin and never moves it — moving it would strand the
    // dialog's state on the old shard. REGISTER and MESSAGE Call-IDs are
    // pinned too: a packet of such a session that cannot route by principal
    // (mangled From or CSeq method) still meets the session's rule state.
    const uint64_t cid_hash =
        key_hash(call_id.empty() ? std::string_view("sip-anon") : call_id);
    const bool by_caller_invite = config_.route_invite_by_caller && cseq_method == "INVITE";
    std::optional<uint32_t> dialog_pin;
    if (by_caller_invite && !call_id.empty()) dialog_pin = override_shard(cid_hash);
    const bool by_principal = cseq_method == "REGISTER" || cseq_method == "MESSAGE" ||
                              (by_caller_invite && !dialog_pin);
    if (by_principal && !keys->from_aor.empty()) {
      ++stats_.by_principal;
      shard = shard_of_key(keys->from_aor);
      // This call-id's trails live wherever the principal's state lives.
      if (!call_id.empty()) overrides_.insert_or_assign(cid_hash, static_cast<uint32_t>(shard));
    } else {
      ++stats_.by_call_id;
      shard = dialog_pin ? *dialog_pin % config_.num_shards : session_shard(cid_hash);
    }
    if (keys->sdp_media) learn_media(*keys->sdp_media, shard);
    return shard;
  }

  if (h225_port) {
    ++stats_.by_call_id;
    auto q931 = h323::Q931Message::parse(payload);
    if (!q931.ok()) return session_shard("h225-anon");
    const auto& m = q931.value();
    size_t shard = session_shard(m.call_id.empty() ? std::string_view("h225-anon") : m.call_id);
    if (m.media) learn_media(*m.media, shard);
    return shard;
  }

  if (peek->src.port == h323::kRasPort || peek->dst.port == h323::kRasPort) {
    ++stats_.by_call_id;
    auto ras = h323::RasMessage::parse(peek->payload);
    if (!ras.ok()) return session_shard("ras-anon");
    const auto& m = ras.value();
    if (!m.call_id.empty()) return session_shard(m.call_id);
    // Alias registration state is per-principal (like From-AOR): pure hash.
    if (!m.alias.empty()) return shard_of_key("ras-reg:" + m.alias);
    return session_shard("ras-anon");
  }

  // Media plane: two hash lookups, no parsing. RTCP conventionally runs on
  // media-port + 1; fall back to the even port like TrailManager::classify.
  auto lookup = [&](pkt::Endpoint ep) -> std::optional<uint32_t> {
    if (auto shard = media_shard(ep)) return shard;
    if (ep.port % 2 == 1) {
      ep.port -= 1;
      if (auto shard = media_shard(ep)) return shard;
    }
    return std::nullopt;
  };
  if (auto shard = lookup(peek->src)) {
    ++stats_.by_media_binding;
    return *shard;
  }
  if (auto shard = lookup(peek->dst)) {
    ++stats_.by_media_binding;
    return *shard;
  }

  // Unsignaled flow: symmetric 4-tuple hash so both directions agree.
  ++stats_.by_flow_hash;
  uint64_t a = static_cast<uint64_t>(peek->src.addr.value()) << 16 | peek->src.port;
  uint64_t b = static_cast<uint64_t>(peek->dst.addr.value()) << 16 | peek->dst.port;
  if (a > b) std::swap(a, b);
  return flat_mix64(a ^ flat_mix64(b)) % config_.num_shards;
}

}  // namespace scidive::core
