#include "voip/user_agent.h"

#include "common/logging.h"
#include "common/strings.h"
#include "rtp/rtcp.h"
#include "rtp/rtp.h"

namespace scidive::voip {

using sip::Method;
using sip::SipMessage;

namespace {

/// Turn a SIP URI whose host is a dotted-quad into a transport endpoint.
std::optional<pkt::Endpoint> uri_to_endpoint(const sip::SipUri& uri) {
  auto addr = pkt::Ipv4Address::parse(uri.host());
  if (!addr) return std::nullopt;
  return pkt::Endpoint{*addr, uri.port_or_default()};
}

}  // namespace

UserAgent::UserAgent(netsim::Host& host, UserAgentConfig config)
    : host_(host),
      config_(std::move(config)),
      tm_(sip::TransactionEnv{
          .send_message =
              [this](const SipMessage& m, pkt::Endpoint dst) {
                if (crashed_) return;
                host_.send_udp(config_.sip_port, dst, m.to_string());
              },
          .schedule = [this](SimDuration d,
                             std::function<void()> fn) { host_.after(d, std::move(fn)); },
          .now = [this] { return host_.now(); },
      }),
      jitter_buffer_(rtp::JitterBuffer::Config{.behavior = config_.jitter_behavior}),
      media_local_{host.address(), config_.rtp_port},
      next_rtp_port_(config_.rtp_port) {
  tm_.set_request_handler(
      [this](const SipMessage& req, pkt::Endpoint from) { handle_request(req, from); });
  tm_.set_stray_response_handler([this](const SipMessage& rsp, pkt::Endpoint) {
    // A retransmitted 200 to our INVITE means our ACK was lost: re-ACK
    // (RFC 3261 §13.2.2.4).
    if (rsp.status_code() != 200) return;
    auto cs = rsp.cseq();
    if (!cs.ok() || cs.value().method != "INVITE") return;
    auto call_id = rsp.call_id();
    if (!call_id) return;
    Call* call = find_call_mut(*call_id);
    if (call != nullptr && call->we_are_caller &&
        call->dialog->state() == sip::DialogState::kConfirmed) {
      send_ack(*call);
    }
  });
  host_.bind_udp(config_.sip_port,
                 [this](pkt::Endpoint from, std::span<const uint8_t> payload, SimTime now) {
                   on_sip_datagram(from, payload, now);
                 });
}

uint16_t UserAgent::allocate_rtp_port() {
  uint16_t port = next_rtp_port_;
  next_rtp_port_ += 2;  // keep ports even; port+1 is the RTCP convention
  host_.bind_udp(port,
                 [this](pkt::Endpoint from, std::span<const uint8_t> payload, SimTime now) {
                   on_rtp_datagram(from, payload, now);
                 });
  return port;
}

std::string UserAgent::new_tag() {
  return str::format("%s-tag-%llu", config_.user.c_str(),
                     static_cast<unsigned long long>(next_id_++));
}

std::string UserAgent::new_call_id() {
  return str::format("%s-call-%llu@%s", config_.user.c_str(),
                     static_cast<unsigned long long>(next_id_++),
                     host_.address().to_string().c_str());
}

sip::Sdp UserAgent::local_sdp(uint16_t rtp_port, uint64_t session_version) const {
  return sip::make_audio_sdp(host_.address().to_string(), rtp_port,
                             /*session_id=*/next_id_, session_version);
}

SipMessage UserAgent::make_request(Method method, sip::SipUri request_uri) {
  auto m = SipMessage::request(method, std::move(request_uri));
  sip::Via via;
  via.host = host_.address().to_string();
  via.port = config_.sip_port;
  via.params["branch"] = tm_.make_branch();
  m.headers().add("Via", via.to_string());
  m.headers().add("Max-Forwards", "70");
  return m;
}

void UserAgent::on_sip_datagram(pkt::Endpoint from, std::span<const uint8_t> payload,
                                SimTime now) {
  (void)now;
  if (crashed_) return;
  auto msg = SipMessage::parse(payload);
  if (!msg) {
    LOG_DEBUG("ua", "%s: unparseable SIP datagram: %s", aor().c_str(),
              msg.error().to_string().c_str());
    return;
  }
  tm_.on_message(msg.value(), from);
}

// --- registration ---

void UserAgent::register_now(std::function<void(bool)> on_done) {
  auto finish = [this, on_done](bool ok) {
    registered_ = ok;
    if (ok)
      ++stats_.register_ok;
    else
      ++stats_.register_failed;
    if (on_done) on_done(ok);
  };

  sip::SipUri registrar_uri("", config_.domain);
  auto req = make_request(Method::kRegister, registrar_uri);
  std::string call_id = new_call_id();
  std::string tag = new_tag();
  std::string aor_uri = "<sip:" + aor() + ">";
  req.headers().add("From", aor_uri + ";tag=" + tag);
  req.headers().add("To", aor_uri);
  req.headers().add("Call-ID", call_id);
  req.headers().add("CSeq", "1 REGISTER");
  req.headers().add("Contact", "<sip:" + config_.user + "@" +
                                   host_.address().to_string() +
                                   str::format(":%u", config_.sip_port) + ">");
  req.headers().add("Expires", str::format("%u", config_.register_expires));

  tm_.send_request(req, config_.proxy, [this, req, finish](const sip::ClientResult& r) mutable {
    if (r.timed_out) return finish(false);
    int code = r.response.status_code();
    if (code == 200) return finish(true);
    if (code != 401) return finish(false);

    // Digest challenge: answer once.
    auto challenge_header = r.response.headers().get("WWW-Authenticate");
    if (!challenge_header) return finish(false);
    auto challenge = sip::DigestChallenge::parse(*challenge_header);
    if (!challenge) return finish(false);
    std::string uri = "sip:" + config_.domain;
    auto creds = sip::answer_challenge(challenge.value(), config_.user, config_.password,
                                       "REGISTER", uri);
    SipMessage retry = req;
    // Fresh branch + bumped CSeq for the new transaction.
    sip::Via via;
    via.host = host_.address().to_string();
    via.port = config_.sip_port;
    via.params["branch"] = tm_.make_branch();
    retry.headers().set("Via", via.to_string());
    retry.headers().set("CSeq", "2 REGISTER");
    retry.headers().set("Authorization", creds.to_header_value());
    tm_.send_request(retry, config_.proxy, [finish](const sip::ClientResult& r2) {
      finish(!r2.timed_out && r2.response.status_code() == 200);
    });
  });
}

// --- outgoing calls ---

std::string UserAgent::call(const std::string& target_aor) {
  std::string target = target_aor.find('@') == std::string::npos
                           ? target_aor + "@" + config_.domain
                           : target_aor;
  auto at = str::split_once(target, '@');
  sip::SipUri target_uri(std::string(at->first), std::string(at->second));

  std::string call_id = new_call_id();
  std::string local_tag = new_tag();

  Call call_state;
  call_state.we_are_caller = true;
  call_state.ssrc = static_cast<uint32_t>(next_id_ * 2654435761u);
  call_state.local_rtp_port = allocate_rtp_port();
  call_state.dialog = std::make_unique<sip::Dialog>(
      sip::DialogId{call_id, local_tag, ""}, sip::SipUri(config_.user, config_.domain),
      target_uri);
  call_state.dialog->set_local_media({host_.address(), call_state.local_rtp_port});
  call_state.dialog->set_local_cseq(1);  // the INVITE consumes CSeq 1
  uint16_t local_rtp_port = call_state.local_rtp_port;
  calls_[call_id] = std::move(call_state);
  ++stats_.calls_placed;

  auto req = make_request(Method::kInvite, target_uri);
  req.headers().add("From", "<sip:" + aor() + ">;tag=" + local_tag);
  req.headers().add("To", "<sip:" + target + ">");
  req.headers().add("Call-ID", call_id);
  req.headers().add("CSeq", "1 INVITE");
  req.headers().add("Contact", "<sip:" + config_.user + "@" + host_.address().to_string() +
                                   str::format(":%u", config_.sip_port) + ">");
  req.set_body(local_sdp(local_rtp_port).to_string(), "application/sdp");

  tm_.send_request(req, config_.proxy, [this, call_id](const sip::ClientResult& r) {
    Call* call = find_call_mut(call_id);
    if (call == nullptr) return;
    if (r.timed_out) {
      end_call(call_id);
      return;
    }
    int code = r.response.status_code();
    if (sip::status_class(code) == 1) return;  // ringing etc.
    if (code != 200) {
      end_call(call_id);
      return;
    }
    // Dialog confirmed: learn remote tag, contact, media; then ACK.
    auto to = r.response.to();
    if (to.ok() && to.value().tag()) {
      // DialogId is immutable in sip::Dialog; rebuild with the remote tag.
      sip::DialogId id{call_id, call->dialog->id().local_tag, *to.value().tag()};
      auto rebuilt = std::make_unique<sip::Dialog>(id, call->dialog->local_uri(),
                                                   call->dialog->remote_uri());
      rebuilt->set_local_media({host_.address(), call->local_rtp_port});
      rebuilt->set_local_cseq(call->dialog->local_cseq());
      call->dialog = std::move(rebuilt);
    }
    auto contact = r.response.contact();
    if (contact.ok()) {
      if (auto ep = uri_to_endpoint(contact.value().uri)) call->dialog->set_remote_target(*ep);
      learn_contact(r.response, r.peer);
    }
    auto sdp = sip::Sdp::parse(r.response.body());
    if (sdp.ok() && sdp.value().audio() != nullptr) {
      if (auto addr = pkt::Ipv4Address::parse(sdp.value().connection_addr)) {
        call->dialog->set_remote_media({*addr, sdp.value().audio()->port});
      }
    }
    call->dialog->confirm(host_.now());
    ++stats_.calls_established;
    if (on_call_established) on_call_established(call_id);

    send_ack(*call);
    start_media(*find_call_mut(call_id));
  });
  return call_id;
}

void UserAgent::send_ack(const Call& call) {
  // ACK goes end-to-end to the remote target.
  auto remote = call.dialog->remote_target().value_or(config_.proxy);
  auto ack = make_request(Method::kAck, call.dialog->remote_uri());
  ack.headers().add("From", "<sip:" + aor() + ">;tag=" + call.dialog->id().local_tag);
  ack.headers().add("To", "<sip:" + call.dialog->remote_uri().address_of_record() + ">;tag=" +
                              call.dialog->id().remote_tag);
  ack.headers().add("Call-ID", call.dialog->id().call_id);
  ack.headers().add("CSeq", "1 ACK");
  tm_.send_stateless(ack, remote);
}

// --- incoming requests ---

void UserAgent::handle_request(const SipMessage& req, pkt::Endpoint from) {
  switch (req.method()) {
    case Method::kInvite:
      handle_invite(req, from);
      return;
    case Method::kAck:
      handle_ack(req);
      return;
    case Method::kBye:
      handle_bye(req, from);
      return;
    case Method::kCancel:
      handle_cancel(req, from);
      return;
    case Method::kMessage:
      handle_message(req, from);
      return;
    case Method::kOptions: {
      tm_.respond(req, sip::TransactionManager::make_response_for(req, 200, "OK"), from);
      return;
    }
    default: {
      tm_.respond(req, sip::TransactionManager::make_response_for(req, 501, "Not Implemented"),
                  from);
      return;
    }
  }
}

UserAgent::Call* UserAgent::match_dialog(const SipMessage& req) {
  auto call_id = req.call_id();
  if (!call_id) return nullptr;
  auto it = calls_.find(*call_id);
  if (it == calls_.end()) return nullptr;
  // For a mid-dialog request: To tag must be our tag, From tag the peer's.
  auto to = req.to();
  auto from_hdr = req.from();
  if (!to.ok() || !from_hdr.ok()) return nullptr;
  const sip::DialogId& id = it->second.dialog->id();
  auto to_tag = to.value().tag();
  auto from_tag = from_hdr.value().tag();
  if (to_tag && *to_tag != id.local_tag) return nullptr;
  if (!id.remote_tag.empty() && from_tag && *from_tag != id.remote_tag) return nullptr;
  return &it->second;
}

void UserAgent::handle_invite(const SipMessage& req, pkt::Endpoint from) {
  auto call_id = req.call_id();
  if (!call_id || !req.well_formed()) {
    tm_.respond(req, sip::TransactionManager::make_response_for(req, 400, "Bad Request"), from);
    return;
  }

  if (Call* existing = match_dialog(req)) {
    // re-INVITE: target refresh / call migration (§4.2.3). Update where we
    // send media, answer with our current SDP.
    auto cs = req.cseq();
    if (cs.ok() && !existing->dialog->accept_remote_cseq(cs.value().number)) {
      tm_.respond(req, sip::TransactionManager::make_response_for(req, 500, "Server Internal Error"),
                  from);
      return;
    }
    auto sdp = sip::Sdp::parse(req.body());
    if (sdp.ok() && sdp.value().audio() != nullptr) {
      if (auto addr = pkt::Ipv4Address::parse(sdp.value().connection_addr)) {
        existing->dialog->set_remote_media({*addr, sdp.value().audio()->port});
      }
    }
    auto contact = req.contact();
    if (contact.ok()) {
      if (auto ep = uri_to_endpoint(contact.value().uri))
        existing->dialog->set_remote_target(*ep);
    }
    auto rsp = sip::TransactionManager::make_response_for(req, 200, "OK");
    rsp.headers().add("Contact", "<sip:" + config_.user + "@" + host_.address().to_string() +
                                     str::format(":%u", config_.sip_port) + ">");
    rsp.set_body(local_sdp(existing->local_rtp_port, 2).to_string(), "application/sdp");
    tm_.respond(req, rsp, from);
    return;
  }

  if (!config_.auto_answer) {
    tm_.respond(req, sip::TransactionManager::make_response_for(req, 486, "Busy Here"), from);
    return;
  }

  // New incoming call.
  auto from_hdr = req.from();
  std::string remote_tag = from_hdr.value().tag().value_or("");
  std::string local_tag = new_tag();

  Call call_state;
  call_state.we_are_caller = false;
  call_state.ssrc = static_cast<uint32_t>(next_id_ * 2246822519u);
  call_state.local_rtp_port = allocate_rtp_port();
  call_state.dialog = std::make_unique<sip::Dialog>(
      sip::DialogId{*call_id, local_tag, remote_tag},
      sip::SipUri(config_.user, config_.domain), from_hdr.value().uri);
  call_state.dialog->set_local_media({host_.address(), call_state.local_rtp_port});
  auto cs = req.cseq();
  if (cs.ok()) call_state.dialog->accept_remote_cseq(cs.value().number);

  auto sdp = sip::Sdp::parse(req.body());
  if (sdp.ok() && sdp.value().audio() != nullptr) {
    if (auto addr = pkt::Ipv4Address::parse(sdp.value().connection_addr)) {
      call_state.dialog->set_remote_media({*addr, sdp.value().audio()->port});
    }
  }
  auto contact = req.contact();
  if (contact.ok()) {
    if (auto ep = uri_to_endpoint(contact.value().uri))
      call_state.dialog->set_remote_target(*ep);
  }
  learn_contact(req, from);
  call_state.ringing_invite = req;
  call_state.ringing_from = from;
  calls_[*call_id] = std::move(call_state);
  ++stats_.calls_answered;

  // Ring, then answer — unless a CANCEL ends the ringing first. The 180
  // carries our To tag so the caller can form the early dialog.
  tm_.respond(req, dialog_response(req, 180, "Ringing", local_tag), from);

  std::string id = *call_id;
  host_.after(config_.answer_delay, [this, id, local_tag] {
    Call* call = find_call_mut(id);
    if (call == nullptr || crashed_ || !call->ringing_invite) return;
    const SipMessage req = std::move(*call->ringing_invite);
    const pkt::Endpoint from = call->ringing_from;
    call->ringing_invite.reset();
    auto rsp = dialog_response(req, 200, "OK", local_tag);
    rsp.headers().add("Contact", "<sip:" + config_.user + "@" + host_.address().to_string() +
                                     str::format(":%u", config_.sip_port) + ">");
    rsp.set_body(local_sdp(call->local_rtp_port).to_string(), "application/sdp");
    tm_.respond(req, rsp, from);
    retransmit_200_until_ack(id, rsp, from, sip::kTimerT1, host_.now());
  });
}

void UserAgent::retransmit_200_until_ack(const std::string& call_id, sip::SipMessage rsp,
                                         pkt::Endpoint to, SimDuration interval,
                                         SimTime started) {
  host_.after(interval, [this, call_id, rsp = std::move(rsp), to, interval, started] {
    Call* call = find_call_mut(call_id);
    if (call == nullptr || crashed_) return;
    if (call->dialog->state() != sip::DialogState::kEarly) return;  // ACKed (or ended)
    if (host_.now() - started >= sip::kTimerB) {
      // No ACK ever came: give the call up (RFC 3261 §13.3.1.4).
      end_call(call_id);
      return;
    }
    host_.send_udp(config_.sip_port, to, rsp.to_string());
    retransmit_200_until_ack(call_id, rsp,
                             to, std::min<SimDuration>(interval * 2, sec(4)), started);
  });
}

void UserAgent::handle_ack(const SipMessage& req) {
  Call* call = match_dialog(req);
  if (call == nullptr) return;
  if (call->dialog->state() == sip::DialogState::kEarly) {
    call->dialog->confirm(host_.now());
    ++stats_.calls_established;
    if (on_call_established) on_call_established(call->dialog->id().call_id);
    start_media(*call);
  }
}

void UserAgent::handle_bye(const SipMessage& req, pkt::Endpoint from) {
  Call* call = match_dialog(req);
  if (call == nullptr) {
    tm_.respond(req,
                sip::TransactionManager::make_response_for(req, 481,
                                                           "Call/Transaction Does Not Exist"),
                from);
    return;
  }
  auto cs = req.cseq();
  if (cs.ok() && !call->dialog->accept_remote_cseq(cs.value().number)) {
    tm_.respond(req, sip::TransactionManager::make_response_for(req, 500, "Stale CSeq"), from);
    return;
  }
  tm_.respond(req, sip::TransactionManager::make_response_for(req, 200, "OK"), from);
  end_call(call->dialog->id().call_id);
}

void UserAgent::handle_cancel(const SipMessage& req, pkt::Endpoint from) {
  // RFC 3261 §9.2: the CANCEL is answered 200 if it matches a call; while
  // that call still rings, its INVITE is answered 487 and the call ends.
  Call* call = match_dialog(req);
  if (call == nullptr) {
    tm_.respond(req,
                sip::TransactionManager::make_response_for(req, 481,
                                                           "Call/Transaction Does Not Exist"),
                from);
    return;
  }
  tm_.respond(req, sip::TransactionManager::make_response_for(req, 200, "OK"), from);
  if (!call->ringing_invite) return;  // already answered: the CANCEL changes nothing
  const SipMessage invite = std::move(*call->ringing_invite);
  call->ringing_invite.reset();
  tm_.respond(invite,
              dialog_response(invite, 487, "Request Terminated", call->dialog->id().local_tag),
              call->ringing_from);
  end_call(call->dialog->id().call_id);
}

SipMessage UserAgent::dialog_response(const SipMessage& req, int code, std::string reason,
                                      const std::string& local_tag) {
  auto rsp = sip::TransactionManager::make_response_for(req, code, std::move(reason));
  auto to = req.to();
  if (to.ok()) {
    auto na = to.value();
    na.set_tag(local_tag);
    rsp.headers().set("To", na.to_string());
  }
  return rsp;
}

void UserAgent::handle_message(const SipMessage& req, pkt::Endpoint from) {
  auto from_hdr = req.from();
  ImRecord im;
  im.from_aor = from_hdr.ok() ? from_hdr.value().uri.address_of_record() : "?";
  im.text = req.body();
  im.source = from;
  im.received_at = host_.now();
  ims_.push_back(im);
  if (on_im) on_im(ims_.back());
  tm_.respond(req, sip::TransactionManager::make_response_for(req, 200, "OK"), from);
}

// --- hangup / migration / IM ---

void UserAgent::hangup(const std::string& call_id) {
  Call* call = find_call_mut(call_id);
  if (call == nullptr || call->dialog->state() == sip::DialogState::kTerminated) return;
  auto remote = call->dialog->remote_target().value_or(config_.proxy);
  auto bye = make_request(Method::kBye, call->dialog->remote_uri());
  bye.headers().add("From", "<sip:" + aor() + ">;tag=" + call->dialog->id().local_tag);
  bye.headers().add("To", "<sip:" + call->dialog->remote_uri().address_of_record() + ">;tag=" +
                              call->dialog->id().remote_tag);
  bye.headers().add("Call-ID", call_id);
  bye.headers().add("CSeq", str::format("%u BYE", call->dialog->next_local_cseq()));
  tm_.send_request(bye, remote, [](const sip::ClientResult&) {});
  if (on_bye_sent) on_bye_sent(call_id);
  end_call(call_id);
}

void UserAgent::migrate_media(const std::string& call_id, pkt::Endpoint new_media) {
  Call* call = find_call_mut(call_id);
  if (call == nullptr || call->dialog->state() != sip::DialogState::kConfirmed) return;
  auto remote = call->dialog->remote_target().value_or(config_.proxy);
  auto reinvite = make_request(Method::kInvite, call->dialog->remote_uri());
  reinvite.headers().add("From", "<sip:" + aor() + ">;tag=" + call->dialog->id().local_tag);
  reinvite.headers().add("To", "<sip:" + call->dialog->remote_uri().address_of_record() +
                                   ">;tag=" + call->dialog->id().remote_tag);
  reinvite.headers().add("Call-ID", call_id);
  reinvite.headers().add("CSeq", str::format("%u INVITE", call->dialog->next_local_cseq()));
  reinvite.headers().add("Contact", "<sip:" + config_.user + "@" + new_media.addr.to_string() +
                                        ">");
  auto sdp = sip::make_audio_sdp(new_media.addr.to_string(), new_media.port, next_id_, 2);
  reinvite.set_body(sdp.to_string(), "application/sdp");
  tm_.send_request(reinvite, remote, [](const sip::ClientResult&) {});
  if (on_reinvite_sent) on_reinvite_sent(call_id);
  // The call has moved to the new device: this agent stops sourcing media.
  stop_media(*call);
}

void UserAgent::add_contact(const std::string& aor, pkt::Endpoint contact) {
  contact_cache_[aor] = contact;
}

void UserAgent::learn_contact(const SipMessage& msg, pkt::Endpoint from) {
  auto contact = msg.contact();
  auto hdr = msg.is_request() ? msg.from() : msg.to();
  if (!contact.ok() || !hdr.ok()) return;
  auto ep = uri_to_endpoint(contact.value().uri);
  contact_cache_[hdr.value().uri.address_of_record()] = ep.value_or(from);
}

void UserAgent::send_im(const std::string& target_aor, const std::string& text) {
  std::string target = target_aor.find('@') == std::string::npos
                           ? target_aor + "@" + config_.domain
                           : target_aor;
  auto at = str::split_once(target, '@');
  sip::SipUri target_uri(std::string(at->first), std::string(at->second));

  pkt::Endpoint dst = config_.proxy;
  auto cached = contact_cache_.find(target);
  if (cached != contact_cache_.end()) dst = cached->second;

  auto msg = make_request(Method::kMessage, target_uri);
  msg.headers().add("From", "<sip:" + aor() + ">;tag=" + new_tag());
  msg.headers().add("To", "<sip:" + target + ">");
  msg.headers().add("Call-ID", new_call_id());
  msg.headers().add("CSeq", "1 MESSAGE");
  msg.set_body(text, "text/plain");
  tm_.send_request(msg, dst, [](const sip::ClientResult&) {});
  if (on_im_sent) on_im_sent(target, text);
}

// --- media plane ---

void UserAgent::start_media(Call& call) {
  if (call.media_running || crashed_) return;
  call.media_running = true;
  media_tick(call.dialog->id().call_id);
  if (config_.rtcp_interval > 0) {
    std::string call_id = call.dialog->id().call_id;
    host_.after(config_.rtcp_interval, [this, call_id] { rtcp_tick(call_id); });
  }
}

void UserAgent::rtcp_tick(const std::string& call_id) {
  Call* call = find_call_mut(call_id);
  if (call == nullptr || !call->media_running || crashed_) return;
  if (call->dialog->state() != sip::DialogState::kConfirmed) return;
  auto remote = call->dialog->remote_media();
  if (remote) {
    rtp::RtcpSenderReport sr;
    sr.ssrc = call->ssrc;
    sr.ntp_timestamp = static_cast<uint64_t>(host_.now());
    sr.rtp_timestamp = call->rtp_timestamp;
    sr.packet_count = call->rtp_seq;
    sr.octet_count = static_cast<uint32_t>(call->rtp_seq) * 160;
    pkt::Endpoint rtcp_dst{remote->addr, static_cast<uint16_t>(remote->port + 1)};
    host_.send_udp(static_cast<uint16_t>(call->local_rtp_port + 1), rtcp_dst,
                   rtp::serialize_rtcp(sr));
    ++stats_.rtcp_sent;
  }
  host_.after(config_.rtcp_interval, [this, call_id] { rtcp_tick(call_id); });
}

void UserAgent::send_rtcp_bye(const Call& call) {
  if (config_.rtcp_interval <= 0) return;
  auto remote = call.dialog->remote_media();
  if (!remote) return;
  rtp::RtcpBye bye;
  bye.ssrcs = {call.ssrc};
  bye.reason = "teardown";
  pkt::Endpoint rtcp_dst{remote->addr, static_cast<uint16_t>(remote->port + 1)};
  host_.send_udp(static_cast<uint16_t>(call.local_rtp_port + 1), rtcp_dst,
                 rtp::serialize_rtcp(bye));
  ++stats_.rtcp_sent;
}

void UserAgent::stop_media(Call& call) { call.media_running = false; }

void UserAgent::media_tick(const std::string& call_id) {
  Call* call = find_call_mut(call_id);
  if (call == nullptr || !call->media_running || crashed_) return;
  if (call->dialog->state() != sip::DialogState::kConfirmed) return;
  auto remote = call->dialog->remote_media();
  if (remote) {
    rtp::RtpHeader h;
    h.payload_type = rtp::kPayloadTypePcmu;
    h.sequence = call->rtp_seq++;
    h.timestamp = call->rtp_timestamp;
    h.ssrc = call->ssrc;
    h.marker = (call->rtp_timestamp == 0);
    call->rtp_timestamp += rtp::kSamplesPer20Ms;
    Bytes payload(160, 0xd5);  // G.711 u-law silence
    host_.send_udp(call->local_rtp_port, *remote, rtp::serialize_rtp(h, payload));
    ++stats_.rtp_sent;
  }
  host_.after(config_.rtp_interval, [this, call_id] { media_tick(call_id); });
}

void UserAgent::on_rtp_datagram(pkt::Endpoint from, std::span<const uint8_t> payload,
                                SimTime now) {
  (void)from;
  if (crashed_) return;
  ++stats_.rtp_received;
  auto parsed = rtp::parse_rtp(payload);
  if (!parsed) return;  // garbage that does not even look like RTP
  const auto& h = parsed.value().header;
  auto [it, _] = rx_streams_.try_emplace(h.ssrc, rtp::RtpStreamStats(8000));
  it->second.on_packet(h.sequence, h.timestamp, now);
  rx_port_stats_.on_packet(h.sequence, h.timestamp, now);
  if (!jitter_buffer_.push(h, now)) {
    // X-Lite style crash (paper §4.2.4): the client dies.
    crashed_ = true;
    LOG_INFO("ua", "%s: client crashed on corrupt RTP", aor().c_str());
    for (auto& [id, call] : calls_) {
      stop_media(call);
      call.dialog->terminate(now);
    }
    return;
  }
  rtp::RtpHeader played;
  jitter_buffer_.pop_for_playout(&played);
}

// --- bookkeeping ---

void UserAgent::end_call(const std::string& call_id) {
  Call* call = find_call_mut(call_id);
  if (call == nullptr) return;
  bool was_streaming = call->media_running;
  stop_media(*call);
  if (was_streaming && !crashed_) send_rtcp_bye(*call);
  if (call->dialog->state() != sip::DialogState::kTerminated) {
    call->dialog->terminate(host_.now());
    ++stats_.calls_ended;
    if (on_call_ended) on_call_ended(call_id);
  }
}

UserAgent::Call* UserAgent::find_call_mut(const std::string& call_id) {
  auto it = calls_.find(call_id);
  return it == calls_.end() ? nullptr : &it->second;
}

const sip::Dialog* UserAgent::find_call(const std::string& call_id) const {
  auto it = calls_.find(call_id);
  return it == calls_.end() ? nullptr : it->second.dialog.get();
}

size_t UserAgent::active_calls() const {
  size_t n = 0;
  for (const auto& [id, call] : calls_) {
    if (call.dialog->state() == sip::DialogState::kConfirmed) ++n;
  }
  return n;
}

}  // namespace scidive::voip
