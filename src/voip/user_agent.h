// SIP user agent: a simulated softphone (KPhone / Windows Messenger /
// X-Lite stand-in). Registers with the proxy (digest auth), originates and
// answers calls, sends 20 ms G.711 RTP during confirmed dialogs, supports
// in-dialog re-INVITE (mobility / call migration), instant messaging
// (MESSAGE), and models the jitter-buffer reaction to garbage RTP.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "rtp/jitter_buffer.h"
#include "rtp/stats.h"
#include "sip/auth.h"
#include "sip/dialog.h"
#include "sip/message.h"
#include "sip/sdp.h"
#include "sip/transaction.h"

namespace scidive::voip {

struct UserAgentConfig {
  std::string user;              // "alice"
  std::string domain;            // "lab.net" (the proxy's domain)
  std::string password;          // digest password at the registrar
  pkt::Endpoint proxy;           // outbound proxy / registrar
  uint16_t sip_port = 5060;
  /// Base of the media port range: each call gets its own even RTP port
  /// (base, base+2, base+4, ...) like real softphones; RTCP would sit at
  /// port+1.
  uint16_t rtp_port = 16384;
  SimDuration answer_delay = msec(500);  // ring time before auto-answer
  SimDuration rtp_interval = msec(20);
  /// RTCP sender-report cadence (0 disables RTCP entirely).
  SimDuration rtcp_interval = sec(2);
  uint32_t register_expires = 3600;
  rtp::CorruptionBehavior jitter_behavior = rtp::CorruptionBehavior::kGlitch;
  bool auto_answer = true;
};

/// A received instant message, as the user would see it — plus the network
/// source, which the human cannot see but the IDS can.
struct ImRecord {
  std::string from_aor;
  std::string text;
  pkt::Endpoint source;
  SimTime received_at = 0;
};

struct CallStats {
  uint64_t calls_placed = 0;
  uint64_t calls_answered = 0;
  uint64_t calls_established = 0;
  uint64_t calls_ended = 0;
  uint64_t rtp_sent = 0;
  uint64_t rtp_received = 0;
  uint64_t rtcp_sent = 0;
  uint64_t register_ok = 0;
  uint64_t register_failed = 0;
};

class UserAgent {
 public:
  UserAgent(netsim::Host& host, UserAgentConfig config);

  /// Register the AOR with the proxy, answering a digest challenge if one
  /// comes back. on_done(success) fires on the final outcome.
  void register_now(std::function<void(bool)> on_done = {});

  /// Place a call to an AOR ("bob@lab.net" or bare user "bob"). Returns the
  /// Call-ID of the new call.
  std::string call(const std::string& target_aor);

  /// Tear down a confirmed call.
  void hangup(const std::string& call_id);

  /// Call migration (paper §4.2.3): move this end's media to a new
  /// endpoint and tell the peer with an in-dialog re-INVITE.
  void migrate_media(const std::string& call_id, pkt::Endpoint new_media);

  /// Send an instant message. Uses the contact cache (direct, peer-to-peer
  /// IM as 2004 Messenger did within a session) when the peer is known,
  /// otherwise routes through the proxy.
  void send_im(const std::string& target_aor, const std::string& text);

  /// Provision a peer's contact (buddy list): aor -> SIP endpoint.
  void add_contact(const std::string& aor, pkt::Endpoint contact);

  // --- observability ---
  const std::vector<ImRecord>& received_ims() const { return ims_; }
  const CallStats& stats() const { return stats_; }
  bool registered() const { return registered_; }
  bool crashed() const { return crashed_; }
  std::string aor() const { return config_.user + "@" + config_.domain; }
  const UserAgentConfig& config() const { return config_; }
  pkt::Endpoint sip_endpoint() const { return {host_.address(), config_.sip_port}; }
  pkt::Endpoint media_endpoint() const { return media_local_; }
  netsim::Host& host() { return host_; }

  /// Dialog for a call-id, if any.
  const sip::Dialog* find_call(const std::string& call_id) const;
  size_t active_calls() const;
  /// Jitter buffer of the media session (exists while any call is live).
  const rtp::JitterBuffer& jitter_buffer() const { return jitter_buffer_; }
  const std::map<uint32_t, rtp::RtpStreamStats>& rx_streams() const { return rx_streams_; }
  /// Aggregate statistics over all RTP arriving at the media port,
  /// regardless of SSRC — the "consecutive packets" view the paper's RTP
  /// attack rule (§4.2.4) is defined on.
  const rtp::RtpStreamStats& rx_port_stats() const { return rx_port_stats_; }

  std::function<void(const std::string& call_id)> on_call_established;
  std::function<void(const std::string& call_id)> on_call_ended;
  std::function<void(const ImRecord&)> on_im;
  /// Fires when this client genuinely sends an IM — host-based ground truth
  /// a co-located IDS can subscribe to (cooperative detection, paper §6).
  std::function<void(const std::string& target_aor, const std::string& text)> on_im_sent;
  /// Fires when this client genuinely hangs up a call — host-based ground
  /// truth a co-located IDS vouches to peers so a spoofed BYE (forged
  /// source, correct dialog state) is attributable fleet-wide.
  std::function<void(const std::string& call_id)> on_bye_sent;
  /// Likewise for a genuine mid-call re-INVITE (media migration).
  std::function<void(const std::string& call_id)> on_reinvite_sent;

 private:
  struct Call {
    std::unique_ptr<sip::Dialog> dialog;
    bool media_running = false;
    uint16_t rtp_seq = 0;
    uint32_t rtp_timestamp = 0;
    uint32_t ssrc = 0;
    bool we_are_caller = false;
    uint16_t local_rtp_port = 0;  // per-call media port
    /// An incoming INVITE not yet answered 200, and where it came from: a
    /// CANCEL meanwhile answers it 487 instead.
    std::optional<sip::SipMessage> ringing_invite;
    pkt::Endpoint ringing_from;
  };

  /// Allocate and bind the next per-call RTP port.
  uint16_t allocate_rtp_port();

  void on_sip_datagram(pkt::Endpoint from, std::span<const uint8_t> payload, SimTime now);
  void on_rtp_datagram(pkt::Endpoint from, std::span<const uint8_t> payload, SimTime now);
  void handle_request(const sip::SipMessage& req, pkt::Endpoint from);
  void handle_invite(const sip::SipMessage& req, pkt::Endpoint from);
  void handle_bye(const sip::SipMessage& req, pkt::Endpoint from);
  void handle_cancel(const sip::SipMessage& req, pkt::Endpoint from);
  void handle_message(const sip::SipMessage& req, pkt::Endpoint from);
  void handle_ack(const sip::SipMessage& req);
  /// A response to `req` whose To carries our dialog tag.
  static sip::SipMessage dialog_response(const sip::SipMessage& req, int code,
                                         std::string reason, const std::string& local_tag);

  /// RFC 3261 §13.3.1.4: retransmit the 2xx to an INVITE until the ACK
  /// arrives (the transaction layer won't; 2xx reliability is the UA's).
  void retransmit_200_until_ack(const std::string& call_id, sip::SipMessage rsp,
                                pkt::Endpoint to, SimDuration interval, SimTime started);

  void send_ack(const Call& call);
  void start_media(Call& call);
  void stop_media(Call& call);
  void media_tick(const std::string& call_id);
  void rtcp_tick(const std::string& call_id);
  void send_rtcp_bye(const Call& call);
  void end_call(const std::string& call_id);

  Call* find_call_mut(const std::string& call_id);
  /// Locate the call a mid-dialog request belongs to (call-id + tag match).
  Call* match_dialog(const sip::SipMessage& req);

  sip::SipMessage make_request(sip::Method method, sip::SipUri request_uri);
  std::string new_tag();
  std::string new_call_id();
  sip::Sdp local_sdp(uint16_t rtp_port, uint64_t session_version = 1) const;
  void learn_contact(const sip::SipMessage& msg, pkt::Endpoint from);

  netsim::Host& host_;
  UserAgentConfig config_;
  sip::TransactionManager tm_;
  std::map<std::string, Call> calls_;  // by Call-ID
  std::map<std::string, pkt::Endpoint, std::less<>> contact_cache_;  // aor -> endpoint
  std::vector<ImRecord> ims_;
  rtp::JitterBuffer jitter_buffer_;
  std::map<uint32_t, rtp::RtpStreamStats> rx_streams_;  // by SSRC
  rtp::RtpStreamStats rx_port_stats_{8000};             // all SSRCs combined
  CallStats stats_;
  pkt::Endpoint media_local_;  // first/primary media endpoint (= base port)
  uint16_t next_rtp_port_;
  bool registered_ = false;
  bool crashed_ = false;
  uint64_t next_id_ = 1;
};

}  // namespace scidive::voip
