// The paper's Figure-4 testbed as a reusable harness: SIP proxy (SIP
// Express Router stand-in), clients A and B (KPhone / Messenger / X-Lite
// stand-ins), a billing database, an attacker machine and a SCIDIVE IDS
// instance tapped on the hub — all wired to one deterministic simulator.
//
// Examples and benchmark binaries build scenarios on top of this class; the
// attack injectors carry ground-truth bookkeeping so accuracy experiments
// can classify alerts into true/false positives.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "scidive/engine.h"
#include "voip/accounting.h"
#include "voip/attack.h"
#include "voip/proxy.h"
#include "voip/user_agent.h"

namespace scidive::testbed {

struct TestbedConfig {
  uint64_t seed = 2004;
  netsim::LinkConfig link{.delay = DelayModel::fixed(msec(1)), .loss = 0.0, .mtu = 1500};
  bool require_auth = false;
  bool billing_bug = false;
  /// Where the IDS sits: the paper's endpoint deployment watches client A;
  /// proxy-side deployments (for the §3.2/§3.3 scenarios) watch the proxy
  /// and the billing database.
  bool ids_watches_client_a = true;
  bool ids_watches_proxy = false;
  core::EventGeneratorConfig ids_events;
  core::RulesConfig ids_rules;
  core::EngineObsConfig ids_obs;
  /// Prevention: kOff leaves the testbed purely passive (the default).
  /// kPassive wires the proxy screen but only counts what it would have
  /// done; kInline lets the screen drop/503 graylisted traffic for real.
  core::EnforceConfig ids_enforce;
  rtp::CorruptionBehavior client_a_jitter = rtp::CorruptionBehavior::kGlitch;
  /// Media pacing for every client (the paper's "typical period employed is
  /// 20 milliseconds"; the detection-delay law scales with it).
  SimDuration rtp_interval = msec(20);
};

/// Ground truth about one injected attack, for accuracy scoring.
struct InjectedAttack {
  std::string kind;        // matches the rule expected to fire
  SimTime injected_at = 0;
  core::SessionId session; // call-id when applicable
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  static constexpr const char* kDomain = "lab.net";

  // --- driving the simulation ---
  void register_all();
  /// Place A->B and run until established (plus `talk` of conversation).
  std::string establish_call(SimDuration talk = sec(2));
  void run_for(SimDuration d) { sim_.run_until(sim_.now() + d); }
  SimTime now() const { return sim_.now(); }

  // --- attack injection (each records ground truth) ---
  void inject_bye_attack();
  void inject_call_hijack();
  void inject_fake_im();
  void inject_rtp_flood(int packets = 30);
  void inject_register_flood(int count = 20);
  void inject_password_guessing(std::vector<std::string> guesses);
  void inject_billing_fraud();
  /// SPIT campaign: `calls` short call attempts from one spam identity,
  /// one every `interval`, each CANCELed moments later.
  void inject_spit_campaign(int calls = 12, SimDuration interval = msec(500));

  const std::vector<InjectedAttack>& injected() const { return injected_; }

  // --- components ---
  netsim::Simulator& sim() { return sim_; }
  netsim::Network& net() { return net_; }
  voip::UserAgent& client_a() { return *a_; }
  voip::UserAgent& client_b() { return *b_; }
  voip::ProxyRegistrar& proxy() { return *proxy_; }
  voip::BillingDatabase& billing_db() { return *db_; }
  core::ScidiveEngine& ids() { return *ids_; }
  const core::AlertSink& alerts() const { return ids_->alerts(); }
  voip::CallSniffer& sniffer() { return sniffer_; }
  netsim::Host& attacker_host() { return attacker_host_; }
  Rng& rng() { return rng_; }
  /// The active SPIT campaigner (null before inject_spit_campaign).
  voip::SpitCampaigner* spitter() { return spitter_.get(); }
  /// Datagrams the proxy screen judged non-pass. In kPassive mode these are
  /// the would-have-dropped/shaped packets (the traffic still flowed); in
  /// kInline mode they were actually rejected (see ProxyStats too).
  uint64_t screen_nonpass() const { return screen_nonpass_; }

  /// Add another user agent to the testbed (registers with the proxy's
  /// user table; caller drives registration).
  voip::UserAgent& add_client(const std::string& user, uint8_t last_octet,
                              uint16_t sip_port = 5060, uint16_t rtp_port = 16384);

  /// All user agents (A, B, extras) for workload generators.
  std::vector<voip::UserAgent*> clients();

  /// Accuracy scoring: alerts whose rule matches an injected attack count
  /// as true positives (one per injection); everything else is false.
  struct Score {
    int true_positives = 0;
    int false_positives = 0;
    int missed = 0;
  };
  Score score() const;

 private:
  TestbedConfig config_;
  Rng rng_;
  netsim::Simulator sim_;
  netsim::Network net_;

  netsim::Host proxy_host_;
  netsim::Host a_host_;
  netsim::Host b_host_;
  netsim::Host attacker_host_;
  netsim::Host db_host_;
  std::vector<std::unique_ptr<netsim::Host>> extra_hosts_;

  std::unique_ptr<voip::ProxyRegistrar> proxy_;
  std::unique_ptr<voip::BillingDatabase> db_;
  std::unique_ptr<voip::AccountingClient> accounting_;
  std::unique_ptr<voip::UserAgent> a_;
  std::unique_ptr<voip::UserAgent> b_;
  std::vector<std::unique_ptr<voip::UserAgent>> extra_clients_;
  std::unique_ptr<core::ScidiveEngine> ids_;
  voip::CallSniffer sniffer_;
  std::shared_ptr<voip::SpitCampaigner> spitter_;
  uint64_t screen_nonpass_ = 0;

  std::vector<InjectedAttack> injected_;
};

/// One testbed run carrying the four §5 single-point attacks back to back
/// (BYE teardown, fake IM, call hijack, RTP flood), captured off the wire.
/// Deterministic: the same packets, byte for byte, on every call.
std::vector<pkt::Packet> four_attacks_stream();

}  // namespace scidive::testbed
