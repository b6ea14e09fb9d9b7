#include "testbed/testbed.h"

namespace scidive::testbed {

namespace {

core::EngineConfig ids_config(const TestbedConfig& config, pkt::Ipv4Address a,
                              pkt::Ipv4Address proxy, pkt::Ipv4Address db) {
  core::EngineConfig out;
  out.events = config.ids_events;
  out.rules = config.ids_rules;
  out.obs = config.ids_obs;
  out.enforce = config.ids_enforce;
  if (config.ids_watches_client_a) out.home_addresses.insert(a);
  if (config.ids_watches_proxy) {
    out.home_addresses.insert(proxy);
    out.home_addresses.insert(db);
  }
  return out;
}

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      rng_(config.seed),
      net_(sim_, config.seed ^ 0x5eedULL),
      proxy_host_("proxy", pkt::Ipv4Address(10, 0, 0, 100), net_),
      a_host_("client-a", pkt::Ipv4Address(10, 0, 0, 1), net_),
      b_host_("client-b", pkt::Ipv4Address(10, 0, 0, 2), net_),
      attacker_host_("attacker", pkt::Ipv4Address(10, 0, 0, 66), net_),
      db_host_("billing-db", pkt::Ipv4Address(10, 0, 0, 200), net_) {
  for (netsim::Host* host : {&proxy_host_, &a_host_, &b_host_, &attacker_host_, &db_host_}) {
    net_.attach(*host, config_.link);
  }

  proxy_ = std::make_unique<voip::ProxyRegistrar>(
      proxy_host_, voip::ProxyConfig{.domain = kDomain, .sip_port = 5060,
                                     .require_auth = config_.require_auth, .realm = kDomain});
  proxy_->set_billing_identity_bug(config_.billing_bug);
  db_ = std::make_unique<voip::BillingDatabase>(db_host_);
  accounting_ = std::make_unique<voip::AccountingClient>(
      proxy_host_, pkt::Endpoint{db_host_.address(), voip::kAccPort});
  proxy_->set_accounting(accounting_.get());

  auto ua_config = [&](const std::string& user, rtp::CorruptionBehavior jitter) {
    voip::UserAgentConfig c;
    c.user = user;
    c.domain = kDomain;
    c.password = user + "-pass";
    c.proxy = {proxy_host_.address(), 5060};
    c.jitter_behavior = jitter;
    c.rtp_interval = config_.rtp_interval;
    return c;
  };
  a_ = std::make_unique<voip::UserAgent>(a_host_, ua_config("alice", config_.client_a_jitter));
  b_ = std::make_unique<voip::UserAgent>(b_host_,
                                         ua_config("bob", rtp::CorruptionBehavior::kGlitch));
  proxy_->add_user("alice", "alice-pass");
  proxy_->add_user("bob", "bob-pass");

  ids_ = std::make_unique<core::ScidiveEngine>(
      ids_config(config_, a_host_.address(), proxy_host_.address(), db_host_.address()));
  net_.add_tap(ids_->tap());
  net_.add_tap(sniffer_.tap());

  // Prevention wiring: the proxy consults the IDS's standing enforcement
  // state (block list + rate limiters) before processing a datagram. The
  // screen only peeks — the engine's own decide() path, fed by the tap,
  // is the single place tokens are consumed, so the screen and the tap
  // never double-charge one packet.
  if (ids_->enforcement_mode() != core::EnforcementMode::kOff) {
    proxy_->set_screen(
        [this](pkt::Endpoint from, std::span<const uint8_t> payload, SimTime now) {
          uint64_t principal = 0;
          if (auto msg = sip::SipMessage::parse(payload); msg.ok()) {
            if (auto f = msg.value().from(); f.ok()) {
              std::string aor = f.value().uri.address_of_record();
              if (!aor.empty()) principal = core::aor_key(aor);
            }
          }
          const core::VerdictAction act =
              ids_->enforcer()->peek(core::source_key(from.addr), 0, principal, now);
          if (act != core::VerdictAction::kPass) ++screen_nonpass_;
          if (ids_->enforcement_mode() == core::EnforcementMode::kInline)
            return static_cast<voip::ScreenAction>(act);
          return voip::ScreenAction::kPass;  // passive: record, never interfere
        });
  }
}

voip::UserAgent& Testbed::add_client(const std::string& user, uint8_t last_octet,
                                     uint16_t sip_port, uint16_t rtp_port) {
  auto host = std::make_unique<netsim::Host>(user, pkt::Ipv4Address(10, 0, 0, last_octet),
                                             net_);
  net_.attach(*host, config_.link);
  voip::UserAgentConfig c;
  c.user = user;
  c.domain = kDomain;
  c.password = user + "-pass";
  c.proxy = {proxy_host_.address(), 5060};
  c.sip_port = sip_port;
  c.rtp_port = rtp_port;
  c.rtp_interval = config_.rtp_interval;
  proxy_->add_user(user, c.password);
  auto ua = std::make_unique<voip::UserAgent>(*host, std::move(c));
  extra_hosts_.push_back(std::move(host));
  extra_clients_.push_back(std::move(ua));
  return *extra_clients_.back();
}

std::vector<voip::UserAgent*> Testbed::clients() {
  std::vector<voip::UserAgent*> out{a_.get(), b_.get()};
  for (auto& ua : extra_clients_) out.push_back(ua.get());
  return out;
}

void Testbed::register_all() {
  a_->register_now();
  b_->register_now();
  for (auto& ua : extra_clients_) ua->register_now();
  run_for(sec(2));
}

std::string Testbed::establish_call(SimDuration talk) {
  if (!a_->registered()) register_all();
  std::string call_id = a_->call("bob");
  run_for(talk);
  return call_id;
}

void Testbed::inject_bye_attack() {
  // Attack a call the monitored client (A) is involved in — the endpoint
  // IDS deployment only watches A's traffic.
  auto call = sniffer_.latest_active_call_of(a_->aor());
  if (!call) return;
  voip::ByeAttacker attacker(attacker_host_);
  attacker.attack(*call, /*attack_caller=*/call->caller_aor == a_->aor());
  injected_.push_back({"bye-attack", now(), call->call_id});
}

void Testbed::inject_call_hijack() {
  auto call = sniffer_.latest_active_call_of(a_->aor());
  if (!call) return;
  voip::CallHijacker hijacker(attacker_host_);
  hijacker.attack(*call, {attacker_host_.address(), 17000},
                  /*attack_caller=*/call->caller_aor == a_->aor());
  injected_.push_back({"call-hijack", now(), call->call_id});
}

void Testbed::inject_fake_im() {
  voip::FakeImAttacker attacker(attacker_host_);
  attacker.send(a_->sip_endpoint(), b_->aor(), "click this link immediately");
  injected_.push_back({"fake-im", now(), ""});
}

void Testbed::inject_rtp_flood(int packets) {
  // Aim at the victim's media port for the current call (sniffed from SDP,
  // as the paper's attacker would); fall back to A's base media port.
  pkt::Endpoint victim{a_host_.address(), a_->config().rtp_port};
  if (auto call = sniffer_.latest_active_call();
      call && call->caller_media.addr == a_host_.address()) {
    victim = call->caller_media;
  }
  auto injector = std::make_shared<voip::RtpInjector>(attacker_host_, rng_.next_u64());
  injector->start(victim, {.count = packets});
  sim_.after(sec(3600), [injector] {});  // outlive its scheduled ticks
  injected_.push_back({"rtp-attack", now(), ""});
}

void Testbed::inject_register_flood(int count) {
  auto flooder = std::make_shared<voip::RegisterFlooder>(
      attacker_host_, pkt::Endpoint{proxy_host_.address(), 5060}, "alice", kDomain);
  flooder->start(count, msec(100));
  // Keep the flooder alive for the run.
  sim_.after(sec(3600), [flooder] {});
  injected_.push_back({"register-flood", now(), ""});
}

void Testbed::inject_password_guessing(std::vector<std::string> guesses) {
  auto guesser = std::make_shared<voip::PasswordGuesser>(
      attacker_host_, pkt::Endpoint{proxy_host_.address(), 5060}, "alice", kDomain);
  guesser->start(std::move(guesses), msec(80));
  sim_.after(sec(3600), [guesser] {});
  injected_.push_back({"password-guess", now(), ""});
}

void Testbed::inject_billing_fraud() {
  auto fraudster = std::make_shared<voip::BillingFraudster>(
      attacker_host_, pkt::Endpoint{proxy_host_.address(), 5060}, std::string(kDomain));
  fraudster->place_fraudulent_call("bob", a_->aor());
  sim_.after(sec(3600), [fraudster] {});
  injected_.push_back({"billing-fraud", now(), ""});
}

void Testbed::inject_spit_campaign(int calls, SimDuration interval) {
  spitter_ = std::make_shared<voip::SpitCampaigner>(
      attacker_host_, pkt::Endpoint{proxy_host_.address(), 5060}, "spambot",
      std::string(kDomain));
  spitter_->start({"alice", "bob"}, calls, interval);
  injected_.push_back({"spit-graylist", now(), ""});
}

Testbed::Score Testbed::score() const {
  Score s;
  // One true positive per injected attack kind that produced >= 1 alert of
  // the matching rule after the injection time; extra alerts of the same
  // rule within an attack are not penalized (a real attack may trip the
  // rule several times); alerts of rules with no matching injection are
  // false positives.
  std::map<std::string, int> injected_by_kind;
  for (const auto& attack : injected_) ++injected_by_kind[attack.kind];

  std::map<std::string, int> alerted_by_rule;
  for (const auto& alert : ids_->alerts().alerts()) ++alerted_by_rule[alert.rule];

  for (const auto& [kind, n] : injected_by_kind) {
    int hits = alerted_by_rule.contains(kind) ? 1 : 0;
    // Detected kinds: count each injection at most once; undetected: missed.
    if (hits > 0) {
      s.true_positives += n;  // conservative: rule fired, injections covered
    } else {
      s.missed += n;
    }
  }
  for (const auto& [rule, n] : alerted_by_rule) {
    if (!injected_by_kind.contains(rule)) s.false_positives += n;
  }
  return s;
}

std::vector<pkt::Packet> four_attacks_stream() {
  std::vector<pkt::Packet> out;
  TestbedConfig cfg;
  cfg.ids_obs.time_stages = false;
  Testbed tb(cfg);
  tb.net().add_tap([&out](const pkt::Packet& p) { out.push_back(p); });

  tb.establish_call(sec(3));
  tb.inject_bye_attack();
  tb.run_for(sec(1));

  tb.client_b().add_contact(tb.client_a().aor(), tb.client_a().sip_endpoint());
  tb.client_b().send_im("alice", "lunch at noon? - bob");
  tb.run_for(sec(1));
  tb.inject_fake_im();
  tb.run_for(sec(1));

  tb.establish_call(sec(2));
  tb.inject_call_hijack();
  tb.run_for(sec(1));

  tb.establish_call(sec(2));
  tb.inject_rtp_flood(30);
  tb.run_for(sec(2));
  return out;
}

}  // namespace scidive::testbed
