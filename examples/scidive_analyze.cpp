// scidive_analyze — offline IDS over a pcap capture: the adoptable
// command-line entry point. Feed it a capture (e.g. one produced by
// record_replay, `scidive_pcap export` or tcpdump) and it prints protocol
// statistics, sessions, incidents and alerts.
//
//   usage: scidive_analyze <capture.pcap> [--home <ip>]... [--verbose]
//          scidive_analyze --selftest          (generate + analyze a demo)
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "capture/pcap.h"
#include "scidive/engine.h"
#include "scidive/incident.h"
#include "testbed/testbed.h"

using namespace scidive;

namespace {

int analyze(capture::PcapFileSource& source, const core::EngineConfig& config, bool verbose) {
  core::ScidiveEngine engine(config);
  core::IncidentCorrelator correlator;
  engine.alerts().set_callback(correlator.subscriber("offline"));
  if (verbose) {
    engine.set_event_callback([](const core::Event& event) {
      printf("  event %-22s session=%s %s\n",
             std::string(core::event_type_name(event.type)).c_str(), event.session.c_str(),
             event.detail.c_str());
    });
  }

  const uint64_t fed = engine.run(source);
  if (!source.ok()) {
    fprintf(stderr, "error: %s\n", source.error().c_str());
    return 2;
  }

  const auto& d = engine.distiller().stats();
  printf("packets: %llu fed, %llu inspected\n", static_cast<unsigned long long>(fed),
         static_cast<unsigned long long>(engine.stats().packets_inspected));
  printf("footprints: sip=%llu rtp=%llu rtcp=%llu acc=%llu h225=%llu ras=%llu unknown=%llu\n",
         static_cast<unsigned long long>(d.sip_footprints),
         static_cast<unsigned long long>(d.rtp_footprints),
         static_cast<unsigned long long>(d.rtcp_footprints),
         static_cast<unsigned long long>(d.acc_footprints),
         static_cast<unsigned long long>(d.h225_footprints),
         static_cast<unsigned long long>(d.ras_footprints),
         static_cast<unsigned long long>(d.unknown_footprints));
  printf("sessions: %zu, trails: %zu, events: %llu\n", engine.trails().sessions().size(),
         engine.trails().trail_count(), static_cast<unsigned long long>(engine.stats().events));

  printf("\nincidents (%zu):\n", correlator.count());
  for (const auto& incident : correlator.incidents()) {
    printf("  %s\n", incident.to_string().c_str());
  }
  if (verbose) {
    printf("\nraw alerts (%zu):\n", engine.alerts().count());
    for (const auto& alert : engine.alerts().alerts()) {
      printf("  %s\n", alert.to_string().c_str());
    }
  }
  return engine.alerts().count() > 0 ? 1 : 0;  // shell-friendly: 1 = alarms
}

int selftest() {
  printf("selftest: generating a BYE-attack capture on the simulated testbed...\n");
  std::stringstream pcap;
  {
    capture::PcapWriter writer(pcap);
    testbed::Testbed tb;
    tb.net().add_tap(writer.tap());
    tb.establish_call(sec(3));
    tb.inject_bye_attack();
    tb.run_for(sec(1));
  }
  printf("analyzing it offline:\n\n");
  capture::PcapFileSource source(pcap);
  core::EngineConfig config;
  config.home_addresses = {pkt::Ipv4Address(10, 0, 0, 1)};
  int rc = analyze(source, config, /*verbose=*/false);
  return rc == 1 ? 0 : 1;  // the attack must be found
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--selftest") == 0) return selftest();
  if (argc < 2) {
    fprintf(stderr,
            "usage: %s <capture.pcap> [--home <ip>]... [--verbose]\n"
            "       %s --selftest\n",
            argv[0], argv[0]);
    return 2;
  }

  core::EngineConfig config;
  bool verbose = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--home") == 0 && i + 1 < argc) {
      auto addr = pkt::Ipv4Address::parse(argv[++i]);
      if (!addr) {
        fprintf(stderr, "bad --home address: %s\n", argv[i]);
        return 2;
      }
      config.home_addresses.insert(*addr);
    } else {
      fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  capture::PcapFileSource source(argv[1]);
  if (!source.ok()) {
    fprintf(stderr, "%s\n", source.error().c_str());  // names the file when unopenable
    return 2;
  }
  return analyze(source, config, verbose);
}
