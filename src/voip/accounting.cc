#include "voip/accounting.h"

#include "common/strings.h"

namespace scidive::voip {

void AccountingClient::call_started(const std::string& call_id, const std::string& from_aor,
                                    const std::string& to_aor) {
  send(AccRecord{AccRecord::Kind::kStart, call_id, from_aor, to_aor, host_.now()});
}

void AccountingClient::call_stopped(const std::string& call_id, const std::string& from_aor,
                                    const std::string& to_aor) {
  send(AccRecord{AccRecord::Kind::kStop, call_id, from_aor, to_aor, host_.now()});
}

void AccountingClient::send(AccRecord record) {
  host_.send_udp(local_port_, database_, record.serialize());
  ++records_sent_;
}

BillingDatabase::BillingDatabase(netsim::Host& host) : host_(host) {
  host_.bind_udp(kAccPort,
                 [this](pkt::Endpoint from, std::span<const uint8_t> payload, SimTime) {
                   auto record = AccRecord::parse(std::string_view(
                       reinterpret_cast<const char*>(payload.data()), payload.size()));
                   if (!record) return;
                   records_.push_back(record.value());
                   host_.send_udp(kAccPort, from,
                                  str::format("OK %zu", records_.size()));
                 });
}

std::map<std::string, int> BillingDatabase::bill_counts() const {
  std::map<std::string, int> counts;
  for (const auto& r : records_) {
    if (r.kind == AccRecord::Kind::kStart) ++counts[r.from_aor];
  }
  return counts;
}

}  // namespace scidive::voip
