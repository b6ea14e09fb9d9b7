// The accounting subsystem of the §3.2 billing-fraud example: the proxy's
// AccountingClient sends CDR transactions over a tiny line-based UDP
// protocol ("ACC") to a BillingDatabase host, which stores them and acks.
// The record's wire format lives in acc_record.h, which the IDS decodes
// into accounting footprints and correlates with the SIP trail.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "voip/acc_record.h"

namespace scidive::voip {

/// Runs on the proxy host; fires CDR transactions at the database.
class AccountingClient {
 public:
  AccountingClient(netsim::Host& host, pkt::Endpoint database, uint16_t local_port = 9010)
      : host_(host), database_(database), local_port_(local_port) {}

  void call_started(const std::string& call_id, const std::string& from_aor,
                    const std::string& to_aor);
  void call_stopped(const std::string& call_id, const std::string& from_aor,
                    const std::string& to_aor);

  uint64_t records_sent() const { return records_sent_; }

 private:
  void send(AccRecord record);

  netsim::Host& host_;
  pkt::Endpoint database_;
  uint16_t local_port_;
  uint64_t records_sent_ = 0;
};

/// The database server: stores CDRs, replies "OK <n>".
class BillingDatabase {
 public:
  explicit BillingDatabase(netsim::Host& host);

  const std::vector<AccRecord>& records() const { return records_; }
  /// Total billed call-starts per AOR (who pays).
  std::map<std::string, int> bill_counts() const;

 private:
  netsim::Host& host_;
  std::vector<AccRecord> records_;
};

}  // namespace scidive::voip
