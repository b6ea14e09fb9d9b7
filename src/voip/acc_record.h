// The wire format of the accounting protocol ("ACC") of the §3.2
// billing-fraud example: one CDR transaction per UDP datagram. The
// simulated accounting hosts (accounting.h) send and store these records;
// the IDS decodes the same datagrams into accounting footprints, so this
// codec depends on nothing but the common library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/result.h"

namespace scidive::voip {

/// One accounting transaction on the wire.
struct AccRecord {
  enum class Kind { kStart, kStop };
  Kind kind = Kind::kStart;
  std::string call_id;
  std::string from_aor;  // the billed party
  std::string to_aor;
  SimTime timestamp = 0;

  /// Wire format: "ACC START|STOP call_id=<..> from=<..> to=<..> t=<usec>"
  std::string serialize() const;
  static Result<AccRecord> parse(std::string_view line);
};

constexpr uint16_t kAccPort = 9009;

}  // namespace scidive::voip
