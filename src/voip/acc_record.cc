#include "voip/acc_record.h"

#include "common/strings.h"

namespace scidive::voip {

std::string AccRecord::serialize() const {
  return str::format("ACC %s call_id=%s from=%s to=%s t=%lld",
                     kind == Kind::kStart ? "START" : "STOP", call_id.c_str(), from_aor.c_str(),
                     to_aor.c_str(), static_cast<long long>(timestamp));
}

Result<AccRecord> AccRecord::parse(std::string_view line) {
  auto parts = str::split(str::trim(line), ' ');
  if (parts.size() < 2 || parts[0] != "ACC") return Error{Errc::kMalformed, "not an ACC line"};
  AccRecord r;
  if (parts[1] == "START") {
    r.kind = Kind::kStart;
  } else if (parts[1] == "STOP") {
    r.kind = Kind::kStop;
  } else {
    return Error{Errc::kMalformed, "ACC kind"};
  }
  for (size_t i = 2; i < parts.size(); ++i) {
    auto kv = str::split_once(parts[i], '=');
    if (!kv) return Error{Errc::kMalformed, "ACC field without '='"};
    if (kv->first == "call_id") {
      r.call_id = std::string(kv->second);
    } else if (kv->first == "from") {
      r.from_aor = std::string(kv->second);
    } else if (kv->first == "to") {
      r.to_aor = std::string(kv->second);
    } else if (kv->first == "t") {
      auto t = str::parse_u64(kv->second);
      if (!t) return Error{Errc::kMalformed, "ACC bad timestamp"};
      r.timestamp = static_cast<SimTime>(*t);
    }
  }
  if (r.call_id.empty() || r.from_aor.empty())
    return Error{Errc::kMalformed, "ACC missing call_id/from"};
  return r;
}

}  // namespace scidive::voip
