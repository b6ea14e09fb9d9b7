#include "scidive/footprint.h"

#include <cstring>
#include <new>

namespace scidive::core {

std::string_view protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kSip: return "sip";
    case Protocol::kRtp: return "rtp";
    case Protocol::kRtcp: return "rtcp";
    case Protocol::kAcc: return "acc";
    case Protocol::kH225: return "h225";
    case Protocol::kRas: return "ras";
    case Protocol::kUnknown: return "unknown";
  }
  return "?";
}

SipRecord SipRecord::make(const SipFootprint& draft) {
  static constexpr SipText SipFootprint::*kTexts[] = {
      &SipFootprint::method,   &SipFootprint::cseq_method, &SipFootprint::call_id,
      &SipFootprint::from_aor, &SipFootprint::from_tag,    &SipFootprint::to_aor,
      &SipFootprint::to_tag,   &SipFootprint::auth_response};
  size_t bytes = sizeof(SipFootprint);
  for (auto text : kTexts) bytes += (draft.*text).size();
  auto* fp = ::new (::operator new(bytes)) SipFootprint(draft);
  char* tail = reinterpret_cast<char*>(fp + 1);
  for (auto text : kTexts) {
    const std::string_view from = draft.*text;
    if (!from.empty()) std::memcpy(tail, from.data(), from.size());
    fp->*text = std::string_view(tail, from.size());
    tail += from.size();
  }
  return SipRecord(fp);
}

}  // namespace scidive::core
