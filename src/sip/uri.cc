#include "sip/uri.h"

#include "common/strings.h"

namespace scidive::sip {

Result<SipUri> SipUri::parse(std::string_view text) {
  text = str::trim(text);
  if (!str::istarts_with(text, "sip:"))
    return Error{Errc::kMalformed, "URI scheme must be sip:"};
  text.remove_prefix(4);
  if (text.empty()) return Error{Errc::kMalformed, "empty URI"};

  SipUri uri;

  // Split off ;params first (they follow host[:port]).
  std::string_view core = text;
  std::string_view params;
  if (auto split = str::split_once(text, ';')) {
    core = split->first;
    params = split->second;
  }

  // user@host or just host.
  std::string_view hostport = core;
  if (auto at = str::split_once(core, '@')) {
    if (at->first.empty()) return Error{Errc::kMalformed, "empty user before @"};
    uri.user_ = std::string(at->first);
    hostport = at->second;
  }
  if (auto colon = str::split_once(hostport, ':')) {
    auto port = str::parse_u16(colon->second);
    if (!port || *port == 0) return Error{Errc::kMalformed, "bad port"};
    uri.port_ = *port;
    hostport = colon->first;
  }
  if (hostport.empty()) return Error{Errc::kMalformed, "empty host"};
  for (char c : hostport) {
    if (!(str::is_alnum(c) || c == '.' || c == '-' || c == '_'))
      return Error{Errc::kMalformed, "bad host character"};
  }
  uri.host_ = std::string(hostport);

  if (!params.empty()) {
    for (auto p : str::split(params, ';')) {
      p = str::trim(p);
      if (p.empty()) continue;
      if (auto eq = str::split_once(p, '=')) {
        uri.params_[std::string(eq->first)] = std::string(eq->second);
      } else {
        uri.params_[std::string(p)] = "";
      }
    }
  }
  return uri;
}

std::optional<std::string> SipUri::param(std::string_view name) const {
  auto it = params_.find(name);
  if (it == params_.end()) return std::nullopt;
  return it->second;
}

std::string SipUri::to_string() const {
  std::string out = "sip:";
  if (!user_.empty()) {
    out += user_;
    out += '@';
  }
  out += host_;
  if (port_ != 0) out += str::format(":%u", port_);
  for (const auto& [k, v] : params_) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

}  // namespace scidive::sip
