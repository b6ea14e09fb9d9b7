#include "sip/headers.h"

#include <algorithm>

#include "common/strings.h"

namespace scidive::sip {

std::string_view canonical_header_name(std::string_view name) {
  // RFC 3261 §7.3.3 compact forms (the subset this stack emits/accepts).
  if (name.size() == 1) {
    switch (str::ascii_lower(name[0])) {
      case 'v': return "Via";
      case 'f': return "From";
      case 't': return "To";
      case 'i': return "Call-ID";
      case 'm': return "Contact";
      case 'c': return "Content-Type";
      case 'l': return "Content-Length";
      case 'e': return "Content-Encoding";
      case 's': return "Subject";
      case 'k': return "Supported";
      default: break;
    }
  }
  return name;
}

namespace {
bool header_name_equals(std::string_view a, std::string_view b) {
  return str::iequals(canonical_header_name(a), canonical_header_name(b));
}
}  // namespace

void Headers::add(std::string name, std::string value) {
  fields_.push_back({std::move(name), std::move(value)});
}

void Headers::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

void Headers::remove(std::string_view name) {
  std::erase_if(fields_, [&](const HeaderField& f) { return header_name_equals(f.name, name); });
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& f : fields_) {
    if (header_name_equals(f.name, name)) return std::string_view(f.value);
  }
  return std::nullopt;
}

std::vector<std::string_view> Headers::get_all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& f : fields_) {
    if (header_name_equals(f.name, name)) out.push_back(f.value);
  }
  return out;
}

// --- NameAddr ---

Result<NameAddr> NameAddr::parse(std::string_view text) {
  text = str::trim(text);
  NameAddr na;
  std::string_view uri_part;
  std::string_view after_uri;

  // A quoted display name may itself contain '<' ("a<b" <sip:...>).
  size_t lt = str::find_unquoted(text, '<');
  if (lt != std::string_view::npos) {
    size_t gt = text.find('>', lt);
    if (gt == std::string_view::npos) return Error{Errc::kMalformed, "unterminated <uri>"};
    std::string_view display = str::trim(text.substr(0, lt));
    if (display.size() >= 2 && display.front() == '"' && display.back() == '"')
      display = display.substr(1, display.size() - 2);
    na.display_name = std::string(display);
    uri_part = text.substr(lt + 1, gt - lt - 1);
    after_uri = text.substr(gt + 1);
  } else {
    // addr-spec form: URI up to the first ';' is the URI, the rest are
    // header params (per RFC 3261, params after a bare addr-spec belong to
    // the header, not the URI).
    if (auto semi = str::split_once(text, ';')) {
      uri_part = semi->first;
      after_uri = text.substr(semi->first.size());
    } else {
      uri_part = text;
    }
  }

  auto uri = SipUri::parse(uri_part);
  if (!uri) return uri.error();
  na.uri = std::move(uri.value());

  for (auto p : str::split(after_uri, ';')) {
    p = str::trim(p);
    if (p.empty()) continue;
    if (auto eq = str::split_once(p, '=')) {
      na.params[std::string(str::trim(eq->first))] = std::string(str::trim(eq->second));
    } else {
      na.params[std::string(p)] = "";
    }
  }
  return na;
}

std::string NameAddr::to_string() const {
  std::string out;
  if (!display_name.empty()) {
    out += '"';
    out += display_name;
    out += "\" ";
  }
  out += '<';
  out += uri.to_string();
  out += '>';
  for (const auto& [k, v] : params) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

// --- Via ---

Result<Via> Via::parse(std::string_view text) {
  text = str::trim(text);
  // SIP/2.0/UDP host[:port][;params]
  if (!str::istarts_with(text, "SIP/2.0/"))
    return Error{Errc::kMalformed, "Via must start with SIP/2.0/"};
  text.remove_prefix(8);
  auto sp = text.find(' ');
  if (sp == std::string_view::npos) return Error{Errc::kMalformed, "Via missing sent-by"};
  Via via;
  via.transport = std::string(str::trim(text.substr(0, sp)));
  std::string_view rest = str::trim(text.substr(sp + 1));

  std::string_view hostport = rest;
  std::string_view params;
  if (auto semi = str::split_once(rest, ';')) {
    hostport = str::trim(semi->first);
    params = semi->second;
  }
  if (auto colon = str::split_once(hostport, ':')) {
    auto port = str::parse_u16(colon->second);
    if (!port) return Error{Errc::kMalformed, "Via bad port"};
    via.port = *port;
    hostport = colon->first;
  }
  if (hostport.empty()) return Error{Errc::kMalformed, "Via empty host"};
  via.host = std::string(hostport);

  for (auto p : str::split(params, ';')) {
    p = str::trim(p);
    if (p.empty()) continue;
    if (auto eq = str::split_once(p, '=')) {
      via.params[std::string(eq->first)] = std::string(eq->second);
    } else {
      via.params[std::string(p)] = "";
    }
  }
  return via;
}

std::string Via::to_string() const {
  std::string out = "SIP/2.0/" + transport + " " + host;
  if (port != 0) out += str::format(":%u", port);
  for (const auto& [k, v] : params) {
    out += ';';
    out += k;
    if (!v.empty()) {
      out += '=';
      out += v;
    }
  }
  return out;
}

// --- CSeq ---

Result<CSeq> CSeq::parse(std::string_view text) {
  text = str::trim(text);
  auto sp = str::split_once(text, ' ');
  if (!sp) return Error{Errc::kMalformed, "CSeq needs 'number METHOD'"};
  auto num = str::parse_u32(str::trim(sp->first));
  if (!num) return Error{Errc::kMalformed, "CSeq bad number"};
  std::string_view method = str::trim(sp->second);
  if (method.empty()) return Error{Errc::kMalformed, "CSeq empty method"};
  return CSeq{*num, std::string(method)};
}

std::string CSeq::to_string() const { return str::format("%u %s", number, method.c_str()); }

}  // namespace scidive::sip
