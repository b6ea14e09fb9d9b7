#include "sip/message.h"

#include "common/strings.h"

namespace scidive::sip {

std::string_view method_name(Method m) {
  switch (m) {
    case Method::kInvite: return "INVITE";
    case Method::kAck: return "ACK";
    case Method::kBye: return "BYE";
    case Method::kCancel: return "CANCEL";
    case Method::kRegister: return "REGISTER";
    case Method::kOptions: return "OPTIONS";
    case Method::kMessage: return "MESSAGE";
    case Method::kInfo: return "INFO";
    case Method::kUnknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

Method method_from_name(std::string_view name) {
  // Method names are case-sensitive tokens in SIP; match exactly.
  if (name == "INVITE") return Method::kInvite;
  if (name == "ACK") return Method::kAck;
  if (name == "BYE") return Method::kBye;
  if (name == "CANCEL") return Method::kCancel;
  if (name == "REGISTER") return Method::kRegister;
  if (name == "OPTIONS") return Method::kOptions;
  if (name == "MESSAGE") return Method::kMessage;
  if (name == "INFO") return Method::kInfo;
  return Method::kUnknown;
}

SipMessage SipMessage::request(Method method, SipUri request_uri) {
  SipMessage m;
  m.is_request_ = true;
  m.method_ = method;
  m.method_text_ = std::string(method_name(method));
  m.request_uri_ = std::move(request_uri);
  return m;
}

SipMessage SipMessage::response(int status_code, std::string reason) {
  SipMessage m;
  m.is_request_ = false;
  m.status_code_ = status_code;
  m.reason_ = std::move(reason);
  return m;
}

Result<SipMessage> SipMessage::parse(std::span<const uint8_t> bytes) {
  return parse(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

namespace {

/// Pop one header line, honoring RFC 2822-style folding (continuation lines
/// begin with whitespace). Unfolded lines — the overwhelming common case —
/// are returned as a view into the input; only a folded line is assembled
/// into `fold_buf` (the returned view then points at the buffer).
std::optional<std::string_view> next_logical_line(std::string_view& text,
                                                  std::string& fold_buf) {
  if (text.empty()) return std::nullopt;
  std::string_view first;
  {
    size_t eol = str::find_crlf(text);
    if (eol == std::string_view::npos) {
      first = text;
      text = {};
    } else {
      first = text.substr(0, eol);
      text.remove_prefix(eol + 2);
    }
  }
  // The empty line that ends the headers never starts a fold: a body may
  // begin with SP or HTAB.
  if (first.empty() || text.empty() || (text.front() != ' ' && text.front() != '\t')) {
    return first;  // zero-copy fast path
  }
  fold_buf.assign(first);
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    size_t eol = str::find_crlf(text);
    std::string_view raw;
    if (eol == std::string_view::npos) {
      raw = text;
      text = {};
    } else {
      raw = text.substr(0, eol);
      text.remove_prefix(eol + 2);
    }
    fold_buf += raw;
  }
  return std::string_view(fold_buf);
}

}  // namespace

Result<SipMessage> SipMessage::parse(std::string_view text) {
  SipMessage msg;
  std::string fold_buf;

  auto start = next_logical_line(text, fold_buf);
  if (!start || start->empty()) return Error{Errc::kMalformed, "missing start line"};

  if (str::istarts_with(*start, "SIP/2.0 ")) {
    // Status line: SIP/2.0 code reason
    msg.is_request_ = false;
    std::string_view rest = start->substr(8);
    auto sp = str::split_once(rest, ' ');
    std::string_view code_text = sp ? sp->first : rest;
    auto code = str::parse_u32(str::trim(code_text));
    if (!code || *code < 100 || *code > 699)
      return Error{Errc::kMalformed, "bad status code"};
    msg.status_code_ = static_cast<int>(*code);
    msg.reason_ = sp ? std::string(str::trim(sp->second)) : "";
  } else {
    // Request line: METHOD uri SIP/2.0
    auto parts = str::split(*start, ' ');
    if (parts.size() != 3) return Error{Errc::kMalformed, "request line needs 3 tokens"};
    if (parts[2] != "SIP/2.0") return Error{Errc::kUnsupported, "not SIP/2.0"};
    if (parts[0].empty()) return Error{Errc::kMalformed, "empty method"};
    msg.method_text_ = std::string(parts[0]);
    msg.method_ = method_from_name(parts[0]);
    auto uri = SipUri::parse(parts[1]);
    if (!uri) return uri.error();
    msg.request_uri_ = std::move(uri.value());
  }

  // Headers until the empty line.
  while (true) {
    auto line = next_logical_line(text, fold_buf);
    if (!line) return Error{Errc::kTruncated, "no end of headers"};
    if (line->empty()) break;
    auto colon = str::split_once(*line, ':');
    if (!colon) return Error{Errc::kMalformed, "header without colon: " + std::string(*line)};
    std::string_view name = str::trim(colon->first);
    if (name.empty()) return Error{Errc::kMalformed, "empty header name"};
    msg.headers_.add(std::string(name), std::string(str::trim(colon->second)));
  }

  // Body: take Content-Length if present and valid, else the rest.
  if (auto cl_text = msg.headers_.get("Content-Length")) {
    auto cl = str::parse_u64(str::trim(*cl_text));
    if (!cl) return Error{Errc::kMalformed, "bad Content-Length"};
    if (*cl > text.size()) return Error{Errc::kTruncated, "body shorter than Content-Length"};
    msg.body_ = std::string(text.substr(0, *cl));
  } else {
    msg.body_ = std::string(text);
  }
  return msg;
}

std::string SipMessage::to_string() const {
  std::string out;
  if (is_request_) {
    out += method_text_.empty() ? std::string(method_name(method_)) : method_text_;
    out += ' ';
    out += request_uri_.to_string();
    out += " SIP/2.0\r\n";
  } else {
    out += str::format("SIP/2.0 %d %s\r\n", status_code_, reason_.c_str());
  }
  bool wrote_content_length = false;
  for (const auto& f : headers_.fields()) {
    if (str::iequals(canonical_header_name(f.name), "Content-Length")) {
      if (wrote_content_length) continue;
      out += str::format("Content-Length: %zu\r\n", body_.size());
      wrote_content_length = true;
      continue;
    }
    out += f.name;
    out += ": ";
    out += f.value;
    out += "\r\n";
  }
  if (!wrote_content_length) out += str::format("Content-Length: %zu\r\n", body_.size());
  out += "\r\n";
  out += body_;
  return out;
}

void SipMessage::set_body(std::string body, std::string content_type) {
  body_ = std::move(body);
  headers_.set("Content-Type", std::move(content_type));
}

std::optional<std::string> SipMessage::call_id() const {
  auto v = headers_.get("Call-ID");
  if (!v) return std::nullopt;
  return std::string(str::trim(*v));
}

Result<CSeq> SipMessage::cseq() const {
  auto v = headers_.get("CSeq");
  if (!v) return Error{Errc::kNotFound, "no CSeq"};
  return CSeq::parse(*v);
}

Result<NameAddr> SipMessage::from() const {
  auto v = headers_.get("From");
  if (!v) return Error{Errc::kNotFound, "no From"};
  return NameAddr::parse(*v);
}

Result<NameAddr> SipMessage::to() const {
  auto v = headers_.get("To");
  if (!v) return Error{Errc::kNotFound, "no To"};
  return NameAddr::parse(*v);
}

Result<NameAddr> SipMessage::contact() const {
  auto v = headers_.get("Contact");
  if (!v) return Error{Errc::kNotFound, "no Contact"};
  return NameAddr::parse(*v);
}

Result<Via> SipMessage::top_via() const {
  auto v = headers_.get("Via");
  if (!v) return Error{Errc::kNotFound, "no Via"};
  // Multiple Vias may be comma-joined in one field; the top one is first.
  std::string_view text = *v;
  if (auto comma = str::split_once(text, ',')) text = comma->first;
  return Via::parse(text);
}

std::optional<uint32_t> SipMessage::expires() const {
  auto v = headers_.get("Expires");
  if (!v) return std::nullopt;
  return str::parse_u32(str::trim(*v));
}

std::optional<uint32_t> SipMessage::max_forwards() const {
  auto v = headers_.get("Max-Forwards");
  if (!v) return std::nullopt;
  return str::parse_u32(str::trim(*v));
}

bool SipMessage::well_formed() const {
  // RFC 3261 §8.1.1: To, From, CSeq, Call-ID, Via are mandatory (we relax
  // Max-Forwards, which many 2004 clients omitted).
  if (!call_id().has_value()) return false;
  if (!cseq().ok()) return false;
  if (!from().ok()) return false;
  if (!to().ok()) return false;
  if (!top_via().ok()) return false;
  if (is_request_) {
    auto cs = cseq();
    // CSeq method must match the request method.
    if (cs.value().method != (method_text_.empty() ? std::string(method_name(method_))
                                                   : method_text_))
      return false;
  }
  return true;
}

}  // namespace scidive::sip
