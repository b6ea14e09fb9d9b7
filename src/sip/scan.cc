#include "sip/scan.h"

#include <cstring>

#include "common/strings.h"
#include "sip/headers.h"

namespace scidive::sip {
namespace {

constexpr size_t npos = std::string_view::npos;

/// Index of the first `c` at or after `from`, else npos. Header values,
/// URIs and SDP fields are a few dozen bytes, where libc's vectorised
/// memchr beats both a byte loop and str::find_byte's setup.
inline size_t find(std::string_view s, char c, size_t from = 0) {
  if (from >= s.size()) return npos;
  const void* hit = std::memchr(s.data() + from, c, s.size() - from);
  return hit ? static_cast<size_t>(static_cast<const char*>(hit) - s.data()) : npos;
}

/// The fields of str::split(s, sep) — empty ones included, in order —
/// without building the vector.
class Fields {
 public:
  /// `skip_quoted`: a separator inside a double-quoted string does not split.
  Fields(std::string_view s, char sep, bool skip_quoted = false)
      : s_(s), sep_(sep), skip_quoted_(skip_quoted) {}

  bool next(std::string_view& field) {
    if (done_) return false;
    const size_t hit =
        skip_quoted_ ? str::find_unquoted(s_, sep_, pos_) : find(s_, sep_, pos_);
    if (hit == npos) {
      field = s_.substr(pos_);
      done_ = true;
    } else {
      field = s_.substr(pos_, hit - pos_);
      pos_ = hit + 1;
    }
    return true;
  }

 private:
  std::string_view s_;
  char sep_;
  bool skip_quoted_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// The headers the IDS reads, by canonical name.
enum Field : uint8_t {
  kCallId,
  kCSeq,
  kFrom,
  kTo,
  kContact,
  kVia,
  kAuthorization,
  kWwwAuthenticate,
  kContentLength,
  kFieldCount,  // any other header
};

Field classify(std::string_view name) {
  name = canonical_header_name(name);
  switch (name.size()) {
    case 2:
      if (str::iequals(name, "To")) return kTo;
      break;
    case 3:
      if (str::iequals(name, "Via")) return kVia;
      break;
    case 4:
      if (str::iequals(name, "CSeq")) return kCSeq;
      if (str::iequals(name, "From")) return kFrom;
      break;
    case 7:
      if (str::iequals(name, "Call-ID")) return kCallId;
      if (str::iequals(name, "Contact")) return kContact;
      break;
    case 13:
      if (str::iequals(name, "Authorization")) return kAuthorization;
      break;
    case 14:
      if (str::iequals(name, "Content-Length")) return kContentLength;
      break;
    case 16:
      if (str::iequals(name, "WWW-Authenticate")) return kWwwAuthenticate;
      break;
    default:
      break;
  }
  return kFieldCount;
}

/// Pop one logical line the way SipMessage::parse does: lines end at CRLF,
/// and a non-empty line followed by lines that begin with SP/HTAB absorbs
/// them verbatim. An unfolded line is a view into the input; a folded one is
/// appended to `fold_buf`, which is sized on first use to the whole
/// message — every folded line is assembled from disjoint input bytes, so
/// the buffer never reallocates and earlier views into it stay valid.
std::optional<std::string_view> next_line(std::string_view& text, std::string& fold_buf,
                                          size_t message_size) {
  if (text.empty()) return std::nullopt;
  auto pop = [&text] {
    std::string_view line;
    const size_t eol = str::find_crlf(text);
    if (eol == npos) {
      line = text;
      text = {};
    } else {
      line = text.substr(0, eol);
      text.remove_prefix(eol + 2);
    }
    return line;
  };
  auto continues = [&text] {
    return !text.empty() && (text.front() == ' ' || text.front() == '\t');
  };
  const std::string_view first = pop();
  if (first.empty() || !continues()) return first;  // the blank line never folds
  if (fold_buf.empty()) fold_buf.reserve(message_size);
  const size_t begin = fold_buf.size();
  fold_buf.append(first);
  while (continues()) fold_buf.append(pop());
  return std::string_view(fold_buf).substr(begin);
}

}  // namespace

std::optional<UriView> scan_uri(std::string_view text) {
  text = str::trim(text);
  if (!str::istarts_with(text, "sip:")) return std::nullopt;
  text.remove_prefix(4);
  if (text.empty()) return std::nullopt;
  // ;params follow host[:port] and never fail.
  const std::string_view core = text.substr(0, find(text, ';'));
  std::string_view user;
  std::string_view hostport = core;
  if (const size_t at = find(core, '@'); at != npos) {
    if (at == 0) return std::nullopt;
    user = core.substr(0, at);
    hostport = core.substr(at + 1);
  }
  UriView uri;
  if (const size_t colon = find(hostport, ':'); colon != npos) {
    auto port = str::parse_u16(hostport.substr(colon + 1));
    if (!port || *port == 0) return std::nullopt;
    uri.port = *port;
    hostport = hostport.substr(0, colon);
  }
  if (hostport.empty()) return std::nullopt;
  for (char c : hostport) {
    if (!(str::is_alnum(c) || c == '.' || c == '-' || c == '_')) return std::nullopt;
  }
  uri.host = hostport;
  // user '@' host is one run of the URI text.
  uri.aor = user.empty()
                ? hostport
                : std::string_view(user.data(),
                                   static_cast<size_t>(hostport.data() + hostport.size() -
                                                       user.data()));
  return uri;
}

std::optional<NameAddrView> scan_name_addr(std::string_view text) {
  text = str::trim(text);
  std::string_view uri_part = text;
  std::string_view after_uri;
  if (const size_t lt = str::find_unquoted(text, '<'); lt != npos) {
    const size_t gt = find(text, '>', lt);
    if (gt == npos) return std::nullopt;
    uri_part = text.substr(lt + 1, gt - lt - 1);
    after_uri = text.substr(gt + 1);
  } else if (const size_t semi = find(text, ';'); semi != npos) {
    // addr-spec form: params after the bare URI belong to the header.
    uri_part = text.substr(0, semi);
    after_uri = text.substr(semi);
  }
  auto uri = scan_uri(uri_part);
  if (!uri) return std::nullopt;
  NameAddrView na{*uri, {}};
  Fields params(after_uri, ';');
  std::string_view p;
  while (params.next(p)) {
    p = str::trim(p);
    if (p.empty()) continue;
    if (const size_t eq = find(p, '='); eq != npos) {
      if (str::trim(p.substr(0, eq)) == "tag") na.tag = str::trim(p.substr(eq + 1));
    } else if (p == "tag") {
      na.tag = {};
    }
  }
  return na;
}

std::optional<CSeqView> scan_cseq(std::string_view text) {
  text = str::trim(text);
  const size_t sp = find(text, ' ');
  if (sp == npos) return std::nullopt;
  auto number = str::parse_u32(str::trim(text.substr(0, sp)));
  if (!number) return std::nullopt;
  const std::string_view method = str::trim(text.substr(sp + 1));
  if (method.empty()) return std::nullopt;
  return CSeqView{*number, method};
}

bool scan_top_via(std::string_view text) {
  // Several Vias may share one field; the top one is first.
  text = str::trim(text.substr(0, find(text, ',')));
  if (!str::istarts_with(text, "SIP/2.0/")) return false;
  text.remove_prefix(8);
  const size_t sp = find(text, ' ');
  if (sp == npos) return false;
  const std::string_view rest = str::trim(text.substr(sp + 1));
  std::string_view hostport = rest;
  if (const size_t semi = find(rest, ';'); semi != npos)
    hostport = str::trim(rest.substr(0, semi));
  if (const size_t colon = find(hostport, ':'); colon != npos) {
    if (!str::parse_u16(hostport.substr(colon + 1))) return false;
    hostport = hostport.substr(0, colon);
  }
  return !hostport.empty();
}

std::optional<std::string_view> scan_digest_response(std::string_view text) {
  text = str::trim(text);
  if (!str::istarts_with(text, "Digest")) return std::nullopt;
  text.remove_prefix(6);
  // DigestCredentials requires these five; later duplicates overwrite.
  constexpr std::string_view kRequired[] = {"username", "realm", "nonce", "uri", "response"};
  unsigned seen = 0;
  std::string_view response;
  Fields parts(text, ',', /*skip_quoted=*/true);
  std::string_view part;
  while (parts.next(part)) {
    part = str::trim(part);
    if (part.empty()) continue;
    const size_t eq = find(part, '=');
    if (eq == npos) return std::nullopt;
    const std::string_view key = str::trim(part.substr(0, eq));
    std::string_view value = str::trim(part.substr(eq + 1));
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"')
      value = value.substr(1, value.size() - 2);
    if (key.empty()) return std::nullopt;
    for (size_t i = 0; i < std::size(kRequired); ++i) {
      if (str::iequals(key, kRequired[i])) seen |= 1u << i;
    }
    if (str::iequals(key, "response")) response = value;
  }
  if (seen != (1u << std::size(kRequired)) - 1) return std::nullopt;
  return response;
}

std::optional<pkt::Endpoint> scan_sdp_audio(std::string_view body) {
  bool saw_version = false;
  std::string_view connection;  // the last c= line's address
  std::optional<uint16_t> audio_port;  // the first audio m= line's port
  Fields lines(body, '\n');
  std::string_view raw;
  while (lines.next(raw)) {
    const std::string_view line = str::trim(raw);
    if (line.empty()) continue;
    if (line.size() < 2 || line[1] != '=') return std::nullopt;
    const std::string_view value = line.substr(2);
    Fields parts(value, ' ');
    std::string_view p;
    size_t n = 0;
    switch (line[0]) {
      case 'v':
        if (str::trim(value) != "0") return std::nullopt;
        saw_version = true;
        break;
      case 'o':  // <user> <sess-id> <sess-version> IN IP4 <addr>
        for (; parts.next(p); ++n) {
          if ((n == 1 || n == 2) && !str::parse_u64(p)) return std::nullopt;
        }
        if (n < 6) return std::nullopt;
        break;
      case 'c': {  // IN IP4 <addr>
        std::string_view addr;
        for (; parts.next(p); ++n) {
          if ((n == 0 && p != "IN") || (n == 1 && p != "IP4")) return std::nullopt;
          if (n == 2) addr = p;
        }
        if (n != 3) return std::nullopt;
        connection = addr;
        break;
      }
      case 'm': {  // <type> <port> <proto> <pt...>
        std::string_view type;
        uint16_t port = 0;
        for (; parts.next(p); ++n) {
          if (n == 0) {
            type = p;
          } else if (n == 1) {
            auto v = str::parse_u16(p);
            if (!v) return std::nullopt;
            port = *v;
          } else if (n >= 3) {
            auto pt = str::parse_u32(p);
            if (!pt || *pt > 127) return std::nullopt;
          }
        }
        if (n < 3) return std::nullopt;
        if (!audio_port && type == "audio") audio_port = port;
        break;
      }
      default:
        break;  // s=, a=, t=, b= ...: tolerated
    }
  }
  if (!saw_version || !audio_port) return std::nullopt;
  auto ip = pkt::Ipv4Address::parse(connection);
  if (!ip) return std::nullopt;
  return pkt::Endpoint{*ip, *audio_port};
}

Errc scan_sip(std::string_view text, std::string& fold_buf, SipScan& out, ScanMode mode) {
  out = SipScan{};
  fold_buf.clear();
  const size_t message_size = text.size();

  const auto start = next_line(text, fold_buf, message_size);
  if (!start || start->empty()) return Errc::kMalformed;
  if (str::istarts_with(*start, "SIP/2.0 ")) {
    // Status line: SIP/2.0 code reason
    out.is_request = false;
    const std::string_view rest = start->substr(8);
    auto code = str::parse_u32(str::trim(rest.substr(0, find(rest, ' '))));
    if (!code || *code < 100 || *code > 699) return Errc::kMalformed;
    out.status_code = static_cast<int>(*code);
  } else {
    // Request line: exactly three space-separated tokens, METHOD uri SIP/2.0.
    const size_t sp1 = find(*start, ' ');
    const size_t sp2 = sp1 == npos ? npos : find(*start, ' ', sp1 + 1);
    if (sp2 == npos || find(*start, ' ', sp2 + 1) != npos) return Errc::kMalformed;
    if (start->substr(sp2 + 1) != "SIP/2.0") return Errc::kUnsupported;
    if (sp1 == 0) return Errc::kMalformed;
    if (!scan_uri(start->substr(sp1 + 1, sp2 - sp1 - 1))) return Errc::kMalformed;
    out.method = start->substr(0, sp1);
  }

  // Headers until the empty line; the first field of each name wins.
  std::optional<std::string_view> fields[kFieldCount];
  for (;;) {
    const auto line = next_line(text, fold_buf, message_size);
    if (!line) return Errc::kTruncated;
    if (line->empty()) break;
    const size_t colon = find(*line, ':');
    if (colon == npos) return Errc::kMalformed;
    const std::string_view name = str::trim(line->substr(0, colon));
    if (name.empty()) return Errc::kMalformed;
    const Field f = classify(name);
    if (f != kFieldCount && !fields[f]) fields[f] = str::trim(line->substr(colon + 1));
  }

  // Body: Content-Length bytes when present and valid, else the rest.
  if (const auto& cl_text = fields[kContentLength]) {
    auto cl = str::parse_u64(str::trim(*cl_text));
    if (!cl) return Errc::kMalformed;
    if (*cl > text.size()) return Errc::kTruncated;
    out.body = text.substr(0, *cl);
  } else {
    out.body = text;
  }

  out.call_id = fields[kCallId];
  if (fields[kCSeq]) out.cseq = scan_cseq(*fields[kCSeq]);
  if (fields[kFrom]) out.from = scan_name_addr(*fields[kFrom]);
  out.sdp_media = scan_sdp_audio(out.body);
  if (mode == ScanMode::kKeys) return Errc::kOk;

  if (fields[kTo]) out.to = scan_name_addr(*fields[kTo]);
  if (fields[kContact]) out.contact = scan_name_addr(*fields[kContact]);
  out.well_formed = out.call_id && out.cseq && out.from && out.to && fields[kVia] &&
                    scan_top_via(*fields[kVia]) &&
                    (!out.is_request || out.cseq->method == out.method);
  if (fields[kAuthorization]) {
    out.has_auth = true;
    out.auth_response = scan_digest_response(*fields[kAuthorization]);
  }
  out.has_challenge = fields[kWwwAuthenticate].has_value();
  return Errc::kOk;
}

}  // namespace scidive::sip
