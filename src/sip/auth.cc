#include "sip/auth.h"

#include "common/md5.h"
#include "common/strings.h"

namespace scidive::sip {
namespace {

std::string quote(std::string_view s) { return "\"" + std::string(s) + "\""; }

/// Parse `Digest key="value", key2="value2", ...` into a map. A comma
/// inside a quoted value (e.g. a `uri` with one) does not split it.
Result<std::map<std::string, std::string, std::less<>>> parse_digest_params(
    std::string_view header_value) {
  header_value = str::trim(header_value);
  if (!str::istarts_with(header_value, "Digest"))
    return Error{Errc::kUnsupported, "not a Digest header"};
  header_value.remove_prefix(6);

  std::map<std::string, std::string, std::less<>> params;
  for (size_t pos = 0; pos <= header_value.size();) {
    size_t comma = str::find_unquoted(header_value, ',', pos);
    if (comma == std::string_view::npos) comma = header_value.size();
    std::string_view part = str::trim(header_value.substr(pos, comma - pos));
    pos = comma + 1;
    if (part.empty()) continue;
    auto eq = str::split_once(part, '=');
    if (!eq) return Error{Errc::kMalformed, "digest param without '='"};
    std::string_view key = str::trim(eq->first);
    std::string_view value = str::trim(eq->second);
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"')
      value = value.substr(1, value.size() - 2);
    if (key.empty()) return Error{Errc::kMalformed, "empty digest param name"};
    params[str::to_lower(key)] = std::string(value);
  }
  return params;
}

}  // namespace

std::string DigestChallenge::to_header_value() const {
  return "Digest realm=" + quote(realm) + ", nonce=" + quote(nonce) + ", algorithm=MD5";
}

Result<DigestChallenge> DigestChallenge::parse(std::string_view header_value) {
  auto params = parse_digest_params(header_value);
  if (!params) return params.error();
  DigestChallenge c;
  auto realm = params.value().find("realm");
  auto nonce = params.value().find("nonce");
  if (realm == params.value().end() || nonce == params.value().end())
    return Error{Errc::kMalformed, "challenge needs realm and nonce"};
  c.realm = realm->second;
  c.nonce = nonce->second;
  return c;
}

std::string DigestCredentials::to_header_value() const {
  return "Digest username=" + quote(username) + ", realm=" + quote(realm) + ", nonce=" +
         quote(nonce) + ", uri=" + quote(uri) + ", response=" + quote(response);
}

Result<DigestCredentials> DigestCredentials::parse(std::string_view header_value) {
  auto params = parse_digest_params(header_value);
  if (!params) return params.error();
  DigestCredentials c;
  const auto& p = params.value();
  for (const char* required : {"username", "realm", "nonce", "uri", "response"}) {
    if (!p.contains(required))
      return Error{Errc::kMalformed, std::string("credentials missing ") + required};
  }
  c.username = p.find("username")->second;
  c.realm = p.find("realm")->second;
  c.nonce = p.find("nonce")->second;
  c.uri = p.find("uri")->second;
  c.response = p.find("response")->second;
  return c;
}

std::string compute_digest_response(std::string_view username, std::string_view realm,
                                    std::string_view password, std::string_view method,
                                    std::string_view uri, std::string_view nonce) {
  std::string ha1 = Md5::hex(std::string(username) + ":" + std::string(realm) + ":" +
                             std::string(password));
  std::string ha2 = Md5::hex(std::string(method) + ":" + std::string(uri));
  return Md5::hex(ha1 + ":" + std::string(nonce) + ":" + ha2);
}

DigestCredentials answer_challenge(const DigestChallenge& challenge, std::string_view username,
                                   std::string_view password, std::string_view method,
                                   std::string_view uri) {
  DigestCredentials c;
  c.username = std::string(username);
  c.realm = challenge.realm;
  c.nonce = challenge.nonce;
  c.uri = std::string(uri);
  c.response = compute_digest_response(username, challenge.realm, password, method, uri,
                                       challenge.nonce);
  return c;
}

bool verify_digest(const DigestCredentials& creds, std::string_view password,
                   std::string_view method) {
  std::string expected = compute_digest_response(creds.username, creds.realm, password, method,
                                                 creds.uri, creds.nonce);
  return expected == creds.response;
}

}  // namespace scidive::sip
