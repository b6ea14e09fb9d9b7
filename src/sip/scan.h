// One-pass SIP scanner: the IDS's read of a SIP message, as string views.
//
// SipMessage::parse builds the endpoint's full model (owned header list,
// map-backed URIs and name-addrs); the IDS reads a dozen fields of it. The
// scanner walks the wire text once, records the first field of each header
// the IDS reads and the body, and decodes those few values with view
// helpers. It allocates nothing: every result is a view into the input, or
// into the caller's fold buffer for a folded header line.
//
// The scanner is held to accept exactly what the endpoint parser accepts:
//   - scan_sip() fails exactly when SipMessage::parse fails, with the same
//     Errc;
//   - each helper accepts exactly what its endpoint counterpart accepts —
//     scan_uri/SipUri, scan_name_addr/NameAddr, scan_cseq/CSeq,
//     scan_top_via/SipMessage::top_via, scan_digest_response/
//     DigestCredentials, scan_sdp_audio/Sdp — and yields the same values;
//   - header lookup follows Headers::get: compact forms and any letter case
//     name one header, and when a header appears twice the first field wins.
//     Folded lines are joined exactly as SipMessage::parse joins them.
// The differential test and the fuzz_sip_scan target hold the scanner to
// the endpoint parser field for field.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "pkt/addr.h"

namespace scidive::sip {

/// The parts of a sip: URI the IDS reads.
struct UriView {
  std::string_view host;
  /// user@host, or the host when the URI has no user part — the same text
  /// SipUri::address_of_record() builds (it is contiguous in the URI).
  std::string_view aor;
  uint16_t port = 0;  // 0 = unspecified

  uint16_t port_or_default() const { return port ? port : 5060; }
};

/// From / To / Contact: the URI and the tag parameter.
struct NameAddrView {
  UriView uri;
  /// The last `tag` parameter (NameAddr keeps params in a map, so a later
  /// duplicate overwrites an earlier one); empty when absent.
  std::string_view tag;
};

struct CSeqView {
  uint32_t number = 0;
  std::string_view method;
};

std::optional<UriView> scan_uri(std::string_view text);
std::optional<NameAddrView> scan_name_addr(std::string_view text);
std::optional<CSeqView> scan_cseq(std::string_view text);
/// Whether the first comma-separated entry of a Via field value parses.
bool scan_top_via(std::string_view text);
/// The `response` of a digest Authorization value that carries every
/// parameter DigestCredentials requires; nothing otherwise.
std::optional<std::string_view> scan_digest_response(std::string_view text);
/// The first audio stream's endpoint (c= address, audio m= port) of a body
/// that parses as SDP; nothing for a body Sdp::parse rejects, one without
/// an audio stream, or one whose connection address is not an IPv4 literal.
std::optional<pkt::Endpoint> scan_sdp_audio(std::string_view body);

/// kFootprint decodes everything the distiller's SipFootprint carries;
/// kKeys decodes only what the shard router hashes — Call-ID, CSeq, From
/// and the SDP endpoint — and leaves the other fields unset.
enum class ScanMode { kFootprint, kKeys };

struct SipScan {
  bool is_request = true;
  std::string_view method;  // request method token
  int status_code = 0;      // responses
  std::optional<std::string_view> call_id;  // trimmed Call-ID, when present
  std::optional<CSeqView> cseq;             // when present and valid
  std::optional<NameAddrView> from;         // when present and valid
  std::string_view body;  // Content-Length bytes, else the rest of the text
  std::optional<pkt::Endpoint> sdp_media;

  // kFootprint only.
  std::optional<NameAddrView> to;
  std::optional<NameAddrView> contact;
  /// SipMessage::well_formed(): Call-ID, CSeq, From, To and top Via present
  /// and valid, and a request's CSeq method equal to its method.
  bool well_formed = false;
  bool has_auth = false;                        // Authorization present
  std::optional<std::string_view> auth_response;
  bool has_challenge = false;                   // WWW-Authenticate present
};

/// Scan one SIP message. Returns Errc::kOk and fills `out`, or the Errc
/// SipMessage::parse fails with. Folded header lines are joined into
/// `fold_buf`, which the caller keeps across calls so its capacity is
/// reused; the views in `out` stay valid while `text` and `fold_buf` do.
Errc scan_sip(std::string_view text, std::string& fold_buf, SipScan& out,
              ScanMode mode = ScanMode::kFootprint);

}  // namespace scidive::sip
