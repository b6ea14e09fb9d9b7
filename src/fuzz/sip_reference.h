// The endpoint's reading of a SIP message: the reference the IDS's one-pass
// scanner is held to. An IDS that reads SIP differently from the endpoints
// it protects can be evaded — a message the phone acts on but the IDS
// misreads — so the distiller's footprint and the shard router's keys must
// equal what SipMessage::parse and its structured accessors (the UA's and
// the proxy's parser) make of the same bytes, field for field.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "scidive/footprint.h"

namespace scidive::fuzz {

/// Every field where the IDS's reading of `text` — core::distill_sip and
/// core::sip_route_keys, both scanning with `fold_buf` — differs from the
/// endpoint's reading (SipMessage::parse plus its accessors), one line per
/// field; empty when they agree.
std::vector<std::string> sip_scan_divergences(std::string_view text, std::string& fold_buf);

/// One field per line, non-printable bytes escaped: the pinned form of the
/// SIP torture corpus's expected footprints.
std::string render_sip_footprint(Errc error, const core::SipFootprint& fp);

}  // namespace scidive::fuzz
