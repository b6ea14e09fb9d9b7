// libFuzzer driver for fuzz_sip_scan (built only with SCIDIVE_FUZZ=ON + Clang).
#include "fuzz/fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return scidive::fuzz::fuzz_sip_scan(data, size);
}
