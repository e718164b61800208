// Fuzz target: match::LiteralPrefilter::load over arbitrary bytes.
//
// The serialized automaton is the single most structure-dense artifact in
// the system (goto/fail/output tables), so load() must reject every
// inconsistent table shape with a kizzle::Error subclass before it
// rebuilds the scan state from the registrations. Any other escape is a
// finding.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "match/prefilter.h"
#include "support/errors.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const kizzle::match::LiteralPrefilter pf =
        kizzle::match::LiteralPrefilter::load(is);
    (void)pf;
  } catch (const kizzle::Error&) {
    // Typed rejection is the expected outcome for malformed bytes.
  }
  return 0;
}
