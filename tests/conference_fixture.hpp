// The 24-party conference of perfbench's conference_edits workload, in
// CML: one Connection with 24 Participants and two Media.
#pragma once

#include <string>

#include "common/strings.hpp"

namespace mdsm::comm::testing {

/// The conference with both media at `voice` and `cam` quality, and
/// participants p<first> to p<first + 23>.
inline std::string conference_text(const char* voice, const char* cam,
                                   int first = 0) {
  std::string out =
      "model conf conforms cml\nobject Connection conf {\n"
      "  state = active\n  topology = conference\n";
  for (int i = first; i < first + 24; ++i) {
    const std::string id = numbered("p", i);
    out += "  child participants Participant " + id + " { address = \"" + id +
           "\" }\n";
  }
  out += "  child media Medium voice { kind = audio quality = ";
  out += voice;
  out += " }\n  child media Medium cam { kind = video quality = ";
  out += cam;
  out += " }\n}\n";
  return out;
}

}  // namespace mdsm::comm::testing
