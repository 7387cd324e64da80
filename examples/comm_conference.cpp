// CVM example: a multimedia conference driven entirely by CML models —
// establishment, quality adaptation under bandwidth change, link-failure
// recovery by the autonomic manager, and teardown.
#include <cstdio>

#include "domains/comm/cvm.hpp"

using namespace mdsm;

namespace {

void show_trace(const core::Platform& platform, std::size_t from) {
  const auto& entries = platform.trace().entries();
  for (std::size_t i = from; i < entries.size(); ++i) {
    std::printf("    -> %s\n", entries[i].c_str());
  }
}

}  // namespace

int main() {
  auto cvm = comm::make_cvm();
  if (!cvm.ok()) {
    std::printf("CVM assembly failed: %s\n", cvm.status().to_string().c_str());
    return 1;
  }
  core::Platform& platform = *(*cvm)->platform;
  std::printf("CVM up: platform '%s' over DSML '%s'\n\n",
              platform.name().c_str(), platform.dsml()->name().c_str());

  // 1. Establish a three-party conference with audio + video.
  platform.context().set("bandwidth", model::Value(3.0));
  std::printf("[1] establishing conference (bandwidth=3.0 => high "
              "quality)\n");
  auto script = platform.submit_model_text(R"(
model conference conforms cml
object Connection standup {
  state = active
  topology = conference
  child participants Participant ana { address = "ana@hq" role = initiator }
  child participants Participant bruno { address = "bruno@lab" }
  child participants Participant carla { address = "carla@home" }
  child media Medium voice { kind = audio }
  child media Medium cam { kind = video }
}
)");
  if (!script.ok()) {
    std::printf("failed: %s\n", script.status().to_string().c_str());
    return 1;
  }
  show_trace(platform, 0);
  std::size_t mark = platform.trace().size();

  // 2. Bandwidth drops: retune the video via a model update.
  std::printf("\n[2] bandwidth drops; retuning video to low quality\n");
  platform.context().set("bandwidth", model::Value(0.3));
  (void)platform.submit_model_text(R"(
model conference conforms cml
object Connection standup {
  state = active
  topology = conference
  child participants Participant ana { address = "ana@hq" role = initiator }
  child participants Participant bruno { address = "bruno@lab" }
  child participants Participant carla { address = "carla@home" }
  child media Medium voice { kind = audio }
  child media Medium cam { kind = video quality = low }
}
)");
  show_trace(platform, mark);
  mark = platform.trace().size();

  // 3. Carla's link drops — the NCB's autonomic rule reconnects her.
  std::printf("\n[3] injecting link failure for carla\n");
  (*cvm)->service.inject_link_failure("standup", "carla");
  show_trace(platform, mark);
  std::printf("    autonomic adaptations so far: %llu\n",
              static_cast<unsigned long long>(
                  platform.metrics().snapshot().counter_value(
                      "autonomic.reactions")));
  for (const std::string& line :
       platform.broker().autonomic().adaptation_log()) {
    std::printf("    log: %s\n", line.c_str());
  }
  mark = platform.trace().size();

  // 4. Bruno leaves, then the conference closes.
  std::printf("\n[4] bruno leaves; conference closes\n");
  (void)platform.submit_model_text(R"(
model conference conforms cml
object Connection standup {
  state = closed
  topology = conference
  child participants Participant ana { address = "ana@hq" role = initiator }
  child participants Participant carla { address = "carla@home" }
  child media Medium voice { kind = audio }
  child media Medium cam { kind = video quality = low }
}
)");
  show_trace(platform, mark);

  std::printf("\ncontroller stats: %llu commands (%llu via predefined "
              "actions, %llu via generated intent models)\n",
              static_cast<unsigned long long>(
                  platform.controller().stats().commands_executed),
              static_cast<unsigned long long>(
                  platform.controller().stats().case1_executions),
              static_cast<unsigned long long>(
                  platform.controller().stats().case2_executions));
  std::printf("service handshakes performed: %llu\n",
              static_cast<unsigned long long>((*cvm)->service.handshakes()));
  return 0;
}
