// Exp-4 (paper §VII-B): adaptive Controller vs non-adaptive baseline.
//
// Paper result: "while the response time of our Controller layer
// architecture was measurably slower than a previous non-adaptive
// Controller undertaking the same task, scenarios where adaptability was
// beneficial to the task at hand would result in as much as an order of
// magnitude improvement in response time for our adaptive Controller
// layer (approx. 800 ms for our architecture, compared to approx.
// 4000 ms for the older non-adaptable architecture)."
//
// Two phases:
//  A) static task — identical commands, stable context: the adaptive
//     controller pays classification/guard/cache overhead per command;
//     the table-dispatch baseline does not.
//  B) adaptation-beneficial task — the environment flips every episode,
//     requiring different behaviour: the adaptive controller just
//     regenerates an intent model; the non-adaptive controller must
//     stop → rebuild its entire middleware configuration (re-parse and
//     re-assemble the CVM middleware model) → restart.
#include <cstdio>

#include "broker/broker_api.hpp"
#include "common/clock.hpp"
#include "controller/controller_layer.hpp"
#include "controller/static_controller.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "runtime/event_bus.hpp"

namespace {

using namespace mdsm;

class NullBroker : public broker::BrokerApi {
 public:
  using broker::BrokerApi::call;
  runtime::Task<Result<model::Value>> call(const broker::Call&,
                                           obs::RequestContext&) override {
    co_return model::Value(true);
  }
  [[nodiscard]] const broker::CommandTrace& trace() const override {
    return trace_;
  }

 private:
  obs::MetricsRegistry trace_metrics_;
  broker::CommandTrace trace_{trace_metrics_};
};

/// Domain knowledge used by both controllers: an operation with one
/// wired and one radio realization, selected by the network context.
void load_dsk(controller::ControllerLayer& layer) {
  (void)layer.dscs().add({"deliver", controller::DscKind::kOperation, "", ""});
  controller::Procedure wired;
  wired.name = "deliver-wired";
  wired.classifier = "deliver";
  wired.guard = *policy::Expression::parse("network == \"wired\"");
  wired.units = {{controller::broker_call("path.wired")}};
  controller::Procedure radio;
  radio.name = "deliver-radio";
  radio.classifier = "deliver";
  radio.guard = *policy::Expression::parse("network == \"radio\"");
  radio.units = {{controller::broker_call("path.radio")}};
  (void)layer.add_procedure(std::move(wired));
  (void)layer.add_procedure(std::move(radio));
}

controller::StaticController::DispatchTable table_for(
    const std::string& network) {
  controller::StaticController::DispatchTable table;
  table["deliver"] = {controller::broker_call(
      network == "wired" ? "path.wired" : "path.radio")};
  return table;
}

/// The non-adaptive reload: rebuild the full middleware configuration
/// from its model text (the work a stop-reload-restart actually does),
/// then derive the fresh dispatch table.
Result<controller::StaticController::DispatchTable> expensive_reload(
    const std::string& network) {
  core::PlatformConfig config;
  config.dsml = comm::cml_metamodel();
  auto platform =
      core::Platform::assemble_from_text(comm::cvm_middleware_model_text(),
                                         config);
  if (!platform.ok()) return platform.status();
  return table_for(network);
}

}  // namespace

int main() {
  SteadyClock clock;
  NullBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  controller::ControllerLayer adaptive("adaptive", broker, bus, context,
                                       metrics);
  load_dsk(adaptive);
  controller::StaticController fixed(broker, bus, context);
  fixed.set_table(table_for("wired"));
  context.set("network", model::Value("wired"));

  std::printf("Exp-4: adaptive Controller vs non-adaptive baseline\n\n");

  // ---- Phase A: static task --------------------------------------------
  constexpr int kCommands = 20000;
  Stopwatch watch(clock);
  for (int i = 0; i < kCommands; ++i) {
    (void)runtime::run_inline(adaptive.execute_command({"deliver", {}}));
  }
  double adaptive_static_us = watch.elapsed_ms() * 1000.0 / kCommands;
  watch.reset();
  for (int i = 0; i < kCommands; ++i) {
    (void)fixed.execute({"deliver", {}});
  }
  double fixed_static_us = watch.elapsed_ms() * 1000.0 / kCommands;
  std::printf("Phase A — static task (%d identical commands):\n", kCommands);
  std::printf("  adaptive controller:     %8.3f us/command\n",
              adaptive_static_us);
  std::printf("  non-adaptive controller: %8.3f us/command\n",
              fixed_static_us);
  std::printf("  adaptive/non-adaptive:   %8.2fx  [paper: adaptive "
              "'measurably slower' on static work]\n\n",
              adaptive_static_us / fixed_static_us);

  // ---- Phase B: adaptation-beneficial task ------------------------------
  // An episode is what the paper times: the environment changes and the
  // controller must serve the next batch of requests under the new
  // behaviour. The adaptive side regenerates an intent model online; the
  // non-adaptive side must stop → rebuild its middleware configuration →
  // restart before it can serve the batch.
  constexpr int kEpisodes = 20;
  constexpr int kBatch = 100;  ///< requests served per episode
  double adaptive_ms = 0.0;
  double fixed_ms = 0.0;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    const std::string network = episode % 2 == 0 ? "radio" : "wired";
    // Adaptive: context change invalidates the IM cache; the controller
    // re-generates once and serves the batch.
    watch.reset();
    context.set("network", model::Value(network));
    for (int i = 0; i < kBatch; ++i) {
      auto adapted =
          runtime::run_inline(adaptive.execute_command({"deliver", {}}));
      if (!adapted.ok()) {
        std::printf("adaptive episode failed: %s\n",
                    adapted.status().to_string().c_str());
        return 1;
      }
    }
    adaptive_ms += watch.elapsed_ms();
    // Non-adaptive: full reload, then serve the batch.
    watch.reset();
    Status reloaded =
        fixed.reload([&network] { return expensive_reload(network); });
    if (!reloaded.ok()) {
      std::printf("non-adaptive reload failed\n");
      return 1;
    }
    for (int i = 0; i < kBatch; ++i) {
      if (!fixed.execute({"deliver", {}}).ok()) {
        std::printf("non-adaptive episode failed\n");
        return 1;
      }
    }
    fixed_ms += watch.elapsed_ms();
  }
  std::printf("Phase B — adaptation-beneficial task (%d environment flips, "
              "%d requests each):\n", kEpisodes, kBatch);
  std::printf("  adaptive controller:     %10.3f ms total (%.3f ms/episode)\n",
              adaptive_ms, adaptive_ms / kEpisodes);
  std::printf("  non-adaptive (reload):   %10.3f ms total (%.3f ms/episode)\n",
              fixed_ms, fixed_ms / kEpisodes);
  std::printf("  improvement:             %10.1fx  [paper: ~5x, approx. "
              "800 ms vs approx. 4000 ms]\n",
              fixed_ms / adaptive_ms);
  return 0;
}
