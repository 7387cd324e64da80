// 2SVM — the Smart Spaces Virtual Machine (paper §IV-C, [12]), in its
// split deployment: "the instance of 2SVM that runs on the central device
// that controls the smart space only has the three top layers, while the
// instances that run on smart objects only have the two bottom layers
// ... model synthesis only happens in the smart space controller, which
// dispatches the synthesized control scripts to the middleware layer on
// the smart objects."
//
// The hub (central device) therefore runs UI + Synthesis + Controller,
// with no broker of its own: its controller actions use the engine's
// message-passing op (kSend) to reach the object nodes over the network.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "controller/controller_layer.hpp"
#include "domains/smartspace/smart_objects.hpp"
#include "domains/smartspace/ssml.hpp"
#include "synthesis/synthesis_engine.hpp"

namespace mdsm::smartspace {

/// The central controller node (top three layers).
class SsvmHub {
 public:
  explicit SsvmHub(net::Network& network);

  /// UI layer: submit a 2SML model (text). Synthesis compares against the
  /// running model and dispatches commands; commands reach the object
  /// nodes as messages (delivered when the network is pumped). The
  /// context-free overload mints a context internally (see last_trace()).
  Result<controller::ControlScript> submit_model_text(
      std::string_view text, obs::RequestContext& context);
  Result<controller::ControlScript> submit_model_text(std::string_view text);

  [[nodiscard]] obs::RequestContext make_context(
      std::optional<Duration> deadline = {}) {
    return obs::RequestContext(obs::steady_clock(), &metrics_, deadline);
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::Trace* last_trace() const noexcept {
    return last_context_ == nullptr ? nullptr : &last_context_->trace();
  }

  [[nodiscard]] controller::ControllerLayer& controller() noexcept {
    return *controller_;
  }
  [[nodiscard]] synthesis::SynthesisEngine& synthesis() noexcept {
    return *synthesis_;
  }
  [[nodiscard]] const std::vector<std::string>& registered_objects()
      const noexcept {
    return registered_;
  }

 private:
  runtime::EventBus bus_;
  policy::ContextStore context_;
  obs::MetricsRegistry metrics_;
  obs::Counter& requests_submitted_ = metrics_.counter("requests.submitted");
  obs::Counter& requests_failed_ = metrics_.counter("requests.failed");
  std::unique_ptr<obs::RequestContext> last_context_;
  std::unique_ptr<broker::BrokerLayer> null_broker_;  ///< hub has no broker
  std::unique_ptr<controller::ControllerLayer> controller_;
  std::unique_ptr<synthesis::SynthesisEngine> synthesis_;
  std::vector<std::string> registered_;
};

/// A complete smart space: hub + object nodes over one simulated network.
struct SmartSpace {
  SimClock clock;
  net::Network network{clock};
  std::unique_ptr<SsvmHub> hub;
  std::map<std::string, std::unique_ptr<SmartObjectNode>, std::less<>> nodes;

  /// Create an object node (device joins the space).
  SmartObjectNode& add_object(const std::string& id, const std::string& kind);

  /// Deliver all in-flight messages (advances virtual time).
  void pump() { network.run_until_idle(); }
};

std::unique_ptr<SmartSpace> make_smart_space();

}  // namespace mdsm::smartspace
