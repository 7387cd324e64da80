// Simulated smart objects and their on-device layer stack.
//
// Per the paper (§IV-C), 2SVM deploys only the two bottom layers on each
// smart object: a Controller that holds *installed scripts* (executed on
// asynchronous events, not immediately) and a Broker driving the local
// device hardware. Objects attach to the space's network and receive
// commands/installs from the central controller node.
#pragma once

#include <memory>
#include <string>

#include "broker/broker_layer.hpp"
#include "controller/controller_layer.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "policy/context.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::smartspace {

/// Encode broker args as a Value list of [key, value] pairs for network
/// transport (and back). The smart-space wire protocol.
model::Value encode_args(const broker::Args& args);
broker::Args decode_args(const model::Value& payload);

/// The physical device state (the "underlying resource" of one object).
struct DeviceState {
  std::string kind;
  bool power = false;
  std::int64_t level = 0;
};

/// A smart object node: device + bottom-two-layer stack + endpoint.
class SmartObjectNode {
 public:
  /// Registers endpoint `id` on the network and wires the message
  /// handler. The node is ready once constructed.
  SmartObjectNode(std::string id, std::string kind, net::Network& network);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const DeviceState& device() const noexcept { return device_; }

  /// Raise an asynchronous environment event on this node (e.g. a user
  /// entering the room); installed scripts bound to the topic run.
  void raise_event(const std::string& topic, model::Value payload = {});

  [[nodiscard]] controller::ControllerLayer& controller() noexcept {
    return *controller_;
  }
  [[nodiscard]] broker::BrokerLayer& broker() noexcept { return *broker_; }
  [[nodiscard]] std::size_t installed_scripts() const noexcept {
    return installs_;
  }

 private:
  void on_message(const net::Message& message);
  Status install_script(const broker::Args& args);

  std::string id_;
  DeviceState device_;
  runtime::EventBus bus_;
  policy::ContextStore context_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<broker::BrokerLayer> broker_;
  std::unique_ptr<controller::ControllerLayer> controller_;
  std::size_t installs_ = 0;
};

}  // namespace mdsm::smartspace
