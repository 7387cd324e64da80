#include "domains/smartspace/smart_objects.hpp"

#include "common/log.hpp"

namespace mdsm::smartspace {

using model::Value;
using model::ValueList;

model::Value encode_args(const broker::Args& args) {
  ValueList out;
  for (const auto& [key, value] : args) {
    out.push_back(Value(ValueList{Value(key), value}));
  }
  return Value(std::move(out));
}

broker::Args decode_args(const model::Value& payload) {
  broker::Args out;
  if (!payload.is_list()) return out;
  for (const Value& pair : payload.as_list()) {
    if (!pair.is_list() || pair.as_list().size() != 2) continue;
    const auto& items = pair.as_list();
    if (!items[0].is_string()) continue;
    out[items[0].as_string()] = items[1];
  }
  return out;
}

namespace {

/// The device adapter: applies atomic commands to the local DeviceState.
class DeviceAdapter final : public broker::ResourceAdapter {
 public:
  DeviceAdapter(DeviceState& device)
      : ResourceAdapter("dev"), device_(&device) {}

  Result<Value> execute(const std::string& command,
                        const broker::Args& args) override {
    if (command == "power") {
      auto it = args.find("value");
      if (it == args.end() || !it->second.is_bool()) {
        return InvalidArgument("power requires a bool 'value'");
      }
      device_->power = it->second.as_bool();
      return Value(device_->power);
    }
    if (command == "level") {
      auto it = args.find("value");
      if (it == args.end() || !it->second.is_int()) {
        return InvalidArgument("level requires an int 'value'");
      }
      device_->level = it->second.as_int();
      device_->power = device_->level > 0 ? true : device_->power;
      return Value(device_->level);
    }
    return NotFound("device has no command '" + command + "'");
  }

 private:
  DeviceState* device_;
};

}  // namespace

SmartObjectNode::SmartObjectNode(std::string id, std::string kind,
                                 net::Network& network)
    : id_(std::move(id)) {
  device_.kind = std::move(kind);
  broker_ = std::make_unique<broker::BrokerLayer>(id_ + "-broker", bus_,
                                                  context_, metrics_);
  (void)broker_->resources().add_adapter(
      std::make_unique<DeviceAdapter>(device_));
  // Broker actions: the local device vocabulary.
  broker::Action power;
  power.name = "dev-power";
  power.steps = {broker::invoke_step("dev", "power",
                                     {{"value", Value("$value")}})};
  (void)broker_->register_action(std::move(power));
  broker::Action level;
  level.name = "dev-level";
  level.steps = {broker::invoke_step("dev", "level",
                                     {{"value", Value("$value")}})};
  (void)broker_->register_action(std::move(level));
  (void)broker_->bind_handler("so.power", {"dev-power"});
  (void)broker_->bind_handler("so.level", {"dev-level"});

  controller_ = std::make_unique<controller::ControllerLayer>(
      id_ + "-controller", *broker_, bus_, context_, metrics_);
  // Pass-through Case-1 actions for direct commands from the hub.
  controller::ControllerAction fwd_power;
  fwd_power.name = "fwd-power";
  fwd_power.body = {controller::broker_call("so.power",
                                            {{"value", Value("$value")}})};
  (void)controller_->register_action(std::move(fwd_power));
  controller::ControllerAction fwd_level;
  fwd_level.name = "fwd-level";
  fwd_level.body = {controller::broker_call("so.level",
                                            {{"value", Value("$value")}})};
  (void)controller_->register_action(std::move(fwd_level));
  (void)controller_->bind_action("so.power", {"fwd-power"});
  (void)controller_->bind_action("so.level", {"fwd-level"});
  (void)broker_->start();
  (void)controller_->start();

  auto endpoint = network.create_endpoint(id_);
  if (endpoint.ok()) {
    endpoint.value()->set_handler(
        [this](const net::Message& message) { on_message(message); });
  }
}

Status SmartObjectNode::install_script(const broker::Args& args) {
  auto str = [&args](std::string_view key) -> std::string {
    auto it = args.find(key);
    return it != args.end() && it->second.is_string() ? it->second.as_string()
                                                      : std::string{};
  };
  const std::string trigger = str("trigger");
  const std::string command = str("command");
  if (trigger.empty() || command.empty()) {
    return InvalidArgument("install needs trigger and command");
  }
  controller::ControllerAction script;
  script.name = "script-" + std::to_string(++installs_) + "-" + trigger;
  if (command == "power-on") {
    script.body = {controller::broker_call("so.power",
                                           {{"value", Value(true)}})};
  } else if (command == "power-off") {
    script.body = {controller::broker_call("so.power",
                                           {{"value", Value(false)}})};
  } else if (command == "set-level") {
    auto it = args.find("level");
    Value level = it != args.end() ? it->second : Value(0);
    script.body = {controller::broker_call("so.level", {{"value", level}})};
  } else {
    return InvalidArgument("unknown installed command '" + command + "'");
  }
  MDSM_RETURN_IF_ERROR(controller_->register_action(script));
  MDSM_RETURN_IF_ERROR(controller_->bind_action(trigger, {script.name}));
  controller_->attach_event_topic(trigger);
  return Status::Ok();
}

void SmartObjectNode::on_message(const net::Message& message) {
  broker::Args args = decode_args(message.payload);
  if (message.topic == "install") {
    Status installed = install_script(args);
    if (!installed.ok()) {
      log_warn("smartobject") << id_ << ": " << installed.to_string();
    }
    return;
  }
  if (message.topic == "register") {
    return;  // presence acknowledged; nothing to configure yet
  }
  // Anything else is a command for the on-device controller.
  controller::Command command{message.topic, std::move(args)};
  (void)controller_->submit_command(std::move(command));
  controller_->process_pending();
}

void SmartObjectNode::raise_event(const std::string& topic,
                                  model::Value payload) {
  bus_.publish(topic, id_, std::move(payload));
  controller_->process_pending();
}

}  // namespace mdsm::smartspace
