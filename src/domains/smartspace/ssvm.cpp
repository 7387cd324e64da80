#include "domains/smartspace/ssvm.hpp"


namespace mdsm::smartspace {

using model::ChangeKind;
using model::Value;

namespace {

/// The 2SML synthesis semantics: object/app lifecycle → hub commands.
synthesis::Lts make_ssml_lts() {
  synthesis::Lts lts("initial");
  lts.on("initial", ChangeKind::kAddObject, "SmartObject", "", "registered",
         {{"ss.object.register",
           {{"id", Value("%id")}, {"kind", Value("%attr:kind")}}}});
  // Power/level values are meaningful from creation on: the model's
  // declared state is pushed to the device (defaults included — setting
  // a fresh device to its default state is a harmless no-op).
  lts.on("registered", ChangeKind::kSetAttribute, "SmartObject", "power",
         "registered",
         {{"ss.object.power",
           {{"id", Value("%id")}, {"value", Value("%new")}}}});
  lts.on("registered", ChangeKind::kSetAttribute, "SmartObject", "level",
         "registered",
         {{"ss.object.level",
           {{"id", Value("%id")}, {"value", Value("%new")}}}});
  // Apps: installation happens per bound target (AddReference carries
  // both the app (object_id) and the target object (target_id)).
  lts.on("initial", ChangeKind::kAddObject, "UbiquitousApp", "", "declared",
         {});
  lts.on("declared", ChangeKind::kAddReference, "UbiquitousApp", "targets",
         "declared",
         {{"ss.app.bind",
           {{"object", Value("%target")},
            {"trigger", Value("%attr:trigger")},
            {"command", Value("%attr:command")},
            {"level", Value("%attr:level")}}}});
  return lts;
}

}  // namespace

SsvmHub::SsvmHub(net::Network& network) {
  // The hub deliberately has no resources: its "broker" exists only to
  // satisfy the layer wiring and rejects every call, proving that all
  // hub behaviour flows through message passing.
  null_broker_ =
      std::make_unique<broker::BrokerLayer>("hub-null-broker", bus_, context_,
                                            metrics_);
  controller_ = std::make_unique<controller::ControllerLayer>(
      "hub-controller", *null_broker_, bus_, context_, metrics_);

  // The hub endpoint; kSend in hub actions goes through it.
  auto endpoint = network.create_endpoint("hub");
  net::Endpoint* hub_endpoint = endpoint.ok() ? endpoint.value() : nullptr;
  controller_->engine().set_sender(
      [hub_endpoint](const std::string& to, const std::string& topic,
                     Value payload) -> Status {
        if (hub_endpoint == nullptr) {
          return Unavailable("hub endpoint missing");
        }
        return hub_endpoint->send(to, topic, std::move(payload));
      });

  // Hub Case-1 actions: every synthesized command becomes a message to
  // the object named in its args; payload templates reference the
  // command args one by one (resolved recursively inside lists).
  {
    controller::ControllerAction action;
    action.name = "send-register";
    controller::Instruction instr;
    instr.op = controller::OpCode::kSend;
    instr.a = "$id";
    instr.b = "register";
    instr.args["payload"] = Value("$kind");
    action.body = {instr};
    (void)controller_->register_action(std::move(action));
    (void)controller_->bind_action("ss.object.register", {"send-register"});
  }
  {
    controller::ControllerAction action;
    action.name = "send-power";
    controller::Instruction instr;
    instr.op = controller::OpCode::kSend;
    instr.a = "$id";
    instr.b = "so.power";
    instr.args["payload"] =
        Value(model::ValueList{Value(model::ValueList{Value("value"),
                                                      Value("$value")})});
    action.body = {instr};
    (void)controller_->register_action(std::move(action));
    (void)controller_->bind_action("ss.object.power", {"send-power"});
  }
  {
    controller::ControllerAction action;
    action.name = "send-level";
    controller::Instruction instr;
    instr.op = controller::OpCode::kSend;
    instr.a = "$id";
    instr.b = "so.level";
    instr.args["payload"] =
        Value(model::ValueList{Value(model::ValueList{Value("value"),
                                                      Value("$value")})});
    action.body = {instr};
    (void)controller_->register_action(std::move(action));
    (void)controller_->bind_action("ss.object.level", {"send-level"});
  }
  {
    controller::ControllerAction action;
    action.name = "send-install";
    controller::Instruction instr;
    instr.op = controller::OpCode::kSend;
    instr.a = "$object";
    instr.b = "install";
    instr.args["payload"] = Value(model::ValueList{
        Value(model::ValueList{Value("trigger"), Value("$trigger")}),
        Value(model::ValueList{Value("command"), Value("$command")}),
        Value(model::ValueList{Value("level"), Value("$level")})});
    action.body = {instr};
    (void)controller_->register_action(std::move(action));
    (void)controller_->bind_action("ss.app.bind", {"send-install"});
  }
  (void)null_broker_->start();
  (void)controller_->start();

  controller::ControllerLayer* controller = controller_.get();
  std::vector<std::string>* registered = &registered_;
  synthesis_ = std::make_unique<synthesis::SynthesisEngine>(
      "hub-synthesis", ssml_metamodel(), make_ssml_lts(), context_, metrics_,
      obs::steady_clock(),
      [controller, registered](const controller::ControlScript& script,
                               obs::RequestContext& request) {
        for (const auto& command : script.commands) {
          if (command.name == "ss.object.register") {
            auto it = command.args.find("id");
            if (it != command.args.end() && it->second.is_string()) {
              registered->push_back(it->second.as_string());
            }
          }
        }
        return runtime::run_inline(
            controller->execute_script(script, request));
      });
  (void)synthesis_->start();
}

Result<controller::ControlScript> SsvmHub::submit_model_text(
    std::string_view text, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  Result<synthesis::SynthesisEngine::Draft> read =
      synthesis_->read_text(text, context.session());
  if (!read.ok()) return read.status();
  obs::ScopedSpan span(context, "ui.submit", read->model.name());
  obs::ScopedSpan synthesis(context, "synthesis.submit", read->model.name());
  requests_submitted_.add();
  Result<controller::ControlScript> script =
      synthesis_->submit(std::move(read.value()), context);
  if (!script.ok()) requests_failed_.add();
  return script;
}

Result<controller::ControlScript> SsvmHub::submit_model_text(
    std::string_view text) {
  last_context_ = std::make_unique<obs::RequestContext>(obs::steady_clock(),
                                                        &metrics_);
  return submit_model_text(text, *last_context_);
}

SmartObjectNode& SmartSpace::add_object(const std::string& id,
                                        const std::string& kind) {
  auto node = std::make_unique<SmartObjectNode>(id, kind, network);
  SmartObjectNode& ref = *node;
  nodes[id] = std::move(node);
  return ref;
}

std::unique_ptr<SmartSpace> make_smart_space() {
  auto space = std::make_unique<SmartSpace>();
  space->hub = std::make_unique<SsvmHub>(space->network);
  return space;
}

}  // namespace mdsm::smartspace
