#include "domains/mgrid/baseline.hpp"

namespace mdsm::mgrid {

using model::Value;

HandcraftedMgridBroker::HandcraftedMgridBroker(MicrogridPlant& plant,
                                               runtime::EventBus& bus,
                                               policy::ContextStore& context)
    : bus_(&bus), context_(&context), resources_(bus, metrics_) {
  (void)resources_.add_adapter(std::make_unique<PlantAdapter>(plant, "plant"));
  // Hand-coded rebalancing, mirroring the model-loaded autonomic rules:
  // storage discharge preferred, shedding a non-critical load as fallback.
  subscription_ =
      bus.subscribe("resource.imbalance", [this](const runtime::Event&) {
        Value storage = context_->get("storage.main");
        if (storage.is_string()) {
          broker::Args args;
          args["id"] = storage;
          args["mode"] = Value("discharge");
          (void)runtime::run_inline(
              resources_.invoke("plant", "storage.mode", args));
          return;
        }
        Value sheddable = context_->get("load.sheddable");
        if (sheddable.is_string()) {
          broker::Args args;
          args["id"] = sheddable;
          (void)runtime::run_inline(
              resources_.invoke("plant", "load.shed", args));
        }
      });
}

HandcraftedMgridBroker::~HandcraftedMgridBroker() {
  bus_->unsubscribe(subscription_);
}

runtime::Task<Result<Value>> HandcraftedMgridBroker::call(
    const broker::Call& call, obs::RequestContext& context) {
  // The baseline participates in request tracing on the same terms as the
  // model-based broker (Exp-1/2 compare like with like).
  obs::ScopedSpan span(context, "broker.call", call.name);
  auto arg = [&call](std::string_view key) -> Value {
    auto it = call.args.find(key);
    return it == call.args.end() ? Value{} : it->second;
  };
  auto forward = [&](const char* command,
                     std::initializer_list<const char*> keys) {
    broker::Args args;
    for (const char* key : keys) args[key] = arg(key);
    return runtime::run_inline(resources_.invoke("plant", command, args));
  };
  if (call.name == "mgv.gen.provision") {
    co_return forward("gen.add", {"id", "capacity", "renewable"});
  }
  if (call.name == "mgv.gen.start") co_return forward("gen.start", {"id"});
  if (call.name == "mgv.gen.stop") co_return forward("gen.stop", {"id"});
  if (call.name == "mgv.gen.set") co_return forward("gen.set", {"id", "kw"});
  if (call.name == "mgv.load.provision") {
    co_return forward("load.add", {"id", "demand", "critical"});
  }
  if (call.name == "mgv.load.connect") {
    co_return forward("load.connect", {"id"});
  }
  if (call.name == "mgv.load.shed") co_return forward("load.shed", {"id"});
  if (call.name == "mgv.storage.provision") {
    co_return forward("storage.add", {"id", "capacity"});
  }
  if (call.name == "mgv.storage.mode") {
    co_return forward("storage.mode", {"id", "mode"});
  }
  if (call.name == "mgv.device.remove") {
    co_return forward("device.remove", {"id"});
  }
  if (call.name == "mgv.plant.step") co_return forward("plant.step", {"hours"});
  if (call.name == "mgv.grid.mode") {
    context_->set("grid.mode", arg("mode"));
    co_return Value(true);
  }
  co_return NotFound("handcrafted MHB has no operation '" + call.name + "'");
}

namespace {

MgridStep call_step(std::string name, broker::Args args) {
  MgridStep step;
  step.kind = MgridStep::Kind::kCall;
  step.call = {std::move(name), std::move(args)};
  return step;
}

MgridStep trip(std::string generator_id) {
  MgridStep step;
  step.kind = MgridStep::Kind::kTripGenerator;
  step.generator_id = std::move(generator_id);
  return step;
}

MgridStep ctx(std::string key, Value value) {
  MgridStep step;
  step.kind = MgridStep::Kind::kSetContext;
  step.context_key = std::move(key);
  step.context_value = std::move(value);
  return step;
}

/// Common provisioning prologue: one 5 kW generator + a 3 kW household
/// load, generator dispatched to cover it.
std::vector<MgridStep> basic_setup(const std::string& suffix) {
  return {
      call_step("mgv.gen.provision", {{"id", Value("gen-" + suffix)},
                                      {"capacity", Value(5.0)},
                                      {"renewable", Value(false)}}),
      call_step("mgv.gen.start", {{"id", Value("gen-" + suffix)}}),
      call_step("mgv.gen.set",
                {{"id", Value("gen-" + suffix)}, {"kw", Value(4.0)}}),
      call_step("mgv.load.provision", {{"id", Value("home-" + suffix)},
                                       {"demand", Value(3.0)},
                                       {"critical", Value(true)}}),
      call_step("mgv.load.connect", {{"id", Value("home-" + suffix)}}),
  };
}

std::vector<MgridScenario> build() {
  std::vector<MgridScenario> scenarios;
  {
    MgridScenario s;
    s.name = "g1-provision-dispatch";
    s.description = "provision generator and load, dispatch to cover demand";
    s.steps = basic_setup("a");
    scenarios.push_back(std::move(s));
  }
  {
    MgridScenario s;
    s.name = "g2-peak-shedding";
    s.description = "peak load triggers autonomic shedding of the heater";
    s.steps = basic_setup("b");
    s.steps.push_back(ctx("load.sheddable", Value("heater-b")));
    s.steps.push_back(call_step("mgv.load.provision",
                                {{"id", Value("heater-b")},
                                 {"demand", Value(4.0)},
                                 {"critical", Value(false)}}));
    // Connecting the heater pushes demand (7kW) over generation (4kW):
    // the imbalance event fires and the broker sheds it autonomously.
    s.steps.push_back(
        call_step("mgv.load.connect", {{"id", Value("heater-b")}}));
    scenarios.push_back(std::move(s));
  }
  {
    MgridScenario s;
    s.name = "g3-storage-discharge";
    s.description = "imbalance covered by storage discharge (preferred)";
    s.steps = basic_setup("c");
    s.steps.push_back(call_step("mgv.storage.provision",
                                {{"id", Value("battery-c")},
                                 {"capacity", Value(10.0)}}));
    s.steps.push_back(ctx("storage.main", Value("battery-c")));
    s.steps.push_back(call_step("mgv.load.provision",
                                {{"id", Value("ev-c")},
                                 {"demand", Value(2.5)},
                                 {"critical", Value(false)}}));
    s.steps.push_back(call_step("mgv.load.connect", {{"id", Value("ev-c")}}));
    scenarios.push_back(std::move(s));
  }
  {
    MgridScenario s;
    s.name = "g4-generator-trip";
    s.description = "generator trips; storage covers the outage";
    s.steps = basic_setup("d");
    s.steps.push_back(call_step("mgv.storage.provision",
                                {{"id", Value("battery-d")},
                                 {"capacity", Value(10.0)}}));
    s.steps.push_back(ctx("storage.main", Value("battery-d")));
    s.steps.push_back(trip("gen-d"));
    scenarios.push_back(std::move(s));
  }
  {
    MgridScenario s;
    s.name = "g5-eco-mode";
    s.description = "eco mode dispatches the renewable generator";
    s.steps = {
        call_step("mgv.grid.mode", {{"mode", Value("eco")}}),
        call_step("mgv.gen.provision", {{"id", Value("solar-e")},
                                        {"capacity", Value(3.0)},
                                        {"renewable", Value(true)}}),
        call_step("mgv.gen.start", {{"id", Value("solar-e")}}),
        call_step("mgv.gen.set",
                  {{"id", Value("solar-e")}, {"kw", Value(2.0)}}),
    };
    scenarios.push_back(std::move(s));
  }
  {
    MgridScenario s;
    s.name = "g6-decommission";
    s.description = "orderly decommissioning after a simulated day";
    s.steps = basic_setup("f");
    s.steps.push_back(
        call_step("mgv.plant.step", {{"hours", Value(24.0)}}));
    // home-f is critical, so it is removed outright rather than shed.
    s.steps.push_back(call_step("mgv.gen.stop", {{"id", Value("gen-f")}}));
    s.steps.push_back(
        call_step("mgv.device.remove", {{"id", Value("home-f")}}));
    s.steps.push_back(
        call_step("mgv.device.remove", {{"id", Value("gen-f")}}));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

const std::vector<MgridScenario>& mgrid_scenarios() {
  static const std::vector<MgridScenario> scenarios = build();
  return scenarios;
}

Status run_mgrid_scenario(const MgridScenario& scenario,
                          broker::BrokerApi& broker, MicrogridPlant& plant,
                          policy::ContextStore& context) {
  for (const MgridStep& step : scenario.steps) {
    switch (step.kind) {
      case MgridStep::Kind::kCall: {
        Result<Value> outcome =
            runtime::run_inline(broker.call(step.call));
        if (!outcome.ok()) {
          return Status(outcome.status().code(),
                        scenario.name + " step '" + step.call.name +
                            "': " + outcome.status().message());
        }
        break;
      }
      case MgridStep::Kind::kTripGenerator:
        plant.trip_generator(step.generator_id);
        break;
      case MgridStep::Kind::kSetContext:
        context.set(step.context_key, step.context_value);
        break;
    }
  }
  return Status::Ok();
}

}  // namespace mdsm::mgrid
