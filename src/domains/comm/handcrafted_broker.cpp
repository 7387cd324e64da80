#include "domains/comm/handcrafted_broker.hpp"

namespace mdsm::comm {

using model::Value;

HandcraftedCommBroker::HandcraftedCommBroker(CommSessionService& service,
                                             runtime::EventBus& bus,
                                             policy::ContextStore& context)
    : bus_(&bus), context_(&context), resources_(bus, metrics_) {
  auto adapter = std::make_unique<CommServiceAdapter>(service, "comm");
  // The adapter registry cannot fail here (fresh manager, unique name).
  (void)resources_.add_adapter(std::move(adapter));
  // Hand-coded failure recovery, mirroring the autonomic rule the
  // model-based broker loads from its middleware model.
  subscription_ = bus.subscribe(
      "resource.link.lost", [this](const runtime::Event& event) {
        Value session = context_->get("active.session");
        if (!session.is_string() || !event.payload.is_string()) return;
        broker::Args args;
        args["session"] = session;
        args["address"] = event.payload;
        if (invoke("party.reconnect", args).ok()) {
          ++recoveries_;
          bus_->publish("ncb.party.recovered", "handcrafted-ncb",
                        event.payload);
        }
      });
}

HandcraftedCommBroker::~HandcraftedCommBroker() {
  bus_->unsubscribe(subscription_);
}

std::string HandcraftedCommBroker::select_quality() const {
  // Identical thresholds to the guarded actions of the middleware model.
  Value bandwidth = context_->get("bandwidth");
  double value = bandwidth.is_number() ? bandwidth.as_number() : 1.0;
  if (value >= 2.0) return "high";
  if (value < 0.5) return "low";
  return "standard";
}

Result<Value> HandcraftedCommBroker::invoke(const char* command,
                                            const broker::Args& args) {
  return runtime::run_inline(resources_.invoke("comm", command, args));
}

runtime::Task<Result<Value>> HandcraftedCommBroker::call(
    const broker::Call& call, obs::RequestContext& context) {
  // The baseline participates in request tracing on the same terms as the
  // model-based broker (Exp-2 compares like with like).
  obs::ScopedSpan span(context, "broker.call", call.name);
  auto arg = [&call](std::string_view key) -> Value {
    auto it = call.args.find(key);
    return it == call.args.end() ? Value{} : it->second;
  };
  if (call.name == "ncb.session.create") {
    broker::Args args;
    args["id"] = arg("id");
    Result<Value> invoked = invoke("session.create", args);
    if (!invoked.ok()) co_return invoked;
    state_.set("sessions.active", Value(state_.get("sessions.active").is_int()
                                            ? state_.get("sessions.active").as_int() + 1
                                            : 1));
    context_->set("active.session", arg("id"));
    bus_->publish("ncb.session.created", "handcrafted-ncb", arg("id"));
    co_return invoked;
  }
  if (call.name == "ncb.session.teardown") {
    broker::Args args;
    args["id"] = arg("id");
    Result<Value> invoked = invoke("session.teardown", args);
    if (!invoked.ok()) co_return invoked;
    bus_->publish("ncb.session.closed", "handcrafted-ncb", arg("id"));
    co_return invoked;
  }
  if (call.name == "ncb.party.add") {
    broker::Args args;
    args["session"] = arg("session");
    args["address"] = arg("address");
    co_return invoke("party.add", args);
  }
  if (call.name == "ncb.party.remove") {
    broker::Args args;
    args["session"] = arg("session");
    args["address"] = arg("address");
    co_return invoke("party.remove", args);
  }
  if (call.name == "ncb.party.reconnect") {
    broker::Args args;
    args["session"] = arg("session");
    args["address"] = arg("address");
    co_return invoke("party.reconnect", args);
  }
  if (call.name == "ncb.media.open") {
    broker::Args args;
    args["session"] = arg("session");
    args["id"] = arg("id");
    args["kind"] = arg("kind");
    args["live"] = arg("live");
    args["quality"] = Value(select_quality());
    co_return invoke("media.open", args);
  }
  if (call.name == "ncb.media.close") {
    broker::Args args;
    args["session"] = arg("session");
    args["id"] = arg("id");
    co_return invoke("media.close", args);
  }
  if (call.name == "ncb.media.retune") {
    broker::Args args;
    args["session"] = arg("session");
    args["id"] = arg("id");
    args["quality"] = arg("quality");
    co_return invoke("media.retune", args);
  }
  co_return NotFound("handcrafted NCB has no operation '" + call.name + "'");
}

}  // namespace mdsm::comm
