#include "domains/crowd/fleet.hpp"

#include <cmath>

#include "common/log.hpp"
#include "domains/crowd/csml.hpp"

namespace mdsm::crowd {

using model::ChangeKind;
using model::Value;
using model::ValueList;

double QueryAggregate::result() const {
  if (aggregate == "count") return static_cast<double>(count);
  if (count == 0) return 0.0;
  if (aggregate == "min") return min;
  if (aggregate == "max") return max;
  return sum / static_cast<double>(count);  // avg
}

/// Provider-side resource folding reports into aggregates.
class AggregatorAdapter final : public broker::ResourceAdapter {
 public:
  explicit AggregatorAdapter(CrowdProvider& provider)
      : ResourceAdapter("aggregator"), provider_(&provider) {}

  Result<Value> execute(const std::string& command,
                        const broker::Args& args) override {
    if (command != "fold") {
      return NotFound("aggregator has no command '" + command + "'");
    }
    auto query_it = args.find("query");
    auto value_it = args.find("value");
    auto agg_it = args.find("aggregate");
    if (query_it == args.end() || !query_it->second.is_string() ||
        value_it == args.end() || !value_it->second.is_number()) {
      return InvalidArgument("fold requires query + numeric value");
    }
    QueryAggregate& aggregate =
        provider_->queries_[query_it->second.as_string()];
    if (agg_it != args.end() && agg_it->second.is_string()) {
      aggregate.aggregate = agg_it->second.as_string();
    }
    double value = value_it->second.as_number();
    if (aggregate.count == 0) {
      aggregate.min = value;
      aggregate.max = value;
    } else {
      aggregate.min = std::min(aggregate.min, value);
      aggregate.max = std::max(aggregate.max, value);
    }
    aggregate.sum += value;
    ++aggregate.count;
    ++provider_->reports_;
    return Value(aggregate.result());
  }

 private:
  CrowdProvider* provider_;
};

/// Device-side resource: manages active sampling for the device's
/// queries. Commands: start(id,sensor,aggregate,period), retune(id,
/// period), stop(id).
class SensorAdapter final : public broker::ResourceAdapter {
 public:
  explicit SensorAdapter(CrowdDevice& device)
      : ResourceAdapter("sensors"), device_(&device) {}

  Result<Value> execute(const std::string& command,
                        const broker::Args& args) override {
    auto str = [&args](std::string_view key) -> std::string {
      auto it = args.find(key);
      return it != args.end() && it->second.is_string()
                 ? it->second.as_string()
                 : std::string{};
    };
    auto integer = [&args](std::string_view key) -> std::int64_t {
      auto it = args.find(key);
      return it != args.end() && it->second.is_int() ? it->second.as_int()
                                                     : 0;
    };
    const std::string id = str("id");
    if (command == "start") {
      if (device_->queries_.contains(id)) {
        return AlreadyExists("query '" + id + "' already sampling");
      }
      std::int64_t period_s = integer("period");
      if (period_s <= 0) return InvalidArgument("period must be positive");
      CrowdDevice::ActiveQuery query;
      query.sensor = str("sensor");
      query.aggregate = str("aggregate");
      query.period = std::chrono::seconds(period_s);
      device_->queries_[id] = std::move(query);
      device_->schedule(id);
      return Value(true);
    }
    if (command == "retune") {
      auto it = device_->queries_.find(id);
      if (it == device_->queries_.end()) {
        return NotFound("query '" + id + "' not sampling");
      }
      std::int64_t period_s = integer("period");
      if (period_s <= 0) return InvalidArgument("period must be positive");
      it->second.period = std::chrono::seconds(period_s);
      // Reschedule: cancel the pending tick, schedule with the new period.
      device_->timers_.cancel(it->second.timer_id);
      device_->schedule(id);
      return Value(true);
    }
    if (command == "stop") {
      auto it = device_->queries_.find(id);
      if (it == device_->queries_.end()) {
        return NotFound("query '" + id + "' not sampling");
      }
      device_->timers_.cancel(it->second.timer_id);
      device_->queries_.erase(it);
      return Value(true);
    }
    return NotFound("sensors have no command '" + command + "'");
  }

 private:
  CrowdDevice* device_;
};

namespace {

/// CSML synthesis semantics.
synthesis::Lts make_csml_lts() {
  synthesis::Lts lts("initial");
  lts.on("initial", ChangeKind::kAddObject, "SensingQuery", "", "running",
         {{"cs.query.start",
           {{"id", Value("%id")},
            {"sensor", Value("%attr:sensor")},
            {"aggregate", Value("%attr:aggregate")},
            {"period", Value("%attr:period_s")}}}});
  // Creation emits period_s/active defaults too; "running" absorbs the
  // initial period set (same value) via an idempotent retune.
  lts.on("running", ChangeKind::kSetAttribute, "SensingQuery", "period_s",
         "running",
         {{"cs.query.retune",
           {{"id", Value("%id")}, {"period", Value("%new")}}}});
  lts.on("running", ChangeKind::kSetAttribute, "SensingQuery", "active",
         "stopped", {{"cs.query.stop", {{"id", Value("%id")}}}}, "",
         Value(false));
  lts.on("running", ChangeKind::kRemoveObject, "SensingQuery", "", "gone",
         {{"cs.query.stop", {{"id", Value("%id")}}}});
  return lts;
}

}  // namespace

CrowdProvider::CrowdProvider(net::Network& network) {
  broker_ = std::make_unique<broker::BrokerLayer>("provider-broker", bus_,
                                                  context_, metrics_);
  (void)broker_->resources().add_adapter(
      std::make_unique<AggregatorAdapter>(*this));
  broker::Action fold;
  fold.name = "fold-report";
  fold.steps = {broker::invoke_step("aggregator", "fold",
                                    {{"query", Value("$query")},
                                     {"value", Value("$value")},
                                     {"aggregate", Value("$aggregate")}})};
  (void)broker_->register_action(std::move(fold));
  (void)broker_->bind_handler("cs.report", {"fold-report"});
  controller_ = std::make_unique<controller::ControllerLayer>(
      "provider-controller", *broker_, bus_, context_, metrics_);
  controller::ControllerAction forward;
  forward.name = "fwd-report";
  forward.body = {controller::broker_call("cs.report",
                                          {{"query", Value("$query")},
                                           {"value", Value("$value")},
                                           {"aggregate",
                                            Value("$aggregate")}})};
  (void)controller_->register_action(std::move(forward));
  (void)controller_->bind_action("cs.report", {"fwd-report"});
  (void)broker_->start();
  (void)controller_->start();

  auto endpoint = network.create_endpoint("provider");
  if (endpoint.ok()) {
    endpoint.value()->set_handler([this](const net::Message& message) {
      if (message.topic != "cs.report" || !message.payload.is_list()) return;
      const ValueList& items = message.payload.as_list();
      if (items.size() != 3) return;
      controller::Command command;
      command.name = "cs.report";
      command.args["query"] = items[0];
      command.args["value"] = items[1];
      command.args["aggregate"] = items[2];
      (void)controller_->submit_command(std::move(command));
      controller_->process_pending();
    });
  }
}

const QueryAggregate* CrowdProvider::query(std::string_view id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : &it->second;
}

CrowdDevice::CrowdDevice(std::string id, std::uint32_t seed,
                         net::Network& network, SimClock& clock)
    : id_(std::move(id)),
      seed_(seed),
      timers_({.clock = &clock, .threaded = false}) {
  broker_ = std::make_unique<broker::BrokerLayer>(id_ + "-broker", bus_,
                                                  context_, metrics_);
  (void)broker_->resources().add_adapter(
      std::make_unique<SensorAdapter>(*this));
  broker::Action start;
  start.name = "q-start";
  start.steps = {broker::invoke_step("sensors", "start",
                                     {{"id", Value("$id")},
                                      {"sensor", Value("$sensor")},
                                      {"aggregate", Value("$aggregate")},
                                      {"period", Value("$period")}})};
  broker::Action retune;
  retune.name = "q-retune";
  retune.steps = {broker::invoke_step(
      "sensors", "retune", {{"id", Value("$id")},
                            {"period", Value("$period")}})};
  broker::Action stop;
  stop.name = "q-stop";
  stop.steps = {broker::invoke_step("sensors", "stop",
                                    {{"id", Value("$id")}})};
  (void)broker_->register_action(std::move(start));
  (void)broker_->register_action(std::move(retune));
  (void)broker_->register_action(std::move(stop));
  (void)broker_->bind_handler("cs.query.start", {"q-start"});
  (void)broker_->bind_handler("cs.query.retune", {"q-retune"});
  (void)broker_->bind_handler("cs.query.stop", {"q-stop"});

  controller_ = std::make_unique<controller::ControllerLayer>(
      id_ + "-controller", *broker_, bus_, context_, metrics_);
  for (const char* command :
       {"cs.query.start", "cs.query.retune", "cs.query.stop"}) {
    controller::ControllerAction action;
    action.name = std::string("fwd-") + command;
    controller::Instruction instruction;
    instruction.op = controller::OpCode::kBrokerCall;
    instruction.a = command;
    for (const char* key : {"id", "sensor", "aggregate", "period"}) {
      instruction.args[key] = Value(std::string("$") + key);
    }
    action.body = {std::move(instruction)};
    (void)controller_->register_action(std::move(action));
    (void)controller_->bind_action(command, {std::string("fwd-") + command});
  }
  (void)broker_->start();
  (void)controller_->start();

  controller::ControllerLayer* controller = controller_.get();
  synthesis_ = std::make_unique<synthesis::SynthesisEngine>(
      id_ + "-synthesis", csml_metamodel(), make_csml_lts(), context_,
      metrics_, obs::steady_clock(),
      [controller](const controller::ControlScript& script,
                   obs::RequestContext& request) {
        return runtime::run_inline(
            controller->execute_script(script, request));
      });
  (void)synthesis_->start();

  auto endpoint = network.create_endpoint(id_);
  if (endpoint.ok()) endpoint_ = endpoint.value();
}

Result<controller::ControlScript> CrowdDevice::submit_model_text(
    std::string_view text, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  Result<synthesis::SynthesisEngine::Draft> read =
      synthesis_->read_text(text, context.session());
  if (!read.ok()) return read.status();
  // On-the-fly updates to an already-sampling device (retune/stop of a
  // running query) are control-plane traffic: tag the request so shared
  // bounded pipelines dequeue it through the high-priority lane ahead of
  // bulk query starts.
  if (!queries_.empty()) context.set_attribute("priority", "high");
  obs::ScopedSpan span(context, "ui.submit", read->model.name());
  obs::ScopedSpan synthesis(context, "synthesis.submit", read->model.name());
  requests_submitted_.add();
  Result<controller::ControlScript> script =
      synthesis_->submit(std::move(read.value()), context);
  if (!script.ok()) requests_failed_.add();
  return script;
}

Result<controller::ControlScript> CrowdDevice::submit_model_text(
    std::string_view text) {
  last_context_ = std::make_unique<obs::RequestContext>(obs::steady_clock(),
                                                        &metrics_);
  return submit_model_text(text, *last_context_);
}

double CrowdDevice::reading(const std::string& sensor,
                            std::uint64_t index) const {
  // Deterministic synthetic signal: a sensor-specific baseline plus a
  // device offset plus a slow sinusoid over the sample index.
  double base = sensor == "temperature" ? 20.0
                : sensor == "noise"     ? 55.0
                                        : 40.0;  // air_quality
  double device_offset = static_cast<double>(seed_ % 17) * 0.25;
  double wave = 2.0 * std::sin(static_cast<double>(index) / 7.0 +
                               static_cast<double>(seed_ % 5));
  return base + device_offset + wave;
}

void CrowdDevice::schedule(const std::string& query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  it->second.timer_id =
      timers_.schedule(it->second.period, [this, query_id] {
        sample(query_id);
      });
}

void CrowdDevice::sample(const std::string& query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;  // stopped meanwhile
  ActiveQuery& query = it->second;
  double value = reading(query.sensor, query.sample_index++);
  ++samples_;
  if (endpoint_ != nullptr) {
    (void)endpoint_->send(
        "provider", "cs.report",
        Value(ValueList{Value(query_id), Value(value),
                        Value(query.aggregate)}));
  }
  schedule(query_id);  // periodic: re-arm
}

std::size_t CrowdDevice::run_due() { return timers_.poll(); }

std::size_t CrowdDevice::active_queries() const noexcept {
  return queries_.size();
}

CrowdDevice& CrowdFleet::add_device(const std::string& id,
                                    std::uint32_t seed) {
  devices.push_back(std::make_unique<CrowdDevice>(id, seed, network, clock));
  return *devices.back();
}

void CrowdFleet::advance(Duration step, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    clock.advance(step);
    for (auto& device : devices) device->run_due();
    network.run_until_idle();
  }
}

std::unique_ptr<CrowdFleet> make_fleet() {
  auto fleet = std::make_unique<CrowdFleet>();
  fleet->provider = std::make_unique<CrowdProvider>(fleet->network);
  return fleet;
}

}  // namespace mdsm::crowd
