#include "controller/controller_layer.hpp"

#include "common/log.hpp"

namespace mdsm::controller {

ControllerLayer::ControllerLayer(std::string name, broker::BrokerApi& broker,
                                 runtime::EventBus& bus,
                                 policy::ContextStore& context,
                                 obs::MetricsRegistry& metrics,
                                 GeneratorConfig generator_config)
    : Component(std::move(name)),
      broker_(&broker),
      bus_(&bus),
      context_(&context),
      signals_received_(metrics.counter("controller.signals_received")),
      script_signals_(metrics.counter("controller.signals")),
      commands_executed_(metrics.counter("controller.commands")),
      case1_executions_(metrics.counter("controller.case1")),
      case2_executions_(metrics.counter("controller.case2")),
      errors_(metrics.counter("controller.errors")),
      events_handled_(metrics.counter("controller.events_handled")),
      script_span_(metrics, "controller.script"),
      signal_span_(metrics, "controller.signal"),
      generator_(dscs_, repository_, context, metrics, generator_config),
      engine_(broker, bus, context, metrics) {}

Status ControllerLayer::add_procedure(Procedure procedure) {
  if (!dscs_.contains(procedure.classifier)) {
    return NotFound("procedure '" + procedure.name +
                    "' classified by unknown DSC '" + procedure.classifier +
                    "'");
  }
  for (const std::string& dependency : procedure.dependencies) {
    if (!dscs_.contains(dependency)) {
      return NotFound("procedure '" + procedure.name +
                      "' depends on unknown DSC '" + dependency + "'");
    }
  }
  return repository_.add(std::move(procedure));
}

Status ControllerLayer::register_action(ControllerAction action) {
  const std::string name = action.name;
  std::unique_lock lock(config_mutex_);
  auto [it, inserted] = actions_.emplace(name, std::move(action));
  if (!inserted) {
    return AlreadyExists("controller action '" + name +
                         "' already registered");
  }
  return Status::Ok();
}

Status ControllerLayer::bind_action(const std::string& command,
                                    std::vector<std::string> action_names) {
  std::unique_lock lock(config_mutex_);
  for (const std::string& action_name : action_names) {
    if (!actions_.contains(action_name)) {
      return NotFound("binding for '" + command + "' names unknown action '" +
                      action_name + "'");
    }
  }
  auto& bound = bindings_[command];
  for (std::string& action_name : action_names) {
    bound.push_back(std::move(action_name));
  }
  return Status::Ok();
}

Status ControllerLayer::map_command(const std::string& command,
                                    const std::string& dsc) {
  if (!dscs_.contains(dsc)) {
    return NotFound("command '" + command + "' mapped to unknown DSC '" +
                    dsc + "'");
  }
  std::unique_lock lock(config_mutex_);
  command_dsc_[command] = dsc;
  return Status::Ok();
}

void ControllerLayer::attach_event_topic(const std::string& topic) {
  subscriptions_.push_back(
      bus_->subscribe(topic, [this](const runtime::Event& event) {
        broker::Args args;
        args["event.payload"] = event.payload;
        args["event.source"] = model::Value(event.source);
        enqueue({SignalKind::kEvent, event.topic, std::move(args)});
      }));
}

void ControllerLayer::enqueue(Signal signal) {
  {
    std::lock_guard lock(queue_mutex_);
    queue_.push_back(std::move(signal));
  }
  signals_received_.add();
}

Status ControllerLayer::submit_script(const ControlScript& script,
                                      obs::RequestContext& context) {
  MDSM_RETURN_IF_ERROR(context.check_deadline("controller"));
  for (const Command& command : script.commands) {
    enqueue({SignalKind::kCall, command.name, command.args});
    script_signals_.add();
  }
  return Status::Ok();
}

Status ControllerLayer::submit_command(Command command) {
  enqueue({SignalKind::kCall, std::move(command.name),
           std::move(command.args)});
  return Status::Ok();
}

Result<ControllerLayer::Case> ControllerLayer::classify(
    const Command& command) const {
  // Domain policies see the command name as a transient *overlay* binding
  // — the shared context store itself is untouched, so concurrent
  // classifications neither race each other nor churn the context
  // version the IM cache keys on.
  policy::ContextOverlay view(*context_);
  view.bind("command.name", command.name);
  auto decision = classification_policies_.evaluate(view);
  if (decision.has_value()) {
    if (decision->decision == "case1") return Case::kCase1;
    if (decision->decision == "case2") return Case::kCase2;
    return Internal("classification policy '" + decision->policy_name +
                    "' yielded unknown case '" + decision->decision + "'");
  }
  // Defaults: a bound action wins; otherwise a DSC mapping (or a DSC
  // named like the command) selects dynamic generation.
  {
    std::shared_lock lock(config_mutex_);
    if (bindings_.contains(command.name)) return Case::kCase1;
    if (command_dsc_.contains(command.name)) return Case::kCase2;
  }
  if (dscs_.contains(command.name)) return Case::kCase2;
  return NotFound("command '" + command.name +
                  "' has neither a bound action nor a DSC mapping");
}

SelectionStrategy ControllerLayer::selection_strategy() const {
  auto decision = selection_policies_.evaluate(*context_);
  if (!decision.has_value()) return SelectionStrategy::kMinCost;
  if (decision->decision == "max-quality") {
    return SelectionStrategy::kMaxQuality;
  }
  if (decision->decision == "first-valid") {
    return SelectionStrategy::kFirstValid;
  }
  return SelectionStrategy::kMinCost;
}

// ---- the signal coroutines (DESIGN.md §6b/§6e) ----------------------
//
// A script runs its commands, then drains the signal queue. A command
// whose broker call parks suspends the run, and the rest resumes on the
// settling thread.

runtime::Task<Status> ControllerLayer::execute_script(
    const ControlScript& script, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  const std::uint64_t script_span = context.open_span(
      script_span_, std::to_string(script.commands.size()) + " commands");
  if (Status deadline = context.check_deadline("controller");
      !deadline.ok()) {
    context.close_span(script_span);
    co_return deadline;
  }
  for (const Command& command : script.commands) {
    signals_received_.add();
    script_signals_.add();
    co_await run_signal(command, false, context);
  }
  co_await drain(context);
  context.close_span(script_span);
  co_return Status::Ok();
}

runtime::Task<std::size_t> ControllerLayer::drain(
    obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  // Signals enqueued during processing (events raised by executions) are
  // drained too, up to a sanity bound. Pop one signal per lock hold:
  // executions themselves run unlocked, so concurrent drainers interleave
  // instead of serializing on the queue.
  constexpr std::size_t kMaxBatch = 100000;
  std::size_t drained = 0;
  while (drained < kMaxBatch) {
    Signal signal;
    {
      std::lock_guard lock(queue_mutex_);
      if (queue_.empty()) break;
      signal = std::move(queue_.front());
      queue_.pop_front();
    }
    ++drained;
    const Command command{std::move(signal.name), std::move(signal.args)};
    co_await run_signal(command, signal.kind == SignalKind::kEvent, context);
  }
  co_return drained;
}

runtime::Task<> ControllerLayer::run_signal(const Command& command,
                                            bool event,
                                            obs::RequestContext& context) {
  const std::uint64_t span = context.open_span(signal_span_, command.name);
  if (event) {
    events_handled_.add();
    // Events are handled by Case-1 actions bound to the topic; an
    // unbound event is simply observed (layers subscribe selectively).
    bool bound = false;
    {
      std::shared_lock lock(config_mutex_);
      bound = bindings_.contains(command.name);
    }
    if (!bound) {
      context.close_span(span);
      co_return;
    }
  }
  // Errors are counted and published as "controller.error" events, not
  // returned — one bad command must not wedge the script or the queue.
  runtime::Task<Result<model::Value>> run =
      event ? run_case1(command, context) : execute_command(command, context);
  Result<model::Value> outcome = co_await std::move(run);
  if (!outcome.ok()) {
    errors_.add();
    bus_->publish("controller.error", name(),
                  model::Value((event ? command.name : command.to_text()) +
                               ": " + outcome.status().to_string()));
  }
  context.close_span(span);
}

// Classification and action selection run when the command is issued;
// the task handed back is the engine run (or an error, at once).

runtime::Task<Result<model::Value>> ControllerLayer::execute_command(
    const Command& command, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  if (Status deadline = context.check_deadline("controller");
      !deadline.ok()) {
    return runtime::ready<Result<model::Value>>(std::move(deadline));
  }
  Result<Case> which = classify(command);
  if (!which.ok()) return runtime::ready<Result<model::Value>>(which.status());
  MDSM_LOG_DEBUG("controller")
      << name() << " " << command.to_text() << " -> "
      << (*which == Case::kCase1 ? "case1" : "case2");
  return *which == Case::kCase1 ? run_case1(command, context)
                                : run_case2(command, context);
}

runtime::Task<Result<model::Value>> ControllerLayer::run_case1(
    const Command& command, obs::RequestContext& context) {
  // Select under the shared lock, execute outside it (action nodes are
  // never removed, so `best` — and its body — outlive the run).
  const ControllerAction* best = nullptr;
  {
    std::shared_lock lock(config_mutex_);
    auto it = bindings_.find(command.name);
    if (it == bindings_.end()) {
      return runtime::ready<Result<model::Value>>(NotFound(
          "no action bound to command '" + command.name + "'"));
    }
    for (const std::string& action_name : it->second) {
      auto action_it = actions_.find(action_name);
      if (action_it == actions_.end()) continue;
      const ControllerAction& action = action_it->second;
      Result<bool> applicable = action.guard.evaluate_bool(*context_);
      if (!applicable.ok() || !*applicable) continue;
      if (best == nullptr || action.priority > best->priority) best = &action;
    }
  }
  if (best == nullptr) {
    return runtime::ready<Result<model::Value>>(
        FailedPrecondition("no applicable action for command '" +
                           command.name + "' in current context"));
  }
  case1_executions_.add();
  commands_executed_.add();
  return engine_.execute_flat(best->body, command.args, context);
}

runtime::Task<Result<model::Value>> ControllerLayer::run_case2(
    const Command& command, obs::RequestContext& context) {
  std::string dsc;
  {
    std::shared_lock lock(config_mutex_);
    auto it = command_dsc_.find(command.name);
    dsc = it != command_dsc_.end() ? it->second : command.name;
  }
  if (!dscs_.contains(dsc)) {
    return runtime::ready<Result<model::Value>>(
        NotFound("command '" + command.name +
                 "' resolves to unknown DSC '" + dsc + "'"));
  }
  Result<IntentModelPtr> intent_model =
      generator_.generate_cached(dsc, selection_strategy());
  if (!intent_model.ok()) {
    return runtime::ready<Result<model::Value>>(intent_model.status());
  }
  case2_executions_.add();
  commands_executed_.add();
  // The run pins the IM: the cache may evict it while the run is parked.
  return engine_.execute(std::move(intent_model.value()), command.args,
                         context);
}

ControllerStats ControllerLayer::stats() const {
  return {.signals_received = signals_received_.value(),
          .commands_executed = commands_executed_.value(),
          .case1_executions = case1_executions_.value(),
          .case2_executions = case2_executions_.value(),
          .errors = errors_.value(),
          .events_handled = events_handled_.value()};
}

std::size_t ControllerLayer::queued() const {
  std::lock_guard lock(queue_mutex_);
  return queue_.size();
}

}  // namespace mdsm::controller
