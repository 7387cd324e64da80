#include "controller/controller_layer.hpp"

#include <atomic>

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

// ---- the signal state machine (inline or async; DESIGN.md §6b) ------
//
// Commands run through the engine's entry point of the run's mode. In
// async mode a command whose broker call parks suspends the run, and the
// rest — remaining commands, then the signal-queue drain — resumes on
// the settling thread.

struct ControllerLayer::ScriptRun {
  const ControlScript* script = nullptr;  ///< null for a bare drain
  obs::RequestContext* context = nullptr;
  bool inline_mode = false;
  ScriptCallback done;
  std::uint64_t script_span = 0;  ///< "controller.script", closed at end
  std::size_t index = 0;          ///< next script command
  std::size_t drained = 0;        ///< queued signals processed so far
  Command signal;                 ///< the drained signal in flight
};

Result<model::Value> ControllerLayer::execute_command(
    const Command& command, obs::RequestContext& context) {
  return run_inline<Result<model::Value>>([&](CommandCallback done) {
    run_command(command, context, true, std::move(done));
  });
}

Status ControllerLayer::execute_script(const ControlScript& script,
                                       obs::RequestContext& context) {
  return run_inline<Status>([&](ScriptCallback done) {
    start_script(script, context, true, std::move(done));
  });
}

void ControllerLayer::execute_script_async(const ControlScript& script,
                                           obs::RequestContext& context,
                                           ScriptCallback done) {
  start_script(script, context, false, std::move(done));
}

std::size_t ControllerLayer::process_pending(obs::RequestContext& context) {
  auto run = std::make_shared<ScriptRun>();
  run->context = &context;
  run->inline_mode = true;
  run->done = [](Status) {};
  drive_script(run);
  return run->drained;
}

void ControllerLayer::start_script(const ControlScript& script,
                                   obs::RequestContext& context,
                                   bool inline_mode, ScriptCallback done) {
  obs::ContextScope ambient(context);
  auto run = std::make_shared<ScriptRun>();
  run->script = &script;
  run->context = &context;
  run->inline_mode = inline_mode;
  run->done = std::move(done);
  run->script_span = context.open_span(
      script_span_,
      std::to_string(run->script->commands.size()) + " commands");
  if (Status deadline = context.check_deadline("controller");
      !deadline.ok()) {
    context.close_span(run->script_span);
    run->done(deadline);
    return;
  }
  drive_script(std::move(run));
}

void ControllerLayer::drive_script(std::shared_ptr<ScriptRun> run) {
  obs::ContextScope ambient(*run->context);
  // Signals enqueued during processing (events raised by executions) are
  // drained too, up to a sanity bound. Pop one signal per lock hold:
  // executions themselves run unlocked, so concurrent drainers interleave
  // instead of serializing on the queue.
  constexpr std::size_t kMaxBatch = 100000;
  while (true) {
    const Command* command = nullptr;
    bool event = false;
    if (run->script != nullptr && run->index < run->script->commands.size()) {
      command = &run->script->commands[run->index++];
      signals_received_.add();
      script_signals_.add();
    } else {
      // Script done: drain the signal queue (event signals the executions
      // raised — kEmit → subscribed topic — and submitted calls).
      if (run->drained >= kMaxBatch) break;
      Signal signal;
      {
        std::lock_guard lock(queue_mutex_);
        if (queue_.empty()) break;
        signal = std::move(queue_.front());
        queue_.pop_front();
      }
      ++run->drained;
      event = signal.kind == SignalKind::kEvent;
      run->signal = Command{std::move(signal.name), std::move(signal.args)};
      command = &run->signal;
    }
    const std::uint64_t span =
        run->context->open_span(signal_span_, command->name);
    if (event) {
      events_handled_.add();
      // Events are handled by Case-1 actions bound to the topic; an
      // unbound event is simply observed (layers subscribe selectively).
      std::shared_lock lock(config_mutex_);
      if (!bindings_.contains(command->name)) {
        lock.unlock();
        run->context->close_span(span);
        continue;
      }
    }
    // Trampoline: inline completions continue this loop; a parked
    // command's completion re-enters drive_script on the settling thread.
    // Errors are counted and published as "controller.error" events, not
    // returned — one bad command must not wedge the script or the queue.
    auto turn = std::make_shared<std::atomic<int>>(0);
    CommandCallback settled = [this, run, turn, span, command,
                               event](Result<model::Value> outcome) {
      if (!outcome.ok()) {
        errors_.add();
        bus_->publish("controller.error", name(),
                      model::Value((event ? command->name
                                          : command->to_text()) +
                                   ": " + outcome.status().to_string()));
      }
      run->context->close_span(span);
      if (turn->exchange(2, std::memory_order_acq_rel) == 1) {
        drive_script(run);
      }
    };
    if (event) {
      run_case1(*command, *run->context, run->inline_mode,
                std::move(settled));
    } else {
      run_command(*command, *run->context, run->inline_mode,
                  std::move(settled));
    }
    if (turn->exchange(1, std::memory_order_acq_rel) == 0) {
      return;  // parked: the command's completion resumes the run
    }
  }
  run->context->close_span(run->script_span);
  run->done(Status::Ok());
}

void ControllerLayer::run_command(const Command& command,
                                  obs::RequestContext& context,
                                  bool inline_mode, CommandCallback done) {
  obs::ContextScope ambient(context);
  if (Status deadline = context.check_deadline("controller");
      !deadline.ok()) {
    done(deadline);
    return;
  }
  Result<Case> which = classify(command);
  if (!which.ok()) {
    done(which.status());
    return;
  }
  MDSM_LOG_DEBUG("controller")
      << name() << " " << command.to_text() << " -> "
      << (*which == Case::kCase1 ? "case1" : "case2");
  if (*which == Case::kCase1) {
    run_case1(command, context, inline_mode, std::move(done));
  } else {
    run_case2(command, context, inline_mode, std::move(done));
  }
}

void ControllerLayer::run_case1(const Command& command,
                                obs::RequestContext& context,
                                bool inline_mode, CommandCallback done) {
  // Select under the shared lock, execute outside it (action nodes are
  // never removed, so `best` — and its body — outlive the run).
  const ControllerAction* best = nullptr;
  {
    std::shared_lock lock(config_mutex_);
    auto it = bindings_.find(command.name);
    if (it == bindings_.end()) {
      lock.unlock();
      done(NotFound("no action bound to command '" + command.name + "'"));
      return;
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
    done(FailedPrecondition("no applicable action for command '" +
                            command.name + "' in current context"));
    return;
  }
  case1_executions_.add();
  commands_executed_.add();
  engine_.start(nullptr, &best->body, command.args, context, inline_mode,
                std::move(done));
}

void ControllerLayer::run_case2(const Command& command,
                                obs::RequestContext& context,
                                bool inline_mode, CommandCallback done) {
  std::string dsc;
  {
    std::shared_lock lock(config_mutex_);
    auto it = command_dsc_.find(command.name);
    dsc = it != command_dsc_.end() ? it->second : command.name;
  }
  if (!dscs_.contains(dsc)) {
    done(NotFound("command '" + command.name +
                  "' resolves to unknown DSC '" + dsc + "'"));
    return;
  }
  Result<IntentModelPtr> intent_model =
      generator_.generate_cached(dsc, selection_strategy());
  if (!intent_model.ok()) {
    done(intent_model.status());
    return;
  }
  case2_executions_.add();
  commands_executed_.add();
  const IntentModelPtr& pinned = intent_model.value();
  if (!inline_mode) {
    // The cache may evict the IM while the run is parked mid-execution:
    // the completion capture keeps it alive.
    done = [pinned, done = std::move(done)](Result<model::Value> r) {
      done(std::move(r));
    };
  }
  engine_.start(pinned.get(), nullptr, command.args, context, inline_mode,
                std::move(done));
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
