#include "broker/broker_layer.hpp"

#include "common/log.hpp"

namespace mdsm::broker {

BrokerLayer::BrokerLayer(std::string name, runtime::EventBus& bus,
                         policy::ContextStore& context,
                         obs::MetricsRegistry& metrics)
    : Component(std::move(name)),
      bus_(&bus),
      context_(&context),
      calls_handled_(metrics.counter("broker.calls")),
      events_received_(metrics.counter("broker.events_received")),
      events_dispatched_(metrics.counter("broker.events")),
      call_span_(metrics, "broker.call"),
      event_span_(metrics, "broker.event"),
      resources_(bus, metrics) {
  autonomic_ = std::make_unique<AutonomicManager>(
      bus, context, metrics,
      [this](const std::vector<ActionStep>& steps, const Args& args) {
        Result<model::Value> result =
            runtime::run_inline(execute_steps(steps, args));
        return result.ok() ? Status::Ok() : result.status();
      });
}

Status BrokerLayer::register_action(Action action) {
  const std::string name = action.name;
  std::unique_lock lock(config_mutex_);
  auto [it, inserted] = actions_.emplace(name, std::move(action));
  if (!inserted) {
    return AlreadyExists("action '" + name + "' already registered");
  }
  return Status::Ok();
}

Status BrokerLayer::bind_handler(const std::string& signal,
                                 std::vector<std::string> action_names) {
  std::unique_lock lock(config_mutex_);
  for (const std::string& action_name : action_names) {
    if (!actions_.contains(action_name)) {
      return NotFound("handler for '" + signal + "' binds unknown action '" +
                      action_name + "'");
    }
  }
  Handler& handler = handlers_[signal];
  handler.signal = signal;
  for (std::string& action_name : action_names) {
    handler.action_names.push_back(std::move(action_name));
  }
  return Status::Ok();
}

Result<const Action*> BrokerLayer::select_action(
    const std::string& signal) const {
  // Select under the shared lock; the returned pointer stays valid after
  // release because actions are never removed (node-based map).
  std::shared_lock lock(config_mutex_);
  auto it = handlers_.find(signal);
  if (it == handlers_.end()) {
    return NotFound("broker '" + name() + "' has no handler for signal '" +
                    signal + "'");
  }
  const Action* best = nullptr;
  for (const std::string& action_name : it->second.action_names) {
    auto action_it = actions_.find(action_name);
    if (action_it == actions_.end()) continue;
    const Action& action = action_it->second;
    Result<bool> applicable = action.guard.evaluate_bool(*context_);
    if (!applicable.ok() || !*applicable) continue;
    if (best == nullptr || action.priority > best->priority) {
      best = &action;
    }
  }
  if (best == nullptr) {
    return FailedPrecondition("no applicable action for signal '" + signal +
                              "' in current context");
  }
  return best;
}

runtime::Task<Result<model::Value>> BrokerLayer::call(
    const Call& broker_call, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  calls_handled_.add();
  // The steps close the span when they finish, not a ScopedSpan: the
  // call may park and complete on another thread.
  const std::uint64_t span = context.open_span(call_span_, broker_call.name);
  Status deadline = context.check_deadline("broker");
  Result<const Action*> action = deadline.ok()
                                     ? select_action(broker_call.name)
                                     : Result<const Action*>(deadline);
  if (!action.ok()) {
    context.close_span(span);
    return runtime::ready<Result<model::Value>>(action.status());
  }
  MDSM_LOG_DEBUG("broker") << name() << " call " << broker_call.name
                           << " -> action " << (*action)->name;
  return run_steps((*action)->steps, broker_call.args, context, span);
}

Status BrokerLayer::handle_event(const std::string& topic,
                                 model::Value payload,
                                 obs::RequestContext& context) {
  events_received_.add();
  Result<const Action*> action = select_action(topic);
  if (!action.ok()) {
    // Unhandled events are not errors: layers subscribe selectively.
    return Status::Ok();
  }
  obs::ContextScope ambient(context);
  obs::ScopedSpan span(context, event_span_, topic);
  events_dispatched_.add();
  Args args;
  args["event.topic"] = model::Value(topic);
  args["event.payload"] = std::move(payload);
  Result<model::Value> result =
      runtime::run_inline(execute_steps((*action)->steps, args, context));
  return result.ok() ? Status::Ok() : result.status();
}

// ---- the step coroutine (DESIGN.md §6b/§6e) -------------------------
//
// Only kInvoke can suspend: it awaits ResourceManager::invoke(), which
// parks when the request may park and the invocation waits on a loop
// timer or an async resource.

runtime::Task<Result<model::Value>> BrokerLayer::execute_steps(
    const std::vector<ActionStep>& steps, const Args& call_args,
    obs::RequestContext& context) {
  return run_steps(steps, call_args, context, 0);
}

runtime::Task<Result<model::Value>> BrokerLayer::run_steps(
    const std::vector<ActionStep>& steps, const Args& call_args,
    obs::RequestContext& context, std::uint64_t span) {
  obs::ContextScope ambient(context);
  model::Value result;
  Status failed;
  for (const ActionStep& step : steps) {
    if (step.op != StepOp::kInvoke) {
      if (Status status = exec_step(step, call_args, result); !status.ok()) {
        failed = std::move(status);
        break;
      }
      continue;
    }
    Args resolved = resolve_args(step.args, call_args, *context_);
    Result<model::Value> invoked =
        co_await resources_.invoke(step.a, step.b, resolved, context);
    if (!invoked.ok()) {
      failed = invoked.status();
      break;
    }
    result = std::move(invoked.value());
  }
  context.close_span(span);
  if (!failed.ok()) co_return failed;
  co_return std::move(result);
}

Status BrokerLayer::exec_step(const ActionStep& step, const Args& call_args,
                              model::Value& result) {
  if (step.op == StepOp::kGuard) {
    Result<bool> holds = step.guard.evaluate_bool(*context_);
    if (!holds.ok()) return holds.status();
    if (!*holds) {
      return FailedPrecondition("action guard '" + step.guard.text() +
                                "' failed");
    }
    return Status::Ok();
  }
  // The remaining synchronous steps each apply one required argument.
  Args resolved = resolve_args(step.args, call_args, *context_);
  Result<model::Value> value = require_arg(
      resolved, step.op == StepOp::kEmit ? "payload" : "value",
      to_string(step.op));
  if (!value.ok()) return value.status();
  switch (step.op) {
    case StepOp::kSetState:
      state_.set(step.a, std::move(value.value()));
      break;
    case StepOp::kSetContext:
      context_->set(step.a, std::move(value.value()));
      break;
    case StepOp::kEmit:
      bus_->publish(step.a, name(), std::move(value.value()));
      break;
    case StepOp::kResult:
      result = std::move(value.value());
      break;
    case StepOp::kGuard:
    case StepOp::kInvoke:
      return Internal("step '" + std::string(to_string(step.op)) +
                      "' reached exec_step");
  }
  return Status::Ok();
}

}  // namespace mdsm::broker
