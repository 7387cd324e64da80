#include <atomic>
#include <mutex>
#include <optional>

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
        Result<model::Value> result = execute_steps(steps, args);
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

Result<model::Value> BrokerLayer::call(const Call& call,
                                       obs::RequestContext& context) {
  return run_inline<Result<model::Value>>([&](CallCallback done) {
    start_call(call, context, true, std::move(done));
  });
}

void BrokerLayer::call_async(const Call& broker_call,
                             obs::RequestContext& context,
                             CallCallback done) {
  start_call(broker_call, context, false, std::move(done));
}

void BrokerLayer::start_call(const Call& broker_call,
                             obs::RequestContext& context, bool inline_mode,
                             CallCallback done) {
  obs::ContextScope ambient(context);
  calls_handled_.add();
  // The span is closed when the step run finishes, not by a ScopedSpan:
  // in async mode the call may park and complete on another thread long
  // after this frame unwinds.
  const std::uint64_t span = context.open_span(call_span_, broker_call.name);
  Status deadline = context.check_deadline("broker");
  Result<const Action*> action = deadline.ok()
                                     ? select_action(broker_call.name)
                                     : Result<const Action*>(deadline);
  if (!action.ok()) {
    context.close_span(span);
    done(action.status());
    return;
  }
  MDSM_LOG_DEBUG("broker") << name() << " call " << broker_call.name
                           << " -> action " << (*action)->name;
  run_steps((*action)->steps, broker_call.args, context, inline_mode, span,
            std::move(done));
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
      execute_steps((*action)->steps, args, context);
  return result.ok() ? Status::Ok() : result.status();
}

// ---- the step state machine (inline or async; DESIGN.md §6b) --------
//
// Only kInvoke can suspend: inline it is ResourceManager::invoke(), async
// it is invoke_async(), which may park and resume the run on the thread
// that settles the resource invocation.

struct BrokerLayer::StepRun {
  const std::vector<ActionStep>* steps = nullptr;
  const Args* call_args = nullptr;  ///< the caller's, or `owned_args`
  Args owned_args;                  ///< async mode: the run's own copy
  obs::RequestContext* context = nullptr;
  bool inline_mode = false;
  std::uint64_t span = 0;  ///< the caller's "broker.call" span (0 = none)
  CallCallback done;
  model::Value result;
  std::optional<Result<model::Value>> pending;  ///< settled kInvoke outcome
  std::size_t index = 0;
};

Result<model::Value> BrokerLayer::execute_steps(
    const std::vector<ActionStep>& steps, const Args& call_args,
    obs::RequestContext& context) {
  return run_inline<Result<model::Value>>([&](CallCallback done) {
    run_steps(steps, call_args, context, true, 0, std::move(done));
  });
}

void BrokerLayer::run_steps(const std::vector<ActionStep>& steps,
                            const Args& call_args,
                            obs::RequestContext& context, bool inline_mode,
                            std::uint64_t span, CallCallback done) {
  StepRun local;
  std::shared_ptr<StepRun> run = run_state(inline_mode, local);
  run->steps = &steps;
  run->call_args = &call_args;
  if (!inline_mode) {  // the caller's args may not outlive an async run
    run->owned_args = call_args;
    run->call_args = &run->owned_args;
  }
  run->context = &context;
  run->inline_mode = inline_mode;
  run->span = span;
  run->done = std::move(done);
  drive_steps(std::move(run));
}

void BrokerLayer::finish(StepRun& run, Result<model::Value> outcome) {
  run.context->close_span(run.span);
  run.done(std::move(outcome));
}

bool BrokerLayer::consume_pending(StepRun& run) {
  Result<model::Value> invoked = std::move(*run.pending);
  run.pending.reset();
  if (!invoked.ok()) {
    finish(run, invoked.status());
    return false;
  }
  run.result = std::move(invoked.value());
  return true;
}

Status BrokerLayer::exec_step(const ActionStep& step, StepRun& run) {
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
  Args resolved = resolve_args(step.args, *run.call_args, *context_);
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
      run.result = std::move(value.value());
      break;
    case StepOp::kGuard:
    case StepOp::kInvoke:
      return Internal("step '" + std::string(to_string(step.op)) +
                      "' reached exec_step");
  }
  return Status::Ok();
}

void BrokerLayer::drive_steps(std::shared_ptr<StepRun> run) {
  obs::ContextScope ambient(*run->context);
  const std::vector<ActionStep>& steps = *run->steps;
  while (run->index < steps.size()) {
    const ActionStep& step = steps[run->index++];
    if (step.op != StepOp::kInvoke) {
      if (Status status = exec_step(step, *run); !status.ok()) {
        finish(*run, std::move(status));
        return;
      }
      continue;
    }
    Args resolved = resolve_args(step.args, *run->call_args, *context_);
    if (run->inline_mode) {
      run->pending.emplace(
          resources_.invoke(step.a, step.b, resolved, *run->context));
    } else {
      // Trampoline: 0 = driver still in this frame, 1 = driver parked,
      // 2 = completion fired inline. Whoever arrives second owns the
      // continuation, so inline completions stay in this loop (no
      // recursion) and true parks resume on the settling thread.
      auto turn = std::make_shared<std::atomic<int>>(0);
      resources_.invoke_async(
          step.a, step.b, resolved, *run->context,
          [this, run, turn](Result<model::Value> invoked) {
            run->pending.emplace(std::move(invoked));
            if (turn->exchange(2, std::memory_order_acq_rel) == 1) {
              if (consume_pending(*run)) drive_steps(run);
            }
          });
      if (turn->exchange(1, std::memory_order_acq_rel) == 0) {
        return;  // parked: the completion resumes the run
      }
    }
    if (!consume_pending(*run)) return;
  }
  finish(*run, std::move(run->result));
}

}  // namespace mdsm::broker
