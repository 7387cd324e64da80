#include "controller/execution_engine.hpp"

#include <algorithm>
#include <optional>

#include "common/log.hpp"
#include "common/strings.hpp"

namespace mdsm::controller {

ExecutionEngine::ExecutionEngine(broker::BrokerApi& broker,
                                 runtime::EventBus& bus,
                                 policy::ContextStore& context,
                                 obs::MetricsRegistry& metrics,
                                 EngineConfig config)
    : broker_(&broker),
      bus_(&bus),
      context_(&context),
      instructions_(metrics.counter("controller.instructions")),
      broker_calls_(metrics.counter("controller.broker_calls")),
      procedure_pushes_(metrics.counter("controller.procedure_pushes")),
      executions_(metrics.counter("controller.eu_executions")),
      eu_span_(metrics, "controller.eu"),
      config_(config) {}

model::Value ExecutionEngine::resolve(const model::Value& value,
                                      const broker::Args& command_args) const {
  if (value.is_list()) {
    // Templates may be nested inside structured payloads (e.g. the
    // smart-space wire encoding); resolve element-wise.
    model::ValueList resolved;
    resolved.reserve(value.as_list().size());
    for (const model::Value& item : value.as_list()) {
      resolved.push_back(resolve(item, command_args));
    }
    return model::Value(std::move(resolved));
  }
  if (!value.is_string()) return value;
  const std::string& text = value.as_string();
  if (starts_with(text, "$ctx:")) return context_->get(text.substr(5));
  if (starts_with(text, "$mem:")) return memory(text.substr(5));
  if (starts_with(text, "$$")) return model::Value(text.substr(1));
  if (starts_with(text, "$")) {
    auto it = command_args.find(text.substr(1));
    return it == command_args.end() ? model::Value{} : it->second;
  }
  return value;
}

broker::Args ExecutionEngine::resolve_all(
    const broker::Args& args, const broker::Args& command_args) const {
  broker::Args out;
  for (const auto& [key, value] : args) {
    out[key] = resolve(value, command_args);
  }
  return out;
}

model::Value ExecutionEngine::memory(std::string_view key) const {
  std::lock_guard lock(memory_mutex_);
  auto it = memory_.find(key);
  return it == memory_.end() ? model::Value{} : it->second;
}

void ExecutionEngine::set_memory(const std::string& key, model::Value value) {
  std::lock_guard lock(memory_mutex_);
  memory_[key] = std::move(value);
}

Result<model::Value> ExecutionEngine::execute(
    const IntentModel& intent_model, const broker::Args& command_args,
    obs::RequestContext& context) {
  return run_inline<Result<model::Value>>([&](ExecuteCallback done) {
    start(&intent_model, nullptr, command_args, context, true,
          std::move(done));
  });
}

Result<model::Value> ExecutionEngine::execute_flat(
    const std::vector<Instruction>& body, const broker::Args& command_args,
    obs::RequestContext& context) {
  return run_inline<Result<model::Value>>([&](ExecuteCallback done) {
    start(nullptr, &body, command_args, context, true,
          std::move(done));
  });
}

const Instruction* ExecutionEngine::fetch(std::vector<Frame>& stack,
                                          obs::RequestContext& context) {
  // Fetch the next instruction of the top frame; an exhausted frame
  // "signals that it has completed its operation" and is popped.
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.flat != nullptr) {
      if (frame.pc < frame.flat->size()) return &(*frame.flat)[frame.pc++];
    } else {
      const auto& units = frame.node->procedure->units;
      while (frame.unit < units.size() &&
             frame.pc >= units[frame.unit].size()) {
        ++frame.unit;
        frame.pc = 0;
      }
      if (frame.unit < units.size()) return &units[frame.unit][frame.pc++];
    }
    context.close_span(frame.span);
    stack.pop_back();
  }
  return nullptr;
}

Status ExecutionEngine::exec_instruction(const Instruction& instruction,
                                         const IntentModelNode* node,
                                         std::vector<Frame>& stack,
                                         model::Value& result,
                                         const broker::Args& command_args,
                                         obs::RequestContext& context) {
  switch (instruction.op) {
    case OpCode::kNoop:
      break;
    case OpCode::kGuard: {
      Result<bool> holds = instruction.guard.evaluate_bool(*context_);
      if (!holds.ok()) return holds.status();
      if (!*holds) {
        return ExecutionError("EU guard '" + instruction.guard.text() +
                              "' failed");
      }
      break;
    }
    case OpCode::kBrokerCall:
      // drive() dispatches this op itself (it is the only instruction
      // that can suspend a run).
      return Internal("kBrokerCall reached exec_instruction");
    case OpCode::kCallDep: {
      if (node == nullptr) {
        return ExecutionError(
            "call-dep is illegal in a predefined action (no matched "
            "dependencies)");
      }
      const Procedure& procedure = *node->procedure;
      auto it = std::find(procedure.dependencies.begin(),
                          procedure.dependencies.end(), instruction.a);
      if (it == procedure.dependencies.end()) {
        return ExecutionError("procedure '" + procedure.name +
                              "' calls undeclared dependency '" +
                              instruction.a + "'");
      }
      std::size_t index = static_cast<std::size_t>(
          std::distance(procedure.dependencies.begin(), it));
      if (index >= node->children.size()) {
        return Internal("IM missing matched child " + std::to_string(index));
      }
      if (stack.size() >= config_.max_stack_depth) {
        return ExecutionError("procedure stack overflow");
      }
      procedure_pushes_.add();
      Frame child{};
      child.node = node->children[index].get();
      child.span = context.open_span(eu_span_, child.node->procedure->name);
      stack.push_back(child);  // invalidates callers' top-frame refs
      break;
    }
    case OpCode::kSetMem: {
      broker::Args resolved = resolve_all(instruction.args, command_args);
      Result<model::Value> value =
          broker::require_arg(resolved, "value", "set-mem");
      if (!value.ok()) return value.status();
      set_memory(instruction.a, std::move(value.value()));
      break;
    }
    case OpCode::kEraseMem: {
      std::lock_guard lock(memory_mutex_);
      memory_.erase(instruction.a);
      break;
    }
    case OpCode::kEmit: {
      broker::Args resolved = resolve_all(instruction.args, command_args);
      Result<model::Value> payload =
          broker::require_arg(resolved, "payload", "emit");
      if (!payload.ok()) return payload.status();
      bus_->publish(instruction.a, "controller",
                    std::move(payload.value()));
      break;
    }
    case OpCode::kSend: {
      if (sender_ == nullptr) {
        return ExecutionError(
            "send instruction but no message sender installed");
      }
      broker::Args resolved = resolve_all(instruction.args, command_args);
      Result<model::Value> payload =
          broker::require_arg(resolved, "payload", "send");
      if (!payload.ok()) return payload.status();
      model::Value destination = resolve(model::Value(instruction.a),
                                         command_args);
      std::string to = destination.is_string() ? destination.as_string()
                                               : instruction.a;
      Status sent = sender_(to, instruction.b, std::move(payload.value()));
      if (!sent.ok()) return sent;
      break;
    }
    case OpCode::kSetContext: {
      broker::Args resolved = resolve_all(instruction.args, command_args);
      Result<model::Value> value =
          broker::require_arg(resolved, "value", "set-context");
      if (!value.ok()) return value.status();
      context_->set(instruction.a, std::move(value.value()));
      break;
    }
    case OpCode::kResult: {
      broker::Args resolved = resolve_all(instruction.args, command_args);
      Result<model::Value> value =
          broker::require_arg(resolved, "value", "result");
      if (!value.ok()) return value.status();
      result = std::move(value.value());
      break;
    }
  }
  return Status::Ok();
}

// ---- the stack machine (inline or async; DESIGN.md §6b) -------------
//
// Only kBrokerCall can suspend: inline (execute(), execute_flat()) it is
// BrokerApi::call(), async (the controller's async entry) it is
// call_async(), which may park and resume the surviving instructions on
// whatever thread completes the call.

struct ExecutionEngine::RunState {
  const broker::Args* command_args = nullptr;  ///< caller's or `owned_args`
  broker::Args owned_args;  ///< async mode: the run's own copy
  obs::RequestContext* context = nullptr;
  bool inline_mode = false;
  ExecuteCallback done;
  std::uint64_t root_span = 0;
  std::vector<Frame> stack;
  model::Value result;
  std::size_t steps = 0;
  std::optional<Result<model::Value>> pending;  ///< settled broker call
};

void ExecutionEngine::start(const IntentModel* intent_model,
                            const std::vector<Instruction>* flat,
                            const broker::Args& command_args,
                            obs::RequestContext& context, bool inline_mode,
                            ExecuteCallback done) {
  if (flat == nullptr && intent_model->root == nullptr) {
    done(InvalidArgument("intent model has no root procedure"));
    return;
  }
  executions_.add();
  RunState local;
  std::shared_ptr<RunState> run = run_state(inline_mode, local);
  run->command_args = &command_args;
  if (!inline_mode) {  // the caller's args may not outlive an async run
    run->owned_args = command_args;
    run->command_args = &run->owned_args;
  }
  run->context = &context;
  run->inline_mode = inline_mode;
  run->done = std::move(done);
  // One "controller.eu" span per procedure frame. The root frame's span
  // is closed by finish(), closing through any spans left open by frames
  // still on the stack when a run fails; it is kept in the run state
  // because an async run can outlive this frame.
  Frame initial{};
  initial.node = flat == nullptr ? intent_model->root.get() : nullptr;
  initial.flat = flat;
  run->root_span = context.open_span(
      eu_span_,
      flat == nullptr ? std::string_view(initial.node->procedure->name)
                      : std::string_view("action"));
  run->stack.push_back(initial);
  drive(std::move(run));
}

void ExecutionEngine::finish(const std::shared_ptr<RunState>& run,
                             Result<model::Value> outcome) {
  run->context->close_span(run->root_span);
  run->done(std::move(outcome));
}

bool ExecutionEngine::consume_call(const std::shared_ptr<RunState>& run) {
  Result<model::Value> value = std::move(*run->pending);
  run->pending.reset();
  if (!value.ok()) {
    finish(run, value.status());
    return false;
  }
  run->result = value.value();
  set_memory("last.result", std::move(value.value()));
  return true;
}

void ExecutionEngine::drive(std::shared_ptr<RunState> run) {
  obs::ContextScope ambient(*run->context);
  while (true) {
    // Atomic running-max: CAS loop so concurrent runs never regress it.
    std::size_t depth = run->stack.size();
    std::size_t seen = max_stack_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_stack_depth_.compare_exchange_weak(
               seen, depth, std::memory_order_relaxed)) {
    }
    const Instruction* instruction = fetch(run->stack, *run->context);
    if (instruction == nullptr) break;
    if (++run->steps > config_.max_steps) {
      finish(run, ExecutionError("execution exceeded " +
                                 std::to_string(config_.max_steps) +
                                 " steps"));
      return;
    }
    // The EU loop is the controller's steady-state: checking here (not
    // just at the layer crossing) stops a long instruction stream as soon
    // as the budget runs out instead of at the next broker call.
    if (Status budget = run->context->check_deadline("controller.engine");
        !budget.ok()) {
      finish(run, budget);
      return;
    }
    instructions_.add();
    if (instruction->op == OpCode::kBrokerCall) {
      broker_calls_.add();
      broker::Call call;
      call.name = instruction->a;
      call.args = resolve_all(instruction->args, *run->command_args);
      if (run->inline_mode) {
        run->pending.emplace(broker_->call(call, *run->context));
      } else {
        // Trampoline (same discipline as BrokerLayer::drive_steps): the
        // second arrival at the turnstile owns the continuation, so
        // inline completions keep looping here instead of recursing.
        auto turn = std::make_shared<std::atomic<int>>(0);
        broker_->call_async(
            call, *run->context,
            [this, run, turn](Result<model::Value> value) {
              run->pending.emplace(std::move(value));
              if (turn->exchange(2, std::memory_order_acq_rel) == 1) {
                if (consume_call(run)) drive(run);
              }
            });
        if (turn->exchange(1, std::memory_order_acq_rel) == 0) {
          return;  // parked: the broker completion resumes the run
        }
      }
      if (!consume_call(run)) return;
      continue;
    }
    Status status =
        exec_instruction(*instruction, run->stack.back().node, run->stack,
                         run->result, *run->command_args, *run->context);
    if (!status.ok()) {
      finish(run, status);
      return;
    }
  }
  finish(run, std::move(run->result));
}

EngineStats ExecutionEngine::stats() const {
  return {.instructions = instructions_.value(),
          .broker_calls = broker_calls_.value(),
          .procedure_pushes = procedure_pushes_.value(),
          .max_stack_depth = max_stack_depth_.load(std::memory_order_relaxed),
          .executions = executions_.value()};
}

}  // namespace mdsm::controller
