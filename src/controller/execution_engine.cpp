#include "controller/execution_engine.hpp"

#include <algorithm>

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
      // run() dispatches this op itself (it is the only instruction
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
      raise_depth(stack.size());
      break;
    }
    case OpCode::kEraseMem: {
      std::lock_guard lock(memory_mutex_);
      memory_.erase(instruction.a);
      break;
    }
    default: {
      // The remaining instructions each apply one required argument.
      const OpCode op = instruction.op;
      if (op == OpCode::kSend && sender_ == nullptr) {
        return ExecutionError(
            "send instruction but no message sender installed");
      }
      broker::Args resolved = resolve_all(instruction.args, command_args);
      Result<model::Value> value = broker::require_arg(
          resolved,
          op == OpCode::kEmit || op == OpCode::kSend ? "payload" : "value",
          to_string(op));
      if (!value.ok()) return value.status();
      if (op == OpCode::kSend) {
        model::Value to = resolve(model::Value(instruction.a), command_args);
        return sender_(to.is_string() ? to.as_string() : instruction.a,
                       instruction.b, std::move(value.value()));
      }
      model::Value& v = value.value();
      if (op == OpCode::kSetMem) set_memory(instruction.a, std::move(v));
      if (op == OpCode::kEmit) {
        bus_->publish(instruction.a, "controller", std::move(v));
      }
      if (op == OpCode::kSetContext) context_->set(instruction.a, std::move(v));
      if (op == OpCode::kResult) result = std::move(v);
      break;
    }
  }
  return Status::Ok();
}

// ---- the stack machine (DESIGN.md §6b/§6e) --------------------------
//
// Only kBrokerCall can suspend: it awaits BrokerApi::call(), which may
// park and resume the surviving instructions on whatever thread
// completes the call.

void ExecutionEngine::raise_depth(std::size_t depth) {
  std::size_t seen = max_stack_depth_.load(std::memory_order_relaxed);
  while (depth > seen && !max_stack_depth_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

runtime::Task<Result<model::Value>> ExecutionEngine::run(
    IntentModelPtr intent_model, const std::vector<Instruction>* flat,
    const broker::Args& command_args, obs::RequestContext& context) {
  if (flat == nullptr && intent_model->root == nullptr) {
    co_return InvalidArgument("intent model has no root procedure");
  }
  executions_.add();
  obs::ContextScope ambient(context);
  // One "controller.eu" span per procedure frame. The root frame's span
  // is closed last, closing through any spans left open by frames still
  // on the stack when a run fails.
  Frame initial{};
  initial.node = flat == nullptr ? intent_model->root.get() : nullptr;
  initial.flat = flat;
  const std::uint64_t root_span = context.open_span(
      eu_span_,
      flat == nullptr ? std::string_view(initial.node->procedure->name)
                      : std::string_view("action"));
  std::vector<Frame> stack{initial};
  raise_depth(1);
  model::Value result;
  Status failed;
  std::size_t steps = 0;
  while (const Instruction* instruction = fetch(stack, context)) {
    if (++steps > config_.max_steps) {
      failed = ExecutionError("execution exceeded " +
                              std::to_string(config_.max_steps) + " steps");
      break;
    }
    // The EU loop is the controller's steady-state: checking here (not
    // just at the layer crossing) stops a long instruction stream as soon
    // as the budget runs out instead of at the next broker call.
    if (Status budget = context.check_deadline("controller.engine");
        !budget.ok()) {
      failed = std::move(budget);
      break;
    }
    instructions_.add();
    if (instruction->op == OpCode::kBrokerCall) {
      broker_calls_.add();
      broker::Call call;
      call.name = instruction->a;
      call.args = resolve_all(instruction->args, command_args);
      Result<model::Value> value = co_await broker_->call(call, context);
      if (!value.ok()) {
        failed = value.status();
        break;
      }
      result = value.value();
      set_memory("last.result", std::move(value.value()));
      continue;
    }
    if (Status status = exec_instruction(*instruction, stack.back().node,
                                         stack, result, command_args, context);
        !status.ok()) {
      failed = std::move(status);
      break;
    }
  }
  context.close_span(root_span);
  if (!failed.ok()) co_return failed;
  co_return std::move(result);
}

}  // namespace mdsm::controller
