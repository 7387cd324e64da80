// The Controller's execution engine (paper §V-B): "a stack machine that
// operates by executing the EUs of the procedure currently on top of the
// stack ... a procedure X, through its EUs, can call procedures that were
// matched to its declared dependencies, which results in the called
// procedure being pushed onto the stack, or it can signal that it has
// completed its operation, resulting in the procedure being popped from
// the stack."
//
// The engine is domain-independent: all domain knowledge lives in the
// DSCs/procedures it executes. Its instruction set covers the paper's
// "memory management, event handling, message passing and remote calls"
// plus kBrokerCall, the downward API into the Broker layer.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "broker/broker_api.hpp"
#include "controller/intent_model.hpp"
#include "controller/procedure.hpp"
#include "obs/request_context.hpp"
#include "policy/context.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::controller {

struct EngineConfig {
  std::size_t max_steps = 1'000'000;   ///< runaway-EU backstop
  std::size_t max_stack_depth = 256;
};

class ExecutionEngine {
 public:
  /// `sender` is the platform's message-passing hook (kSend); null means
  /// kSend is an execution error — split deployments install one wired
  /// to their network endpoint.
  using Sender = std::function<Status(const std::string& destination,
                                      const std::string& topic,
                                      model::Value payload)>;

  /// Counts go to `metrics` (cells resolved here), which must outlive
  /// the engine.
  ExecutionEngine(broker::BrokerApi& broker, runtime::EventBus& bus,
                  policy::ContextStore& context, obs::MetricsRegistry& metrics,
                  EngineConfig config = {});

  void set_sender(Sender sender) { sender_ = std::move(sender); }

  /// Case 2: execute a generated intent model. Dependencies are resolved
  /// through the IM's matched children, never looked up dynamically.
  /// Every procedure frame (root and kCallDep pushes) runs under its own
  /// "controller.eu" span of `context`. Each kBrokerCall awaits
  /// BrokerApi::call(); one that parks suspends the run, and the
  /// surviving instructions resume on whatever thread completes the call
  /// (DESIGN.md §6e). The run pins `intent_model`, so a cache eviction
  /// mid-run cannot free it; `command_args` and `context` must outlive
  /// the task.
  runtime::Task<Result<model::Value>> execute(
      IntentModelPtr intent_model, const broker::Args& command_args,
      obs::RequestContext& context = obs::RequestContext::noop()) {
    return run(std::move(intent_model), nullptr, command_args, context);
  }

  /// Case 1: execute a flat instruction sequence (a predefined action).
  /// kCallDep is illegal here (actions have no matched dependencies).
  runtime::Task<Result<model::Value>> execute_flat(
      const std::vector<Instruction>& body, const broker::Args& command_args,
      obs::RequestContext& context = obs::RequestContext::noop()) {
    return run({}, &body, command_args, context);
  }

  /// Engine memory ("memory management" ops). Shared across executions —
  /// procedures use it to pass data between calls, tests inspect it.
  /// Internally synchronized: concurrent executions (or monitors reading
  /// while an execution runs) see consistent values.
  [[nodiscard]] model::Value memory(std::string_view key) const;
  void set_memory(const std::string& key, model::Value value);
  void clear_memory() {
    std::lock_guard lock(memory_mutex_);
    memory_.clear();
  }
  /// Full copy of engine memory — the controller half of a session
  /// checkpoint (Platform::export_session_state).
  [[nodiscard]] std::map<std::string, model::Value, std::less<>>
  memory_snapshot() const {
    std::lock_guard lock(memory_mutex_);
    return memory_;
  }

  /// Deepest the intent-model frame stack ever got (a high-water mark;
  /// the engine's counts are "controller.*" cells).
  [[nodiscard]] std::size_t max_stack_depth() const noexcept {
    return max_stack_depth_.load(std::memory_order_relaxed);
  }

 private:
  struct Frame {
    const IntentModelNode* node;  ///< null for flat (Case 1) execution
    const std::vector<Instruction>* flat;  ///< non-null for Case 1
    std::size_t unit = 0;
    std::size_t pc = 0;
    std::uint64_t span = 0;  ///< "controller.eu" span id (0 = root frame,
                             ///< whose span is scoped to the whole run)
  };

  /// Advance past exhausted frames (closing their spans, popping);
  /// returns the next instruction of the top frame, or null when the
  /// stack has drained.
  const Instruction* fetch(std::vector<Frame>& stack,
                           obs::RequestContext& context);
  /// Execute one non-broker instruction (kBrokerCall, the only op that
  /// can suspend a run, is dispatched by run()). `node` is the current
  /// frame's IM node (null in flat runs); kCallDep pushes onto `stack`.
  Status exec_instruction(const Instruction& instruction,
                          const IntentModelNode* node,
                          std::vector<Frame>& stack, model::Value& result,
                          const broker::Args& command_args,
                          obs::RequestContext& context);

  /// The stack machine: a run of `intent_model` (Case 2) or of `flat`
  /// (Case 1, when non-null) under its root "controller.eu" span.
  runtime::Task<Result<model::Value>> run(
      IntentModelPtr intent_model, const std::vector<Instruction>* flat,
      const broker::Args& command_args, obs::RequestContext& context);
  /// Raise the stack-depth high-water gauge to `depth` (a frame was
  /// pushed); a CAS loop, so concurrent runs never regress it.
  void raise_depth(std::size_t depth);

  model::Value resolve(const model::Value& value,
                       const broker::Args& command_args) const;
  broker::Args resolve_all(const broker::Args& args,
                           const broker::Args& command_args) const;

  broker::BrokerApi* broker_;
  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  obs::Counter& instructions_;
  obs::Counter& broker_calls_;
  obs::Counter& procedure_pushes_;
  obs::Counter& executions_;
  obs::SpanName eu_span_;
  std::atomic<std::size_t> max_stack_depth_{0};  ///< high-water gauge
  Sender sender_;
  EngineConfig config_;
  mutable std::mutex memory_mutex_;  ///< guards memory_ only
  std::map<std::string, model::Value, std::less<>> memory_;
};

}  // namespace mdsm::controller
