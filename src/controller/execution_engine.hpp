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

/// View over the engine's registry cells ("controller.*", DESIGN.md §6a)
/// plus its stack-depth high-water gauge.
struct EngineStats {
  std::uint64_t instructions = 0;
  std::uint64_t broker_calls = 0;
  std::uint64_t procedure_pushes = 0;
  std::size_t max_stack_depth = 0;
  std::uint64_t executions = 0;
};

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
  /// "controller.eu" span of `context`. Runs the stack machine in inline
  /// mode (each kBrokerCall is a synchronous BrokerApi::call()), so it
  /// completes before it returns.
  Result<model::Value> execute(const IntentModel& intent_model,
                               const broker::Args& command_args,
                               obs::RequestContext& context);
  Result<model::Value> execute(const IntentModel& intent_model,
                               const broker::Args& command_args) {
    return execute(intent_model, command_args, obs::RequestContext::noop());
  }

  /// Case 1: execute a flat instruction sequence (a predefined action).
  /// kCallDep is illegal here (actions have no matched dependencies).
  Result<model::Value> execute_flat(const std::vector<Instruction>& body,
                                    const broker::Args& command_args,
                                    obs::RequestContext& context);
  Result<model::Value> execute_flat(const std::vector<Instruction>& body,
                                    const broker::Args& command_args) {
    return execute_flat(body, command_args, obs::RequestContext::noop());
  }

  /// Completion of a run; invoked exactly once (inline when no broker
  /// call parks).
  using ExecuteCallback = std::function<void(Result<model::Value>)>;

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

  /// Snapshot of the counters (each exact; cross-counter sums may tear
  /// momentarily under concurrent executions).
  [[nodiscard]] EngineStats stats() const;

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
  /// can suspend a run, is dispatched by drive()). `node` is the current
  /// frame's IM node (null in flat runs); kCallDep pushes onto `stack`.
  Status exec_instruction(const Instruction& instruction,
                          const IntentModelNode* node,
                          std::vector<Frame>& stack, model::Value& result,
                          const broker::Args& command_args,
                          obs::RequestContext& context);

  /// The owning controller runs the machine in the mode of its own entry
  /// point through start().
  friend class ControllerLayer;

  /// Stack-machine state of one run.
  struct RunState;
  /// Start a run of `intent_model` (Case 2) or of `flat` (Case 1, when
  /// non-null): opens the root "controller.eu" span, then drives. In
  /// async mode each kBrokerCall goes through BrokerApi::call_async(),
  /// and one that parks suspends the run; `intent_model` / `flat` and
  /// `context` must then outlive it (the controller keeps the IM alive
  /// by capturing its shared_ptr in `done`; action bodies are never
  /// removed), while `command_args` is copied into the run state.
  void start(const IntentModel* intent_model,
             const std::vector<Instruction>* flat,
             const broker::Args& command_args,
             obs::RequestContext& context, bool inline_mode,
             ExecuteCallback done);
  /// Drive the stack machine until the run completes or a broker call
  /// parks it.
  void drive(std::shared_ptr<RunState> run);
  /// Consume the settled broker-call outcome; false = run failed and
  /// finished.
  bool consume_call(const std::shared_ptr<RunState>& run);
  /// Close the root span (closing through any frames still open) and
  /// resolve the run.
  void finish(const std::shared_ptr<RunState>& run,
              Result<model::Value> outcome);

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
