// The Controller layer (paper §VI, Fig. 8): signals received through the
// facade are queued, parsed into commands, classified, and executed via
// one of two coexisting mechanisms:
//
//   Case 1 — selection of predefined actions (Action Handlers), guided
//            by guards and priorities;
//   Case 2 — dynamic generation of intent models (Intent Model Handler),
//            guided by DSCs, the procedure repository, and policies.
//
// "the choice of which approach to use for each received command is
// determined by a command classification step that precedes actual
// command execution. Command classification takes into account domain
// policies and context information."
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "broker/broker_api.hpp"
#include "controller/dsc.hpp"
#include "controller/execution_engine.hpp"
#include "controller/intent_model.hpp"
#include "controller/procedure.hpp"
#include "controller/script.hpp"
#include "obs/request_context.hpp"
#include "policy/policy_engine.hpp"
#include "runtime/component.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::controller {

/// A predefined (Case 1) action: guarded, prioritized instruction list.
struct ControllerAction {
  std::string name;
  policy::Expression guard;
  int priority = 0;
  std::vector<Instruction> body;
};

enum class SignalKind { kCall, kEvent };

/// "Both calls and events are treated in the same way and thus are
/// indistinctly called signals."
struct Signal {
  SignalKind kind{};
  std::string name;   ///< command name (calls) or topic (events)
  broker::Args args;
};

/// View over the layer's registry cells ("controller.*", DESIGN.md §6a).
struct ControllerStats {
  /// Every signal: script commands, submitted calls and bus events.
  std::uint64_t signals_received = 0;
  std::uint64_t commands_executed = 0;
  std::uint64_t case1_executions = 0;
  std::uint64_t case2_executions = 0;
  std::uint64_t errors = 0;
  std::uint64_t events_handled = 0;
};

class ControllerLayer final : public runtime::Component {
 public:
  /// The layer, its IM generator and its execution engine count into
  /// `metrics` ("controller.*" cells, resolved here), which must outlive
  /// the layer.
  ControllerLayer(std::string name, broker::BrokerApi& broker,
                  runtime::EventBus& bus, policy::ContextStore& context,
                  obs::MetricsRegistry& metrics,
                  GeneratorConfig generator_config = {});

  // ---- configuration (domain DSK + middleware model loading)

  [[nodiscard]] DscRegistry& dscs() noexcept { return dscs_; }

  /// Add a procedure, validating that its classifier and dependency DSCs
  /// are registered (the repository itself is classifier-agnostic).
  Status add_procedure(Procedure procedure);
  [[nodiscard]] ProcedureRepository& repository() noexcept {
    return repository_;
  }

  Status register_action(ControllerAction action);
  /// Bind a command (or event topic) to candidate Case-1 actions.
  Status bind_action(const std::string& command,
                     std::vector<std::string> action_names);
  /// Map a command to the root DSC used for Case-2 IM generation. When a
  /// command has no mapping but its name is itself a registered DSC, the
  /// name is used directly.
  Status map_command(const std::string& command, const std::string& dsc);

  /// Policies whose decision ("case1"/"case2") classifies commands.
  [[nodiscard]] policy::PolicySet& classification_policies() noexcept {
    return classification_policies_;
  }
  /// Policies whose decision ("min-cost"/"max-quality"/"first-valid")
  /// picks the IM selection strategy.
  [[nodiscard]] policy::PolicySet& selection_policies() noexcept {
    return selection_policies_;
  }

  [[nodiscard]] ExecutionEngine& engine() noexcept { return engine_; }
  [[nodiscard]] IntentModelGenerator& generator() noexcept {
    return generator_;
  }
  [[nodiscard]] policy::ContextStore& context() noexcept { return *context_; }

  /// Subscribe this controller to a bus topic; matching events enter the
  /// signal queue as event signals (processed by process_pending()).
  void attach_event_topic(const std::string& topic);

  // ---- operation

  /// Enqueue every command of a script as a call signal.
  Status submit_script(const ControlScript& script,
                       obs::RequestContext& context);
  Status submit_script(const ControlScript& script) {
    return submit_script(script, obs::RequestContext::noop());
  }
  Status submit_command(Command command);

  /// Execute every command of a script, then drain the signal queue
  /// (event signals raised by the executions) — the controller stage of
  /// the request pipeline. Each command runs under its own
  /// "controller.signal" span with the same error containment as
  /// process_pending() (errors are counted and published, not returned).
  /// A command whose broker call parks suspends the script, and the
  /// remaining commands, then the drain, resume on the settling thread
  /// (DESIGN.md §6e). `script` and `context` must outlive the task. Safe
  /// to run concurrently from many request threads.
  runtime::Task<Status> execute_script(
      const ControlScript& script,
      obs::RequestContext& context = obs::RequestContext::noop());

  /// Drain the signal queue; returns the number of signals processed.
  /// Errors are counted and published as "controller.error" events, not
  /// thrown — one bad command must not wedge the queue. Each drained
  /// signal runs under its own "controller.signal" span of `context`.
  std::size_t process_pending(
      obs::RequestContext& context = obs::RequestContext::noop()) {
    return runtime::run_inline(drain(context));
  }

  /// Single-command path (classification + execution). `command` and
  /// `context` must outlive the task.
  runtime::Task<Result<model::Value>> execute_command(
      const Command& command,
      obs::RequestContext& context = obs::RequestContext::noop());

  /// Snapshot of the counters (each exact; cross-counter sums may tear
  /// momentarily while requests are in flight).
  [[nodiscard]] ControllerStats stats() const;
  [[nodiscard]] std::size_t queued() const;

 private:
  enum class Case { kCase1, kCase2 };

  /// Queue a signal for the next drain and count it as received.
  void enqueue(Signal signal);
  Result<Case> classify(const Command& command) const;
  [[nodiscard]] SelectionStrategy selection_strategy() const;
  /// Drain the signal queue (event signals the executions raised —
  /// kEmit → subscribed topic — and submitted calls); yields the count.
  runtime::Task<std::size_t> drain(obs::RequestContext& context);
  /// One signal under its "controller.signal" span, with the error
  /// containment of a script run or a drain.
  runtime::Task<> run_signal(const Command& command, bool event,
                             obs::RequestContext& context);
  runtime::Task<Result<model::Value>> run_case1(const Command& command,
                                                obs::RequestContext& context);
  runtime::Task<Result<model::Value>> run_case2(const Command& command,
                                                obs::RequestContext& context);

  broker::BrokerApi* broker_;
  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  obs::Counter& signals_received_;
  obs::Counter& script_signals_;  ///< "controller.signals": script commands
  obs::Counter& commands_executed_;
  obs::Counter& case1_executions_;
  obs::Counter& case2_executions_;
  obs::Counter& errors_;
  obs::Counter& events_handled_;
  obs::SpanName script_span_;
  obs::SpanName signal_span_;
  DscRegistry dscs_;
  ProcedureRepository repository_;
  IntentModelGenerator generator_;
  ExecutionEngine engine_;
  policy::PolicySet classification_policies_;
  policy::PolicySet selection_policies_;
  /// Guards the configuration maps below. Configuration happens at
  /// assembly/model-load time but may race steady-state classification;
  /// lookups take the shared side. ControllerAction nodes are never
  /// removed, so pointers into actions_ stay valid outside the lock.
  mutable std::shared_mutex config_mutex_;
  std::map<std::string, ControllerAction, std::less<>> actions_;
  std::map<std::string, std::vector<std::string>, std::less<>> bindings_;
  std::map<std::string, std::string, std::less<>> command_dsc_;
  mutable std::mutex queue_mutex_;  ///< guards queue_ only
  std::deque<Signal> queue_;
  std::vector<std::uint64_t> subscriptions_;
};

}  // namespace mdsm::controller
