// The Broker layer: Main Manager facade plus the specialized managers of
// the paper's Fig. 6 metamodel (state, policy, autonomic, resource
// management), with Action/Handler-based dispatch of calls and events.
//
// Instances are normally produced by the platform assembler (src/core)
// from a middleware model; the programmatic API below is what the
// assembler targets and what tests drive directly.
#pragma once

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "broker/action.hpp"
#include "broker/autonomic_manager.hpp"
#include "broker/broker_api.hpp"
#include "broker/resource_manager.hpp"
#include "broker/state_manager.hpp"
#include "policy/policy_engine.hpp"
#include "runtime/component.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::broker {

class BrokerLayer final : public runtime::Component, public BrokerApi {
 public:
  /// The bus and context are owned by the enclosing platform; a broker
  /// layer participates in them rather than owning them (so controller,
  /// broker and autonomic behavior observe one coherent context).
  /// The layer and its resource and autonomic managers count into
  /// `metrics` (cells resolved here), which must outlive the layer.
  BrokerLayer(std::string name, runtime::EventBus& bus,
              policy::ContextStore& context, obs::MetricsRegistry& metrics);

  // -- configuration (performed by the assembler or by domain DSK code)

  Status register_action(Action action);
  /// Bind a signal name to candidate actions; call repeatedly to extend.
  Status bind_handler(const std::string& signal,
                      std::vector<std::string> action_names);

  [[nodiscard]] ResourceManager& resources() noexcept { return resources_; }
  /// Convenience forwarder to ResourceManager::set_policy (the broker API
  /// surface the assembler and domain DSKs configure fault tolerance by).
  Status set_invocation_policy(const std::string& resource,
                               InvocationPolicy policy) {
    return resources_.set_policy(resource, std::move(policy));
  }
  [[nodiscard]] StateManager& state() noexcept { return state_; }
  [[nodiscard]] policy::PolicySet& policies() noexcept { return policies_; }
  [[nodiscard]] AutonomicManager& autonomic() noexcept { return *autonomic_; }
  [[nodiscard]] policy::ContextStore& context() noexcept { return *context_; }
  [[nodiscard]] runtime::EventBus& bus() noexcept { return *bus_; }

  [[nodiscard]] std::size_t action_count() const {
    std::shared_lock lock(config_mutex_);
    return actions_.size();
  }

  // -- BrokerApi (the upward-facing interface)

  using BrokerApi::call;

  /// Select (via the signal's handler + guards + priority) and execute an
  /// action for the call. Returns the action's result value (none if the
  /// action set none). Opens one "broker.call" span per crossing. Runs
  /// the step state machine in inline mode: it completes before it
  /// returns.
  Result<model::Value> call(const Call& call,
                            obs::RequestContext& context) override;

  /// call() in async mode: the action's steps run as a resumable state
  /// machine, so a kInvoke that parks in ResourceManager (retry backoff,
  /// attempt overrun) suspends this call instead of a thread; the
  /// surviving steps resume on whatever thread settles the resource
  /// invocation. `context` must outlive the call; `done` fires exactly
  /// once (inline when every step completes synchronously).
  void call_async(const Call& broker_call, obs::RequestContext& context,
                  CallCallback done) override;

  [[nodiscard]] const CommandTrace& trace() const override {
    return resources_.trace();
  }

  /// Event entry point: events are signals too (paper §VI treats calls
  /// and events uniformly); dispatches the bound handler if any.
  Status handle_event(const std::string& topic, model::Value payload,
                      obs::RequestContext& context);
  Status handle_event(const std::string& topic, model::Value payload = {}) {
    return handle_event(topic, std::move(payload),
                        obs::RequestContext::noop());
  }

  /// Execute a step sequence against this layer (shared by actions and
  /// autonomic change plans), in inline mode.
  Result<model::Value> execute_steps(const std::vector<ActionStep>& steps,
                                     const Args& call_args,
                                     obs::RequestContext& context);
  Result<model::Value> execute_steps(const std::vector<ActionStep>& steps,
                                     const Args& call_args) {
    return execute_steps(steps, call_args, obs::RequestContext::noop());
  }

  // -- statistics

  /// "broker.calls": every call crossing.
  [[nodiscard]] std::uint64_t calls_handled() const noexcept {
    return calls_handled_.value();
  }
  /// "broker.events_received": every event, handled or not (only the
  /// handled ones count in "broker.events").
  [[nodiscard]] std::uint64_t events_handled() const noexcept {
    return events_received_.value();
  }

 private:
  [[nodiscard]] Result<const Action*> select_action(
      const std::string& signal) const;

  /// Open the "broker.call" span, select the action and run its steps.
  void start_call(const Call& broker_call, obs::RequestContext& context,
                  bool inline_mode, CallCallback done);
  /// Shared state of one step run (step cursor, copied args, accumulated
  /// result, the pending invoke outcome in flight).
  struct StepRun;
  /// Run `steps` (which must outlive the run: action step lists are
  /// never removed once registered); `span` (0 = none) is closed when
  /// the run finishes.
  void run_steps(const std::vector<ActionStep>& steps,
                 const Args& call_args, obs::RequestContext& context,
                 bool inline_mode, std::uint64_t span, CallCallback done);
  /// Drive steps from the run's cursor until done or a kInvoke parks.
  void drive_steps(std::shared_ptr<StepRun> run);
  /// Execute one synchronous (non-kInvoke) step.
  Status exec_step(const ActionStep& step, StepRun& run);
  /// Close the run's span and resolve it.
  void finish(StepRun& run, Result<model::Value> outcome);
  /// Consume run->pending after a kInvoke settles; false means the run
  /// failed and `done` has already been invoked.
  bool consume_pending(StepRun& run);

  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  obs::Counter& calls_handled_;
  obs::Counter& events_received_;
  obs::Counter& events_dispatched_;  ///< "broker.events"
  obs::SpanName call_span_;
  obs::SpanName event_span_;
  StateManager state_;
  policy::PolicySet policies_;
  ResourceManager resources_;
  std::unique_ptr<AutonomicManager> autonomic_;
  /// Reader/writer lock over the action/handler maps: calls select under
  /// the shared side, registration takes the exclusive side. Action
  /// nodes are never removed, so selected pointers outlive the lock.
  mutable std::shared_mutex config_mutex_;
  std::map<std::string, Action, std::less<>> actions_;
  std::map<std::string, Handler, std::less<>> handlers_;
};

}  // namespace mdsm::broker
