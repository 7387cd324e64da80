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
  /// action for the call. Yields the action's result value (none if the
  /// action set none). Opens one "broker.call" span per crossing. A
  /// kInvoke that parks in the ResourceManager (retry backoff, attempt
  /// overrun) suspends the call, and the surviving steps resume on
  /// whatever thread settles the resource invocation.
  runtime::Task<Result<model::Value>> call(
      const Call& broker_call, obs::RequestContext& context) override;

  [[nodiscard]] const CommandTrace& trace() const override {
    return resources_.trace();
  }

  /// Event entry point: events are signals too (paper §VI treats calls
  /// and events uniformly); dispatches the bound handler if any.
  Status handle_event(
      const std::string& topic, model::Value payload = {},
      obs::RequestContext& context = obs::RequestContext::noop());

  /// Execute a step sequence against this layer (shared by actions and
  /// autonomic change plans). `steps` and `call_args` must outlive the
  /// task; action step lists are never removed once registered.
  runtime::Task<Result<model::Value>> execute_steps(
      const std::vector<ActionStep>& steps, const Args& call_args,
      obs::RequestContext& context = obs::RequestContext::noop());

 private:
  [[nodiscard]] Result<const Action*> select_action(
      const std::string& signal) const;

  /// The step coroutine; closes `span` (0 = none) when the steps finish.
  runtime::Task<Result<model::Value>> run_steps(
      const std::vector<ActionStep>& steps, const Args& call_args,
      obs::RequestContext& context, std::uint64_t span);
  /// Execute one synchronous (non-kInvoke) step; kResult sets `result`.
  Status exec_step(const ActionStep& step, const Args& call_args,
                   model::Value& result);

  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  obs::Counter& calls_handled_;      ///< "broker.calls": every crossing
  obs::Counter& events_received_;    ///< every event, handled or not
  obs::Counter& events_dispatched_;  ///< "broker.events": handled ones
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
