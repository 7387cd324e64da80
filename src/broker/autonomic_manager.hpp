// Autonomic Manager: "for self-configuration ... different symptoms,
// change requests and change plans may be defined to specify the
// different situations in which autonomic behavior is triggered and how
// to handle each such occurrence" (paper §V-A).
//
// The manager implements a compact MAPE loop: Monitor (bus events) →
// Analyze (symptom conditions over the context) → Plan (select a change
// plan for the raised change request) → Execute (run the plan's steps
// through the layer's step executor).
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "broker/action.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "policy/context.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::broker {

/// A situation worth reacting to: when an event on `trigger_topic`
/// arrives and `condition` holds over the context, raise `change_request`.
struct Symptom {
  std::string name;
  std::string trigger_topic;       ///< exact or prefix ("resource.*")
  policy::Expression condition;    ///< empty = always
  std::string change_request;      ///< request kind raised
};

/// How to satisfy one change-request kind.
struct ChangePlan {
  std::string name;
  std::string handles_request;
  policy::Expression guard;        ///< plan applicability
  int priority = 0;
  std::vector<ActionStep> steps;
};

class AutonomicManager {
 public:
  /// `execute_steps` is the owning layer's step interpreter (shared with
  /// Action execution); the autonomic manager never touches resources
  /// directly.
  using StepExecutor = std::function<Status(
      const std::vector<ActionStep>& steps, const Args& request_args)>;

  /// Counts go to `metrics` ("autonomic.*" cells, resolved here), which
  /// must outlive the manager.
  AutonomicManager(runtime::EventBus& bus, policy::ContextStore& context,
                   obs::MetricsRegistry& metrics, StepExecutor execute_steps);
  ~AutonomicManager();

  AutonomicManager(const AutonomicManager&) = delete;
  AutonomicManager& operator=(const AutonomicManager&) = delete;

  Status add_symptom(Symptom symptom);
  Status add_plan(ChangePlan plan);

  /// Manually raise a change request (also used internally by symptom
  /// detection). Selects the highest-priority applicable plan.
  Status raise_request(const std::string& request, const Args& args = {});

  /// Copy of the adaptation log (events fire on request threads).
  [[nodiscard]] std::vector<std::string> adaptation_log() const {
    std::lock_guard lock(log_mutex_);
    return log_;
  }

 private:
  void on_event(const runtime::Event& event, std::size_t symptom_index);
  void log_entry(std::string entry) {
    std::lock_guard lock(log_mutex_);
    log_.push_back(std::move(entry));
  }

  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  obs::Counter& adaptations_;  ///< "autonomic.reactions"
  obs::Counter& detected_;     ///< "autonomic.symptoms_detected"
  obs::Counter& reaction_failures_;
  obs::SpanName reaction_span_;
  StepExecutor execute_steps_;
  std::vector<Symptom> symptoms_;
  std::vector<ChangePlan> plans_;
  std::vector<std::uint64_t> subscriptions_;
  mutable std::mutex log_mutex_;  ///< guards log_ only
  std::vector<std::string> log_;
};

}  // namespace mdsm::broker
