#include "broker/autonomic_manager.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace mdsm::broker {

AutonomicManager::AutonomicManager(runtime::EventBus& bus,
                                   policy::ContextStore& context,
                                   obs::MetricsRegistry& metrics,
                                   StepExecutor execute_steps)
    : bus_(&bus),
      context_(&context),
      adaptations_(metrics.counter("autonomic.reactions")),
      detected_(metrics.counter("autonomic.symptoms_detected")),
      reaction_failures_(metrics.counter("autonomic.reaction_failures")),
      reaction_span_(metrics, "autonomic.reaction"),
      execute_steps_(std::move(execute_steps)) {}

AutonomicManager::~AutonomicManager() {
  for (auto id : subscriptions_) bus_->unsubscribe(id);
}

Status AutonomicManager::add_symptom(Symptom symptom) {
  for (const Symptom& existing : symptoms_) {
    if (existing.name == symptom.name) {
      return AlreadyExists("symptom '" + symptom.name + "' already defined");
    }
  }
  // One subscription per symptom, each bound to its own symptom index so
  // symptoms sharing a topic never double-fire each other.
  std::size_t index = symptoms_.size();
  symptoms_.push_back(std::move(symptom));
  subscriptions_.push_back(bus_->subscribe(
      symptoms_[index].trigger_topic,
      [this, index](const runtime::Event& event) { on_event(event, index); }));
  return Status::Ok();
}

Status AutonomicManager::add_plan(ChangePlan plan) {
  for (const ChangePlan& existing : plans_) {
    if (existing.name == plan.name) {
      return AlreadyExists("change plan '" + plan.name + "' already defined");
    }
  }
  plans_.push_back(std::move(plan));
  // Keep priority-descending, stable.
  std::stable_sort(plans_.begin(), plans_.end(),
                   [](const ChangePlan& a, const ChangePlan& b) {
                     return a.priority > b.priority;
                   });
  return Status::Ok();
}

void AutonomicManager::on_event(const runtime::Event& event,
                                std::size_t symptom_index) {
  const Symptom& symptom = symptoms_[symptom_index];
  Result<bool> holds = symptom.condition.evaluate_bool(*context_);
  if (!holds.ok() || !*holds) return;
  detected_.add();
  log_entry("symptom " + symptom.name + " on " + event.topic +
            " -> request " + symptom.change_request);
  Args args;
  args["event.topic"] = model::Value(event.topic);
  args["event.payload"] = event.payload;
  Status status = raise_request(symptom.change_request, args);
  if (!status.ok()) {
    log_warn("autonomic") << "request '" << symptom.change_request
                          << "' failed: " << status.to_string();
  }
}

Status AutonomicManager::raise_request(const std::string& request,
                                       const Args& args) {
  for (const ChangePlan& plan : plans_) {
    if (plan.handles_request != request) continue;
    Result<bool> applicable = plan.guard.evaluate_bool(*context_);
    if (!applicable.ok() || !*applicable) continue;
    adaptations_.add();
    log_entry("plan " + plan.name + " executing for " + request);
    // Reactions are reached through bus subscriptions, so the request
    // that caused them is only visible as the ambient context; the span
    // lands in that request's trace (none when adapting spontaneously).
    obs::RequestContext* request_context = obs::current();
    std::uint64_t span = 0;
    if (request_context != nullptr) {
      span = request_context->open_span(reaction_span_, plan.name);
    }
    Status executed = execute_steps_(plan.steps, args);
    if (request_context != nullptr) request_context->close_span(span);
    if (!executed.ok()) reaction_failures_.add();
    return executed;
  }
  return NotFound("no applicable change plan for request '" + request + "'");
}

}  // namespace mdsm::broker
