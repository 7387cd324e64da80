#include "core/admission.hpp"

namespace mdsm::core {

void AdmissionController::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    shed_expired_ = nullptr;
    shed_predicted_ = nullptr;
    return;
  }
  shed_expired_ = &metrics->counter("ui.shed_expired");
  shed_predicted_ = &metrics->counter("ui.shed_predicted");
}

Status AdmissionController::admit(const obs::RequestContext& context) {
  if (!config_.enabled || !context.deadline().has_value()) {
    return Status::Ok();
  }
  const TimePoint now = context.clock().now();
  if (now >= *context.deadline()) {
    if (shed_expired_ != nullptr) shed_expired_->add();
    publish_shed(context, "expired");
    return Timeout(context.tag() + " shed at admission: deadline already "
                   "spent");
  }
  const Duration budget = *context.deadline() - now;
  const Duration predicted = predicted_latency();
  if (predicted.count() > 0 &&
      static_cast<double>(budget.count()) <
          config_.safety_factor * static_cast<double>(predicted.count())) {
    if (shed_predicted_ != nullptr) shed_predicted_->add();
    publish_shed(context, "predicted");
    return Unavailable(context.tag() + " shed at admission: budget " +
                       std::to_string(budget.count()) +
                       "us < predicted pipeline latency " +
                       std::to_string(predicted.count()) + "us");
  }
  return Status::Ok();
}

void AdmissionController::record_latency(Duration observed) noexcept {
  if (observed.count() < 0) return;
  const double sample = static_cast<double>(observed.count());
  if (!seeded_.exchange(true, std::memory_order_relaxed)) {
    ewma_us_.store(sample, std::memory_order_relaxed);
    return;
  }
  double current = ewma_us_.load(std::memory_order_relaxed);
  double next = 0.0;
  do {
    next = current + config_.ewma_alpha * (sample - current);
  } while (!ewma_us_.compare_exchange_weak(current, next,
                                           std::memory_order_relaxed));
}

void AdmissionController::publish_shed(const obs::RequestContext& context,
                                       const char* reason) {
  if (bus_ == nullptr) return;
  bus_->publish(runtime::Event{
      .topic = "request.shed",
      .source = "ui",
      .payload = model::ValueList{model::Value(reason),
                                  model::Value(context.tag())},
      .request_id = context.id()});
}

}  // namespace mdsm::core
