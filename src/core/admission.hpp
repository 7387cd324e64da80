// Deadline-aware admission control at the UI layer (PR 5).
//
// Under sustained overload, queue delay silently consumes every
// request's deadline budget: an expired request still marches through
// Synthesis and into the Controller before the per-crossing deadline
// checks finally kill it — all of that work is wasted. Admission control
// sheds such requests at the door instead:
//
//   - a request whose deadline has already passed is shed immediately
//     ("ui.shed_expired");
//   - a request whose remaining budget is smaller than the platform's
//     predicted pipeline latency — an EWMA over recently observed
//     request latencies (queue delay included for async submissions) —
//     is shed as doomed ("ui.shed_predicted").
//
// Every shed publishes a "request.shed" bus event (payload
// ["expired"|"predicted", request tag]) so autonomic symptoms and
// monitors can react to load shedding exactly like any other condition.
// Requests without a deadline are always admitted: with no budget there
// is no basis to predict doom.
#pragma once

#include <atomic>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::core {

struct AdmissionConfig {
  bool enabled = false;
  /// EWMA weight of the newest latency sample (0 < alpha <= 1).
  double ewma_alpha = 0.2;
  /// Shed when remaining budget < safety_factor * predicted latency.
  double safety_factor = 1.0;
};

class AdmissionController {
 public:
  /// Sheds count into `metrics` (cells resolved here) and publish on
  /// `bus`; both must outlive the controller.
  AdmissionController(obs::MetricsRegistry& metrics, runtime::EventBus& bus);

  void configure(AdmissionConfig config) noexcept { config_ = config; }
  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }

  /// Gate a request at the UI boundary. Ok admits; kTimeout means the
  /// deadline is already spent; kUnavailable means the remaining budget
  /// cannot cover the predicted pipeline latency. Disabled controllers
  /// admit everything.
  [[nodiscard]] Status admit(const obs::RequestContext& context);

  /// Feed one completed request's observed end-to-end pipeline latency
  /// (UI admit → script executed, queue delay included) into the EWMA.
  void record_latency(Duration observed) noexcept;

  /// Current EWMA of pipeline latency; zero until the first sample.
  [[nodiscard]] Duration predicted_latency() const noexcept {
    return Duration(static_cast<Duration::rep>(
        ewma_us_.load(std::memory_order_relaxed)));
  }

 private:
  void publish_shed(const obs::RequestContext& context, const char* reason);

  AdmissionConfig config_;
  std::atomic<double> ewma_us_{0.0};
  std::atomic<bool> seeded_{false};
  obs::Counter& shed_expired_;
  obs::Counter& shed_predicted_;
  runtime::EventBus& bus_;
};

}  // namespace mdsm::core
