// The simulated crowdsensing fleet (paper §IV-D): participating devices
// and the logically centralized provider.
//
// Split deployment: each device runs all four layers (users author and
// modify query models ON the device), while the provider runs only the
// lower layers, receiving sensing reports and aggregating them. Devices
// sample synthetic sensor signals on the virtual clock and ship reports
// to the provider over the simulated network.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker_layer.hpp"
#include "common/clock.hpp"
#include "controller/controller_layer.hpp"
#include "net/network.hpp"
#include "runtime/event_loop.hpp"
#include "synthesis/synthesis_engine.hpp"

namespace mdsm::crowd {

/// Per-query aggregation state on the provider.
struct QueryAggregate {
  std::string aggregate = "avg";  ///< avg|min|max|count
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] double result() const;
};

/// The provider node: lower layers only. Reports arrive as messages,
/// flow through its controller (Case 1 action) into its broker, whose
/// aggregator resource folds them into per-query state.
class CrowdProvider {
 public:
  explicit CrowdProvider(net::Network& network);

  [[nodiscard]] const QueryAggregate* query(std::string_view id) const;
  [[nodiscard]] std::uint64_t reports_received() const noexcept {
    return reports_;
  }
  [[nodiscard]] controller::ControllerLayer& controller() noexcept {
    return *controller_;
  }
  [[nodiscard]] broker::BrokerLayer& broker() noexcept { return *broker_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  friend class AggregatorAdapter;
  runtime::EventBus bus_;
  policy::ContextStore context_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<broker::BrokerLayer> broker_;
  std::unique_ptr<controller::ControllerLayer> controller_;
  std::map<std::string, QueryAggregate, std::less<>> queries_;
  std::uint64_t reports_ = 0;
};

/// A participating device: all four layers plus a synthetic sensor.
/// Query models are submitted on the device; the CSML LTS turns them
/// into cs.query.* commands; the broker's sensor resource schedules
/// periodic sampling on the shared virtual clock.
class CrowdDevice {
 public:
  CrowdDevice(std::string id, std::uint32_t seed, net::Network& network,
              SimClock& clock);

  /// UI layer: author or modify the device's query model. The
  /// context-free overload mints a context internally (see last_trace()).
  Result<controller::ControlScript> submit_model_text(
      std::string_view text, obs::RequestContext& context);
  Result<controller::ControlScript> submit_model_text(std::string_view text);

  [[nodiscard]] obs::RequestContext make_context(
      std::optional<Duration> deadline = {}) {
    return obs::RequestContext(obs::steady_clock(), &metrics_, deadline);
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::Trace* last_trace() const noexcept {
    return last_context_ == nullptr ? nullptr : &last_context_->trace();
  }

  /// Fire due sampling timers (the fleet's advance() drives this).
  std::size_t run_due();

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t samples_sent() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::size_t active_queries() const noexcept;
  [[nodiscard]] controller::ControllerLayer& controller() noexcept {
    return *controller_;
  }

 private:
  friend class SensorAdapter;

  struct ActiveQuery {
    std::string sensor;
    std::string aggregate;
    Duration period{};
    std::uint64_t timer_id = 0;
    std::uint64_t sample_index = 0;
  };

  void schedule(const std::string& query_id);
  void sample(const std::string& query_id);
  [[nodiscard]] double reading(const std::string& sensor,
                               std::uint64_t index) const;

  std::string id_;
  std::uint32_t seed_;
  net::Endpoint* endpoint_ = nullptr;
  runtime::EventLoop timers_;  ///< manual mode: run_due() polls it
  runtime::EventBus bus_;
  policy::ContextStore context_;
  obs::MetricsRegistry metrics_;
  obs::Counter& requests_submitted_ = metrics_.counter("requests.submitted");
  obs::Counter& requests_failed_ = metrics_.counter("requests.failed");
  std::unique_ptr<obs::RequestContext> last_context_;
  std::unique_ptr<broker::BrokerLayer> broker_;
  std::unique_ptr<controller::ControllerLayer> controller_;
  std::unique_ptr<synthesis::SynthesisEngine> synthesis_;
  std::map<std::string, ActiveQuery, std::less<>> queries_;
  std::uint64_t samples_ = 0;
};

/// The whole campaign: provider + N devices over one simulated network.
struct CrowdFleet {
  SimClock clock;
  net::Network network{clock};
  std::unique_ptr<CrowdProvider> provider;
  std::vector<std::unique_ptr<CrowdDevice>> devices;

  CrowdDevice& add_device(const std::string& id, std::uint32_t seed);

  /// Advance virtual time in `step` increments `rounds` times, firing
  /// device sampling timers and delivering reports after each step.
  void advance(Duration step, int rounds);
};

std::unique_ptr<CrowdFleet> make_fleet();

}  // namespace mdsm::crowd
