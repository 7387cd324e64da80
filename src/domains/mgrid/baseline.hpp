// Handcrafted MGrid broker baseline + the six microgrid evaluation
// scenarios, mirroring the communication domain's Exp-1 setup: the same
// mgv.* call vocabulary served by a direct C++ dispatch, so command
// traces can be compared against the model-based MHB.
#pragma once

#include <memory>

#include "broker/broker_api.hpp"
#include "broker/resource_manager.hpp"
#include "domains/mgrid/plant.hpp"
#include "policy/context.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::mgrid {

class HandcraftedMgridBroker final : public broker::BrokerApi {
 public:
  HandcraftedMgridBroker(MicrogridPlant& plant, runtime::EventBus& bus,
                         policy::ContextStore& context);
  ~HandcraftedMgridBroker() override;

  using broker::BrokerApi::call;
  runtime::Task<Result<model::Value>> call(
      const broker::Call& call, obs::RequestContext& context) override;
  [[nodiscard]] const broker::CommandTrace& trace() const override {
    return resources_.trace();
  }

 private:
  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  obs::MetricsRegistry metrics_;
  broker::ResourceManager resources_;
  std::uint64_t subscription_ = 0;
};

/// Self-contained baseline bundle (own plant/bus/context).
struct HandcraftedMgrid {
  MicrogridPlant plant;
  runtime::EventBus bus;
  policy::ContextStore context;
  HandcraftedMgridBroker broker{plant, bus, context};
};

inline std::unique_ptr<HandcraftedMgrid> make_handcrafted_mgrid() {
  return std::make_unique<HandcraftedMgrid>();
}

// ---- scenarios ----------------------------------------------------------

struct MgridStep {
  enum class Kind { kCall, kTripGenerator, kSetContext };
  Kind kind{};
  broker::Call call;
  std::string generator_id;
  std::string context_key;
  model::Value context_value;
};

struct MgridScenario {
  std::string name;
  std::string description;
  std::vector<MgridStep> steps;
};

/// The six microgrid scenarios (provisioning, dispatch, peak shedding,
/// storage discharge, generator trip recovery, decommissioning).
const std::vector<MgridScenario>& mgrid_scenarios();

Status run_mgrid_scenario(const MgridScenario& scenario,
                          broker::BrokerApi& broker, MicrogridPlant& plant,
                          policy::ContextStore& context);

}  // namespace mdsm::mgrid
