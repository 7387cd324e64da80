// The handcrafted Network Communication Broker — the baseline of the
// paper's Exp-2: "compare the performance of the model-based version with
// that of the original layer of CVM presented in [22], [24]".
//
// This is a direct, non-model-based C++ implementation of exactly the
// behaviour the CVM middleware model describes: the same call
// vocabulary, the same context-driven quality selection, the same state
// and event bookkeeping, and — critically for Exp-1 — the same resource
// command sequences. Where the model-based broker interprets guarded
// action specs, this class is a hand-written dispatch.
#pragma once

#include "broker/broker_api.hpp"
#include "broker/resource_manager.hpp"
#include "broker/state_manager.hpp"
#include "domains/comm/comm_services.hpp"
#include "policy/context.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::comm {

class HandcraftedCommBroker final : public broker::BrokerApi {
 public:
  /// Installs a CommServiceAdapter over `service` and subscribes to
  /// resource events for the hand-coded recovery path.
  HandcraftedCommBroker(CommSessionService& service, runtime::EventBus& bus,
                        policy::ContextStore& context);
  ~HandcraftedCommBroker() override;

  using broker::BrokerApi::call;
  runtime::Task<Result<model::Value>> call(
      const broker::Call& call, obs::RequestContext& context) override;
  [[nodiscard]] const broker::CommandTrace& trace() const override {
    return resources_.trace();
  }

  [[nodiscard]] broker::StateManager& state() noexcept { return state_; }
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_;
  }

 private:
  [[nodiscard]] std::string select_quality() const;
  /// One command to the comm services, run to completion.
  Result<model::Value> invoke(const char* command, const broker::Args& args);

  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  obs::MetricsRegistry metrics_;
  broker::ResourceManager resources_;
  broker::StateManager state_;
  std::uint64_t subscription_ = 0;
  std::uint64_t recoveries_ = 0;
};

/// A self-contained handcrafted NCB with its own simulated world —
/// the drop-in counterpart of a Cvm bundle for Exp-1/Exp-2 comparisons.
struct HandcraftedNcb {
  SimClock clock;
  net::Network network{clock};
  CommSessionService service{network};
  runtime::EventBus bus;
  policy::ContextStore context;
  HandcraftedCommBroker broker{service, bus, context};
};

inline std::unique_ptr<HandcraftedNcb> make_handcrafted_ncb() {
  return std::make_unique<HandcraftedNcb>();
}

}  // namespace mdsm::comm
