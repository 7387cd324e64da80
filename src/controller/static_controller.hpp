// Non-adaptive Controller baseline (paper §VII-B): "the response time of
// our Controller layer architecture was measurably slower than a previous
// non-adaptive Controller undertaking the same task, [but] scenarios
// where adaptability was beneficial ... would result in as much as an
// order of magnitude improvement in response time for our adaptive
// Controller layer (approx. 800 ms for our architecture, compared to
// approx. 4000 ms for the older non-adaptable architecture)."
//
// This baseline dispatches commands through a fixed table — no guards,
// no classification, no IM generation — which is why its static-path
// latency is lower. The price: changing behavior requires a full
// stop → reload → restart cycle (reload_fn rebuilds the whole dispatch
// configuration from scratch, the way the original platforms reloaded
// their handcrafted middleware).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "broker/broker_api.hpp"
#include "controller/execution_engine.hpp"
#include "controller/script.hpp"

namespace mdsm::controller {

class StaticController {
 public:
  /// The fixed command → instruction-list dispatch table.
  using DispatchTable =
      std::map<std::string, std::vector<Instruction>, std::less<>>;

  /// A reload rebuilds the table from external configuration. The
  /// function performs whatever (expensive) reconstruction the platform
  /// needs — re-parsing models, re-instantiating components — and
  /// returns the new table.
  using ReloadFn = std::function<Result<DispatchTable>()>;

  StaticController(broker::BrokerApi& broker, runtime::EventBus& bus,
                   policy::ContextStore& context);

  void set_table(DispatchTable table) { table_ = std::move(table); }

  /// Direct table dispatch; unknown commands fail.
  Result<model::Value> execute(const Command& command);

  /// The only way this controller adapts: stop, rebuild everything via
  /// `reload`, restart. Counts reloads for the benches.
  Status reload(const ReloadFn& reload);

  [[nodiscard]] std::uint64_t commands_executed() const noexcept {
    return executed_;
  }
  [[nodiscard]] std::uint64_t reloads() const noexcept { return reloads_; }
  [[nodiscard]] ExecutionEngine& engine() noexcept { return engine_; }

 private:
  obs::MetricsRegistry metrics_;
  ExecutionEngine engine_;
  DispatchTable table_;
  std::uint64_t executed_ = 0;
  std::uint64_t reloads_ = 0;
  bool running_ = true;
};

}  // namespace mdsm::controller
