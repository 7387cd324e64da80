// Fault-injection decorator over a ResourceAdapter: with configurable
// probabilities a command fails cleanly (error Status), throws (exercising
// the ResourceManager's exception boundary), or stalls (simulating a slow
// resource) before delegating to the wrapped adapter. Used by the
// concurrency soak harness and by failure-mode tests — a platform that
// only ever sees well-behaved resources has never really been tested.
//
// Thread-safe: concurrent execute() calls draw from one seeded RNG under
// a mutex (deterministic fault *rates*, not a deterministic fault
// sequence, once calls interleave). The adapter counts executed, failed,
// threw, delayed and passed under "chaos." in a registry it owns.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <random>

#include "broker/resource_manager.hpp"
#include "common/clock.hpp"
#include "obs/metrics.hpp"

namespace mdsm::broker {

struct ChaosConfig {
  double fail_rate = 0.0;   ///< P(return Unavailable instead of executing)
  double throw_rate = 0.0;  ///< P(throw std::runtime_error)
  double delay_rate = 0.0;  ///< P(sleep `delay` before delegating)
  Duration delay{};         ///< stall length for delayed commands
  std::uint64_t seed = 42;  ///< RNG seed (soak runs are repeatable)
  /// How a delayed command stalls; null means a real
  /// std::this_thread::sleep_for. SimClock tests inject an advance of
  /// their clock instead, so "slow resource" scenarios run in virtual
  /// time (and ASan/TSan soaks do not wall-block).
  std::function<void(Duration)> sleeper;
};

class ChaosAdapter final : public ResourceAdapter {
 public:
  /// Wraps `inner`, keeping its name so the decorated resource is a
  /// drop-in replacement; events raised by the inner adapter are
  /// forwarded through this wrapper's sink.
  ChaosAdapter(std::unique_ptr<ResourceAdapter> inner, ChaosConfig config);

  Result<model::Value> execute(const std::string& command,
                               const Args& args) override;

  /// The adapter's "chaos.*" cells.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] ResourceAdapter& inner() noexcept { return *inner_; }

 private:
  /// One uniform [0,1) draw; locked — execute() runs on many threads.
  double draw();

  std::unique_ptr<ResourceAdapter> inner_;
  ChaosConfig config_;
  std::mutex rng_mutex_;
  std::mt19937_64 rng_;
  obs::MetricsRegistry metrics_;  ///< declared before the cells in it
  obs::Counter& executed_ = metrics_.counter("chaos.executed");  ///< calls
  obs::Counter& failed_ = metrics_.counter("chaos.failed");    ///< errors
  obs::Counter& threw_ = metrics_.counter("chaos.threw");      ///< throws
  obs::Counter& delayed_ = metrics_.counter("chaos.delayed");  ///< stalls
  obs::Counter& passed_ = metrics_.counter("chaos.passed");  ///< delegated
};

}  // namespace mdsm::broker
