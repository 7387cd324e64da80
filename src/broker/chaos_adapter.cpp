#include "broker/chaos_adapter.hpp"

#include <stdexcept>
#include <thread>

namespace mdsm::broker {

ChaosAdapter::ChaosAdapter(std::unique_ptr<ResourceAdapter> inner,
                           ChaosConfig config)
    : ResourceAdapter(inner->name()),
      inner_(std::move(inner)),
      config_(config),
      rng_(config.seed) {
  inner_->set_event_sink(
      [this](const std::string& topic, model::Value payload) {
        raise_event(topic, std::move(payload));
      });
}

double ChaosAdapter::draw() {
  std::lock_guard lock(rng_mutex_);
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
}

Result<model::Value> ChaosAdapter::execute(const std::string& command,
                                           const Args& args) {
  executed_.add();
  if (config_.delay_rate > 0.0 && config_.delay.count() > 0 &&
      draw() < config_.delay_rate) {
    delayed_.add();
    if (config_.sleeper) {
      config_.sleeper(config_.delay);
    } else {
      std::this_thread::sleep_for(config_.delay);
    }
  }
  if (config_.throw_rate > 0.0 && draw() < config_.throw_rate) {
    threw_.add();
    throw std::runtime_error("chaos: adapter '" + name() +
                             "' threw on '" + command + "'");
  }
  if (config_.fail_rate > 0.0 && draw() < config_.fail_rate) {
    failed_.add();
    return Unavailable("chaos: resource '" + name() + "' unavailable for '" +
                       command + "'");
  }
  passed_.add();
  return inner_->execute(command, args);
}

}  // namespace mdsm::broker
