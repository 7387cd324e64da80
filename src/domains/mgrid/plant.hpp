// Simulated microgrid plant — the substitute for the physical plant
// controllers and smart devices MGridVM drives (paper §IV-B). Devices
// accept the atomic commands the MHB (Microgrid Hardware Broker) issues
// and keep first-order electrical state; the plant computes the power
// balance after each command and raises "imbalance" events, which feed
// the broker layer's autonomic energy management.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "broker/resource_manager.hpp"
#include "common/status.hpp"

namespace mdsm::mgrid {

struct GeneratorState {
  double capacity_kw = 0.0;
  double setpoint_kw = 0.0;
  bool running = false;
  bool renewable = false;
};

struct LoadState {
  double demand_kw = 0.0;
  bool critical = false;
  bool connected = false;
};

struct StorageState {
  double capacity_kwh = 0.0;
  double level_kwh = 0.0;
  std::string mode = "idle";  ///< idle|charge|discharge
  double rate_kw = 2.0;       ///< fixed charge/discharge power
};

class MicrogridPlant {
 public:
  // ---- device provisioning (driven by grid.* commands)
  Status add_generator(const std::string& id, double capacity_kw,
                       bool renewable);
  Status add_load(const std::string& id, double demand_kw, bool critical);
  Status add_storage(const std::string& id, double capacity_kwh);
  Status remove_device(const std::string& id);

  // ---- atomic device commands (the MHB vocabulary)
  Status start_generator(const std::string& id);
  Status stop_generator(const std::string& id);
  Status set_generator_output(const std::string& id, double setpoint_kw);
  Status connect_load(const std::string& id);
  Status shed_load(const std::string& id);
  Status set_storage_mode(const std::string& id, const std::string& mode);

  // ---- plant physics
  /// Net power = generation + discharge − demand − charge (kW).
  [[nodiscard]] double net_power_kw() const;
  [[nodiscard]] double generation_kw() const;
  [[nodiscard]] double demand_kw() const;

  /// Advance storage levels by `hours` at current rates; re-checks the
  /// balance afterwards (storage may saturate).
  void step(double hours);

  /// Failure injection: a running generator trips offline.
  void trip_generator(const std::string& id);

  using EventSink =
      std::function<void(const std::string& topic, model::Value payload)>;
  void set_event_sink(EventSink sink) { sink_ = std::move(sink); }

  [[nodiscard]] const GeneratorState* generator(std::string_view id) const;
  [[nodiscard]] const LoadState* load(std::string_view id) const;
  [[nodiscard]] const StorageState* storage(std::string_view id) const;

 private:
  void check_balance();
  void emit(const std::string& topic, model::Value payload = {});

  std::map<std::string, GeneratorState, std::less<>> generators_;
  std::map<std::string, LoadState, std::less<>> loads_;
  std::map<std::string, StorageState, std::less<>> storages_;
  EventSink sink_;
  bool last_balanced_ = true;
};

/// ResourceAdapter exposing the plant as resource "plant". Commands:
///   gen.add(id,capacity,renewable)  gen.start(id)  gen.stop(id)
///   gen.set(id,kw)                  load.add(id,demand,critical)
///   load.connect(id)                load.shed(id)
///   storage.add(id,capacity)        storage.mode(id,mode)
///   device.remove(id)               plant.step(hours)
class PlantAdapter final : public broker::ResourceAdapter {
 public:
  explicit PlantAdapter(MicrogridPlant& plant, std::string name = "plant");

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override;

 private:
  MicrogridPlant* plant_;
};

}  // namespace mdsm::mgrid
