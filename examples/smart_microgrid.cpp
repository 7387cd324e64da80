// MGridVM example: a home microgrid managed through MGridML models —
// provisioning, a demand spike rebalanced autonomically, eco mode, and a
// simulated day of storage dynamics.
#include <cstdio>

#include "domains/mgrid/mgridvm.hpp"

using namespace mdsm;

int main() {
  auto vm = mgrid::make_mgridvm();
  if (!vm.ok()) {
    std::printf("MGridVM assembly failed: %s\n",
                vm.status().to_string().c_str());
    return 1;
  }
  core::Platform& platform = *(*vm)->platform;
  mgrid::MicrogridPlant& plant = (*vm)->plant;
  std::printf("MGridVM up\n\n");

  // The energy-management policies need to know which storage to prefer
  // and which load may be shed.
  platform.context().set("storage.main", model::Value("battery"));
  platform.context().set("load.sheddable", model::Value("heater"));

  std::printf("[1] provisioning the home microgrid\n");
  auto script = platform.submit_model_text(R"(
model home conforms mgridml
object Microgrid grid {
  mode = normal
  child devices Generator solar { capacity_kw = 5.0 renewable = true running = true setpoint_kw = 4.0 }
  child devices Load house { demand_kw = 2.5 critical = true }
  child devices Storage battery { capacity_kwh = 8.0 }
}
)");
  if (!script.ok()) {
    std::printf("failed: %s\n", script.status().to_string().c_str());
    return 1;
  }
  std::printf("    generation=%.1f kW demand=%.1f kW net=%+.1f kW\n",
              plant.generation_kw(), plant.demand_kw(), plant.net_power_kw());

  std::printf("\n[2] evening demand spike: heater comes on (3 kW)\n");
  (void)platform.submit_model_text(R"(
model home conforms mgridml
object Microgrid grid {
  mode = normal
  child devices Generator solar { capacity_kw = 5.0 renewable = true running = true setpoint_kw = 4.0 }
  child devices Load house { demand_kw = 2.5 critical = true }
  child devices Load heater { demand_kw = 3.0 }
  child devices Storage battery { capacity_kwh = 8.0 }
}
)");
  std::printf("    net=%+.1f kW after autonomic rebalancing (%llu "
              "adaptation(s))\n",
              plant.net_power_kw(),
              static_cast<unsigned long long>(
                  platform.metrics().snapshot().counter_value(
                      "autonomic.reactions")));
  for (const std::string& line :
       platform.broker().autonomic().adaptation_log()) {
    std::printf("    log: %s\n", line.c_str());
  }
  std::printf("    battery mode: %s, heater connected: %s\n",
              plant.storage("battery")->mode.c_str(),
              plant.load("heater") != nullptr &&
                      plant.load("heater")->connected
                  ? "yes"
                  : "no (shed)");

  std::printf("\n[3] simulating four hours of storage dynamics\n");
  for (int hour = 1; hour <= 4; ++hour) {
    plant.step(1.0);
    std::printf("    t+%dh: battery level %.1f kWh (mode %s), net %+.1f "
                "kW\n",
                hour, plant.storage("battery")->level_kwh,
                plant.storage("battery")->mode.c_str(),
                plant.net_power_kw());
  }

  std::printf("\n[4] switching the grid to eco mode (renewables-first "
              "dispatch)\n");
  (void)platform.submit_model_text(R"(
model home conforms mgridml
object Microgrid grid {
  mode = eco
  child devices Generator solar { capacity_kw = 5.0 renewable = true running = true setpoint_kw = 4.0 }
  child devices Load house { demand_kw = 2.5 critical = true }
  child devices Load heater { demand_kw = 3.0 }
  child devices Storage battery { capacity_kwh = 8.0 }
}
)");
  std::printf("    grid.mode context: %s\n",
              platform.context().get("grid.mode").to_text().c_str());

  std::printf("\nfull command trace (%zu commands):\n",
              platform.trace().size());
  for (const std::string& entry : platform.trace().entries()) {
    std::printf("  %s\n", entry.c_str());
  }
  return 0;
}
