// Microgrid-domain tests: plant physics, MGridVM assembly, energy
// management, and Exp-1 behavioral equivalence against the handcrafted
// MHB across all six scenarios.
#include <gtest/gtest.h>

#include "domains/mgrid/baseline.hpp"
#include "domains/mgrid/mgridvm.hpp"
#include "metrics_fixtures.hpp"

namespace mdsm::mgrid {
namespace {

using model::Value;

// ---------------------------------------------------------------- plant

TEST(Plant, PowerBalanceArithmetic) {
  MicrogridPlant plant;
  ASSERT_TRUE(plant.add_generator("g", 5.0, false).ok());
  ASSERT_TRUE(plant.add_load("l", 3.0, false).ok());
  ASSERT_TRUE(plant.start_generator("g").ok());
  ASSERT_TRUE(plant.set_generator_output("g", 4.0).ok());
  ASSERT_TRUE(plant.connect_load("l").ok());
  EXPECT_DOUBLE_EQ(plant.generation_kw(), 4.0);
  EXPECT_DOUBLE_EQ(plant.demand_kw(), 3.0);
  EXPECT_DOUBLE_EQ(plant.net_power_kw(), 1.0);
}

TEST(Plant, ValidationErrors) {
  MicrogridPlant plant;
  EXPECT_FALSE(plant.add_generator("g", -1.0, false).ok());
  ASSERT_TRUE(plant.add_generator("g", 5.0, false).ok());
  EXPECT_EQ(plant.add_load("g", 1.0, false).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(plant.set_generator_output("g", 99.0).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(plant.start_generator("ghost").code(), ErrorCode::kNotFound);
  EXPECT_EQ(plant.set_storage_mode("ghost", "idle").code(),
            ErrorCode::kNotFound);
}

TEST(Plant, CriticalLoadRefusesShed) {
  MicrogridPlant plant;
  plant.add_load("icu", 1.0, /*critical=*/true);
  plant.connect_load("icu");
  EXPECT_EQ(plant.shed_load("icu").code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(plant.load("icu")->connected);
}

TEST(Plant, ImbalanceEventsFireOnTransitionsOnly) {
  MicrogridPlant plant;
  std::vector<std::string> events;
  plant.set_event_sink([&](const std::string& topic, Value) {
    events.push_back(topic);
  });
  plant.add_generator("g", 5.0, false);
  plant.add_load("l", 3.0, false);
  plant.connect_load("l");  // demand 3 > generation 0 → imbalance
  ASSERT_EQ(events, std::vector<std::string>{"imbalance"});
  plant.start_generator("g");
  plant.set_generator_output("g", 2.0);  // still short → no new event
  EXPECT_EQ(events.size(), 1u);
  plant.set_generator_output("g", 4.0);  // restored
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], "balance.restored");
}

TEST(Plant, StorageChargesDischargesAndDepletes) {
  MicrogridPlant plant;
  plant.add_storage("b", 4.0);  // starts half full (2 kWh)
  ASSERT_TRUE(plant.set_storage_mode("b", "discharge").ok());
  EXPECT_DOUBLE_EQ(plant.generation_kw(), 2.0);  // discharge rate
  std::vector<std::string> events;
  plant.set_event_sink([&](const std::string& topic, Value) {
    events.push_back(topic);
  });
  plant.step(0.5);  // 1 kWh drawn
  EXPECT_DOUBLE_EQ(plant.storage("b")->level_kwh, 1.0);
  plant.step(1.0);  // depletes
  EXPECT_DOUBLE_EQ(plant.storage("b")->level_kwh, 0.0);
  EXPECT_EQ(plant.storage("b")->mode, "idle");
  EXPECT_TRUE(std::find(events.begin(), events.end(), "storage.depleted") !=
              events.end());
  ASSERT_TRUE(plant.set_storage_mode("b", "charge").ok());
  plant.step(10.0);  // saturates at capacity
  EXPECT_DOUBLE_EQ(plant.storage("b")->level_kwh, 4.0);
}

TEST(Plant, GeneratorTripRaisesEvent) {
  MicrogridPlant plant;
  std::vector<std::string> events;
  plant.set_event_sink([&](const std::string& topic, Value) {
    events.push_back(topic);
  });
  plant.add_generator("g", 5.0, false);
  plant.start_generator("g");
  plant.trip_generator("g");
  EXPECT_FALSE(plant.generator("g")->running);
  EXPECT_TRUE(std::find(events.begin(), events.end(), "generator.trip") !=
              events.end());
  plant.trip_generator("g");  // already offline: no second event
  EXPECT_EQ(std::count(events.begin(), events.end(), "generator.trip"), 1);
}

// --------------------------------------------------------------- MGridVM

TEST(MGridVm, AssemblesAndExecutesGridModel) {
  auto vm = make_mgridvm();
  ASSERT_TRUE(vm.ok()) << vm.status().to_string();
  auto script = (*vm)->platform->submit_model_text(R"(
model home conforms mgridml
object Microgrid grid {
  mode = normal
  child devices Generator solar { capacity_kw = 5.0 renewable = true running = true setpoint_kw = 3.0 }
  child devices Load house { demand_kw = 2.0 critical = true }
  child devices Storage battery { capacity_kwh = 8.0 }
}
)");
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  const MicrogridPlant& plant = (*vm)->plant;
  ASSERT_NE(plant.generator("solar"), nullptr);
  EXPECT_TRUE(plant.generator("solar")->running);
  EXPECT_DOUBLE_EQ(plant.generator("solar")->setpoint_kw, 3.0);
  ASSERT_NE(plant.load("house"), nullptr);
  EXPECT_TRUE(plant.load("house")->connected);
  ASSERT_NE(plant.storage("battery"), nullptr);
  EXPECT_DOUBLE_EQ(plant.net_power_kw(), 1.0);
}

TEST(MGridVm, ModelUpdateRetunesSetpointAndRemovesDevices) {
  auto vm = make_mgridvm();
  ASSERT_TRUE(vm.ok());
  auto submit = [&](const char* text) {
    auto script = (*vm)->platform->submit_model_text(text);
    ASSERT_TRUE(script.ok()) << script.status().to_string();
  };
  submit(R"(
model home conforms mgridml
object Microgrid grid {
  child devices Generator g1 { capacity_kw = 5.0 running = true setpoint_kw = 2.0 }
  child devices Load l1 { demand_kw = 1.0 }
}
)");
  submit(R"(
model home conforms mgridml
object Microgrid grid {
  child devices Generator g1 { capacity_kw = 5.0 running = true setpoint_kw = 4.5 }
  child devices Load l1 { demand_kw = 1.0 }
}
)");
  EXPECT_DOUBLE_EQ((*vm)->plant.generator("g1")->setpoint_kw, 4.5);
  submit(R"(
model home conforms mgridml
object Microgrid grid {
  child devices Generator g1 { capacity_kw = 5.0 running = true setpoint_kw = 4.5 }
}
)");
  EXPECT_EQ((*vm)->plant.load("l1"), nullptr);  // removed from the plant
}

TEST(MGridVm, EcoModeSelectsEcoDispatchProcedure) {
  auto vm = make_mgridvm();
  ASSERT_TRUE(vm.ok());
  core::Platform& platform = *(*vm)->platform;
  ASSERT_TRUE(platform
                  .submit_model_text(R"(
model home conforms mgridml
object Microgrid grid {
  mode = eco
  child devices Generator wind { capacity_kw = 4.0 renewable = true running = true setpoint_kw = 2.0 }
}
)")
                  .ok());
  // The eco-mode dispatch procedure leaves its signature note in memory.
  EXPECT_EQ(platform.controller().engine().memory("dispatch.note"),
            Value("renewables-first"));
  EXPECT_TRUE((*vm)->plant.generator("wind")->running);
}

TEST(MGridVm, AutonomicLoadSheddingOnImbalance) {
  auto vm = make_mgridvm();
  ASSERT_TRUE(vm.ok());
  core::Platform& platform = *(*vm)->platform;
  platform.context().set("load.sheddable", Value("heater"));
  ASSERT_TRUE(platform
                  .submit_model_text(R"(
model home conforms mgridml
object Microgrid grid {
  child devices Generator g { capacity_kw = 5.0 running = true setpoint_kw = 3.0 }
  child devices Load base { demand_kw = 2.0 critical = true }
  child devices Load heater { demand_kw = 4.0 }
}
)")
                  .ok());
  // heater pushed demand to 6 kW > 3 kW generation → imbalance → shed.
  EXPECT_GE(cell_value(platform.metrics(), "autonomic.reactions"), 1u);
  EXPECT_FALSE((*vm)->plant.load("heater")->connected);
  EXPECT_GE((*vm)->plant.net_power_kw(), 0.0);
}

// ---------------------------------------------- Exp-1 equivalence (mgrid)

TEST(MgridEquivalence, AllScenariosProduceIdenticalTraces) {
  for (const MgridScenario& scenario : mgrid_scenarios()) {
    auto vm = make_mgridvm();
    ASSERT_TRUE(vm.ok()) << scenario.name;
    auto baseline = make_handcrafted_mgrid();
    Status model_based =
        run_mgrid_scenario(scenario, (*vm)->platform->broker(), (*vm)->plant,
                           (*vm)->platform->context());
    ASSERT_TRUE(model_based.ok())
        << scenario.name << ": " << model_based.to_string();
    Status handcrafted = run_mgrid_scenario(scenario, baseline->broker,
                                            baseline->plant,
                                            baseline->context);
    ASSERT_TRUE(handcrafted.ok())
        << scenario.name << ": " << handcrafted.to_string();
    EXPECT_TRUE((*vm)->platform->trace() == baseline->broker.trace())
        << scenario.name << " traces diverge";
    EXPECT_GT((*vm)->platform->trace().size(), 0u) << scenario.name;
  }
}

TEST(MgridEquivalence, StorageDischargePreferredOverShedding) {
  const MgridScenario& scenario = mgrid_scenarios()[2];  // g3
  ASSERT_EQ(scenario.name, "g3-storage-discharge");
  auto vm = make_mgridvm();
  ASSERT_TRUE(vm.ok());
  // Give the model-based side BOTH options; discharge must win (priority).
  (*vm)->platform->context().set("load.sheddable", Value("ev-c"));
  ASSERT_TRUE(run_mgrid_scenario(scenario, (*vm)->platform->broker(),
                                 (*vm)->plant, (*vm)->platform->context())
                  .ok());
  EXPECT_EQ((*vm)->plant.storage("battery-c")->mode, "discharge");
  EXPECT_TRUE((*vm)->plant.load("ev-c")->connected);  // not shed
}

// Property sweep: every microgrid scenario stays trace-equivalent under
// each grid mode (eco mode routes through a different Case-2 procedure
// on the model-based side, which must not change the resource trace).
struct GridMode {
  const char* name;
};

// Test names embed the printed parameters; print the mode by value (the
// default printer shows a const char* as a per-build pointer address).
void PrintTo(const GridMode& mode, std::ostream* os) { *os << mode.name; }

class MgridEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, GridMode>> {
};

TEST_P(MgridEquivalenceSweep, TracesEqualUnderGridMode) {
  auto [scenario_index, grid_mode] = GetParam();
  const char* mode = grid_mode.name;
  const MgridScenario& scenario = mgrid_scenarios()[scenario_index];
  auto vm = make_mgridvm();
  ASSERT_TRUE(vm.ok());
  auto baseline = make_handcrafted_mgrid();
  (*vm)->platform->context().set("grid.mode", Value(mode));
  baseline->context.set("grid.mode", Value(mode));
  ASSERT_TRUE(run_mgrid_scenario(scenario, (*vm)->platform->broker(),
                                 (*vm)->plant, (*vm)->platform->context())
                  .ok())
      << scenario.name;
  ASSERT_TRUE(run_mgrid_scenario(scenario, baseline->broker, baseline->plant,
                                 baseline->context)
                  .ok())
      << scenario.name;
  EXPECT_TRUE((*vm)->platform->trace() == baseline->broker.trace())
      << scenario.name << " in mode " << mode;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenariosAllModes, MgridEquivalenceSweep,
    ::testing::Combine(::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(GridMode{"normal"},
                                         GridMode{"eco"})));

TEST(MgridScenarios, SixScenariosWithUniqueNames) {
  const auto& scenarios = mgrid_scenarios();
  ASSERT_EQ(scenarios.size(), 6u);
  std::set<std::string> names;
  for (const auto& scenario : scenarios) {
    EXPECT_TRUE(names.insert(scenario.name).second);
    EXPECT_FALSE(scenario.steps.empty());
  }
}

}  // namespace
}  // namespace mdsm::mgrid
