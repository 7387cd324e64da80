// Smart-space domain tests: the split 2SVM deployment — hub (top three
// layers) dispatching over the simulated network to object nodes (bottom
// two layers), including installed scripts triggered by async events.
#include <gtest/gtest.h>

#include "domains/smartspace/ssvm.hpp"

namespace mdsm::smartspace {
namespace {

using model::Value;
using model::ValueList;

TEST(WireProtocol, ArgsRoundTrip) {
  broker::Args args{{"a", Value(1)}, {"b", Value("x")}, {"c", Value(true)}};
  broker::Args decoded = decode_args(encode_args(args));
  EXPECT_EQ(decoded, args);
  // Garbage payloads decode to empty args rather than crashing.
  EXPECT_TRUE(decode_args(Value("not-a-list")).empty());
  EXPECT_TRUE(decode_args(Value(ValueList{Value(1)})).empty());
}

TEST(SmartObjectNode, LocalStackDrivesDevice) {
  SimClock clock;
  net::Network network(clock);
  SmartObjectNode node("lamp", "light", network);
  EXPECT_FALSE(node.device().power);
  auto result = runtime::run_inline(node.controller().execute_command(
      {"so.power", {{"value", Value(true)}}}));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(node.device().power);
  ASSERT_TRUE(runtime::run_inline(node.controller().execute_command(
                                      {"so.level", {{"value", Value(70)}}}))
                  .ok());
  EXPECT_EQ(node.device().level, 70);
}

struct SpaceFixture : ::testing::Test {
  std::unique_ptr<SmartSpace> space = make_smart_space();

  void SetUp() override {
    space->add_object("lamp", "light");
    space->add_object("thermo", "thermostat");
  }
};

TEST_F(SpaceFixture, ModelDrivesRemoteObjects) {
  auto script = space->hub->submit_model_text(R"(
model livingroom conforms ssml
object SmartSpace room {
  name = "living"
  child objects SmartObject lamp { kind = light power = true level = 80 }
  child objects SmartObject thermo { kind = thermostat level = 21 }
}
)");
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  space->pump();  // deliver hub → object messages
  EXPECT_TRUE(space->nodes.at("lamp")->device().power);
  EXPECT_EQ(space->nodes.at("lamp")->device().level, 80);
  EXPECT_EQ(space->nodes.at("thermo")->device().level, 21);
  EXPECT_EQ(space->hub->registered_objects().size(), 2u);
}

TEST_F(SpaceFixture, ModelUpdatePropagates) {
  ASSERT_TRUE(space->hub
                  ->submit_model_text(R"(
model livingroom conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light power = true level = 80 }
}
)")
                  .ok());
  space->pump();
  ASSERT_TRUE(space->hub
                  ->submit_model_text(R"(
model livingroom conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light power = false level = 80 }
}
)")
                  .ok());
  space->pump();
  EXPECT_FALSE(space->nodes.at("lamp")->device().power);
}

TEST_F(SpaceFixture, InstalledScriptRunsOnAsyncEvent) {
  // An app: when a user enters, set the lamp to 100.
  auto script = space->hub->submit_model_text(R"(
model evening conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light }
  child apps UbiquitousApp welcome {
    trigger = "user.entered"
    command = set-level
    level = 100
    targets -> lamp
  }
}
)");
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  space->pump();  // install delivered
  SmartObjectNode& lamp = *space->nodes.at("lamp");
  EXPECT_EQ(lamp.installed_scripts(), 1u);
  EXPECT_EQ(lamp.device().level, 0);  // installed, NOT executed yet
  lamp.raise_event("user.entered");   // async trigger
  EXPECT_EQ(lamp.device().level, 100);
  EXPECT_TRUE(lamp.device().power);
  // The script stays installed: a second event re-runs it.
  (void)runtime::run_inline(lamp.controller().execute_command(
      {"so.level", {{"value", Value(10)}}}));
  lamp.raise_event("user.entered");
  EXPECT_EQ(lamp.device().level, 100);
}

TEST_F(SpaceFixture, PowerOffScriptAndMultipleTargets) {
  space->add_object("speaker", "speaker");
  ASSERT_TRUE(space->hub
                  ->submit_model_text(R"(
model night conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light power = true }
  child objects SmartObject speaker { kind = speaker power = true }
  child apps UbiquitousApp goodnight {
    trigger = "user.sleeping"
    command = power-off
    targets -> lamp, speaker
  }
}
)")
                  .ok());
  space->pump();
  EXPECT_TRUE(space->nodes.at("lamp")->device().power);
  EXPECT_EQ(space->nodes.at("lamp")->installed_scripts(), 1u);
  EXPECT_EQ(space->nodes.at("speaker")->installed_scripts(), 1u);
  space->nodes.at("lamp")->raise_event("user.sleeping");
  space->nodes.at("speaker")->raise_event("user.sleeping");
  EXPECT_FALSE(space->nodes.at("lamp")->device().power);
  EXPECT_FALSE(space->nodes.at("speaker")->device().power);
}

TEST_F(SpaceFixture, HubHasNoBrokerResources) {
  // The hub's null broker proves the split: no resource adapter exists
  // on the central node and no resource command was ever issued there.
  ASSERT_TRUE(space->hub
                  ->submit_model_text(R"(
model m conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light power = true }
}
)")
                  .ok());
  space->pump();
  EXPECT_EQ(space->hub->controller().stats().errors, 0u);
  // Work happened on the object's broker, not the hub's.
  EXPECT_GT(space->nodes.at("lamp")->broker().trace().size(), 0u);
}

}  // namespace
}  // namespace mdsm::smartspace
