// Cross-cutting failure injection: resources failing mid-action, invalid
// domain operations surfacing through four layers, lossy networks under
// split deployments, and autonomic plans that cannot execute. The
// platform must degrade loudly (counted, logged) but never wedge.
#include <gtest/gtest.h>

#include "domains/comm/cvm.hpp"
#include "domains/crowd/fleet.hpp"
#include "domains/mgrid/mgridvm.hpp"
#include "domains/smartspace/ssvm.hpp"
#include "metrics_fixtures.hpp"

namespace mdsm {
namespace {

using model::Value;

TEST(FailureInjection, InvalidDomainOperationSurfacesAsControllerError) {
  // A CML model that opens media with only one participant: the service
  // rejects it (needs ≥ 2 parties); the error must propagate to the
  // controller's error counter and to the synthesis layer's event log —
  // and the platform must keep serving afterwards.
  auto cvm = comm::make_cvm();
  ASSERT_TRUE(cvm.ok());
  core::Platform& platform = *(*cvm)->platform;
  auto script = platform.submit_model_text(R"(
model lonely conforms cml
object Connection c1 {
  state = active
  child participants Participant solo { address = "s@h" }
  child media Medium voice { kind = audio }
}
)");
  // Dispatch succeeds (the script was delivered); the command failure is
  // reported through the event path, not as a submission failure.
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  EXPECT_EQ(platform.controller().stats().errors, 1u);
  EXPECT_GE(cell_value(platform.metrics(), "synthesis.controller_events"), 1u);
  ASSERT_FALSE(platform.synthesis().event_log().empty());
  EXPECT_NE(platform.synthesis().event_log()[0].find("media.open"),
            std::string::npos);
  // The runtime model committed "voice" even though its command failed
  // (commands are at-most-once; the model states intent, not success),
  // so re-submitting the same media id does not retry. A follow-up model
  // with a fresh media element executes fully — the platform is healthy.
  auto follow_up = platform.submit_model_text(R"(
model fixed conforms cml
object Connection c1 {
  state = active
  child participants Participant solo { address = "s@h" }
  child participants Participant peer { address = "p@h" }
  child media Medium voice2 { kind = audio }
}
)");
  ASSERT_TRUE(follow_up.ok()) << follow_up.status().to_string();
  EXPECT_NE((*cvm)->service.find_session("c1"), nullptr);
  EXPECT_TRUE(
      (*cvm)->service.find_session("c1")->streams.contains("voice2"));
}

TEST(FailureInjection, AutonomicPlanFailureIsLoggedNotFatal) {
  // The rebalance plan sheds a load that turns out to be critical: the
  // plant refuses, the adaptation is counted as attempted, the platform
  // survives.
  auto vm = mgrid::make_mgridvm();
  ASSERT_TRUE(vm.ok());
  core::Platform& platform = *(*vm)->platform;
  platform.context().set("load.sheddable", Value("icu"));  // wrong target
  ASSERT_TRUE(platform
                  .submit_model_text(R"(
model bad conforms mgridml
object Microgrid grid {
  child devices Generator g { capacity_kw = 2.0 running = true setpoint_kw = 1.0 }
  child devices Load icu { demand_kw = 5.0 critical = true }
}
)")
                  .ok());
  // Plan fired (symptom detected) but the shed was refused.
  EXPECT_GE(cell_value(platform.metrics(), "autonomic.symptoms_detected"),
            1u);
  EXPECT_TRUE((*vm)->plant.load("icu")->connected);
  EXPECT_LT((*vm)->plant.net_power_kw(), 0.0);  // honest: still unbalanced
  // The trace shows the attempted shed (issued, then refused).
  bool attempted = false;
  for (const std::string& entry : platform.trace().entries()) {
    if (entry.find("load.shed") != std::string::npos) attempted = true;
  }
  EXPECT_TRUE(attempted);
}

TEST(FailureInjection, LossyNetworkDropsInstallButSpaceStaysConsistent) {
  // 100% message loss between hub and objects: commands evaporate, but
  // neither side errors and a healed network recovers on resubmission.
  auto space = smartspace::make_smart_space();
  space->add_object("lamp", "light");
  space->network.set_link_down("hub", "lamp", true);
  ASSERT_TRUE(space->hub
                  ->submit_model_text(R"(
model m conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light power = true }
}
)")
                  .ok());
  space->pump();
  EXPECT_FALSE(space->nodes.at("lamp")->device().power);  // never arrived
  EXPECT_GT(space->network.stats().blocked, 0u);
  // Heal and resubmit (a model *change* so the synthesis re-emits).
  space->network.set_link_down("hub", "lamp", false);
  ASSERT_TRUE(space->hub
                  ->submit_model_text(R"(
model m conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light power = true level = 5 }
}
)")
                  .ok());
  space->pump();
  EXPECT_EQ(space->nodes.at("lamp")->device().level, 5);
}

TEST(FailureInjection, PartitionedDevicesLoseReportsUntilHealed) {
  auto fleet = crowd::make_fleet();
  auto& near_device = fleet->add_device("near", 1);
  auto& far_device = fleet->add_device("far", 2);
  constexpr std::string_view kQuery = R"(
model q conforms csml
object SensingQuery t { sensor = temperature period_s = 10 }
)";
  ASSERT_TRUE(near_device.submit_model_text(kQuery).ok());
  ASSERT_TRUE(far_device.submit_model_text(kQuery).ok());
  // Partition: "far" cannot reach the provider.
  fleet->network.set_partition({"provider", "near"});
  fleet->advance(std::chrono::seconds(10), 3);
  EXPECT_EQ(near_device.samples_sent(), 3u);
  EXPECT_EQ(far_device.samples_sent(), 3u);  // it samples, but...
  EXPECT_EQ(fleet->provider->query("t")->count, 3u);  // ...only near lands
  EXPECT_GT(fleet->network.stats().blocked, 0u);
  // Heal: both contribute again (lost reports stay lost — datagrams).
  fleet->network.clear_partition();
  fleet->advance(std::chrono::seconds(10), 2);
  EXPECT_EQ(fleet->provider->query("t")->count, 7u);  // 3 + 2×2
}

TEST(FailureInjection, MidScriptFailureDoesNotWedgeRemainingCommands) {
  // Script with a failing command in the middle: processing continues.
  auto cvm = comm::make_cvm();
  ASSERT_TRUE(cvm.ok());
  controller::ControllerLayer& ucm = (*cvm)->platform->controller();
  controller::ControlScript script;
  script.commands = {
      {"ncb.session.create", {{"id", Value("ok1")}}},
      {"ncb.party.add",
       {{"session", Value("ghost")}, {"address", Value("a")}}},  // fails
      {"ncb.session.create", {{"id", Value("ok2")}}},
  };
  ASSERT_TRUE(ucm.submit_script(script).ok());
  EXPECT_EQ(ucm.process_pending(), 3u);
  EXPECT_EQ(ucm.stats().errors, 1u);
  EXPECT_NE((*cvm)->service.find_session("ok1"), nullptr);
  EXPECT_NE((*cvm)->service.find_session("ok2"), nullptr);
}

TEST(FailureInjection, PlatformRestartKeepsConfiguredBehaviour) {
  auto cvm = comm::make_cvm();
  ASSERT_TRUE(cvm.ok());
  core::Platform& platform = *(*cvm)->platform;
  ASSERT_TRUE(platform.stop().ok());
  EXPECT_EQ(platform
                .submit_model_text("model x conforms cml\n"
                                   "object Connection c { state = active }\n")
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(platform.start().ok());
  EXPECT_TRUE(platform
                  .submit_model_text(
                      "model x conforms cml\n"
                      "object Connection c { state = active }\n")
                  .ok());
  EXPECT_NE((*cvm)->service.find_session("c"), nullptr);
}

TEST(FailureInjection, TwoPlatformsFromSameModelAreIsolated) {
  auto first = comm::make_cvm();
  auto second = comm::make_cvm();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*first)
                  ->platform
                  ->submit_model_text(
                      "model a conforms cml\n"
                      "object Connection only-in-first { state = active }\n")
                  .ok());
  EXPECT_NE((*first)->service.find_session("only-in-first"), nullptr);
  EXPECT_EQ((*second)->service.find_session("only-in-first"), nullptr);
  EXPECT_EQ((*second)->platform->trace().size(), 0u);
  // Context stores are independent too.
  (*first)->platform->context().set("bandwidth", Value(9.0));
  EXPECT_TRUE((*second)->platform->context().get("bandwidth").is_none());
}

}  // namespace
}  // namespace mdsm
