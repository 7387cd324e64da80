// Cross-domain observability: every domain VM — CVM (communication),
// MGridVM (microgrid), 2SVM hub (smart spaces, split deployment) and a
// CrowdDevice (crowdsensing) — produces a request trace with one span
// per layer its submissions cross, and mints process-unique request ids.
#include <gtest/gtest.h>

#include <set>

#include "domains/comm/cvm.hpp"
#include "domains/comm/handcrafted_broker.hpp"
#include "domains/crowd/fleet.hpp"
#include "domains/mgrid/baseline.hpp"
#include "domains/mgrid/mgridvm.hpp"
#include "domains/smartspace/ssvm.hpp"

namespace mdsm {
namespace {

// One span per layer crossing, nested, all closed by the time the
// submission returns.
void expect_full_pipeline(const obs::Trace& trace, bool has_broker) {
  EXPECT_TRUE(trace.all_closed()) << trace.to_text();
  EXPECT_EQ(trace.count("ui.submit"), 1u) << trace.to_text();
  EXPECT_EQ(trace.count("synthesis.submit"), 1u);
  EXPECT_EQ(trace.count("controller.script"), 1u);
  EXPECT_GE(trace.count("controller.signal"), 1u);
  if (has_broker) {
    EXPECT_GE(trace.count("broker.call"), 1u);
  }
  const obs::Span* ui = trace.find("ui.submit");
  const obs::Span* synthesis = trace.find("synthesis.submit");
  const obs::Span* script = trace.find("controller.script");
  ASSERT_TRUE(ui && synthesis && script);
  EXPECT_EQ(ui->parent, 0u);
  EXPECT_EQ(synthesis->parent, ui->id);
  EXPECT_EQ(script->parent, synthesis->id);
  for (const obs::Span& span : trace.spans()) {
    EXPECT_TRUE(span.closed);
    EXPECT_LE(span.start, span.end);  // monotonic, even on a SimClock
  }
}

TEST(DomainObservability, AllFourVmsTraceTheirPipelines) {
  std::set<std::uint64_t> request_ids;

  {  // CVM — communication, full platform on a SimClock.
    auto cvm = comm::make_cvm();
    ASSERT_TRUE(cvm.ok()) << cvm.status().to_string();
    obs::RequestContext request = (*cvm)->platform->make_context();
    auto script = (*cvm)->platform->submit_model_text(R"(
model call conforms cml
object Connection c1 {
  state = active
  child participants Participant a { address = "a@h" }
  child participants Participant b { address = "b@h" }
  child media Medium voice { kind = audio }
}
)",
                                                      request);
    ASSERT_TRUE(script.ok()) << script.status().to_string();
    expect_full_pipeline(request.trace(), /*has_broker=*/true);
    EXPECT_GT(
        (*cvm)->platform->metrics().snapshot().counter_value("broker.calls"),
        0u);
    request_ids.insert(request.id());
  }

  {  // MGridVM — microgrid, full platform.
    auto vm = mgrid::make_mgridvm();
    ASSERT_TRUE(vm.ok()) << vm.status().to_string();
    obs::RequestContext request = (*vm)->platform->make_context();
    auto script = (*vm)->platform->submit_model_text(R"(
model home conforms mgridml
object Microgrid grid {
  mode = normal
  child devices Generator solar { capacity_kw = 5.0 renewable = true running = true setpoint_kw = 3.0 }
  child devices Load house { demand_kw = 2.0 critical = true }
}
)",
                                                     request);
    ASSERT_TRUE(script.ok()) << script.status().to_string();
    expect_full_pipeline(request.trace(), /*has_broker=*/true);
    request_ids.insert(request.id());
  }

  {  // 2SVM hub — split deployment: top three layers, no broker of its
     // own (commands leave as kSend messages).
    auto space = smartspace::make_smart_space();
    space->add_object("lamp", "light");
    obs::RequestContext request = space->hub->make_context();
    auto script = space->hub->submit_model_text(R"(
model m conforms ssml
object SmartSpace room {
  child objects SmartObject lamp { kind = light power = true }
}
)",
                                                request);
    ASSERT_TRUE(script.ok()) << script.status().to_string();
    space->pump();
    expect_full_pipeline(request.trace(), /*has_broker=*/false);
    EXPECT_EQ(request.trace().count("broker.call"), 0u);
    EXPECT_TRUE(space->nodes.at("lamp")->device().power);
    request_ids.insert(request.id());
  }

  {  // CrowdDevice — all four layers on the device.
    auto fleet = crowd::make_fleet();
    auto& device = fleet->add_device("d1", 7);
    obs::RequestContext request = device.make_context();
    auto script = device.submit_model_text(R"(
model q conforms csml
object SensingQuery t { sensor = temperature period_s = 10 }
)",
                                           request);
    ASSERT_TRUE(script.ok()) << script.status().to_string();
    expect_full_pipeline(request.trace(), /*has_broker=*/true);
    request_ids.insert(request.id());
  }

  // Request ids are process-unique across VMs and domains.
  EXPECT_EQ(request_ids.size(), 4u);
}

TEST(DomainObservability, HandcraftedBaselinesTraceBrokerCalls) {
  // The Exp-1/Exp-2 baselines accept a context on the same BrokerApi.
  auto ncb = comm::make_handcrafted_ncb();
  obs::RequestContext request;
  broker::Call create;
  create.name = "ncb.session.create";
  create.args["id"] = model::Value(std::string("s1"));
  ASSERT_TRUE(runtime::run_inline(ncb->broker.call(create, request)).ok());
  EXPECT_EQ(request.trace().count("broker.call"), 1u);
  EXPECT_EQ(request.trace().find("broker.call")->detail,
            "ncb.session.create");

  auto mg = mgrid::make_handcrafted_mgrid();
  obs::RequestContext mg_request;
  broker::Call provision;
  provision.name = "mgv.gen.provision";
  provision.args["id"] = model::Value(std::string("g1"));
  provision.args["capacity"] = model::Value(4.0);
  provision.args["renewable"] = model::Value(true);
  ASSERT_TRUE(runtime::run_inline(mg->broker.call(provision, mg_request)).ok());
  EXPECT_EQ(mg_request.trace().count("broker.call"), 1u);
  // The legacy one-argument overload still works (runs against noop()).
  broker::Call start;
  start.name = "mgv.gen.start";
  start.args["id"] = model::Value(std::string("g1"));
  ASSERT_TRUE(runtime::run_inline(mg->broker.call(start)).ok());
}

}  // namespace
}  // namespace mdsm
