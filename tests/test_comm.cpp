// Communication-domain tests: the simulated services, the CVM platform
// built from its middleware model, the handcrafted baseline broker, and
// — the heart of Exp-1 — behavioral equivalence of their command traces
// across all eight evaluation scenarios.
#include <gtest/gtest.h>

#include "conference_fixture.hpp"
#include "domains/comm/cvm.hpp"
#include "domains/comm/handcrafted_broker.hpp"
#include "domains/comm/scenarios.hpp"
#include "metrics_fixtures.hpp"
#include "model/text_format.hpp"

namespace mdsm::comm {
namespace {

using model::Value;

// ------------------------------------------------------------ services

struct ServiceFixture : ::testing::Test {
  SimClock clock;
  net::Network network{clock};
  CommSessionService service{network};
};

TEST_F(ServiceFixture, SessionLifecycle) {
  ASSERT_TRUE(service.create_session("s1").ok());
  EXPECT_EQ(service.create_session("s1").code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(service.add_party("s1", "alice").ok());
  ASSERT_TRUE(service.add_party("s1", "bob").ok());
  EXPECT_EQ(service.add_party("s1", "alice").code(),
            ErrorCode::kAlreadyExists);
  const Session* session = service.find_session("s1");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->parties.size(), 2u);
  ASSERT_TRUE(service.teardown_session("s1").ok());
  EXPECT_EQ(service.teardown_session("s1").code(), ErrorCode::kNotFound);
}

TEST_F(ServiceFixture, StreamsRequireTwoParties) {
  service.create_session("s1");
  service.add_party("s1", "alice");
  EXPECT_EQ(
      service.open_stream("s1", "m", "audio", "standard", true).code(),
      ErrorCode::kFailedPrecondition);
  service.add_party("s1", "bob");
  ASSERT_TRUE(service.open_stream("s1", "m", "audio", "standard", true).ok());
  EXPECT_EQ(service.open_stream("s1", "m", "audio", "standard", true).code(),
            ErrorCode::kAlreadyExists);
  ASSERT_TRUE(service.retune_stream("s1", "m", "low").ok());
  EXPECT_EQ(service.find_session("s1")->streams.at("m").quality, "low");
  ASSERT_TRUE(service.close_stream("s1", "m").ok());
  EXPECT_EQ(service.close_stream("s1", "m").code(), ErrorCode::kNotFound);
}

TEST_F(ServiceFixture, HandshakesExchangeMessages) {
  service.create_session("s1");
  service.add_party("s1", "alice");
  auto sent_before = network.stats().sent;
  service.add_party("s1", "bob");
  // join offer + answer at minimum
  EXPECT_GT(network.stats().sent, sent_before);
  EXPECT_GT(service.handshakes(), 0u);
}

TEST_F(ServiceFixture, FaultInjectionRaisesEventAndReconnectRestores) {
  std::vector<std::string> events;
  service.set_event_sink([&](const std::string& topic, Value payload) {
    events.push_back(topic + ":" + payload.to_text());
  });
  service.create_session("s1");
  service.add_party("s1", "alice");
  service.add_party("s1", "bob");
  service.inject_link_failure("s1", "bob");
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back(), "link.lost:\"bob\"");
  ASSERT_TRUE(service.reconnect_party("s1", "bob").ok());
  EXPECT_EQ(events.back(), "party.reconnected:\"bob\"");
}

TEST_F(ServiceFixture, AdapterMapsCommandsAndErrors) {
  runtime::EventBus bus;
  obs::MetricsRegistry metrics;
  broker::ResourceManager resources(bus, metrics);
  ASSERT_TRUE(resources
                  .add_adapter(std::make_unique<CommServiceAdapter>(service))
                  .ok());
  ASSERT_TRUE(
      runtime::run_inline(
          resources.invoke("comm", "session.create", {{"id", Value("s1")}}))
          .ok());
  EXPECT_FALSE(
      runtime::run_inline(resources.invoke("comm", "party.remove",
                       {{"session", Value("s1")}, {"address", Value("x")}}))
          .ok());
  EXPECT_EQ(runtime::run_inline(resources.invoke("comm", "no.such.command", {}))
                .status()
                .code(),
            ErrorCode::kNotFound);
}

// ------------------------------------------------------------------ CVM

TEST(Cvm, AssemblesFromMiddlewareModelAndRunsApplicationModels) {
  auto cvm = make_cvm();
  ASSERT_TRUE(cvm.ok()) << cvm.status().to_string();
  core::Platform& platform = *(*cvm)->platform;
  auto script = platform.submit_model_text(R"(
model call conforms cml
object Connection c1 {
  state = pending
  child participants Participant alice { address = "alice@net" }
  child participants Participant bob { address = "bob@net" }
  child media Medium voice { kind = audio }
}
)");
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  const auto& entries = platform.trace().entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0], "comm.session.create(id=\"c1\")");
  EXPECT_EQ(entries[1],
            "comm.party.add(address=\"alice\", session=\"c1\")");
  EXPECT_EQ(entries[2], "comm.party.add(address=\"bob\", session=\"c1\")");
  EXPECT_EQ(entries[3],
            "comm.media.open(id=\"voice\", kind=\"audio\", live=true, "
            "quality=\"standard\", session=\"c1\")");
  // The simulated service really established the session.
  const Session* session = (*cvm)->service.find_session("c1");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->parties.size(), 2u);
  EXPECT_TRUE(session->streams.contains("voice"));
}

TEST(Cvm, ModelUpdateRetunesAndCloses) {
  auto cvm = make_cvm();
  ASSERT_TRUE(cvm.ok());
  core::Platform& platform = *(*cvm)->platform;
  ASSERT_TRUE(platform
                  .submit_model_text(R"(
model call conforms cml
object Connection c1 {
  state = active
  child participants Participant alice { address = "a" }
  child participants Participant bob { address = "b" }
  child media Medium voice { kind = audio quality = standard }
}
)")
                  .ok());
  std::size_t established = platform.trace().size();
  // Retune the stream via a model update.
  ASSERT_TRUE(platform
                  .submit_model_text(R"(
model call conforms cml
object Connection c1 {
  state = active
  child participants Participant alice { address = "a" }
  child participants Participant bob { address = "b" }
  child media Medium voice { kind = audio quality = low }
}
)")
                  .ok());
  ASSERT_EQ(platform.trace().size(), established + 1);
  EXPECT_EQ(platform.trace().entries().back(),
            "comm.media.retune(id=\"voice\", quality=\"low\", "
            "session=\"c1\")");
  // Close the whole connection.
  ASSERT_TRUE(platform
                  .submit_model_text(R"(
model call conforms cml
object Connection c1 {
  state = closed
  child participants Participant alice { address = "a" }
  child participants Participant bob { address = "b" }
  child media Medium voice { kind = audio quality = low }
}
)")
                  .ok());
  EXPECT_EQ(platform.trace().entries().back(),
            "comm.session.teardown(id=\"c1\")");
}

// Every failure mode of TextFormat.MalformedInputErrorTable, spliced
// into an accepted conference: the submit fails as parse_model() alone
// does, counts one rejected model, and leaves the committed model and
// its kept text in place (the next retune is still read incrementally).
TEST(Cvm, MalformedEditsFailAsTheParserDoes) {
  auto cvm = make_cvm();
  ASSERT_TRUE(cvm.ok()) << cvm.status().to_string();
  core::Platform& platform = *(*cvm)->platform;
  const std::string base = testing::conference_text("standard", "standard");
  ASSERT_TRUE(platform.submit_model_text(base).ok());
  const std::string committed = platform.runtime_model_text();
  struct Splice {
    std::string_view find;
    std::string_view replace;
    bool cut = false;  ///< drop the text after the replacement
  };
  const Splice splices[] = {
      {"quality = standard }", "quality = \"stan", true},
      {"quality = standard }", "quality = \"st\nan\" }"},
      {"quality = standard", "quality = +5"},
      {"quality = standard", "quality = 99999999999999999999"},
      {"quality = standard", "quality = @"},
      {"object Connection conf {", "object Connection conf"},
      {"Medium cam", "Ghost cam"},
      {"Medium cam", "CommElement cam"},
      {"Medium cam", "Medium voice"},
      {"topology = conference", "topology = conference initiator -> ghost"},
      {"topology = conference", "topology = conference participants -> p00"},
      {"conforms cml", "conforms other"},
      {"conforms cml", "conformz cml"},
      {" conforms cml", "\n", true},
      {"}\n}\n", "}\n", true},
      {"quality = standard }", "quality = }"},
      {"quality = standard", "ghost = 1"},
      {"quality = standard", "quality standard"},
  };
  for (const Splice& splice : splices) {
    std::string text = base;
    const std::size_t at = text.find(splice.find);
    ASSERT_NE(at, std::string::npos) << splice.find;
    text.replace(at, splice.cut ? std::string::npos : splice.find.size(),
                 splice.replace);
    Result<model::Model> alone = model::parse_model(text, cml_metamodel());
    ASSERT_FALSE(alone.ok()) << text;
    const std::uint64_t rejected =
        cell_value(platform.metrics(), "synthesis.rejected_models");
    Result<controller::ControlScript> submitted =
        platform.submit_model_text(text);
    ASSERT_FALSE(submitted.ok()) << text;
    EXPECT_EQ(submitted.status().code(), alone.status().code()) << text;
    EXPECT_EQ(submitted.status().message(), alone.status().message());
    EXPECT_EQ(cell_value(platform.metrics(), "synthesis.rejected_models"),
              rejected + 1)
        << text;
    EXPECT_EQ(platform.runtime_model_text(), committed) << text;
  }
  const std::uint64_t edits =
      cell_value(platform.metrics(), "model.incremental_edits");
  ASSERT_TRUE(platform
                  .submit_model_text(
                      testing::conference_text("high", "standard"))
                  .ok());
  EXPECT_EQ(cell_value(platform.metrics(), "model.incremental_edits"),
            edits + 1);
}

// perfbench's conference_edits traffic: each request retunes one medium
// and every 8th also slides the membership window, so 7 in 8 are read
// as local edits and the slides are parsed whole.
TEST(Cvm, ConferenceEditsReadSevenInEightIncrementally) {
  auto cvm = make_cvm();
  ASSERT_TRUE(cvm.ok()) << cvm.status().to_string();
  core::Platform& platform = *(*cvm)->platform;
  ASSERT_TRUE(platform
                  .submit_model_text(
                      testing::conference_text("standard", "standard"))
                  .ok());
  const char* qualities[] = {"low", "standard", "high"};
  int quality[] = {1, 1};
  int first = 0;
  for (int i = 0; i < 2000; ++i) {
    const int medium = i % 2;
    quality[medium] = (quality[medium] + 1 + i % 3 % 2) % 3;
    if (i % 8 == 7) ++first;
    Result<controller::ControlScript> script =
        platform.submit_model_text(testing::conference_text(
            qualities[quality[0]], qualities[quality[1]], first));
    ASSERT_TRUE(script.ok()) << i << ": " << script.status().to_string();
    EXPECT_EQ(script->commands.size(), i % 8 == 7 ? 3u : 1u) << i;
  }
  EXPECT_EQ(cell_value(platform.metrics(), "model.incremental_edits"), 1750u);
  EXPECT_EQ(cell_value(platform.metrics(), "model.incremental_fallbacks"),
            250u);
}

TEST(Cvm, ControllerUsesBothCases) {
  auto cvm = make_cvm();
  ASSERT_TRUE(cvm.ok());
  core::Platform& platform = *(*cvm)->platform;
  ASSERT_TRUE(platform
                  .submit_model_text(R"(
model call conforms cml
object Connection c1 {
  state = active
  child participants Participant alice { address = "a" }
  child participants Participant bob { address = "b" }
  child media Medium voice { kind = audio }
}
)")
                  .ok());
  // session.create and media.open are Case 2 (DSC mappings); party.add is
  // Case 1 (bound pass-through action).
  EXPECT_GE(platform.controller().stats().case2_executions, 2u);
  EXPECT_GE(platform.controller().stats().case1_executions, 2u);
}

// ------------------------------------------- Exp-1 behavioral equivalence

TEST(Equivalence, AllScenariosProduceIdenticalTraces) {
  for (const Scenario& scenario : comm_scenarios()) {
    auto cvm = make_cvm();
    ASSERT_TRUE(cvm.ok()) << scenario.name;
    auto handcrafted = make_handcrafted_ncb();
    Status model_based =
        run_scenario(scenario, (*cvm)->platform->broker(), (*cvm)->service,
                     (*cvm)->platform->context());
    ASSERT_TRUE(model_based.ok())
        << scenario.name << ": " << model_based.to_string();
    Status baseline = run_scenario(scenario, handcrafted->broker,
                                   handcrafted->service,
                                   handcrafted->context);
    ASSERT_TRUE(baseline.ok())
        << scenario.name << ": " << baseline.to_string();
    EXPECT_TRUE((*cvm)->platform->trace() == handcrafted->broker.trace())
        << scenario.name << " traces diverge";
    EXPECT_GT((*cvm)->platform->trace().size(), 0u) << scenario.name;
  }
}

TEST(Equivalence, FailureRecoveryHappensOnBothSides) {
  const Scenario& recovery = comm_scenarios()[6];  // s7-failure-recovery
  ASSERT_EQ(recovery.name, "s7-failure-recovery");
  auto cvm = make_cvm();
  ASSERT_TRUE(cvm.ok());
  auto handcrafted = make_handcrafted_ncb();
  ASSERT_TRUE(run_scenario(recovery, (*cvm)->platform->broker(),
                           (*cvm)->service, (*cvm)->platform->context())
                  .ok());
  ASSERT_TRUE(run_scenario(recovery, handcrafted->broker,
                           handcrafted->service, handcrafted->context)
                  .ok());
  EXPECT_EQ(cell_value((*cvm)->platform->metrics(), "autonomic.reactions"), 1u);
  EXPECT_EQ(handcrafted->broker.recoveries(), 1u);
  EXPECT_EQ((*cvm)->platform->trace().entries().back(),
            "comm.party.reconnect(address=\"bob\", session=\"c7\")");
}

TEST(Equivalence, QualitySelectionMatchesAcrossBandwidths) {
  struct Case {
    double bandwidth;
    std::string expected;
  };
  for (const Case& c : {Case{3.0, "high"}, Case{1.0, "standard"},
                        Case{0.2, "low"}}) {
    auto cvm = make_cvm();
    ASSERT_TRUE(cvm.ok());
    auto handcrafted = make_handcrafted_ncb();
    for (auto* context :
         {&(*cvm)->platform->context(), &handcrafted->context}) {
      context->set("bandwidth", Value(c.bandwidth));
    }
    Scenario mini;
    mini.name = "mini";
    mini.steps = {
        ScenarioStep{.kind = ScenarioStep::Kind::kCall,
                     .call = {"ncb.session.create", {{"id", Value("m1")}}}},
        ScenarioStep{.kind = ScenarioStep::Kind::kCall,
                     .call = {"ncb.party.add",
                              {{"session", Value("m1")},
                               {"address", Value("a")}}}},
        ScenarioStep{.kind = ScenarioStep::Kind::kCall,
                     .call = {"ncb.party.add",
                              {{"session", Value("m1")},
                               {"address", Value("b")}}}},
        ScenarioStep{.kind = ScenarioStep::Kind::kCall,
                     .call = {"ncb.media.open",
                              {{"session", Value("m1")},
                               {"id", Value("v")},
                               {"kind", Value("video")},
                               {"live", Value(true)}}}},
    };
    ASSERT_TRUE(run_scenario(mini, (*cvm)->platform->broker(),
                             (*cvm)->service, (*cvm)->platform->context())
                    .ok());
    ASSERT_TRUE(run_scenario(mini, handcrafted->broker, handcrafted->service,
                             handcrafted->context)
                    .ok());
    EXPECT_TRUE((*cvm)->platform->trace() == handcrafted->broker.trace())
        << "bandwidth " << c.bandwidth;
    EXPECT_NE((*cvm)->platform->trace().entries().back().find(
                  "quality=\"" + c.expected + "\""),
              std::string::npos)
        << "bandwidth " << c.bandwidth;
  }
}

// Property sweep: trace equivalence must hold for every scenario under
// every bandwidth regime (the context steers guarded action selection on
// one side and an if/else chain on the other — they must never diverge).
class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(EquivalenceSweep, TracesEqualUnderContext) {
  auto [scenario_index, bandwidth] = GetParam();
  const Scenario& scenario = comm_scenarios()[scenario_index];
  auto cvm = make_cvm();
  ASSERT_TRUE(cvm.ok());
  auto handcrafted = make_handcrafted_ncb();
  (*cvm)->platform->context().set("bandwidth", Value(bandwidth));
  handcrafted->context.set("bandwidth", Value(bandwidth));
  ASSERT_TRUE(run_scenario(scenario, (*cvm)->platform->broker(),
                           (*cvm)->service, (*cvm)->platform->context())
                  .ok())
      << scenario.name;
  ASSERT_TRUE(run_scenario(scenario, handcrafted->broker,
                           handcrafted->service, handcrafted->context)
                  .ok())
      << scenario.name;
  EXPECT_TRUE((*cvm)->platform->trace() == handcrafted->broker.trace())
      << scenario.name << " at bandwidth " << bandwidth;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenariosAllBandwidths, EquivalenceSweep,
    ::testing::Combine(::testing::Range<std::size_t>(0, 8),
                       ::testing::Values(0.2, 1.0, 3.0)));

TEST(Scenarios, ThereAreExactlyEightWithUniqueNames) {
  const auto& scenarios = comm_scenarios();
  ASSERT_EQ(scenarios.size(), 8u);
  std::set<std::string> names;
  for (const Scenario& s : scenarios) {
    EXPECT_TRUE(names.insert(s.name).second);
    EXPECT_FALSE(s.steps.empty());
    EXPECT_FALSE(s.description.empty());
  }
}

}  // namespace
}  // namespace mdsm::comm
