// Unit tests for the Synthesis layer: LTS-driven change interpretation
// and the submit → compare → interpret → dispatch cycle.
#include <gtest/gtest.h>

#include "model_fixtures.hpp"
#include "synthesis/synthesis_engine.hpp"

namespace mdsm::synthesis {
namespace {

using model::ChangeKind;
using model::Value;
using model::testing::make_test_metamodel;

/// Session lifecycle LTS over the shared test DSML: created → opening →
/// open → closed, with commands at each step.
Lts make_session_lts() {
  Lts lts("initial");
  lts.on("initial", ChangeKind::kAddObject, "Session", "", "created",
         {{"session.create", {{"id", Value("%id")}}}});
  lts.on("created", ChangeKind::kSetAttribute, "Session", "state", "open",
         {{"session.open",
           {{"id", Value("%id")}, {"bw", Value("%attr:bandwidth")}}}},
         "", Value("open"));
  lts.on("open", ChangeKind::kSetAttribute, "Session", "state", "closed",
         {{"session.close", {{"id", Value("%id")}}}}, "", Value("closed"));
  lts.on("open", ChangeKind::kSetAttribute, "Session", "bandwidth", "open",
         {{"session.retune",
           {{"id", Value("%id")}, {"old", Value("%old")},
            {"new", Value("%new")}}}});
  lts.on("initial", ChangeKind::kAddObject, "Participant", "", "joined",
         {{"party.join",
           {{"id", Value("%id")}, {"session", Value("%parent")}}}});
  lts.on("joined", ChangeKind::kRemoveObject, "Participant", "", "gone",
         {{"party.leave", {{"id", Value("%id")}}}});
  return lts;
}

struct SynthesisFixture : ::testing::Test {
  model::MetamodelPtr mm = make_test_metamodel();
  policy::ContextStore context;
  std::vector<controller::Command> dispatched;
  SynthesisEngine engine{"se", mm, make_session_lts(), context,
                         [this](const controller::ControlScript& script, obs::RequestContext&) {
                           for (const auto& command : script.commands) {
                             dispatched.push_back(command);
                           }
                           return Status::Ok();
                         }};

  model::Model base_model(const std::string& name = "m") {
    model::Model m(name, mm);
    m.create("Session", "s1");
    m.set_attribute("s1", "state", Value("idle"));
    return m;
  }
};

TEST_F(SynthesisFixture, AddObjectFiresCreationTransition) {
  auto script = engine.submit_model(base_model());
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  ASSERT_EQ(dispatched.size(), 1u);
  EXPECT_EQ(dispatched[0].to_text(), "session.create(id=\"s1\")");
  EXPECT_EQ(engine.interpreter().state_of("s1"), "created");
  EXPECT_EQ(engine.runtime_model()->size(), 1u);
}

TEST_F(SynthesisFixture, LifecycleAcrossSubmissions) {
  // Bandwidth is present from the start and only changes at the retune
  // step, so the bandwidth-change transition fires exactly once.
  auto with_bw = [&](const std::string& name, const char* state, double bw) {
    model::Model m = base_model(name);
    m.set_attribute("s1", "state", Value(state));
    m.set_attribute("s1", "bandwidth", Value(bw));
    return m;
  };
  ASSERT_TRUE(engine.submit_model(with_bw("m1", "idle", 3.5)).ok());
  ASSERT_TRUE(engine.submit_model(with_bw("m2", "open", 3.5)).ok());
  ASSERT_TRUE(engine.submit_model(with_bw("m3", "open", 1.5)).ok());
  ASSERT_TRUE(engine.submit_model(with_bw("m4", "closed", 1.5)).ok());

  std::vector<std::string> texts;
  for (const auto& command : dispatched) texts.push_back(command.to_text());
  ASSERT_EQ(texts.size(), 4u);
  EXPECT_EQ(texts[0], "session.create(id=\"s1\")");
  EXPECT_EQ(texts[1], "session.open(bw=3.5, id=\"s1\")");
  EXPECT_EQ(texts[2], "session.retune(id=\"s1\", new=1.5, old=3.5)");
  EXPECT_EQ(texts[3], "session.close(id=\"s1\")");
  EXPECT_EQ(engine.interpreter().state_of("s1"), "closed");
}

TEST_F(SynthesisFixture, StateGatesWhichTransitionFires) {
  // Setting state=closed from "created" matches no transition (only
  // "open" → closed exists), so no command is emitted.
  ASSERT_TRUE(engine.submit_model(base_model()).ok());
  model::Model skip = base_model("m2");
  skip.set_attribute("s1", "state", Value("closed"));
  ASSERT_TRUE(engine.submit_model(std::move(skip)).ok());
  EXPECT_EQ(dispatched.size(), 1u);  // only the create
  EXPECT_GT(engine.interpreter().stats().unhandled_changes, 0u);
  EXPECT_EQ(engine.interpreter().state_of("s1"), "created");
}

TEST_F(SynthesisFixture, ContainedObjectsGetOwnLifecycles) {
  model::Model with_party = base_model();
  with_party.create_child("s1", "participants", "Participant", "alice");
  with_party.set_attribute("alice", "address", Value("a@h"));
  ASSERT_TRUE(engine.submit_model(std::move(with_party)).ok());
  ASSERT_EQ(dispatched.size(), 2u);
  EXPECT_EQ(dispatched[1].to_text(),
            "party.join(id=\"alice\", session=\"s1\")");
  // Removing the participant fires the leave transition and clears state.
  ASSERT_TRUE(engine.submit_model(base_model("m2")).ok());
  ASSERT_EQ(dispatched.size(), 3u);
  EXPECT_EQ(dispatched[2].to_text(), "party.leave(id=\"alice\")");
  EXPECT_EQ(engine.interpreter().state_of("alice"), "");
}

TEST_F(SynthesisFixture, GuardBlocksTransition) {
  Lts lts("initial");
  lts.on("initial", ChangeKind::kAddObject, "Session", "", "created",
         {{"session.create", {{"id", Value("%id")}}}}, "defined(allowed)");
  std::vector<controller::Command> out;
  SynthesisEngine guarded("se2", mm, std::move(lts), context,
                          [&](const controller::ControlScript& script, obs::RequestContext&) {
                            for (const auto& c : script.commands) {
                              out.push_back(c);
                            }
                            return Status::Ok();
                          });
  ASSERT_TRUE(guarded.submit_model(base_model()).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_GT(guarded.interpreter().stats().guard_blocked, 0u);
  // With context set, a *new* object fires the transition.
  context.set("allowed", Value(true));
  model::Model two = base_model("m2");
  two.create("Session", "s2");
  ASSERT_TRUE(guarded.submit_model(std::move(two)).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to_text(), "session.create(id=\"s2\")");
}

TEST_F(SynthesisFixture, InvalidModelRejectedAndRuntimeModelUnchanged) {
  ASSERT_TRUE(engine.submit_model(base_model()).ok());
  model::Model bad("bad", mm);
  bad.create("Participant", "p");  // missing required address
  EXPECT_EQ(engine.submit_model(std::move(bad)).status().code(),
            ErrorCode::kConformanceError);
  EXPECT_EQ(engine.runtime_model()->size(), 1u);  // previous model in force
  EXPECT_EQ(engine.stats().rejected_models, 1u);
}

TEST_F(SynthesisFixture, WrongMetamodelRejected) {
  model::Metamodel other("other");
  other.add_class("X");
  auto other_mm = model::finalize_metamodel(std::move(other));
  model::Model foreign("f", other_mm);
  EXPECT_EQ(engine.submit_model(std::move(foreign)).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(SynthesisFixture, DispatchFailureKeepsOldModel) {
  SynthesisEngine failing("se3", mm, make_session_lts(), context,
                          [](const controller::ControlScript&, obs::RequestContext&) {
                            return Unavailable("controller down");
                          });
  EXPECT_EQ(failing.submit_model(base_model()).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_TRUE(failing.runtime_model()->empty());
}

TEST_F(SynthesisFixture, ModelListenerSeesCommittedModel) {
  std::string seen;
  engine.set_model_listener(
      [&](const std::shared_ptr<const model::Model>& m) { seen = m->name(); });
  ASSERT_TRUE(engine.submit_model(base_model("committed")).ok());
  EXPECT_EQ(seen, "committed");
}

TEST_F(SynthesisFixture, IdenticalResubmissionDispatchesNothing) {
  ASSERT_TRUE(engine.submit_model(base_model()).ok());
  auto script = engine.submit_model(base_model("same"));
  ASSERT_TRUE(script.ok());
  EXPECT_TRUE(script->empty());
  EXPECT_EQ(dispatched.size(), 1u);
}

TEST_F(SynthesisFixture, ControllerEventsRecorded) {
  engine.handle_controller_event("controller.error", Value("cmd failed"));
  EXPECT_EQ(engine.stats().controller_events, 1u);
  ASSERT_EQ(engine.event_log().size(), 1u);
  EXPECT_EQ(engine.event_log()[0], "controller.error: \"cmd failed\"");
}

TEST_F(SynthesisFixture, TemplateEscapesAndUnknownsPassThrough) {
  Lts lts("initial");
  lts.on("initial", ChangeKind::kAddObject, "Session", "", "created",
         {{"cmd",
           {{"lit", Value("%%raw")}, {"weird", Value("%nosuch")},
            {"num", Value(7)}}}});
  std::vector<controller::Command> out;
  SynthesisEngine e2("se4", mm, std::move(lts), context,
                     [&](const controller::ControlScript& script, obs::RequestContext&) {
                       for (const auto& c : script.commands) out.push_back(c);
                       return Status::Ok();
                     });
  ASSERT_TRUE(e2.submit_model(base_model()).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].args.at("lit"), Value("%raw"));
  EXPECT_EQ(out[0].args.at("weird"), Value("%nosuch"));
  EXPECT_EQ(out[0].args.at("num"), Value(7));
}

TEST_F(SynthesisFixture, StatsAccumulate) {
  ASSERT_TRUE(engine.submit_model(base_model()).ok());
  EXPECT_EQ(engine.stats().models_submitted, 1u);
  EXPECT_EQ(engine.stats().scripts_dispatched, 1u);
  EXPECT_EQ(engine.stats().commands_generated, 1u);
  EXPECT_EQ(engine.interpreter().stats().transitions_fired, 1u);
  // AddObject + default-applied state attr = 2 changes processed.
  EXPECT_GE(engine.interpreter().stats().changes_processed, 2u);
}

}  // namespace
}  // namespace mdsm::synthesis
