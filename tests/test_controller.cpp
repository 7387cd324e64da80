// Unit tests for the Controller layer: DSCs, procedures, intent-model
// generation/validation/selection, the stack-machine execution engine,
// Case 1/Case 2 classification, and the static (non-adaptive) baseline.
#include <gtest/gtest.h>

#include <pthread.h>

#include <functional>
#include <optional>
#include <random>
#include <utility>

#include "controller/controller_layer.hpp"
#include "broker/broker_layer.hpp"
#include "controller/static_controller.hpp"
#include "runtime/event_loop.hpp"
#include "metrics_fixtures.hpp"

namespace mdsm::controller {
namespace {

using model::Value;

/// A recording BrokerApi stub: every call is appended to the trace.
class StubBroker : public broker::BrokerApi {
 public:
  using broker::BrokerApi::call;
  runtime::Task<Result<Value>> call(const broker::Call& call,
                                    obs::RequestContext&) override {
    trace_.record("broker", call.name, call.args);
    if (fail_on == call.name) co_return Unavailable("injected broker fault");
    co_return Value("ok:" + call.name);
  }
  [[nodiscard]] const broker::CommandTrace& trace() const override {
    return trace_;
  }
  std::string fail_on;

 private:
  obs::MetricsRegistry trace_metrics_;
  broker::CommandTrace trace_{trace_metrics_};
};

struct ControllerFixture : ::testing::Test {
  StubBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  ControllerLayer layer{"ucm", broker, bus, context, metrics};

  void add_dsc(const std::string& name, const std::string& category = "ops") {
    ASSERT_TRUE(layer.dscs().add({name, DscKind::kOperation, category, ""}).ok());
  }

  /// A leaf procedure issuing one broker call named after itself.
  Procedure leaf(const std::string& name, const std::string& dsc,
                 double cost = 1.0, std::string_view guard_text = "") {
    Procedure p;
    p.name = name;
    p.classifier = dsc;
    p.cost = cost;
    if (!guard_text.empty()) p.guard = *policy::Expression::parse(guard_text);
    p.units = {{broker_call(name)}};
    return p;
  }
};

// ------------------------------------------------------------ DscRegistry

TEST_F(ControllerFixture, DscRegistryBasics) {
  add_dsc("media.setup", "media");
  add_dsc("media.teardown", "media");
  add_dsc("net.connect", "net");
  EXPECT_EQ(layer.dscs().size(), 3u);
  EXPECT_TRUE(layer.dscs().contains("media.setup"));
  EXPECT_EQ(layer.dscs().in_category("media").size(), 2u);
  EXPECT_EQ(layer.dscs().add({"media.setup"}).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(layer.dscs().add({"bad name!"}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(layer.dscs().names().size(), 3u);
}

// ---------------------------------------------------- ProcedureRepository

TEST_F(ControllerFixture, RepositoryValidatesDscsAndRejectsSelfDependency) {
  add_dsc("op.a");
  add_dsc("op.b");
  EXPECT_EQ(layer.add_procedure(leaf("p", "ghost")).code(),
            ErrorCode::kNotFound);
  Procedure self = leaf("p", "op.a");
  self.dependencies = {"op.a"};
  EXPECT_EQ(layer.add_procedure(std::move(self)).code(),
            ErrorCode::kInvalidArgument);
  Procedure unknown_dep = leaf("p", "op.a");
  unknown_dep.dependencies = {"ghost"};
  EXPECT_EQ(layer.add_procedure(std::move(unknown_dep)).code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(layer.add_procedure(leaf("p", "op.a")).ok());
  EXPECT_EQ(layer.add_procedure(leaf("p", "op.a")).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(layer.repository().classified_by("op.a").size(), 1u);
  auto v0 = layer.repository().version();
  ASSERT_TRUE(layer.repository().remove("p").ok());
  EXPECT_GT(layer.repository().version(), v0);
  EXPECT_EQ(layer.repository().remove("p").code(), ErrorCode::kNotFound);
}

// --------------------------------------------------- IntentModel generate

TEST_F(ControllerFixture, GeneratesChainAndExecutes) {
  add_dsc("session.open");
  add_dsc("media.alloc");
  add_dsc("net.connect");
  Procedure root = leaf("open-std", "session.open");
  root.dependencies = {"media.alloc"};
  root.units = {{broker_call("session.begin", {{"id", Value("$id")}}),
                 call_dep("media.alloc"),
                 broker_call("session.commit", {{"id", Value("$id")}})}};
  Procedure mid = leaf("alloc-av", "media.alloc");
  mid.dependencies = {"net.connect"};
  mid.units = {{call_dep("net.connect"), broker_call("media.allocate")}};
  ASSERT_TRUE(layer.add_procedure(std::move(root)).ok());
  ASSERT_TRUE(layer.add_procedure(std::move(mid)).ok());
  ASSERT_TRUE(layer.add_procedure(leaf("net-direct", "net.connect")).ok());

  auto intent = layer.generator().generate("session.open",
                                           SelectionStrategy::kMinCost);
  ASSERT_TRUE(intent.ok()) << intent.status().to_string();
  EXPECT_EQ((*intent)->node_count, 3);
  EXPECT_TRUE(layer.generator().validate(**intent).ok());

  auto value = runtime::run_inline(
      layer.engine().execute(*intent, {{"id", Value("s1")}}));
  ASSERT_TRUE(value.ok()) << value.status().to_string();
  // Stack semantics: session.begin, then the dependency chain, then the
  // instruction after call_dep resumes (commit last).
  const auto& entries = broker.trace().entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0], "broker.session.begin(id=\"s1\")");
  EXPECT_EQ(entries[1], "broker.net-direct()");
  EXPECT_EQ(entries[2], "broker.media.allocate()");
  EXPECT_EQ(entries[3], "broker.session.commit(id=\"s1\")");
  // Three frames were on the stack at once: root, alloc-av, net-direct.
  EXPECT_EQ(layer.engine().max_stack_depth(), 3u);
}

TEST_F(ControllerFixture, SelectionMinCostVsMaxQuality) {
  add_dsc("op");
  Procedure cheap = leaf("cheap", "op", 1.0);
  cheap.quality = 0.3;
  Procedure lux = leaf("lux", "op", 10.0);
  lux.quality = 0.9;
  ASSERT_TRUE(layer.add_procedure(std::move(cheap)).ok());
  ASSERT_TRUE(layer.add_procedure(std::move(lux)).ok());
  auto min_cost = layer.generator().generate("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(min_cost.ok());
  EXPECT_EQ((*min_cost)->root->procedure->name, "cheap");
  auto max_quality =
      layer.generator().generate("op", SelectionStrategy::kMaxQuality);
  ASSERT_TRUE(max_quality.ok());
  EXPECT_EQ((*max_quality)->root->procedure->name, "lux");
  auto first = layer.generator().generate("op", SelectionStrategy::kFirstValid);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->root->procedure->name, "cheap");  // registration order
}

TEST_F(ControllerFixture, GuardsSteerGenerationByContext) {
  add_dsc("op");
  ASSERT_TRUE(
      layer.add_procedure(leaf("wired", "op", 1.0, "network == \"wired\""))
          .ok());
  ASSERT_TRUE(
      layer.add_procedure(leaf("radio", "op", 2.0, "network == \"radio\""))
          .ok());
  context.set("network", Value("radio"));
  auto intent = layer.generator().generate("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(intent.ok());
  EXPECT_EQ((*intent)->root->procedure->name, "radio");
  context.set("network", Value("wired"));
  intent = layer.generator().generate("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(intent.ok());
  EXPECT_EQ((*intent)->root->procedure->name, "wired");
  context.set("network", Value("none"));
  EXPECT_EQ(
      layer.generator().generate("op", SelectionStrategy::kMinCost)
          .status()
          .code(),
      ErrorCode::kFailedPrecondition);
  EXPECT_GE(layer.generator().stats().guard_rejections, 2u);
}

TEST_F(ControllerFixture, CyclicDependenciesAreRejected) {
  add_dsc("a");
  add_dsc("b");
  Procedure pa = leaf("pa", "a");
  pa.dependencies = {"b"};
  pa.units = {{call_dep("b")}};
  Procedure pb = leaf("pb", "b");
  pb.dependencies = {"a"};  // a → b → a cycle
  pb.units = {{call_dep("a")}};
  ASSERT_TRUE(layer.add_procedure(std::move(pa)).ok());
  ASSERT_TRUE(layer.add_procedure(std::move(pb)).ok());
  auto intent = layer.generator().generate("a", SelectionStrategy::kMinCost);
  EXPECT_FALSE(intent.ok());
  EXPECT_GT(layer.generator().stats().cycle_rejections, 0u);
}

TEST_F(ControllerFixture, MissingDependencyMakesCandidateInfeasible) {
  add_dsc("a");
  add_dsc("void");
  Procedure pa = leaf("pa", "a");
  pa.dependencies = {"void"};  // no procedure provides "void"
  ASSERT_TRUE(layer.add_procedure(std::move(pa)).ok());
  EXPECT_FALSE(
      layer.generator().generate("a", SelectionStrategy::kMinCost).ok());
}

TEST_F(ControllerFixture, MinCostPicksCheapestCompositeTree) {
  add_dsc("root");
  add_dsc("dep");
  Procedure r = leaf("r", "root");
  r.dependencies = {"dep"};
  r.units = {{call_dep("dep")}};
  ASSERT_TRUE(layer.add_procedure(std::move(r)).ok());
  ASSERT_TRUE(layer.add_procedure(leaf("dep-costly", "dep", 50.0)).ok());
  ASSERT_TRUE(layer.add_procedure(leaf("dep-cheap", "dep", 0.5)).ok());
  auto intent = layer.generator().generate("root", SelectionStrategy::kMinCost);
  ASSERT_TRUE(intent.ok());
  EXPECT_EQ((*intent)->root->children[0]->procedure->name, "dep-cheap");
  EXPECT_DOUBLE_EQ((*intent)->total_cost, 1.5);
}

TEST_F(ControllerFixture, CacheHitsUntilContextOrRepositoryChanges) {
  add_dsc("op");
  ASSERT_TRUE(layer.add_procedure(leaf("p", "op")).ok());
  auto first =
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(first.ok());
  auto second =
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());  // same instance
  EXPECT_EQ(layer.generator().stats().cache_hits, 1u);
  context.set("anything", Value(1));  // context drift invalidates
  auto third =
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(layer.generator().stats().cache_misses, 2u);
  ASSERT_TRUE(layer.add_procedure(leaf("q", "op", 0.1)).ok());
  auto fourth =
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ((*fourth)->root->procedure->name, "q");  // repo drift re-selects
}

// Regression: the IM cache keyed only on context/repository versions, so
// DSC registry edits (add or remove) served stale intent models. The
// cache entry now also records the registry version.
TEST_F(ControllerFixture, DscRegistryChangeInvalidatesIntentModelCache) {
  add_dsc("op");
  ASSERT_TRUE(layer.add_procedure(leaf("p", "op")).ok());
  ASSERT_TRUE(
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost).ok());
  ASSERT_TRUE(
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost).ok());
  EXPECT_EQ(layer.generator().stats().cache_hits, 1u);
  EXPECT_EQ(layer.generator().stats().cache_misses, 1u);
  add_dsc("aux");  // registry drift — context and repository untouched
  ASSERT_TRUE(
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost).ok());
  EXPECT_EQ(layer.generator().stats().cache_misses, 2u);
  ASSERT_TRUE(layer.dscs().remove("aux").ok());
  ASSERT_TRUE(
      layer.generator().generate_cached("op", SelectionStrategy::kMinCost).ok());
  EXPECT_EQ(layer.generator().stats().cache_misses, 3u);
  EXPECT_EQ(layer.dscs().remove("ghost").code(), ErrorCode::kNotFound);
}

// Regression: instructions missing a required arg used to silently
// default-insert a none Value via operator[]; now they fail loudly.
TEST_F(ControllerFixture, MissingInstructionArgIsExecutionError) {
  Instruction bare_set_mem;
  bare_set_mem.op = OpCode::kSetMem;
  bare_set_mem.a = "x";
  auto status =
      runtime::run_inline(layer.engine().execute_flat({bare_set_mem}, {}))
          .status();
  EXPECT_EQ(status.code(), ErrorCode::kExecutionError);
  EXPECT_NE(status.message().find("missing required arg 'value'"),
            std::string::npos)
      << status.to_string();
  EXPECT_TRUE(layer.engine().memory("x").is_none());  // nothing stored

  Instruction bare_emit;
  bare_emit.op = OpCode::kEmit;
  bare_emit.a = "topic";
  EXPECT_EQ(runtime::run_inline(layer.engine().execute_flat({bare_emit}, {}))
                .status()
                .code(),
            ErrorCode::kExecutionError);

  Instruction bare_result;
  bare_result.op = OpCode::kResult;
  EXPECT_EQ(
      runtime::run_inline(layer.engine().execute_flat({bare_result}, {}))
          .status()
          .code(),
            ErrorCode::kExecutionError);
}

TEST_F(ControllerFixture, ValidateDetectsContextDrift) {
  add_dsc("op");
  ASSERT_TRUE(
      layer.add_procedure(leaf("p", "op", 1.0, "mode == \"on\"")).ok());
  context.set("mode", Value("on"));
  auto intent = layer.generator().generate("op", SelectionStrategy::kMinCost);
  ASSERT_TRUE(intent.ok());
  EXPECT_TRUE(layer.generator().validate(**intent).ok());
  context.set("mode", Value("off"));
  EXPECT_EQ(layer.generator().validate(**intent).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(ControllerFixture, UnknownRootDscIsNotFound) {
  EXPECT_EQ(layer.generator()
                .generate("ghost", SelectionStrategy::kMinCost)
                .status()
                .code(),
            ErrorCode::kNotFound);
}

// ------------------------------------------------------- ExecutionEngine

TEST_F(ControllerFixture, EngineMemoryEventAndResultOps) {
  std::vector<Instruction> body = {
      set_mem("x", Value(41)),
      set_mem("y", Value("$mem:x")),
      emit("tick", Value("$mem:y")),
      set_context("done", Value(true)),
      result(Value("$mem:y")),
      erase_mem("x"),
  };
  Value seen;
  bus.subscribe("tick", [&](const runtime::Event& e) { seen = e.payload; });
  auto value = runtime::run_inline(layer.engine().execute_flat(body, {}));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, Value(41));
  EXPECT_EQ(seen, Value(41));
  EXPECT_EQ(context.get("done"), Value(true));
  EXPECT_TRUE(layer.engine().memory("x").is_none());
  EXPECT_EQ(layer.engine().memory("y"), Value(41));
  EXPECT_GE(cell_value(metrics, "controller.instructions"), 6u);
}

TEST_F(ControllerFixture, EngineGuardFailureAborts) {
  std::vector<Instruction> body = {guard("false"), broker_call("never")};
  EXPECT_EQ(runtime::run_inline(layer.engine().execute_flat(body, {}))
                .status()
                .code(),
            ErrorCode::kExecutionError);
  EXPECT_EQ(broker.trace().size(), 0u);
}

TEST_F(ControllerFixture, CallDepIllegalInFlatExecution) {
  std::vector<Instruction> body = {call_dep("anything")};
  EXPECT_EQ(runtime::run_inline(layer.engine().execute_flat(body, {}))
                .status()
                .code(),
            ErrorCode::kExecutionError);
}

TEST_F(ControllerFixture, BrokerFaultPropagates) {
  broker.fail_on = "boom";
  std::vector<Instruction> body = {broker_call("boom")};
  EXPECT_EQ(runtime::run_inline(layer.engine().execute_flat(body, {}))
                .status()
                .code(),
            ErrorCode::kUnavailable);
}

TEST_F(ControllerFixture, SendRequiresSenderAndUsesIt) {
  std::vector<Instruction> body = {send("peer", "sync", Value("m"))};
  EXPECT_EQ(runtime::run_inline(layer.engine().execute_flat(body, {}))
                .status()
                .code(),
            ErrorCode::kExecutionError);
  std::vector<std::string> sent;
  layer.engine().set_sender([&](const std::string& to,
                                const std::string& topic, Value payload) {
    sent.push_back(to + "/" + topic + "/" + payload.to_text());
    return Status::Ok();
  });
  ASSERT_TRUE(runtime::run_inline(layer.engine().execute_flat(body, {})).ok());
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0], "peer/sync/\"m\"");
}

TEST_F(ControllerFixture, StepBudgetStopsRunawayEu) {
  add_dsc("loop");
  // A procedure that emits events forever would spin; a long noop body
  // tripping the budget models the same backstop deterministically.
  Procedure p = leaf("spin", "loop");
  p.units = {{}};
  p.units[0].assign(100, noop());
  ASSERT_TRUE(layer.add_procedure(std::move(p)).ok());
  EngineConfig config;
  config.max_steps = 10;
  ExecutionEngine tight(broker, bus, context, metrics, config);
  auto intent = layer.generator().generate("loop", SelectionStrategy::kMinCost);
  ASSERT_TRUE(intent.ok());
  EXPECT_EQ(runtime::run_inline(tight.execute(*intent, {})).status().code(),
            ErrorCode::kExecutionError);
}

TEST_F(ControllerFixture, LastResultStoredInMemory) {
  std::vector<Instruction> body = {broker_call("ping")};
  ASSERT_TRUE(runtime::run_inline(layer.engine().execute_flat(body, {})).ok());
  EXPECT_EQ(layer.engine().memory("last.result"), Value("ok:ping"));
}

// ------------------------------------------------------- ControllerLayer

TEST_F(ControllerFixture, Case1ViaBoundAction) {
  ControllerAction action;
  action.name = "do-x";
  action.body = {broker_call("x.do", {{"id", Value("$id")}})};
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_action("x", {"do-x"}).ok());
  auto value = runtime::run_inline(
      layer.execute_command({"x", {{"id", Value("i1")}}}));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(layer.stats().case1_executions, 1u);
  EXPECT_EQ(broker.trace().entries()[0], "broker.x.do(id=\"i1\")");
}

TEST_F(ControllerFixture, Case2ViaDscMapping) {
  add_dsc("op.y");
  ASSERT_TRUE(layer.add_procedure(leaf("py", "op.y")).ok());
  ASSERT_TRUE(layer.map_command("y", "op.y").ok());
  ASSERT_TRUE(runtime::run_inline(layer.execute_command({"y", {}})).ok());
  EXPECT_EQ(layer.stats().case2_executions, 1u);
  // A command named exactly like a DSC needs no explicit mapping.
  ASSERT_TRUE(runtime::run_inline(layer.execute_command({"op.y", {}})).ok());
  EXPECT_EQ(layer.stats().case2_executions, 2u);
}

TEST_F(ControllerFixture, ClassificationPolicyOverridesDefaults) {
  add_dsc("op.z");
  ASSERT_TRUE(layer.add_procedure(leaf("pz", "op.z")).ok());
  ControllerAction action;
  action.name = "flat-z";
  action.body = {broker_call("z.flat")};
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_action("op.z", {"flat-z"}).ok());
  // Default (bound action wins): Case 1.
  ASSERT_TRUE(runtime::run_inline(layer.execute_command({"op.z", {}})).ok());
  EXPECT_EQ(layer.stats().case1_executions, 1u);
  // Policy: commands force Case 2 when flexibility mode is on.
  ASSERT_TRUE(layer.classification_policies()
                  .add("flexible", "mode == \"dynamic\"", "case2", 10)
                  .ok());
  context.set("mode", Value("dynamic"));
  ASSERT_TRUE(runtime::run_inline(layer.execute_command({"op.z", {}})).ok());
  EXPECT_EQ(layer.stats().case2_executions, 1u);
}

TEST_F(ControllerFixture, SelectionPolicyPicksStrategy) {
  add_dsc("op");
  Procedure cheap = leaf("cheap", "op", 1.0);
  cheap.quality = 0.2;
  Procedure lux = leaf("lux", "op", 9.0);
  lux.quality = 0.9;
  ASSERT_TRUE(layer.add_procedure(std::move(cheap)).ok());
  ASSERT_TRUE(layer.add_procedure(std::move(lux)).ok());
  ASSERT_TRUE(layer.selection_policies()
                  .add("hq", "tier == \"premium\"", "max-quality", 5)
                  .ok());
  context.set("tier", Value("premium"));
  ASSERT_TRUE(runtime::run_inline(layer.execute_command({"op", {}})).ok());
  EXPECT_EQ(broker.trace().entries().back(), "broker.lux()");
  context.set("tier", Value("basic"));
  ASSERT_TRUE(runtime::run_inline(layer.execute_command({"op", {}})).ok());
  EXPECT_EQ(broker.trace().entries().back(), "broker.cheap()");
}

TEST_F(ControllerFixture, ScriptProcessingCountsErrorsWithoutWedging) {
  ControllerAction action;
  action.name = "ok-act";
  action.body = {broker_call("fine")};
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_action("fine", {"ok-act"}).ok());
  int errors = 0;
  bus.subscribe("controller.error", [&](const runtime::Event&) { ++errors; });
  ControlScript script;
  script.commands = {{"fine", {}}, {"ghost", {}}, {"fine", {}}};
  ASSERT_TRUE(layer.submit_script(script).ok());
  EXPECT_EQ(layer.queued(), 3u);
  EXPECT_EQ(layer.process_pending(), 3u);
  EXPECT_EQ(layer.stats().errors, 1u);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(broker.trace().size(), 2u);
  EXPECT_EQ(layer.queued(), 0u);
}

TEST_F(ControllerFixture, EventSignalsHandledByBoundActions) {
  ControllerAction action;
  action.name = "on-fault";
  action.body = {
      set_context("fault.seen", Value("$event.payload"))};
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_action("resource.fault", {"on-fault"}).ok());
  layer.attach_event_topic("resource.fault");
  bus.publish("resource.fault", "test", Value("disk"));
  EXPECT_EQ(layer.queued(), 1u);
  EXPECT_EQ(layer.process_pending(), 1u);
  EXPECT_EQ(context.get("fault.seen"), Value("disk"));
  EXPECT_EQ(layer.stats().events_handled, 1u);
}

TEST_F(ControllerFixture, ConfigurationErrors) {
  EXPECT_EQ(layer.bind_action("cmd", {"ghost"}).code(), ErrorCode::kNotFound);
  EXPECT_EQ(layer.map_command("cmd", "ghost").code(), ErrorCode::kNotFound);
  EXPECT_EQ(runtime::run_inline(layer.execute_command({"nowhere", {}}))
                .status()
                .code(),
            ErrorCode::kNotFound);
}

// -------------------------------------------------------- StaticController

TEST_F(ControllerFixture, StaticControllerFixedDispatchAndReload) {
  StaticController fixed(broker, bus, context);
  StaticController::DispatchTable table;
  table["go"] = {broker_call("v1.go")};
  fixed.set_table(std::move(table));
  ASSERT_TRUE(fixed.execute({"go", {}}).ok());
  EXPECT_EQ(broker.trace().entries().back(), "broker.v1.go()");
  EXPECT_EQ(fixed.execute({"other", {}}).status().code(),
            ErrorCode::kNotFound);
  // Adapting requires a full reload.
  ASSERT_TRUE(fixed
                  .reload([] {
                    StaticController::DispatchTable t;
                    t["go"] = {broker_call("v2.go")};
                    return Result<StaticController::DispatchTable>(
                        std::move(t));
                  })
                  .ok());
  ASSERT_TRUE(fixed.execute({"go", {}}).ok());
  EXPECT_EQ(broker.trace().entries().back(), "broker.v2.go()");
  EXPECT_EQ(fixed.reloads(), 1u);
  EXPECT_EQ(fixed.commands_executed(), 2u);
}

TEST_F(ControllerFixture, StaticControllerFailedReloadStaysStopped) {
  StaticController fixed(broker, bus, context);
  StaticController::DispatchTable table;
  table["go"] = {broker_call("v1.go")};
  fixed.set_table(std::move(table));
  EXPECT_FALSE(
      fixed.reload([] {
             return Result<StaticController::DispatchTable>(
                 Internal("config corrupt"));
           })
          .ok());
  EXPECT_EQ(fixed.execute({"go", {}}).status().code(),
            ErrorCode::kFailedPrecondition);
}

// Property: for random repositories with layered dependencies, generated
// IMs always validate, never contain cycles, and respect the bound.
class GeneratorProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(GeneratorProperty, GeneratedImsAlwaysValid) {
  StubBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  ControllerLayer layer("gen", broker, bus, context, metrics);
  std::mt19937 rng(GetParam());
  // Layered DSCs: layer L procedures depend only on DSCs in layer L+1.
  constexpr int kLayers = 4;
  constexpr int kDscsPerLayer = 3;
  for (int l = 0; l < kLayers; ++l) {
    for (int d = 0; d < kDscsPerLayer; ++d) {
      ASSERT_TRUE(layer.dscs()
                      .add({"dsc" + std::to_string(l) + "_" +
                            std::to_string(d)})
                      .ok());
    }
  }
  std::uniform_int_distribution<int> pick(0, kDscsPerLayer - 1);
  std::uniform_int_distribution<int> fan(0, 2);
  std::uniform_real_distribution<double> cost(0.1, 10.0);
  int id = 0;
  for (int l = 0; l < kLayers; ++l) {
    for (int d = 0; d < kDscsPerLayer; ++d) {
      for (int variant = 0; variant < 2; ++variant) {
        Procedure p;
        p.name = "p" + std::to_string(id++);
        p.classifier =
            "dsc" + std::to_string(l) + "_" + std::to_string(d);
        p.cost = cost(rng);
        if (l + 1 < kLayers) {
          int deps = fan(rng);
          for (int k = 0; k < deps; ++k) {
            p.dependencies.push_back("dsc" + std::to_string(l + 1) + "_" +
                                     std::to_string(pick(rng)));
          }
        }
        std::vector<Instruction> unit{broker_call(p.name)};
        for (const auto& dep : p.dependencies) {
          unit.push_back(call_dep(dep));
        }
        p.units = {unit};
        ASSERT_TRUE(layer.add_procedure(std::move(p)).ok());
      }
    }
  }
  for (int d = 0; d < kDscsPerLayer; ++d) {
    std::string root = "dsc0_" + std::to_string(d);
    for (auto strategy :
         {SelectionStrategy::kMinCost, SelectionStrategy::kMaxQuality,
          SelectionStrategy::kFirstValid}) {
      auto intent = layer.generator().generate(root, strategy);
      ASSERT_TRUE(intent.ok()) << intent.status().to_string();
      EXPECT_TRUE(layer.generator().validate(**intent).ok());
      EXPECT_EQ((*intent)->root_dsc, root);
      EXPECT_GT((*intent)->node_count, 0);
      // And it must be executable end-to-end.
      EXPECT_TRUE(
          runtime::run_inline(layer.engine().execute(*intent, {})).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(3u, 7u, 11u, 19u, 23u, 31u));


// ---- constant stack ------------------------------------------------

/// Run `body` on a thread whose stack is 256 KiB: a layer that nested a
/// call frame per inline completion would overflow it long before
/// 100,000 calls.
void on_small_stack(std::function<void()> body) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* fn) -> void* {
                  (*static_cast<std::function<void()>*>(fn))();
                  return nullptr;
                },
                &body),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

constexpr std::size_t kStackCalls = 100'000;

// Both doors: run_inline() on the sync side, and a detached start with a
// context that may park on the async side, where every call still
// completes at once.
TEST_F(ControllerFixture, InlineCompletionsKeepTheStackFlat) {
  const std::vector<Instruction> body(kStackCalls, broker_call("op"));
  obs::RequestContext parking;
  parking.allow_parking();
  on_small_stack([&] {
    Result<Value> sync =
        runtime::run_inline(layer.engine().execute_flat(body, {}));
    EXPECT_TRUE(sync.ok()) << sync.status().to_string();
    std::optional<Result<Value>> async;
    runtime::start_detached(
        layer.engine().execute_flat(body, {}, parking),
        [&async](Result<Value> done) { async.emplace(std::move(done)); });
    ASSERT_TRUE(async.has_value());
    EXPECT_TRUE(async->ok()) << async->status().to_string();
  });
  EXPECT_EQ(metrics.counter("controller.broker_calls").value(),
            2 * kStackCalls);
}

TEST(BrokerStack, InlineCompletionsKeepTheStackFlat) {
  class InlineAdapter final : public broker::ResourceAdapter {
   public:
    InlineAdapter() : ResourceAdapter("svc") {}
    Result<Value> execute(const std::string&, const broker::Args&) override {
      return Value(true);
    }
  };
  runtime::EventBus bus;
  policy::ContextStore store;
  obs::MetricsRegistry metrics;
  broker::BrokerLayer layer("stack", bus, store, metrics);
  runtime::EventLoop loop{{.threaded = false}};
  layer.resources().set_async_engine(&loop, nullptr);
  ASSERT_TRUE(
      layer.resources().add_adapter(std::make_unique<InlineAdapter>()).ok());
  broker::Action action;
  action.name = "many";
  action.steps.assign(kStackCalls, broker::invoke_step("svc", "tick"));
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_handler("many", {"many"}).ok());
  const broker::Call call{"many", {}};
  obs::RequestContext parking;
  parking.allow_parking();
  on_small_stack([&] {
    Result<Value> sync = runtime::run_inline(layer.call(call));
    EXPECT_TRUE(sync.ok()) << sync.status().to_string();
    std::optional<Result<Value>> async;
    runtime::start_detached(
        layer.call(call, parking),
        [&async](Result<Value> done) { async.emplace(std::move(done)); });
    ASSERT_TRUE(async.has_value());
    EXPECT_TRUE(async->ok()) << async->status().to_string();
  });
  EXPECT_EQ(metrics.counter("broker.commands").value(), 2 * kStackCalls);
}

}  // namespace
}  // namespace mdsm::controller
