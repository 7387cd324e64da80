// Unit tests for the Broker layer: resource management, action dispatch,
// state, autonomic adaptation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "broker/broker_layer.hpp"
#include "broker/chaos_adapter.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "metrics_fixtures.hpp"

namespace mdsm::broker {
namespace {

using model::Value;

/// A controllable fake resource: records commands, can fail on demand,
/// and can raise events into the layer.
class FakeResource : public ResourceAdapter {
 public:
  explicit FakeResource(std::string name) : ResourceAdapter(std::move(name)) {}

  std::vector<std::string> executed;
  bool fail_next = false;

  Result<Value> execute(const std::string& command,
                        const Args& args) override {
    executed.push_back(format_invocation(command, args));
    if (fail_next) {
      fail_next = false;
      return Unavailable("resource fault injected");
    }
    return Value("ok:" + command);
  }

  void fire(const std::string& topic, Value payload = {}) {
    raise_event(topic, std::move(payload));
  }
};

struct BrokerFixture : ::testing::Test {
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  BrokerLayer layer{"ncb", bus, context, metrics};
  FakeResource* resource = nullptr;

  void SetUp() override {
    auto adapter = std::make_unique<FakeResource>("audio");
    resource = adapter.get();
    ASSERT_TRUE(layer.resources().add_adapter(std::move(adapter)).ok());
  }
};

// -------------------------------------------------------- ResourceManager

TEST_F(BrokerFixture, InvokeRoutesAndTraces) {
  Args args{{"codec", Value("opus")}};
  auto result =
      runtime::run_inline(layer.resources().invoke("audio", "start", args));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_string(), "ok:start");
  ASSERT_EQ(layer.trace().size(), 1u);
  EXPECT_EQ(layer.trace().entries()[0], "audio.start(codec=\"opus\")");
  ASSERT_EQ(resource->executed.size(), 1u);
}

TEST_F(BrokerFixture, InvokeUnknownResourceFails) {
  EXPECT_EQ(runtime::run_inline(layer.resources().invoke("video", "start", {}))
                .status()
                .code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(layer.trace().size(), 0u);
}

TEST_F(BrokerFixture, FailedCommandStillAppearsInTrace) {
  resource->fail_next = true;
  EXPECT_FALSE(
      runtime::run_inline(layer.resources().invoke("audio", "start", {})).ok());
  EXPECT_EQ(layer.trace().size(), 1u);  // issued, then failed
}

TEST_F(BrokerFixture, AdapterRegistryChecks) {
  EXPECT_EQ(layer.resources()
                .add_adapter(std::make_unique<FakeResource>("audio"))
                .code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(layer.resources().add_adapter(nullptr).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(layer.resources().adapter_names(),
            std::vector<std::string>{"audio"});
  EXPECT_TRUE(layer.resources().remove_adapter("audio").ok());
  EXPECT_EQ(layer.resources().remove_adapter("audio").code(),
            ErrorCode::kNotFound);
}

TEST_F(BrokerFixture, ResourceEventsSurfaceOnBusWithPrefix) {
  std::vector<std::string> topics;
  bus.subscribe("resource.*",
                [&](const runtime::Event& e) { topics.push_back(e.topic); });
  resource->fire("link.lost", Value("sess-1"));
  ASSERT_EQ(topics.size(), 1u);
  EXPECT_EQ(topics[0], "resource.link.lost");
}

// ------------------------------------------------------ Action execution

TEST_F(BrokerFixture, ActionStepsExecuteInOrderWithTemplates) {
  Action action;
  action.name = "open-session";
  action.steps = {
      invoke_step("audio", "allocate", {{"session", Value("$id")}}),
      set_state_step("session.count", Value(1)),
      set_context_step("last.session", Value("$id")),
      emit_step("session.opened", Value("$id")),
      result_step(Value("$id")),
  };
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_handler("session.open", {"open-session"}).ok());

  int events = 0;
  bus.subscribe("session.opened", [&](const runtime::Event& e) {
    ++events;
    EXPECT_EQ(e.payload, Value("s42"));
  });

  auto result = runtime::run_inline(
      layer.call({"session.open", {{"id", Value("s42")}}}));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(*result, Value("s42"));
  EXPECT_EQ(layer.state().get("session.count"), Value(1));
  EXPECT_EQ(context.get("last.session"), Value("s42"));
  EXPECT_EQ(events, 1);
  EXPECT_EQ(layer.trace().entries()[0], "audio.allocate(session=\"s42\")");
  EXPECT_EQ(cell_value(metrics, "broker.calls"), 1u);
}

TEST_F(BrokerFixture, TemplateResolutionRules) {
  context.set("quality", Value("high"));
  Args call_args{{"id", Value("s1")}};
  Args templated{{"a", Value("$id")},
                 {"b", Value("$ctx:quality")},
                 {"c", Value("$$literal")},
                 {"d", Value("plain")},
                 {"e", Value("$missing")},
                 {"f", Value(7)}};
  Args resolved = resolve_args(templated, call_args, context);
  EXPECT_EQ(resolved["a"], Value("s1"));
  EXPECT_EQ(resolved["b"], Value("high"));
  EXPECT_EQ(resolved["c"], Value("$literal"));
  EXPECT_EQ(resolved["d"], Value("plain"));
  EXPECT_TRUE(resolved["e"].is_none());
  EXPECT_EQ(resolved["f"], Value(7));
}

TEST_F(BrokerFixture, GuardStepAbortsAction) {
  Action action;
  action.name = "guarded";
  action.steps = {guard_step("defined(ready)"),
                  invoke_step("audio", "start")};
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_handler("go", {"guarded"}).ok());
  EXPECT_EQ(runtime::run_inline(layer.call({"go", {}})).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(layer.trace().size(), 0u);  // aborted before invoke
  context.set("ready", Value(true));
  EXPECT_TRUE(runtime::run_inline(layer.call({"go", {}})).ok());
  EXPECT_EQ(layer.trace().size(), 1u);
}

TEST_F(BrokerFixture, HandlerSelectsByGuardAndPriority) {
  Action economical;
  economical.name = "eco";
  economical.priority = 1;
  economical.steps = {invoke_step("audio", "start-low")};
  Action premium;
  premium.name = "hq";
  premium.priority = 5;
  auto guard = policy::Expression::parse("bandwidth > 2.0");
  ASSERT_TRUE(guard.ok());
  premium.guard = std::move(guard.value());
  premium.steps = {invoke_step("audio", "start-high")};
  ASSERT_TRUE(layer.register_action(std::move(economical)).ok());
  ASSERT_TRUE(layer.register_action(std::move(premium)).ok());
  ASSERT_TRUE(layer.bind_handler("start", {"eco", "hq"}).ok());

  context.set("bandwidth", Value(1.0));
  ASSERT_TRUE(runtime::run_inline(layer.call({"start", {}})).ok());
  EXPECT_EQ(layer.trace().entries().back(), "audio.start-low()");

  context.set("bandwidth", Value(5.0));
  ASSERT_TRUE(runtime::run_inline(layer.call({"start", {}})).ok());
  EXPECT_EQ(layer.trace().entries().back(), "audio.start-high()");
}

TEST_F(BrokerFixture, UnhandledCallAndNoApplicableAction) {
  EXPECT_EQ(runtime::run_inline(layer.call({"nope", {}})).status().code(),
            ErrorCode::kNotFound);
  Action never;
  never.name = "never";
  auto guard = policy::Expression::parse("false");
  never.guard = std::move(guard.value());
  ASSERT_TRUE(layer.register_action(std::move(never)).ok());
  ASSERT_TRUE(layer.bind_handler("x", {"never"}).ok());
  EXPECT_EQ(runtime::run_inline(layer.call({"x", {}})).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(BrokerFixture, RegistrationErrors) {
  Action action;
  action.name = "a";
  ASSERT_TRUE(layer.register_action(action).ok());
  EXPECT_EQ(layer.register_action(action).code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(layer.bind_handler("sig", {"ghost"}).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(layer.action_count(), 1u);
}

TEST_F(BrokerFixture, EventsDispatchBoundActionsAndIgnoreUnbound) {
  Action react;
  react.name = "react";
  react.steps = {invoke_step("audio", "reconnect",
                             {{"why", Value("$event.payload")}})};
  ASSERT_TRUE(layer.register_action(std::move(react)).ok());
  ASSERT_TRUE(layer.bind_handler("resource.link.lost", {"react"}).ok());
  EXPECT_TRUE(layer.handle_event("resource.link.lost", Value("s1")).ok());
  EXPECT_EQ(layer.trace().entries().back(), "audio.reconnect(why=\"s1\")");
  // Unbound events are fine.
  EXPECT_TRUE(layer.handle_event("resource.ignored", {}).ok());
  EXPECT_EQ(cell_value(metrics, "broker.events_received"), 2u);
}

// ---------------------------------------------------- Autonomic manager

TEST_F(BrokerFixture, SymptomTriggersChangePlan) {
  ASSERT_TRUE(layer.autonomic()
                  .add_symptom({.name = "link-degraded",
                                .trigger_topic = "resource.link.lost",
                                .condition = {},
                                .change_request = "restore-link"})
                  .ok());
  ChangePlan plan;
  plan.name = "reconnect";
  plan.handles_request = "restore-link";
  plan.steps = {invoke_step("audio", "reconnect")};
  ASSERT_TRUE(layer.autonomic().add_plan(std::move(plan)).ok());

  resource->fire("link.lost");
  EXPECT_EQ(cell_value(metrics, "autonomic.symptoms_detected"), 1u);
  EXPECT_EQ(cell_value(metrics, "autonomic.reactions"), 1u);
  EXPECT_EQ(layer.trace().entries().back(), "audio.reconnect()");
  ASSERT_GE(layer.autonomic().adaptation_log().size(), 2u);
}

TEST_F(BrokerFixture, SymptomConditionGatesDetection) {
  ASSERT_TRUE(layer.autonomic()
                  .add_symptom({.name = "overload",
                                .trigger_topic = "resource.load",
                                .condition = *policy::Expression::parse(
                                    "load > 0.9"),
                                .change_request = "shed"})
                  .ok());
  ChangePlan plan;
  plan.name = "shed-load";
  plan.handles_request = "shed";
  plan.steps = {set_context_step("mode", Value("degraded"))};
  ASSERT_TRUE(layer.autonomic().add_plan(std::move(plan)).ok());

  context.set("load", Value(0.5));
  resource->fire("load");
  EXPECT_EQ(cell_value(metrics, "autonomic.reactions"), 0u);
  context.set("load", Value(0.95));
  resource->fire("load");
  EXPECT_EQ(cell_value(metrics, "autonomic.reactions"), 1u);
  EXPECT_EQ(context.get("mode"), Value("degraded"));
}

TEST_F(BrokerFixture, PlanSelectionByGuardAndPriority) {
  ChangePlan cheap;
  cheap.name = "cheap";
  cheap.handles_request = "fix";
  cheap.priority = 1;
  cheap.steps = {set_context_step("fixed.by", Value("cheap"))};
  ChangePlan thorough;
  thorough.name = "thorough";
  thorough.handles_request = "fix";
  thorough.priority = 9;
  thorough.guard = *policy::Expression::parse("defined(maintenance.window)");
  thorough.steps = {set_context_step("fixed.by", Value("thorough"))};
  ASSERT_TRUE(layer.autonomic().add_plan(std::move(cheap)).ok());
  ASSERT_TRUE(layer.autonomic().add_plan(std::move(thorough)).ok());

  ASSERT_TRUE(layer.autonomic().raise_request("fix").ok());
  EXPECT_EQ(context.get("fixed.by"), Value("cheap"));
  context.set("maintenance.window", Value(true));
  ASSERT_TRUE(layer.autonomic().raise_request("fix").ok());
  EXPECT_EQ(context.get("fixed.by"), Value("thorough"));
}

TEST_F(BrokerFixture, UnhandledRequestIsNotFound) {
  EXPECT_EQ(layer.autonomic().raise_request("ghost").code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(layer.autonomic().add_symptom({.name = "s",
                                           .trigger_topic = "t",
                                           .condition = {},
                                           .change_request = "r"})
                .code(),
            ErrorCode::kOk);
  EXPECT_EQ(layer.autonomic()
                .add_symptom({.name = "s",
                              .trigger_topic = "t",
                              .condition = {},
                              .change_request = "r"})
                .code(),
            ErrorCode::kAlreadyExists);
}

// Regression: an adapter exception used to unwind through invoke() and
// the whole controller stack. The fault boundary converts it to an
// ExecutionError status and counts it in "broker.adapter_exceptions".
TEST_F(BrokerFixture, ThrowingAdapterIsContainedAsExecutionError) {
  class ThrowingResource final : public ResourceAdapter {
   public:
    ThrowingResource() : ResourceAdapter("video") {}
    Result<Value> execute(const std::string&, const Args&) override {
      throw std::runtime_error("driver crashed");
    }
  };
  set_log_level(LogLevel::kOff);
  ASSERT_TRUE(
      layer.resources().add_adapter(std::make_unique<ThrowingResource>()).ok());
  auto result =
      runtime::run_inline(layer.resources().invoke("video", "start", {}));
  EXPECT_EQ(result.status().code(), ErrorCode::kExecutionError);
  EXPECT_NE(result.status().message().find("threw during 'start'"),
            std::string::npos)
      << result.status().to_string();
  EXPECT_EQ(layer.trace().size(), 1u);  // issued, then threw
  EXPECT_EQ(metrics.snapshot().counter_value("broker.adapter_exceptions"), 1u);
  set_log_level(LogLevel::kWarn);
}

// Regression: a step missing its required arg used to default-insert a
// none Value silently; now the action fails with a clear error.
TEST_F(BrokerFixture, StepMissingRequiredArgIsExecutionError) {
  Action action;
  action.name = "bad-set";
  ActionStep bare;
  bare.op = StepOp::kSetState;
  bare.a = "k";
  action.steps = {bare};
  ASSERT_TRUE(layer.register_action(std::move(action)).ok());
  ASSERT_TRUE(layer.bind_handler("go-bad", {"bad-set"}).ok());
  auto status = runtime::run_inline(layer.call({"go-bad", {}})).status();
  EXPECT_EQ(status.code(), ErrorCode::kExecutionError);
  EXPECT_NE(status.message().find("missing required arg 'value'"),
            std::string::npos)
      << status.to_string();
  EXPECT_TRUE(layer.state().get("k").is_none());  // nothing written
}

// ------------------------------------------------------------ ChaosAdapter

TEST_F(BrokerFixture, ChaosAdapterInjectsFaultsDeterministicallyAtRateOne) {
  ChaosConfig all_fail;
  all_fail.fail_rate = 1.0;
  ChaosAdapter fails(std::make_unique<FakeResource>("f"), all_fail);
  EXPECT_EQ(fails.execute("go", {}).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(cell_value(fails.metrics(), "chaos.failed"), 1u);
  EXPECT_EQ(cell_value(fails.metrics(), "chaos.passed"), 0u);

  ChaosConfig all_throw;
  all_throw.throw_rate = 1.0;
  ChaosAdapter throws(std::make_unique<FakeResource>("t"), all_throw);
  EXPECT_THROW((void)throws.execute("go", {}), std::runtime_error);
  EXPECT_EQ(cell_value(throws.metrics(), "chaos.threw"), 1u);

  ChaosAdapter clean(std::make_unique<FakeResource>("c"), ChaosConfig{});
  auto result = clean.execute("go", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_string(), "ok:go");
  EXPECT_EQ(cell_value(clean.metrics(), "chaos.passed"), 1u);
  EXPECT_EQ(cell_value(clean.metrics(), "chaos.executed"), 1u);
}

TEST_F(BrokerFixture, ChaosAdapterForwardsInnerEventsAndName) {
  auto inner = std::make_unique<FakeResource>("sensor");
  FakeResource* inner_raw = inner.get();
  auto chaos = std::make_unique<ChaosAdapter>(std::move(inner), ChaosConfig{});
  EXPECT_EQ(chaos->name(), "sensor");
  ASSERT_TRUE(layer.resources().add_adapter(std::move(chaos)).ok());
  Value seen;
  bus.subscribe("resource.ready",
                [&](const runtime::Event& e) { seen = e.payload; });
  inner_raw->fire("ready", Value("warm"));
  EXPECT_EQ(seen, Value("warm"));
}

// ------------------------------------------------------------ StateManager

TEST(StateManager, RuntimeModelAndVariables) {
  StateManager state;
  EXPECT_FALSE(state.has_runtime_model());
  state.set("k", Value(3));
  EXPECT_TRUE(state.has("k"));
  EXPECT_EQ(state.get("k"), Value(3));
  EXPECT_TRUE(state.get("ghost").is_none());
  state.erase("k");
  EXPECT_FALSE(state.has("k"));
  EXPECT_EQ(state.variable_count(), 0u);
}

TEST(CommandTrace, EqualityIsSequenceEquality) {
  obs::MetricsRegistry metrics;
  CommandTrace a(metrics);
  CommandTrace b(metrics);
  a.record("r", "c", {{"x", Value(1)}});
  b.record("r", "c", {{"x", Value(1)}});
  EXPECT_TRUE(a == b);
  b.record("r", "d", {});
  EXPECT_FALSE(a == b);
  a.record("r", "e", {});  // same length, different content
  EXPECT_FALSE(a == b);
}

// The trace is a ring: it holds the newest kCapacity entries, oldest
// first, and the registry keeps the totals the ring forgets.
TEST(CommandTrace, RingKeepsTheNewestEntriesAndCountsDrops) {
  obs::MetricsRegistry metrics;
  CommandTrace trace(metrics);
  const std::size_t total = CommandTrace::kCapacity + 10;
  for (std::size_t i = 0; i < total; ++i) {
    trace.record("r", "c", {{"i", Value(static_cast<std::int64_t>(i))}});
  }
  EXPECT_EQ(trace.size(), CommandTrace::kCapacity);
  EXPECT_EQ(trace.entries().front(), "r.c(i=10)");
  EXPECT_EQ(trace.entries().back(),
            numbered("r.c(i=", static_cast<std::int64_t>(total - 1)) + ")");
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counter_value("broker.commands"), total);
  EXPECT_EQ(snapshot.counter_value("broker.trace_dropped"), 10u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(metrics.snapshot().counter_value("broker.commands"), total);
}

}  // namespace
}  // namespace mdsm::broker
