// Integration tests for src/core: the middleware metamodel, spec
// decoding, and full platform assembly from a textual middleware model —
// the paper's model-based construction of middleware (§V-A), end to end:
//
//   middleware model text → Platform → application model text →
//   synthesis → controller (Case 1 + Case 2) → broker → resource trace.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "core/platform.hpp"
#include "core/spec_decode.hpp"
#include "metrics_fixtures.hpp"
#include "model_fixtures.hpp"

namespace mdsm::core {
namespace {

using model::Value;

/// Records every command; the "underlying resource" of this platform.
class RecordingAdapter : public broker::ResourceAdapter {
 public:
  explicit RecordingAdapter(std::string name)
      : ResourceAdapter(std::move(name)) {}
  Result<Value> execute(const std::string& command,
                        const broker::Args& args) override {
    (void)args;
    // Surfaces on the bus as "resource.invoked" — lets tests observe
    // events raised from inside a request's broker call.
    raise_event("invoked", Value(command));
    return Value("done:" + command);
  }
  void fire(const std::string& topic, Value payload = {}) {
    raise_event(topic, std::move(payload));
  }
};

// A complete middleware model for a miniature session platform over the
// shared "testlang" DSML. Broker actions handle session lifecycle calls;
// the controller maps lifecycle commands via a mix of Case 1 (predefined
// action) and Case 2 (procedures); the synthesis LTS turns model changes
// into lifecycle commands; autonomic rules restore dropped links.
constexpr std::string_view kMiddlewareModel = R"mw(
model session_platform conforms mdsm

object MiddlewarePlatform mw {
  name = "session-platform"
  domain = "testing"
  child ui UiLayerSpec ui1 { dsml = "testlang" }

  child broker BrokerLayerSpec b1 {
    child actions ActionSpec act-create {
      name = "bk-create"
      child steps StepSpec s1 {
        op = invoke
        a = "svc"
        b = "create"
        child args ArgSpec a1 { key = "id" value = "$id" }
      }
      child steps StepSpec s2 {
        op = set-state
        a = "sessions.created"
        child args ArgSpec a2 { key = "value" value = "$id" }
      }
    }
    child actions ActionSpec act-open-hq {
      name = "bk-open-hq"
      guard = "bandwidth >= 2.0"
      priority = 5
      child steps StepSpec s3 {
        op = invoke
        a = "svc"
        b = "open-hq"
        child args ArgSpec a3 { key = "id" value = "$id" }
      }
    }
    child actions ActionSpec act-open-lq {
      name = "bk-open-lq"
      child steps StepSpec s4 {
        op = invoke
        a = "svc"
        b = "open-lq"
        child args ArgSpec a4 { key = "id" value = "$id" }
      }
    }
    child actions ActionSpec act-close {
      name = "bk-close"
      child steps StepSpec s5 {
        op = invoke
        a = "svc"
        b = "close"
        child args ArgSpec a5 { key = "id" value = "$id" }
      }
      child steps StepSpec s6 {
        op = emit
        a = "session.closed"
        child args ArgSpec a6 { key = "payload" value = "$id" }
      }
    }
    child actions ActionSpec act-reconnect {
      name = "bk-reconnect"
      child steps StepSpec s7 { op = invoke a = "svc" b = "reconnect" }
    }
    child handlers HandlerSpec h1 { signal = "svc.create" actions -> act-create }
    child handlers HandlerSpec h2 {
      signal = "svc.open"
      actions -> act-open-hq, act-open-lq
    }
    child handlers HandlerSpec h3 { signal = "svc.close" actions -> act-close }
    child handlers HandlerSpec h4 {
      signal = "svc.reconnect" actions -> act-reconnect
    }
    child symptoms SymptomSpec sy1 {
      name = "link-drop"
      topic = "resource.link.down"
      request = "restore"
    }
    child plans ChangePlanSpec p1 {
      name = "restore-link"
      request = "restore"
      child steps StepSpec s8 { op = invoke a = "svc" b = "reconnect" }
    }
    child resources ResourceSpec r1 { name = "svc" }
  }

  child controller ControllerLayerSpec c1 {
    child dscs DscSpec d1 { name = "session.establish" category = "session" }
    child dscs DscSpec d2 { name = "media.path" category = "media" }
    child procedures ProcedureSpec pr1 {
      name = "establish-std"
      classifier = "session.establish"
      dependencies = ["media.path"]
      child units EuSpec eu1 {
        child steps StepSpec t1 {
          op = broker-call
          a = "svc.create"
          child args ArgSpec b1a { key = "id" value = "$id" }
        }
        child steps StepSpec t2 { op = call-dep a = "media.path" }
      }
    }
    child procedures ProcedureSpec pr2 {
      name = "path-direct"
      classifier = "media.path"
      cost = 1.0
      child units EuSpec eu2 {
        child steps StepSpec t3 {
          op = broker-call
          a = "svc.open"
          child args ArgSpec b2a { key = "id" value = "$id" }
        }
      }
    }
    child procedures ProcedureSpec pr3 {
      name = "path-relay"
      classifier = "media.path"
      cost = 5.0
      guard = "defined(relay.available)"
      child units EuSpec eu3 {
        child steps StepSpec t4 { op = broker-call a = "svc.open" }
        child steps StepSpec t5 { op = noop }
      }
    }
    child actions ActionSpec ca1 {
      name = "ctl-close"
      child steps StepSpec t6 {
        op = broker-call
        a = "svc.close"
        child args ArgSpec c1a { key = "id" value = "$id" }
      }
    }
    child bindings BindingSpec bind1 { command = "session.close" actions -> ca1 }
    child mappings CommandMappingSpec m1 {
      command = "session.create"
      dsc = "session.establish"
    }
  }

  child synthesis SynthesisLayerSpec syn1 {
    initial_state = "initial"
    child transitions TransitionSpec tr1 {
      from = "initial"
      to = "live"
      kind = add-object
      class = "Session"
      child commands CommandTemplateSpec ct1 {
        name = "session.create"
        child args ArgSpec sa1 { key = "id" value = "%id" }
      }
    }
    child transitions TransitionSpec tr2 {
      from = "live"
      to = "done"
      kind = set-attribute
      class = "Session"
      feature = "state"
      value = "closed"
      vtype = string
      child commands CommandTemplateSpec ct2 {
        name = "session.close"
        child args ArgSpec sa2 { key = "id" value = "%id" }
      }
    }
  }
}
)mw";

struct PlatformFixture : ::testing::Test {
  model::MetamodelPtr dsml = model::testing::make_test_metamodel();
  std::unique_ptr<Platform> platform;
  RecordingAdapter* adapter = nullptr;

  void SetUp() override {
    PlatformConfig config;
    config.dsml = dsml;
    auto assembled = Platform::assemble_from_text(kMiddlewareModel, config);
    ASSERT_TRUE(assembled.ok()) << assembled.status().to_string();
    platform = std::move(assembled.value());
    auto owned = std::make_unique<RecordingAdapter>("svc");
    adapter = owned.get();
    ASSERT_TRUE(platform->add_resource_adapter(std::move(owned)).ok());
  }
};

TEST(MiddlewareMetamodel, IsWellFormedSingleton) {
  auto mm = middleware_metamodel();
  ASSERT_NE(mm, nullptr);
  EXPECT_TRUE(mm->finalized());
  EXPECT_EQ(mm.get(), middleware_metamodel().get());  // singleton
  EXPECT_NE(mm->find_class("MiddlewarePlatform"), nullptr);
  EXPECT_NE(mm->find_class("ProcedureSpec"), nullptr);
  EXPECT_NE(mm->find_class("TransitionSpec"), nullptr);
}

TEST_F(PlatformFixture, StartRequiresDeclaredResources) {
  // A platform missing its required adapter refuses to start.
  PlatformConfig config;
  config.dsml = dsml;
  auto bare = Platform::assemble_from_text(kMiddlewareModel, config);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ((*bare)->start().code(), ErrorCode::kFailedPrecondition);
  // Ours has the adapter.
  EXPECT_TRUE(platform->start().ok());
  EXPECT_TRUE(platform->running());
  EXPECT_TRUE(platform->start().ok());  // idempotent
  EXPECT_TRUE(platform->stop().ok());
  EXPECT_FALSE(platform->running());
}

TEST_F(PlatformFixture, SubmitBeforeStartRejected) {
  EXPECT_EQ(platform
                ->submit_model_text(
                    "model app conforms testlang\n"
                    "object Session s1 { state = open }\n")
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(PlatformFixture, EndToEndModelExecution) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  // Creating a session in the application model drives Case 2: the LTS
  // emits session.create, which maps to the session.establish DSC; the
  // generated IM calls svc.create then the cheapest media path.
  auto script = platform->submit_model_text(
      "model app conforms testlang\n"
      "object Session s1 { state = open }\n");
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  ASSERT_EQ(script->commands.size(), 1u);
  const auto& entries = platform->trace().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "svc.create(id=\"s1\")");
  EXPECT_EQ(entries[1], "svc.open-hq(id=\"s1\")");  // bandwidth ≥ 2 → HQ
  EXPECT_EQ(platform->controller().stats().case2_executions, 1u);
  // Closing the session drives Case 1 (bound controller action).
  auto close = platform->submit_model_text(
      "model app2 conforms testlang\n"
      "object Session s1 { state = closed }\n");
  ASSERT_TRUE(close.ok()) << close.status().to_string();
  ASSERT_EQ(platform->trace().entries().size(), 3u);
  EXPECT_EQ(platform->trace().entries()[2], "svc.close(id=\"s1\")");
  EXPECT_EQ(platform->controller().stats().case1_executions, 1u);
}

TEST_F(PlatformFixture, BrokerGuardSelectsLowQualityUnderLowBandwidth) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(0.5));
  ASSERT_TRUE(platform
                  ->submit_model_text("model app conforms testlang\n"
                                      "object Session s1 { state = open }\n")
                  .ok());
  EXPECT_EQ(platform->trace().entries()[1], "svc.open-lq(id=\"s1\")");
}

TEST_F(PlatformFixture, AutonomicRuleLoadedFromModelFires) {
  ASSERT_TRUE(platform->start().ok());
  adapter->fire("link.down");
  EXPECT_EQ(cell_value(platform->metrics(), "autonomic.reactions"), 1u);
  ASSERT_EQ(platform->trace().entries().size(), 1u);
  EXPECT_EQ(platform->trace().entries()[0], "svc.reconnect()");
}

TEST_F(PlatformFixture, RuntimeModelRoundTrips) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  ASSERT_TRUE(platform
                  ->submit_model_text("model app conforms testlang\n"
                                      "object Session s1 { state = open }\n")
                  .ok());
  std::string text = platform->runtime_model_text();
  auto reparsed = model::parse_model(text, dsml);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->find("s1")->get_string("state"), "open");
}

TEST_F(PlatformFixture, BrokerStateManagerMirrorsRuntimeModel) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  ASSERT_TRUE(platform
                  ->submit_model_text("model app conforms testlang\n"
                                      "object Session s1 { state = open }\n")
                  .ok());
  // models@runtime at the broker layer: the state manager holds the
  // committed application model.
  ASSERT_TRUE(platform->broker().state().has_runtime_model());
  std::shared_ptr<const model::Model> mirror =
      platform->broker().state().runtime_model();
  ASSERT_NE(mirror->find("s1"), nullptr);
  EXPECT_EQ(mirror->find("s1")->get_string("state"), "open");
}

// Regression: the mirror used to hand out a reference to a model that
// the next commit destroyed. A reader now holds the committed model it
// was given, however many commits land while it serializes it.
TEST_F(PlatformFixture, BrokerMirrorReadableWhileSubmissionsCommit) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 40;
  std::atomic<int> running{kSubmitters};
  std::atomic<int> failed_submits{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        std::string text =
            "model app conforms testlang\nobject Session s1 { state = open "
            "label = \"";
        text += std::to_string(t * kPerSubmitter + i);
        text += "\" }\n";
        obs::RequestContext context = platform->make_context();
        if (!platform->submit_model_text(text, context).ok()) {
          ++failed_submits;
        }
      }
      --running;
    });
  }
  int reads = 0;
  do {
    std::shared_ptr<const model::Model> mirror =
        platform->broker().state().runtime_model();
    ASSERT_NE(mirror, nullptr);
    std::string text = model::serialize_model(*mirror);
    EXPECT_TRUE(model::parse_model(text, dsml).ok()) << text;
    ++reads;
  } while (running.load() > 0);
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(failed_submits.load(), 0);
  EXPECT_GT(reads, 0);
  std::shared_ptr<const model::Model> last =
      platform->broker().state().runtime_model();
  EXPECT_EQ(model::serialize_model(*last), platform->runtime_model_text());
}

TEST_F(PlatformFixture, BadApplicationModelTextIsParseError) {
  ASSERT_TRUE(platform->start().ok());
  EXPECT_EQ(platform->submit_model_text("garbage {{{").status().code(),
            ErrorCode::kParseError);
}

// A model-text parse error is one failed request whichever door it
// enters: the sync submit counts it exactly as submit_async() does.
TEST_F(PlatformFixture, ParseErrorCountsTheSameThroughBothDoors) {
  ASSERT_TRUE(platform->start().ok());
  obs::Counter& submitted = platform->metrics().counter("requests.submitted");
  obs::Counter& failed = platform->metrics().counter("requests.failed");
  EXPECT_EQ(platform->submit_model_text("garbage {{{").status().code(),
            ErrorCode::kParseError);
  const std::uint64_t sync_submitted = submitted.value();
  const std::uint64_t sync_failed = failed.value();

  std::promise<ErrorCode> settled;
  ASSERT_TRUE(platform
                  ->submit_async("garbage {{{",
                                 [&settled](Result<controller::ControlScript> r) {
                                   settled.set_value(r.status().code());
                                 })
                  .ok());
  EXPECT_EQ(settled.get_future().get(), ErrorCode::kParseError);
  EXPECT_EQ(sync_submitted, 1u);
  EXPECT_EQ(sync_failed, 1u);
  EXPECT_EQ(submitted.value() - sync_submitted, sync_submitted);
  EXPECT_EQ(failed.value() - sync_failed, sync_failed);
  EXPECT_TRUE(platform->stop().ok());
}

// Policies loaded from the middleware model steer classification and
// selection exactly like programmatically-added ones.
TEST(PlatformPolicies, ModelLoadedPoliciesSteerClassificationAndSelection) {
  constexpr std::string_view kPolicyModel = R"mw(
model policyful conforms mdsm
object MiddlewarePlatform mw {
  name = "policy-platform"
  child ui UiLayerSpec u { dsml = "testlang" }
  child broker BrokerLayerSpec b {
    child actions ActionSpec ba {
      name = "bk-op"
      child steps StepSpec bs {
        op = invoke a = "svc" b = "op"
        child args ArgSpec bsa { key = "via" value = "$via" }
      }
    }
    child handlers HandlerSpec bh { signal = "svc.op" actions -> ba }
    child resources ResourceSpec br { name = "svc" }
  }
  child controller ControllerLayerSpec c {
    child dscs DscSpec d { name = "op" }
    child procedures ProcedureSpec p1 {
      name = "cheap-low-quality"
      classifier = "op"
      cost = 1.0
      quality = 0.2
      child units EuSpec p1u {
        child steps StepSpec p1s {
          op = broker-call a = "svc.op"
          child args ArgSpec p1sa { key = "via" value = "cheap" }
        }
      }
    }
    child procedures ProcedureSpec p2 {
      name = "costly-high-quality"
      classifier = "op"
      cost = 9.0
      quality = 0.9
      child units EuSpec p2u {
        child steps StepSpec p2s {
          op = broker-call a = "svc.op"
          child args ArgSpec p2sa { key = "via" value = "lux" }
        }
      }
    }
    child actions ActionSpec ca {
      name = "flat"
      child steps StepSpec cs {
        op = broker-call a = "svc.op"
        child args ArgSpec csa { key = "via" value = "flat" }
      }
    }
    child bindings BindingSpec cb { command = "op" actions -> ca }
    child policies PolicySpec pol1 {
      name = "dynamic-mode"
      role = classification
      condition = "mode == \"dynamic\""
      decision = "case2"
      priority = 10
    }
    child policies PolicySpec pol2 {
      name = "premium-selection"
      role = selection
      condition = "tier == \"premium\""
      decision = "max-quality"
      priority = 5
    }
  }
  child synthesis SynthesisLayerSpec se {
    child transitions TransitionSpec t {
      from = "initial" to = "live" kind = add-object class = "Session"
      child commands CommandTemplateSpec tc { name = "op" }
    }
  }
}
)mw";
  PlatformConfig config;
  config.dsml = model::testing::make_test_metamodel();
  auto platform = Platform::assemble_from_text(kPolicyModel, config);
  ASSERT_TRUE(platform.ok()) << platform.status().to_string();
  ASSERT_TRUE((*platform)
                  ->add_resource_adapter(
                      std::make_unique<RecordingAdapter>("svc"))
                  .ok());
  ASSERT_TRUE((*platform)->start().ok());
  auto& controller = (*platform)->controller();
  // Default classification: bound action wins → Case 1 ("flat").
  ASSERT_TRUE(runtime::run_inline(controller.execute_command({"op", {}})).ok());
  EXPECT_EQ((*platform)->trace().entries().back(), "svc.op(via=\"flat\")");
  // Classification policy flips to Case 2; default selection = min-cost.
  (*platform)->context().set("mode", Value("dynamic"));
  ASSERT_TRUE(runtime::run_inline(controller.execute_command({"op", {}})).ok());
  EXPECT_EQ((*platform)->trace().entries().back(), "svc.op(via=\"cheap\")");
  // Selection policy flips the strategy to max-quality.
  (*platform)->context().set("tier", Value("premium"));
  ASSERT_TRUE(runtime::run_inline(controller.execute_command({"op", {}})).ok());
  EXPECT_EQ((*platform)->trace().entries().back(), "svc.op(via=\"lux\")");
}

// ------------------------------------------------- assembly error paths

TEST(PlatformAssembly, RejectsForeignMetamodel) {
  model::MetamodelPtr dsml = model::testing::make_test_metamodel();
  model::Model not_mw("x", dsml);
  PlatformConfig config;
  config.dsml = dsml;
  EXPECT_EQ(Platform::assemble(not_mw, config).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(PlatformAssembly, RejectsDsmlMismatch) {
  auto middleware_model = model::parse_model(
      kMiddlewareModel, middleware_metamodel());
  ASSERT_TRUE(middleware_model.ok());
  model::Metamodel other("otherlang");
  other.add_class("X");
  PlatformConfig config;
  config.dsml = model::finalize_metamodel(std::move(other));
  EXPECT_EQ(Platform::assemble(*middleware_model, config).status().code(),
            ErrorCode::kConformanceError);
}

TEST(PlatformAssembly, RejectsMissingDsml) {
  auto middleware_model =
      model::parse_model(kMiddlewareModel, middleware_metamodel());
  ASSERT_TRUE(middleware_model.ok());
  PlatformConfig config;  // dsml left null
  EXPECT_EQ(Platform::assemble(*middleware_model, config).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(PlatformAssembly, RejectsModelWithoutRoot) {
  model::Model empty("e", middleware_metamodel());
  PlatformConfig config;
  config.dsml = model::testing::make_test_metamodel();
  EXPECT_EQ(Platform::assemble(empty, config).status().code(),
            ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------- spec decode

TEST(SpecDecode, ValueTypes) {
  auto mm = middleware_metamodel();
  model::Model m("m", mm);
  m.create("ArgSpec", "a");
  m.set_attribute("a", "key", Value("k"));
  m.set_attribute("a", "value", Value("42"));
  m.set_attribute("a", "vtype", Value("int"));
  EXPECT_EQ(*decode_value(*m.find("a")), Value(42));
  m.set_attribute("a", "vtype", Value("real"));
  EXPECT_EQ(*decode_value(*m.find("a")), Value(42.0));
  m.set_attribute("a", "vtype", Value("string"));
  EXPECT_EQ(*decode_value(*m.find("a")), Value("42"));
  m.set_attribute("a", "value", Value("true"));
  m.set_attribute("a", "vtype", Value("bool"));
  EXPECT_EQ(*decode_value(*m.find("a")), Value(true));
  m.set_attribute("a", "value", Value("not-an-int"));
  m.set_attribute("a", "vtype", Value("int"));
  EXPECT_FALSE(decode_value(*m.find("a")).ok());
}

TEST(SpecDecode, IllegalOpForLayerRejected) {
  auto mm = middleware_metamodel();
  model::Model m("m", mm);
  m.create("StepSpec", "s");
  m.set_attribute("s", "op", Value("call-dep"));  // controller-only
  EXPECT_EQ(decode_broker_step(m, *m.find("s")).status().code(),
            ErrorCode::kConformanceError);
  m.set_attribute("s", "op", Value("invoke"));  // broker-only
  EXPECT_EQ(decode_instruction(m, *m.find("s")).status().code(),
            ErrorCode::kConformanceError);
}

TEST(SpecDecode, BadExpressionSurfacesObjectId) {
  auto mm = middleware_metamodel();
  model::Model m("m", mm);
  m.create("ActionSpec", "broken");
  m.set_attribute("broken", "name", Value("x"));
  m.set_attribute("broken", "guard", Value("1 +"));
  auto decoded = decode_broker_action(m, *m.find("broken"));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("broken"), std::string::npos);
}

// ---- observability (request contexts, traces, metrics) ------------------

constexpr std::string_view kSessionOpenModel =
    "model app conforms testlang\n"
    "object Session s1 { state = open }\n";

TEST_F(PlatformFixture, SubmissionProducesOneSpanPerLayerCrossed) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  obs::RequestContext request = platform->make_context();
  ASSERT_TRUE(platform->submit_model_text(kSessionOpenModel, request).ok());

  const obs::Trace& trace = request.trace();
  EXPECT_TRUE(trace.all_closed());
  // Exactly one span per layer crossing of this request.
  EXPECT_EQ(trace.count("ui.submit"), 1u);
  EXPECT_EQ(trace.count("synthesis.submit"), 1u);
  EXPECT_EQ(trace.count("controller.script"), 1u);
  EXPECT_EQ(trace.count("controller.signal"), 1u);
  // The session.create command generated an IM whose two procedures each
  // ran under their own EU span, issuing two broker calls total.
  EXPECT_EQ(trace.count("controller.eu"), 2u);
  EXPECT_EQ(trace.count("broker.call"), 2u);

  // The tree nests in pipeline order with monotonic timestamps.
  const obs::Span* ui = trace.find("ui.submit");
  const obs::Span* synthesis = trace.find("synthesis.submit");
  const obs::Span* script = trace.find("controller.script");
  const obs::Span* signal = trace.find("controller.signal");
  const obs::Span* call = trace.find("broker.call");
  ASSERT_TRUE(ui && synthesis && script && signal && call);
  EXPECT_EQ(ui->parent, 0u);
  EXPECT_EQ(synthesis->parent, ui->id);
  EXPECT_EQ(script->parent, synthesis->id);
  EXPECT_EQ(signal->parent, script->id);
  for (const obs::Span* span : {ui, synthesis, script, signal, call}) {
    EXPECT_TRUE(span->closed);
    EXPECT_LE(span->start, span->end);
  }
  EXPECT_LE(ui->start, synthesis->start);
  EXPECT_LE(synthesis->end, ui->end);
  EXPECT_LE(signal->start, call->start);
  EXPECT_LE(call->end, signal->end);
}

// The sync door runs the request machine inline: it never creates the
// executor, its stages or the event loop.
TEST_F(PlatformFixture, SyncSubmitsNeverCreateThePipeline) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  ASSERT_TRUE(platform->submit_model_text(kSessionOpenModel).ok());
  EXPECT_EQ(platform->submit_model_text("garbage {{{").status().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(platform->event_loop(), nullptr);
  EXPECT_TRUE(platform->stage_stats().empty());
  const Platform::PipelineStats stats = platform->pipeline_stats();
  EXPECT_EQ(stats.queue_capacity, 0u);
  EXPECT_EQ(stats.max_pending, 0u);
  EXPECT_EQ(stats.max_bounded_pending, 0u);
  // No executor, so none of its cells: nothing was rejected or shed.
  const obs::MetricsSnapshot metrics = platform->metrics().snapshot();
  EXPECT_EQ(metrics.counter("runtime.executor_rejections"), nullptr);
  EXPECT_EQ(metrics.counter("runtime.executor_shed"), nullptr);
}

TEST_F(PlatformFixture, ContextFreeSubmissionKeepsLastTrace) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  EXPECT_EQ(platform->last_trace(), nullptr);
  ASSERT_TRUE(platform->submit_model_text(kSessionOpenModel).ok());
  ASSERT_NE(platform->last_trace(), nullptr);
  EXPECT_EQ(platform->last_trace()->count("ui.submit"), 1u);
  EXPECT_TRUE(platform->last_trace()->all_closed());
}

TEST_F(PlatformFixture, MetricsSnapshotMatchesCommandTrace) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  ASSERT_TRUE(platform->submit_model_text(kSessionOpenModel).ok());
  ASSERT_TRUE(platform
                  ->submit_model_text("model app2 conforms testlang\n"
                                      "object Session s1 { state = closed }\n")
                  .ok());
  obs::MetricsSnapshot snapshot = platform->metrics().snapshot();
  // Every resource command in the broker's wire trace was counted.
  EXPECT_EQ(snapshot.counter_value("broker.commands"),
            platform->trace().entries().size());
  EXPECT_EQ(snapshot.counter_value("requests.submitted"), 2u);
  EXPECT_EQ(snapshot.counter_value("requests.failed"), 0u);
  EXPECT_EQ(snapshot.counter_value("synthesis.models"), 2u);
  EXPECT_EQ(snapshot.counter_value("synthesis.scripts"), 2u);
  const auto& stats = platform->controller().stats();
  EXPECT_EQ(snapshot.counter_value("controller.commands"),
            stats.commands_executed);
  EXPECT_EQ(snapshot.counter_value("controller.case1"),
            stats.case1_executions);
  EXPECT_EQ(snapshot.counter_value("controller.case2"),
            stats.case2_executions);
  EXPECT_EQ(snapshot.counter_value("controller.broker_calls"),
            snapshot.counter_value("broker.calls"));
  // Span closes fed the latency histograms.
  ASSERT_NE(snapshot.histogram("latency.ui.submit"), nullptr);
  EXPECT_EQ(snapshot.histogram("latency.ui.submit")->count, 2u);
  ASSERT_NE(snapshot.histogram("latency.broker.call"), nullptr);
  EXPECT_EQ(snapshot.histogram("latency.broker.call")->count,
            snapshot.counter_value("broker.calls"));
}

TEST_F(PlatformFixture, FailedSubmissionCountsAsFailedRequest) {
  // Not started → ui.submit fails at the gate but is still counted.
  EXPECT_FALSE(platform->submit_model_text(kSessionOpenModel).ok());
  obs::MetricsSnapshot snapshot = platform->metrics().snapshot();
  EXPECT_EQ(snapshot.counter_value("requests.submitted"), 1u);
  EXPECT_EQ(snapshot.counter_value("requests.failed"), 1u);
}

TEST_F(PlatformFixture, BusEventsCarryTheRequestId) {
  ASSERT_TRUE(platform->start().ok());
  platform->context().set("bandwidth", Value(5.0));
  std::vector<std::uint64_t> seen;
  std::uint64_t subscription = platform->bus().subscribe(
      "resource.invoked",
      [&seen](const runtime::Event& event) { seen.push_back(event.request_id); });
  obs::RequestContext request = platform->make_context();
  ASSERT_TRUE(platform->submit_model_text(kSessionOpenModel, request).ok());
  platform->bus().unsubscribe(subscription);
  // Both resource commands of this request raised an event.
  ASSERT_EQ(seen.size(), 2u);
  for (std::uint64_t id : seen) EXPECT_EQ(id, request.id());
  // Distinct requests stamp distinct ids.
  obs::RequestContext second = platform->make_context();
  EXPECT_NE(second.id(), request.id());
}

TEST(PlatformDeadline, ExpiredContextIsRejectedAtTheUiGate) {
  SimClock sim;
  PlatformConfig config;
  config.dsml = model::testing::make_test_metamodel();
  config.clock = &sim;
  auto assembled = Platform::assemble_from_text(kMiddlewareModel, config);
  ASSERT_TRUE(assembled.ok()) << assembled.status().to_string();
  auto& platform = *assembled.value();
  ASSERT_TRUE(
      platform.add_resource_adapter(std::make_unique<RecordingAdapter>("svc"))
          .ok());
  ASSERT_TRUE(platform.start().ok());
  platform.context().set("bandwidth", Value(5.0));

  obs::RequestContext in_time = platform.make_context(Duration(1000));
  ASSERT_TRUE(platform.submit_model_text(kSessionOpenModel, in_time).ok());

  obs::RequestContext late = platform.make_context(Duration(1000));
  sim.advance(Duration(2000));
  Result<controller::ControlScript> rejected = platform.submit_model_text(
      "model app2 conforms testlang\n"
      "object Session s1 { state = closed }\n",
      late);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kTimeout);
  // The deadline gate fired before the pipeline: no new commands hit the
  // resource trace and the failure was counted.
  EXPECT_EQ(platform.trace().entries().size(), 2u);
  EXPECT_EQ(platform.metrics().snapshot().counter_value("requests.failed"),
            1u);
}

}  // namespace
}  // namespace mdsm::core
