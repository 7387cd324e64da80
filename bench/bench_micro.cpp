// Microbenchmarks and ablations (google-benchmark): the per-operation
// costs behind Exp-2/Exp-3/Exp-4, plus ablations of the design choices
// DESIGN.md calls out — Case 1 vs Case 2 dispatch, IM cache on/off,
// guarded vs unguarded action selection, expression evaluation, model
// diff and text parsing.
#include <benchmark/benchmark.h>

#include "broker/broker_layer.hpp"
#include "controller/controller_layer.hpp"
#include "controller/static_controller.hpp"
#include "core/middleware_metamodel.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "model/diff.hpp"
#include "model/text_format.hpp"
#include "policy/expression.hpp"

namespace {

using namespace mdsm;
using model::Value;

class NullBroker : public broker::BrokerApi {
 public:
  using broker::BrokerApi::call;
  runtime::Task<Result<model::Value>> call(const broker::Call&,
                                           obs::RequestContext&) override {
    co_return model::Value(true);
  }
  [[nodiscard]] const broker::CommandTrace& trace() const override {
    return trace_;
  }

 private:
  obs::MetricsRegistry trace_metrics_;
  broker::CommandTrace trace_{trace_metrics_};
};

// ------------------------------------------------------------ expression

void BM_ExpressionParse(benchmark::State& state) {
  for (auto _ : state) {
    auto expr = policy::Expression::parse(
        "bandwidth >= 1.5 && mode == \"eco\" || !defined(override)");
    benchmark::DoNotOptimize(expr);
  }
}
BENCHMARK(BM_ExpressionParse);

void BM_ExpressionEvaluate(benchmark::State& state) {
  policy::ContextStore context;
  context.set("bandwidth", Value(2.0));
  context.set("mode", Value("eco"));
  auto expr = policy::Expression::parse(
      "bandwidth >= 1.5 && mode == \"eco\" || !defined(override)");
  for (auto _ : state) {
    auto value = expr->evaluate_bool(context);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_ExpressionEvaluate);

// ----------------------------------------------------------------- model

void BM_ModelDiff(benchmark::State& state) {
  auto mm = comm::cml_metamodel();
  model::Model before("a", mm);
  before.create("Connection", "c1");
  for (int i = 0; i < state.range(0); ++i) {
    std::string id = "p" + std::to_string(i);
    before.create_child("c1", "participants", "Participant", id);
    before.set_attribute(id, "address", Value(id + "@host"));
  }
  model::Model after = before.clone();
  after.set_attribute("c1", "state", Value("active"));
  after.remove("p0");
  for (auto _ : state) {
    auto changes = model::diff(before, after);
    benchmark::DoNotOptimize(changes);
  }
}
BENCHMARK(BM_ModelDiff)->Arg(4)->Arg(32)->Arg(128);

void BM_ModelParseText(benchmark::State& state) {
  constexpr std::string_view text = R"(
model call conforms cml
object Connection c1 {
  state = active
  child participants Participant alice { address = "a" }
  child participants Participant bob { address = "b" }
  child media Medium voice { kind = audio quality = standard }
}
)";
  auto mm = comm::cml_metamodel();
  for (auto _ : state) {
    auto parsed = model::parse_model(text, mm);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ModelParseText);

void BM_ModelClone(benchmark::State& state) {
  // The copy an incremental model edit starts from: a Connection with
  // range(0) participants and two media, as in perfbench's conference.
  std::string text = "model conf conforms cml\nobject Connection c {\n"
                     "  state = active\n  topology = conference\n";
  for (int i = 0; i < state.range(0); ++i) {
    text += "  child participants Participant p" + std::to_string(i) +
            " { address = \"p" + std::to_string(i) + "\" }\n";
  }
  text += "  child media Medium voice { kind = audio }\n"
          "  child media Medium cam { kind = video }\n}\n";
  auto parsed = model::parse_model(text, comm::cml_metamodel());
  if (!parsed.ok()) {
    state.SkipWithError("conference does not parse");
    return;
  }
  for (auto _ : state) {
    model::Model copy = parsed->clone();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ModelClone)->Arg(24);

void BM_MiddlewareModelParse(benchmark::State& state) {
  // The dominant cost of the non-adaptive reload path in Exp-4.
  for (auto _ : state) {
    auto parsed = model::parse_model(comm::cvm_middleware_model_text(),
                                     core::middleware_metamodel());
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_MiddlewareModelParse);

// ---------------------------------------------------- broker dispatch

struct BrokerFixtureState {
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  broker::BrokerLayer layer{"b", bus, context, metrics};

  BrokerFixtureState() {
    class Echo : public broker::ResourceAdapter {
     public:
      Echo() : ResourceAdapter("r") {}
      Result<model::Value> execute(const std::string&,
                                   const broker::Args&) override {
        return model::Value(true);
      }
    };
    (void)layer.resources().add_adapter(std::make_unique<Echo>());
    broker::Action plain;
    plain.name = "plain";
    plain.steps = {broker::invoke_step("r", "op", {{"id", Value("$id")}})};
    (void)layer.register_action(std::move(plain));
    broker::Action guarded;
    guarded.name = "guarded";
    guarded.guard = *policy::Expression::parse("bandwidth >= 2.0");
    guarded.priority = 5;
    guarded.steps = {broker::invoke_step("r", "op", {{"id", Value("$id")}})};
    (void)layer.register_action(std::move(guarded));
    (void)layer.bind_handler("plain.op", {"plain"});
    (void)layer.bind_handler("guarded.op", {"guarded", "plain"});
    context.set("bandwidth", Value(3.0));
  }
};

void BM_BrokerCallUnguarded(benchmark::State& state) {
  BrokerFixtureState fixture;
  broker::Call call{"plain.op", {{"id", Value("x")}}};
  for (auto _ : state) {
    auto result = runtime::run_inline(fixture.layer.call(call));
    benchmark::DoNotOptimize(result);
  }
  fixture.layer.resources().clear_trace();
}
BENCHMARK(BM_BrokerCallUnguarded);

void BM_BrokerCallGuardedSelection(benchmark::State& state) {
  BrokerFixtureState fixture;
  broker::Call call{"guarded.op", {{"id", Value("x")}}};
  for (auto _ : state) {
    auto result = runtime::run_inline(fixture.layer.call(call));
    benchmark::DoNotOptimize(result);
  }
  fixture.layer.resources().clear_trace();
}
BENCHMARK(BM_BrokerCallGuardedSelection);

// ------------------------------------------------- controller dispatch

struct ControllerFixtureState {
  NullBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  controller::ControllerLayer layer{"c", broker, bus, context, metrics};
  controller::StaticController fixed{broker, bus, context};

  ControllerFixtureState() {
    (void)layer.dscs().add({"op", {}, "", ""});
    controller::Procedure p;
    p.name = "op-impl";
    p.classifier = "op";
    p.units = {{controller::broker_call("r.op")}};
    (void)layer.add_procedure(std::move(p));
    controller::ControllerAction action;
    action.name = "op-act";
    action.body = {controller::broker_call("r.op")};
    (void)layer.register_action(std::move(action));
    (void)layer.bind_action("op.case1", {"op-act"});
    controller::StaticController::DispatchTable table;
    table["op"] = {controller::broker_call("r.op")};
    fixed.set_table(std::move(table));
  }
};

void BM_ControllerCase1(benchmark::State& state) {
  ControllerFixtureState fixture;
  controller::Command command{"op.case1", {}};
  for (auto _ : state) {
    auto result = runtime::run_inline(fixture.layer.execute_command(command));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ControllerCase1);

void BM_ControllerCase2Cached(benchmark::State& state) {
  ControllerFixtureState fixture;
  controller::Command command{"op", {}};
  for (auto _ : state) {
    auto result = runtime::run_inline(fixture.layer.execute_command(command));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ControllerCase2Cached);

void BM_ControllerCase2NoCache(benchmark::State& state) {
  // Ablation: context churn defeats the IM cache every command.
  ControllerFixtureState fixture;
  controller::Command command{"op", {}};
  std::int64_t tick = 0;
  for (auto _ : state) {
    fixture.context.set("churn", Value(++tick));
    auto result = runtime::run_inline(fixture.layer.execute_command(command));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ControllerCase2NoCache);

void BM_StaticControllerDispatch(benchmark::State& state) {
  ControllerFixtureState fixture;
  controller::Command command{"op", {}};
  for (auto _ : state) {
    auto result = fixture.fixed.execute(command);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_StaticControllerDispatch);

// ------------------------------------------ IM generation scaling sweep

void BM_ImGenerationColdByRepoSize(benchmark::State& state) {
  NullBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  controller::ControllerLayer layer("g", broker, bus, context, metrics);
  const int variants = static_cast<int>(state.range(0));
  (void)layer.dscs().add({"root", {}, "", ""});
  (void)layer.dscs().add({"dep", {}, "", ""});
  for (int v = 0; v < variants; ++v) {
    controller::Procedure r;
    r.name = "root" + std::to_string(v);
    r.classifier = "root";
    r.cost = 1.0 + v;
    r.dependencies = {"dep"};
    r.units = {{controller::call_dep("dep")}};
    (void)layer.add_procedure(std::move(r));
    controller::Procedure d;
    d.name = "dep" + std::to_string(v);
    d.classifier = "dep";
    d.cost = 1.0 + v;
    d.units = {{controller::noop()}};
    (void)layer.add_procedure(std::move(d));
  }
  for (auto _ : state) {
    auto intent = layer.generator().generate(
        "root", controller::SelectionStrategy::kMinCost);
    benchmark::DoNotOptimize(intent);
  }
  state.SetLabel(std::to_string(2 * variants) + " procedures");
}
BENCHMARK(BM_ImGenerationColdByRepoSize)->Arg(2)->Arg(8)->Arg(16);

// ------------------------------------------ full-pipeline model updates

void BM_FullPipelineModelUpdate(benchmark::State& state) {
  // End-to-end UI→synthesis→controller→broker cost of one incremental
  // model update (a bandwidth retune) on an established CVM session,
  // scaled by session size.
  auto cvm = comm::make_cvm();
  if (!cvm.ok()) {
    state.SkipWithError("CVM assembly failed");
    return;
  }
  const int participants = static_cast<int>(state.range(0));
  std::string base = "model app conforms cml\nobject Connection c {\n"
                     "  state = active\n";
  for (int i = 0; i < participants; ++i) {
    base += "  child participants Participant p" + std::to_string(i) +
            " { address = \"p" + std::to_string(i) + "@h\" }\n";
  }
  base += "  child media Medium v { kind = audio quality = standard }\n}\n";
  std::string retuned = base;
  auto established = (*cvm)->platform->submit_model_text(base);
  if (!established.ok()) {
    state.SkipWithError("establishment failed");
    return;
  }
  bool low = true;
  for (auto _ : state) {
    std::string next = base;
    auto pos = next.find("quality = standard");
    next.replace(pos, 18, low ? "quality = low     " : "quality = high    ");
    low = !low;
    auto script = (*cvm)->platform->submit_model_text(next);
    benchmark::DoNotOptimize(script);
  }
  state.SetLabel(std::to_string(participants) + " participants");
}
BENCHMARK(BM_FullPipelineModelUpdate)->Arg(2)->Arg(8)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
