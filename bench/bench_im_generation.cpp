// Exp-3 (paper §VII-B): intent-model generation performance.
//
// Paper setup: "the Controller's repository was populated with metadata
// of 100 curated procedures aimed at achieving optimum dependency
// matching. With this test, the Controller layer was able to complete a
// full generation cycle (IM generation, validation, and selection) in
// under 120 ms, with the average cycle time quickly approaching 1 ms as
// we approached 100000 cycles (equivalent to 100000 sequential requests
// to the Controller)."
//
// We reproduce the setup: 100 procedures in a layered dependency
// structure, one cold full cycle, then 100 000 sequential requests
// through the cached path, printing the running average at decade
// checkpoints. Absolute times are C++/2026-hardware scale; the shape to
// match is cold-cycle ≫ amortized, with the running average collapsing
// toward the warm-path cost as cycles accumulate.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "broker/broker_api.hpp"
#include "common/clock.hpp"
#include "controller/controller_layer.hpp"
#include "runtime/event_bus.hpp"

namespace {

using namespace mdsm;
using controller::ControllerLayer;
using controller::Procedure;
using controller::SelectionStrategy;

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

/// 100 curated procedures: 5 dependency layers × 5 DSCs per layer ×
/// 4 alternative procedures per DSC. Layer L procedures depend on two
/// DSCs of layer L+1, giving the generator a real (bounded) search
/// space at every request.
void populate_repository(ControllerLayer& layer) {
  constexpr int kLayers = 5;
  constexpr int kDscsPerLayer = 5;
  constexpr int kVariants = 4;
  for (int l = 0; l < kLayers; ++l) {
    for (int d = 0; d < kDscsPerLayer; ++d) {
      (void)layer.dscs().add(
          {"op" + std::to_string(l) + "_" + std::to_string(d),
           controller::DscKind::kOperation, "bench", ""});
    }
  }
  int id = 0;
  for (int l = 0; l < kLayers; ++l) {
    for (int d = 0; d < kDscsPerLayer; ++d) {
      for (int v = 0; v < kVariants; ++v) {
        Procedure p;
        p.name = "proc" + std::to_string(id++);
        p.classifier = "op" + std::to_string(l) + "_" + std::to_string(d);
        p.cost = 1.0 + 0.1 * v + 0.01 * d;
        p.quality = 1.0 - 0.05 * v;
        if (l + 1 < kLayers) {
          p.dependencies = {
              "op" + std::to_string(l + 1) + "_" + std::to_string(d),
              "op" + std::to_string(l + 1) + "_" +
                  std::to_string((d + v) % kDscsPerLayer)};
        }
        std::vector<controller::Instruction> unit{controller::noop()};
        for (const auto& dep : p.dependencies) {
          unit.push_back(controller::call_dep(dep));
        }
        p.units = {unit};
        (void)layer.add_procedure(std::move(p));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json_only = false;
  int cycles = 100000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_only = true;
    } else if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      cycles = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--cycles N]\n", argv[0]);
      return 2;
    }
  }
  NullBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  ControllerLayer layer("bench", broker, bus, context, metrics);
  populate_repository(layer);
  if (!json_only) {
    std::printf("Exp-3: IM generation with %zu procedures in the repository\n",
                layer.repository().size());
  }

  SteadyClock clock;
  // Cold full cycle: generation + validation + selection, no cache.
  Stopwatch watch(clock);
  auto cold = layer.generator().generate("op0_0", SelectionStrategy::kMinCost);
  double cold_ms = watch.elapsed_ms();
  if (!cold.ok()) {
    std::printf("cold generation failed: %s\n",
                cold.status().to_string().c_str());
    return 1;
  }
  if (!json_only) {
    std::printf("cold full cycle: %.3f ms (IM nodes=%d, configurations "
                "generated=%llu)  [paper: < 120 ms]\n",
                cold_ms, (*cold)->node_count,
                static_cast<unsigned long long>(
                    layer.generator().stats().generated));
  }

  // 100 000 sequential requests, rotating over the five root DSCs.
  const char* roots[] = {"op0_0", "op0_1", "op0_2", "op0_3", "op0_4"};
  if (!json_only) {
    std::printf("\n| %8s | %18s | %18s |\n", "cycles", "running avg (ms)",
                "running avg (us)");
    std::printf("|----------|--------------------|--------------------|\n");
  }
  double total_ms = cold_ms;
  int next_checkpoint = 1;
  for (int cycle = 1; cycle <= cycles; ++cycle) {
    Stopwatch cycle_watch(clock);
    auto intent = layer.generator().generate_cached(
        roots[cycle % 5], SelectionStrategy::kMinCost);
    total_ms += cycle_watch.elapsed_ms();
    if (!intent.ok()) {
      std::printf("cycle %d failed: %s\n", cycle,
                  intent.status().to_string().c_str());
      return 1;
    }
    if (!json_only && (cycle == next_checkpoint || cycle == cycles)) {
      double avg_ms = total_ms / (cycle + 1);
      std::printf("| %8d | %18.6f | %18.3f |\n", cycle, avg_ms,
                  avg_ms * 1000.0);
      next_checkpoint *= 10;
    }
  }
  const auto stats = layer.generator().stats();
  double amortized_us = total_ms / (cycles + 1) * 1000.0;
  if (json_only) {
    std::printf("{\"bench\": \"im_generation\", \"procedures\": %zu, "
                "\"cycles\": %d, \"cold_ms\": %.3f, \"amortized_us\": %.3f, "
                "\"cache_hits\": %llu, \"cache_misses\": %llu}\n",
                layer.repository().size(), cycles, cold_ms, amortized_us,
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses));
  } else {
    std::printf("\ncache hits=%llu misses=%llu  (paper: avg approaches ~1 ms "
                "by 100000 cycles; shape = cold >> amortized)\n",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses));
  }
  return 0;
}
