// Concurrent request pipeline tests (PR 3): submissions with disjoint
// root DSCs genuinely overlap in time (the trace spans prove it), the
// sharded IM cache never serves a stale intent model across a
// DscRegistry::remove, and Platform::stop() drains in-flight pipelined
// submissions cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker_api.hpp"
#include "broker/chaos_adapter.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "controller/controller_layer.hpp"
#include "core/platform.hpp"
#include "model_fixtures.hpp"
#include "runtime/event_bus.hpp"
#include "soak_fixtures.hpp"

namespace mdsm {
namespace {

struct SilenceLogs : ::testing::Test {
  void SetUp() override { set_log_level(LogLevel::kOff); }
  void TearDown() override { set_log_level(LogLevel::kWarn); }
};

using PipelineTest = SilenceLogs;

// ------------------------------------------------------------------
// (a) Two submissions with disjoint root DSCs overlap in time.
// ------------------------------------------------------------------

/// Middleware model with two independent request families: adding a
/// Session synthesizes "alpha.run" (DSC dsc.alpha), adding a Media
/// synthesizes "beta.run" (DSC dsc.beta). Both bottom out in one
/// resource ("svc") whose adapter acts as a rendezvous barrier.
constexpr std::string_view kDualDscModel = R"mw(
model pipeline_platform conforms mdsm

object MiddlewarePlatform mw {
  name = "pipeline-platform"
  domain = "testing"
  child ui UiLayerSpec ui1 { dsml = "testlang" }

  child broker BrokerLayerSpec b1 {
    child actions ActionSpec act-alpha {
      name = "bk-alpha"
      child steps StepSpec s1 {
        op = invoke
        a = "svc"
        b = "alpha"
        child args ArgSpec a1 { key = "id" value = "$id" }
      }
    }
    child actions ActionSpec act-beta {
      name = "bk-beta"
      child steps StepSpec s2 {
        op = invoke
        a = "svc"
        b = "beta"
        child args ArgSpec a2 { key = "id" value = "$id" }
      }
    }
    child handlers HandlerSpec h1 { signal = "svc.alpha" actions -> act-alpha }
    child handlers HandlerSpec h2 { signal = "svc.beta" actions -> act-beta }
    child resources ResourceSpec r1 { name = "svc" }
  }

  child controller ControllerLayerSpec c1 {
    child dscs DscSpec d1 { name = "dsc.alpha" category = "alpha" }
    child dscs DscSpec d2 { name = "dsc.beta" category = "beta" }
    child procedures ProcedureSpec pr1 {
      name = "proc-alpha"
      classifier = "dsc.alpha"
      child units EuSpec eu1 {
        child steps StepSpec t1 {
          op = broker-call
          a = "svc.alpha"
          child args ArgSpec b1a { key = "id" value = "$id" }
        }
      }
    }
    child procedures ProcedureSpec pr2 {
      name = "proc-beta"
      classifier = "dsc.beta"
      child units EuSpec eu2 {
        child steps StepSpec t2 {
          op = broker-call
          a = "svc.beta"
          child args ArgSpec b2a { key = "id" value = "$id" }
        }
      }
    }
    child mappings CommandMappingSpec m1 { command = "alpha.run" dsc = "dsc.alpha" }
    child mappings CommandMappingSpec m2 { command = "beta.run" dsc = "dsc.beta" }
  }

  child synthesis SynthesisLayerSpec syn1 {
    initial_state = "initial"
    child transitions TransitionSpec tr1 {
      from = "initial"
      to = "alpha-live"
      kind = add-object
      class = "Session"
      child commands CommandTemplateSpec ct1 {
        name = "alpha.run"
        child args ArgSpec sa1 { key = "id" value = "%id" }
      }
    }
    child transitions TransitionSpec tr2 {
      from = "initial"
      to = "beta-live"
      kind = add-object
      class = "Media"
      child commands CommandTemplateSpec ct2 {
        name = "beta.run"
        child args ArgSpec sa2 { key = "id" value = "%id" }
      }
    }
  }
}
)mw";

/// Rendezvous adapter: each execute() blocks until `expected` calls are
/// simultaneously inside it. Only possible when the requests that issue
/// them run concurrently — a serialized pipeline times out instead.
class BarrierAdapter final : public broker::ResourceAdapter {
 public:
  BarrierAdapter(std::string name, int expected)
      : ResourceAdapter(std::move(name)), expected_(expected) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)command;
    (void)args;
    std::unique_lock lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    bool met = cv_.wait_for(lock, std::chrono::seconds(10),
                            [this] { return arrived_ >= expected_; });
    if (!met) {
      timed_out_.store(true, std::memory_order_relaxed);
      return Timeout("rendezvous never met: pipeline serialized?");
    }
    return model::Value(true);
  }

  [[nodiscard]] bool timed_out() const noexcept {
    return timed_out_.load(std::memory_order_relaxed);
  }

 private:
  int expected_;
  int arrived_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> timed_out_{false};
};

TEST_F(PipelineTest, DisjointRootDscSubmissionsOverlapInTime) {
  core::PlatformConfig config;
  config.dsml = model::testing::make_test_metamodel();
  auto assembled = core::Platform::assemble_from_text(kDualDscModel, config);
  ASSERT_TRUE(assembled.ok()) << assembled.status().to_string();
  core::Platform& platform = **assembled;
  auto barrier = std::make_unique<BarrierAdapter>("svc", 2);
  BarrierAdapter* barrier_ptr = barrier.get();
  ASSERT_TRUE(platform.add_resource_adapter(std::move(barrier)).ok());
  ASSERT_TRUE(platform.start().ok());

  obs::RequestContext context_a = platform.make_context();
  obs::RequestContext context_b = platform.make_context();
  Status status_a = Internal("not run");
  Status status_b = Internal("not run");
  std::thread thread_a([&] {
    status_a = platform
                   .submit_model_text("model a conforms testlang\n"
                                      "object Session sA { state = open }\n",
                                      context_a)
                   .status();
  });
  std::thread thread_b([&] {
    status_b = platform
                   .submit_model_text("model b conforms testlang\n"
                                      "object Media mB { kind = audio }\n",
                                      context_b)
                   .status();
  });
  thread_a.join();
  thread_b.join();

  // Both requests reached the rendezvous simultaneously: neither timed
  // out, so each was inside its broker call while the other was too.
  EXPECT_FALSE(barrier_ptr->timed_out());
  EXPECT_TRUE(status_a.ok()) << status_a.to_string();
  EXPECT_TRUE(status_b.ok()) << status_b.to_string();

  // The trace spans prove the interleaving on the shared steady clock:
  // each request's broker.call interval contains part of the other's.
  const obs::Span* span_a = context_a.trace().find("broker.call");
  const obs::Span* span_b = context_b.trace().find("broker.call");
  ASSERT_NE(span_a, nullptr);
  ASSERT_NE(span_b, nullptr);
  EXPECT_TRUE(span_a->closed);
  EXPECT_TRUE(span_b->closed);
  EXPECT_LT(span_a->start, span_b->end);
  EXPECT_LT(span_b->start, span_a->end);

  EXPECT_TRUE(platform.stop().ok());
}

// ------------------------------------------------------------------
// (b) DscRegistry::remove mid-flight never serves a stale IM.
// ------------------------------------------------------------------

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

controller::Procedure make_procedure(const std::string& name,
                                     const std::string& classifier) {
  controller::Procedure procedure;
  procedure.name = name;
  procedure.classifier = classifier;
  procedure.units = {{controller::noop()}};
  return procedure;
}

TEST_F(PipelineTest, DscRemovalInvalidatesCachedIntentModel) {
  NullBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  controller::ControllerLayer layer("pipeline", broker, bus, context, metrics);
  ASSERT_TRUE(
      layer.dscs().add({"op", controller::DscKind::kOperation, "", ""}).ok());
  ASSERT_TRUE(layer.add_procedure(make_procedure("p1", "op")).ok());

  auto& generator = layer.generator();
  auto warm = generator.generate_cached("op",
                                        controller::SelectionStrategy::kMinCost);
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  auto hit = generator.generate_cached("op",
                                       controller::SelectionStrategy::kMinCost);
  ASSERT_TRUE(hit.ok());
  const auto warmed = generator.stats();
  EXPECT_GE(warmed.cache_hits, 1u);

  // Remove the root DSC: the cached entry's dsc_version is now stale, so
  // the next lookup regenerates and observes the removal instead of
  // serving the old IM.
  ASSERT_TRUE(layer.dscs().remove("op").ok());
  auto stale = generator.generate_cached(
      "op", controller::SelectionStrategy::kMinCost);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kNotFound);
  const auto after_remove = generator.stats();
  EXPECT_EQ(after_remove.cache_hits, warmed.cache_hits);

  // Re-adding the DSC serves a freshly generated IM, not the old entry.
  ASSERT_TRUE(
      layer.dscs().add({"op", controller::DscKind::kOperation, "", ""}).ok());
  auto fresh = generator.generate_cached(
      "op", controller::SelectionStrategy::kMinCost);
  ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
  EXPECT_GT(generator.stats().cache_misses, warmed.cache_misses);
}

TEST_F(PipelineTest, ConcurrentReadersNeverSeeStaleImAcrossRemoval) {
  NullBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  obs::MetricsRegistry metrics;
  controller::ControllerLayer layer("pipeline", broker, bus, context, metrics);
  ASSERT_TRUE(
      layer.dscs().add({"op", controller::DscKind::kOperation, "", ""}).ok());
  ASSERT_TRUE(layer.add_procedure(make_procedure("p1", "op")).ok());

  // Hammer the cached path from readers while the DSC is repeatedly
  // removed and re-added. Every successful result must be an IM for a
  // registered "op"; failures must be the removal surfacing (NotFound),
  // never a crash, torn read, or stale success after the final removal.
  constexpr int kReadsPerThread = 300;
  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> not_found{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        auto intent = layer.generator().generate_cached(
            "op", controller::SelectionStrategy::kMinCost);
        if (intent.ok()) {
          EXPECT_EQ((*intent)->root_dsc, "op");
          ok_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(intent.status().code(), ErrorCode::kNotFound);
          not_found.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(layer.dscs().remove("op").ok());
    ASSERT_TRUE(
        layer.dscs().add({"op", controller::DscKind::kOperation, "", ""})
            .ok());
    std::this_thread::yield();
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(ok_count.load() + not_found.load(), 2u * kReadsPerThread);

  // The DSC ended registered, so a read with no concurrent mutator must
  // succeed (and must be a fresh post-churn generation, not a crash).
  auto settled = layer.generator().generate_cached(
      "op", controller::SelectionStrategy::kMinCost);
  ASSERT_TRUE(settled.ok()) << settled.status().to_string();
  EXPECT_EQ((*settled)->root_dsc, "op");

  // Quiescent post-condition: with the DSC finally removed, the cache
  // must refuse to serve the (still stored) old entry.
  ASSERT_TRUE(layer.dscs().remove("op").ok());
  auto stale = layer.generator().generate_cached(
      "op", controller::SelectionStrategy::kMinCost);
  EXPECT_FALSE(stale.ok());
}

// ------------------------------------------------------------------
// (c) Platform::stop() drains in-flight pipelined submissions cleanly.
// ------------------------------------------------------------------

TEST_F(PipelineTest, StopDrainsInflightPipelinedSubmissions) {
  // Every resource call stalls 1 ms so submissions are genuinely
  // in-flight when stop() lands.
  broker::ChaosConfig chaos;
  chaos.delay_rate = 1.0;
  chaos.delay = Duration(1000);
  auto soaked = soak::make_soak_platform(chaos);
  ASSERT_TRUE(soaked.ok()) << soaked.status.to_string();
  core::Platform& platform = *soaked.platform;

  constexpr int kSubmissions = 32;
  std::mutex done_mutex;
  int completed = 0;
  int ok_count = 0;
  int rejected = 0;
  for (int i = 0; i < kSubmissions; ++i) {
    Status queued = platform.submit_async(
        soak::open_session_text(numbered("d", i)),
        [&](Result<controller::ControlScript> script) {
          std::lock_guard lock(done_mutex);
          ++completed;
          if (script.ok()) {
            ++ok_count;
          } else {
            ++rejected;
          }
        });
    ASSERT_TRUE(queued.ok()) << queued.to_string();
  }

  // Let some requests get in flight, then stop mid-stream. stop() must
  // drain the pipeline: when it returns, every submission has resolved
  // exactly once — completed before the stop, or rejected by it.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  ASSERT_TRUE(platform.stop().ok());
  EXPECT_FALSE(platform.running());
  {
    std::lock_guard lock(done_mutex);
    EXPECT_EQ(completed, kSubmissions);
    EXPECT_EQ(ok_count + rejected, kSubmissions);
  }

  // New submissions after stop are rejected, synchronously and async.
  obs::RequestContext context = platform.make_context();
  EXPECT_FALSE(
      platform.submit_model_text(soak::open_session_text("late"), context)
          .ok());
  // stop() is idempotent.
  EXPECT_TRUE(platform.stop().ok());
}

}  // namespace
}  // namespace mdsm
