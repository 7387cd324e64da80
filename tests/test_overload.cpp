// Overload protection across the four layers (PR 5): model-driven
// bounded-queue + admission configuration, UI-layer load shedding,
// callback exception containment, and a concurrent ledger soak proving
// every async submission is accounted for exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/platform.hpp"
#include "metrics_fixtures.hpp"
#include "soak_fixtures.hpp"

namespace mdsm::core {
namespace {

/// The soak middleware model with extra MiddlewarePlatform attributes
/// spliced in after `domain` — the model-driven configuration path the
/// overload subsystem is decoded from.
std::string overload_model_text(std::string_view extra_attrs) {
  std::string text(soak::kSoakMiddlewareModel);
  const std::string anchor = "domain = \"testing\"";
  text.insert(text.find(anchor) + anchor.size(),
              "\n  " + std::string(extra_attrs));
  return text;
}

struct OverloadPlatform {
  model::MetamodelPtr dsml;
  std::unique_ptr<Platform> platform;
  soak::CountingAdapter* svc = nullptr;
};

/// Assembles and starts the overload platform around `adapter`; null
/// `platform` when any step fails.
OverloadPlatform make_overload_platform(
    std::string_view extra_attrs,
    std::unique_ptr<broker::ResourceAdapter> adapter,
    unsigned pipeline_threads = 2) {
  OverloadPlatform out;
  out.dsml = model::testing::make_test_metamodel();
  PlatformConfig config;
  config.dsml = out.dsml;
  config.pipeline_threads = pipeline_threads;
  auto assembled =
      Platform::assemble_from_text(overload_model_text(extra_attrs), config);
  if (!assembled.ok()) return out;
  out.platform = std::move(assembled.value());
  if (!out.platform->add_resource_adapter(std::move(adapter)).ok() ||
      !out.platform->start().ok()) {
    out.platform.reset();
  }
  return out;
}

/// The same around a soak::CountingAdapter, kept as `svc`.
OverloadPlatform make_overload_platform(std::string_view extra_attrs,
                                        unsigned pipeline_threads = 2) {
  auto svc = std::make_unique<soak::CountingAdapter>("svc");
  soak::CountingAdapter* counting = svc.get();
  OverloadPlatform out =
      make_overload_platform(extra_attrs, std::move(svc), pipeline_threads);
  out.svc = counting;
  return out;
}

TEST(Overload, ConfigDecodedFromMiddlewareModel) {
  auto fixture = make_overload_platform(
      "queue_capacity = 8\n"
      "  overflow_policy = shed-oldest\n"
      "  admission = true\n"
      "  admission_alpha = 0.5\n"
      "  admission_safety = 2.0");
  ASSERT_NE(fixture.platform, nullptr);
  EXPECT_EQ(fixture.platform->pipeline_stats().queue_capacity, 8u);
  const AdmissionConfig& admission = fixture.platform->admission().config();
  EXPECT_TRUE(admission.enabled);
  EXPECT_DOUBLE_EQ(admission.ewma_alpha, 0.5);
  EXPECT_DOUBLE_EQ(admission.safety_factor, 2.0);
  EXPECT_TRUE(fixture.platform->stop().ok());
}

TEST(Overload, DefaultsReproduceUnboundedAdmitEverything) {
  auto fixture = make_overload_platform("");
  ASSERT_NE(fixture.platform, nullptr);
  EXPECT_EQ(fixture.platform->pipeline_stats().queue_capacity, 0u);
  EXPECT_FALSE(fixture.platform->admission().config().enabled);
  EXPECT_TRUE(fixture.platform->stop().ok());
}

TEST(Overload, AdmissionShedsExpiredDeadline) {
  auto fixture = make_overload_platform("admission = true");
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  std::vector<std::string> shed_reasons;
  platform.bus().subscribe("request.shed", [&](const runtime::Event& event) {
    ASSERT_TRUE(event.payload.is_list());
    shed_reasons.push_back(event.payload.as_list()[0].as_string());
  });
  auto context = platform.make_context(Duration(0));  // budget already spent
  auto outcome =
      platform.submit_model_text(soak::open_session_text("s1"), context);
  EXPECT_EQ(outcome.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(platform.metrics().snapshot().counter_value("ui.shed_expired"),
            1u);
  EXPECT_EQ(shed_reasons, std::vector<std::string>{"expired"});
  EXPECT_EQ(fixture.svc->executed(), 0u);  // shed before any layer ran
  EXPECT_TRUE(platform.stop().ok());
}

TEST(Overload, AdmissionShedsWhenBudgetBelowPredictedLatency) {
  auto fixture = make_overload_platform("admission = true");
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  std::vector<std::string> shed_reasons;
  platform.bus().subscribe("request.shed", [&](const runtime::Event& event) {
    shed_reasons.push_back(event.payload.as_list()[0].as_string());
  });
  // Prime the EWMA as if the pipeline were slow: 50ms per request.
  platform.admission().record_latency(std::chrono::milliseconds(50));
  EXPECT_GE(platform.admission().predicted_latency(),
            std::chrono::milliseconds(50));
  // 10ms of budget cannot cover 50ms of predicted latency: shed as
  // doomed. (Not 1ms — a sanitizer build on a loaded core can burn a
  // tight budget between make_context and the admission check, which
  // would reclassify the shed as "expired" and flake the test.)
  auto doomed = platform.make_context(std::chrono::milliseconds(10));
  auto outcome =
      platform.submit_model_text(soak::open_session_text("s1"), doomed);
  EXPECT_EQ(outcome.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(platform.metrics().snapshot().counter_value("ui.shed_predicted"),
            1u);
  EXPECT_EQ(shed_reasons, std::vector<std::string>{"predicted"});
  // A generous budget is admitted and executes normally — and its
  // observed latency drags the EWMA back down.
  auto healthy = platform.make_context(std::chrono::seconds(5));
  EXPECT_TRUE(platform
                  .submit_model_text(soak::open_session_text("s2"), healthy)
                  .ok());
  EXPECT_LT(platform.admission().predicted_latency(),
            std::chrono::milliseconds(50));
  EXPECT_TRUE(platform.stop().ok());
}

TEST(Overload, RequestsWithoutDeadlinesAreAlwaysAdmitted) {
  auto fixture = make_overload_platform("admission = true");
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  platform.admission().record_latency(std::chrono::seconds(10));
  auto context = platform.make_context();  // no deadline, no basis to shed
  EXPECT_TRUE(platform
                  .submit_model_text(soak::open_session_text("s1"), context)
                  .ok());
  EXPECT_TRUE(platform.stop().ok());
}

// Satellite: a throwing SubmitCallback must be contained on the worker —
// counted, logged — and never tear down the pipeline.
TEST(Overload, ThrowingAsyncCallbackIsContained) {
  set_log_level(LogLevel::kOff);
  auto fixture = make_overload_platform("");
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  std::atomic<int> invoked{0};
  std::atomic<int> delivered{0};
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s1"),
                                [&invoked](Result<controller::ControlScript>) {
                                  ++invoked;
                                  throw std::runtime_error("consumer bug");
                                })
                  .ok());
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s2"),
                                [&invoked, &delivered](
                                    Result<controller::ControlScript> r) {
                                  ++invoked;
                                  if (r.ok()) ++delivered;
                                })
                  .ok());
  // Wait out both completions before stop() so neither submission loses
  // the race against the running_ gate.
  while (invoked.load() != 2) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());  // drains the pipeline
  EXPECT_EQ(platform.metrics().snapshot().counter_value(
                "ui.callback_failures"),
            1u);
  EXPECT_EQ(delivered.load(), 1);  // the pool survived the throwing callback
  set_log_level(LogLevel::kWarn);
}

// Async submissions open a "runtime.queue" span at enqueue and close it
// at dequeue, so queue delay lands in the latency histograms.
TEST(Overload, AsyncQueueDelaySpanRecorded) {
  auto fixture = make_overload_platform("");
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  std::atomic<int> done{0};
  SubmitOptions options;
  options.deadline = std::chrono::seconds(5);
  options.high_priority = true;
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s1"),
                                [&done](Result<controller::ControlScript> r) {
                                  if (r.ok()) ++done;
                                },
                                options)
                  .ok());
  while (done.load() != 1) std::this_thread::yield();  // beat the stop() gate
  EXPECT_TRUE(platform.stop().ok());
  EXPECT_EQ(done.load(), 1);
  const auto snapshot = platform.metrics().snapshot();
  const auto* queue_span = snapshot.histogram("latency.runtime.queue");
  ASSERT_NE(queue_span, nullptr);
  EXPECT_EQ(queue_span->count, 1u);
  const auto* queue_delay = snapshot.histogram("runtime.queue_delay_us");
  ASSERT_NE(queue_delay, nullptr);
  // The staged pipeline (PR 6) makes one executor submission per stage
  // hop, so a single request leaves several queue-delay samples.
  EXPECT_GE(queue_delay->count, 1u);
}

// A request whose budget is already spent when it reaches the async
// door never takes a queue slot or a stage: the door resolves it at once
// as kTimeout, through its callback, as the sync door's admission check
// does. It is counted submitted and failed together, so
// requests.submitted never trails requests.failed.
TEST(Overload, SpentDeadlineResolvesAtTheAsyncDoor) {
  auto fixture = make_overload_platform("", /*pipeline_threads=*/1);
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  ASSERT_FALSE(platform.admission().config().enabled);
  constexpr int kRequests = 500;
  int timeouts = 0;
  for (int i = 0; i < kRequests; ++i) {
    SubmitOptions options;
    options.deadline = Duration(0);
    bool resolved = false;
    ASSERT_TRUE(platform
                    .submit_async(soak::open_session_text(numbered("s", i)),
                                  [&](Result<controller::ControlScript> r) {
                                    resolved = true;
                                    if (r.status().code() ==
                                        ErrorCode::kTimeout) {
                                      ++timeouts;
                                    }
                                  },
                                  options)
                    .ok());
    EXPECT_TRUE(resolved) << "request " << i << " was queued";
  }
  EXPECT_EQ(timeouts, kRequests);
  for (const auto& stage : platform.stage_stats()) {
    EXPECT_EQ(stage.entered, 0u) << stage.name;
  }
  const std::uint64_t submitted =
      platform.metrics().counter("requests.submitted").value();
  const std::uint64_t failed =
      platform.metrics().counter("requests.failed").value();
  EXPECT_EQ(failed, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(submitted, failed);
  EXPECT_TRUE(platform.stop().ok());
}

// The request counters are a ledger of the async door: every submission
// it accepts counts once in requests.submitted, and every one that
// resolves as an error — a victim shed from the queue included — once
// in requests.failed. The first request holds the only worker until
// every submit is queued, so the one-slot queue sheds on each later one.
TEST(Overload, RequestCountersBalanceUnderShedding) {
  auto held = std::make_unique<soak::LeverAdapter>();
  soak::LeverAdapter& svc = *held;
  svc.hold_next();
  auto fixture = make_overload_platform(
      "queue_capacity = 1\n"
      "  overflow_policy = shed-oldest",
      std::move(held), /*pipeline_threads=*/1);
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  constexpr int kRequests = 64;
  std::atomic<int> failed{0};
  std::atomic<int> settled{0};
  int accepted = 0;
  for (int i = 0; i < kRequests; ++i) {
    Status status = platform.submit_async(
        soak::open_session_text(numbered("s", i)),
        [&](Result<controller::ControlScript> outcome) {
          if (!outcome.ok()) ++failed;
          ++settled;
        });
    if (status.ok()) ++accepted;
    if (i == 0) {
      ASSERT_TRUE(svc.wait_parked());
    }
  }
  svc.release();
  while (settled.load() != accepted) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());
  EXPECT_GT(cell_value(platform.metrics(), "runtime.executor_shed"), 0u);
  EXPECT_EQ(platform.metrics().counter("requests.submitted").value(),
            static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(platform.metrics().counter("requests.failed").value(),
            static_cast<std::uint64_t>(failed.load()));
}

// The ledger soak (satellite): concurrent submitters against a small
// bounded shed-oldest queue with chaos faults in the resource layer.
// Every submission resolves exactly once: refused at the door, shed from
// the queue (callback gets kUnavailable), or completed (ok or failed).
TEST(Overload, ConcurrentLedgerAccountsForEverySubmission) {
  set_log_level(LogLevel::kOff);
  // Assemble by hand so chaos wraps the counting adapter.
  auto dsml = model::testing::make_test_metamodel();
  PlatformConfig config;
  config.dsml = dsml;
  config.pipeline_threads = 2;
  auto assembled = Platform::assemble_from_text(
      overload_model_text("queue_capacity = 4\n"
                          "  overflow_policy = shed-oldest"),
      config);
  ASSERT_TRUE(assembled.ok()) << assembled.status().message();
  auto platform = std::move(assembled.value());
  broker::ChaosConfig chaos;
  chaos.fail_rate = 0.2;
  chaos.throw_rate = 0.05;
  auto inner = std::make_unique<soak::CountingAdapter>("svc");
  ASSERT_TRUE(platform
                  ->add_resource_adapter(std::make_unique<broker::ChaosAdapter>(
                      std::move(inner), chaos))
                  .ok());
  ASSERT_TRUE(platform->start().ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::atomic<int> completed_ok{0};
  std::atomic<int> completed_failed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = numbered("s", t) + numbered("_", i);
        Status status = platform->submit_async(
            soak::open_session_text(id),
            [&](Result<controller::ControlScript> outcome) {
              if (outcome.ok()) {
                ++completed_ok;
              } else {
                ++completed_failed;
              }
            });
        if (status.ok()) {
          ++accepted;
        } else {
          EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
          ++refused;
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_TRUE(platform->stop().ok());  // drains every queued submission

  // The ledger balances: nothing lost, nothing double-counted.
  EXPECT_EQ(accepted.load() + refused.load(), kThreads * kPerThread);
  EXPECT_EQ(completed_ok.load() + completed_failed.load(), accepted.load());
  // The bound held under pressure. On the staged pipeline the bound
  // governs entry submissions only — continuation hops of admitted
  // requests ride above it — so the bounded gauge is the one to check.
  EXPECT_LE(platform->pipeline_stats().max_bounded_pending, 4u);
  // Shed tasks resolved through their callbacks (counted as failed) and
  // in the shed counter; with shed-oldest the door never refuses.
  const obs::MetricsSnapshot metrics = platform->metrics().snapshot();
  EXPECT_EQ(refused.load(), static_cast<int>(cell_value(
                                metrics, "runtime.executor_rejections")));
  EXPECT_GE(completed_failed.load(),
            static_cast<int>(cell_value(metrics, "runtime.executor_shed")));
  set_log_level(LogLevel::kWarn);
}

}  // namespace
}  // namespace mdsm::core
