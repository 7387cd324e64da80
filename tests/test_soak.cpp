// Multi-threaded soak of a running Platform: N threads hammering
// make_context()/submit_model_text() against a chaotic resource adapter
// (clean failures, thrown exceptions, stalls), with EventBus
// subscribe/unsubscribe and TimerService churn in the background. The
// assertions are ledger reconciliations — every submission must be
// accounted for exactly once across the metrics registry, the layer
// stats, the resource trace and the chaos counters; nothing lost,
// nothing duplicated, nothing deadlocked.
//
// This binary is the TSan CI job's main course (with test_concurrency):
// build with -DMDSM_TSAN=ON to run it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "runtime/timer_service.hpp"
#include "soak_fixtures.hpp"

namespace mdsm {
namespace {

using soak::make_soak_platform;
using soak::open_session_text;

struct SilenceLogs : ::testing::Test {
  void SetUp() override { set_log_level(LogLevel::kOff); }
  void TearDown() override { set_log_level(LogLevel::kWarn); }
};

using SoakTest = SilenceLogs;

TEST_F(SoakTest, ConcurrentSubmissionsReconcileUnderChaos) {
  broker::ChaosConfig chaos_config;
  chaos_config.fail_rate = 0.15;
  chaos_config.throw_rate = 0.10;
  chaos_config.delay_rate = 0.05;
  chaos_config.delay = Duration(200);  // 200µs stalls
  auto soaked = make_soak_platform(chaos_config);
  ASSERT_TRUE(soaked.ok()) << soaked.status.to_string();
  core::Platform& platform = *soaked.platform;

  // Ledger of controller-reported command failures, fed by the bus.
  std::atomic<std::uint64_t> error_events{0};
  auto error_sub = platform.bus().subscribe(
      "controller.error",
      [&error_events](const runtime::Event&) {
        error_events.fetch_add(1, std::memory_order_relaxed);
      });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  std::atomic<std::uint64_t> ok_submissions{0};
  std::atomic<std::uint64_t> failed_submissions{0};
  std::vector<std::vector<std::uint64_t>> request_ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = "s-" + std::to_string(t) + "-" + std::to_string(i);
        obs::RequestContext context = platform.make_context();
        request_ids[static_cast<std::size_t>(t)].push_back(context.id());
        auto script =
            platform.submit_model_text(open_session_text(id), context);
        if (script.ok()) {
          ok_submissions.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed_submissions.fetch_add(1, std::memory_order_relaxed);
        }
        // Per-request trace sanity: the UI root span exists and error
        // paths closed every span they opened.
        EXPECT_GE(context.trace().count("ui.submit"), 1u);
        EXPECT_TRUE(context.trace().all_closed());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  platform.bus().unsubscribe(error_sub);

  // No lost or duplicated requests: every submission returned (command
  // failures are contained per-command, they do not fail the request),
  // and every minted request id is unique.
  EXPECT_EQ(ok_submissions.load(), kTotal);
  EXPECT_EQ(failed_submissions.load(), 0u);
  std::set<std::uint64_t> unique_ids;
  for (const auto& batch : request_ids) {
    for (std::uint64_t id : batch) EXPECT_TRUE(unique_ids.insert(id).second);
  }
  EXPECT_EQ(unique_ids.size(), kTotal);

  // Ledger reconciliation across all four layers plus the chaos wrapper.
  const broker::ChaosStats chaos = soaked.chaos->stats();
  const obs::MetricsSnapshot snapshot = platform.metrics().snapshot();
  EXPECT_EQ(snapshot.counter_value("requests.submitted"), kTotal);
  EXPECT_EQ(snapshot.counter_value("synthesis.models"), kTotal);
  EXPECT_EQ(snapshot.counter_value("synthesis.commands"), kTotal);
  EXPECT_EQ(platform.controller().stats().commands_executed, kTotal);
  // Each chaos fault fails exactly one command; each failed command is
  // one controller error, reported once on the bus.
  const std::uint64_t faults = chaos.threw + chaos.failed;
  EXPECT_EQ(platform.controller().stats().errors, faults);
  EXPECT_EQ(snapshot.counter_value("controller.errors"), faults);
  EXPECT_EQ(error_events.load(), faults);
  // The command trace records every issued command exactly once, even
  // ones whose adapter then threw.
  EXPECT_EQ(snapshot.counter_value("broker.commands"),
            platform.trace().size());
  EXPECT_EQ(platform.trace().size(), chaos.executed);
  EXPECT_EQ(snapshot.counter_value("broker.adapter_exceptions"),
            chaos.threw);
  // Chaos outcomes partition its observations; only clean passes reach
  // the wrapped resource.
  EXPECT_EQ(chaos.executed, chaos.passed + chaos.failed + chaos.threw);
  EXPECT_EQ(chaos.passed, soaked.inner->executed());
  // With a 25% combined fault rate over >=160 commands, both paths ran.
  EXPECT_GT(faults, 0u);
  EXPECT_GT(chaos.passed, 0u);

  EXPECT_TRUE(platform.stop().ok());
}

TEST_F(SoakTest, BackgroundBusAndTimerChurnDoesNotDisturbSubmissions) {
  auto soaked = make_soak_platform({});  // fault-free: exact arithmetic
  ASSERT_TRUE(soaked.ok()) << soaked.status.to_string();
  core::Platform& platform = *soaked.platform;
  const std::size_t baseline_subscriptions =
      platform.bus().subscription_count();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> churn_deliveries{0};
  std::vector<std::thread> background;
  // EventBus churn: subscribe, publish into the subscription, drop it —
  // forever, on two threads, on topics the platform does not use.
  for (int c = 0; c < 2; ++c) {
    background.emplace_back([&, c] {
      const std::string topic = "soak.churn." + std::to_string(c);
      while (!stop.load(std::memory_order_relaxed)) {
        auto id = platform.bus().subscribe(
            topic, [&churn_deliveries](const runtime::Event&) {
              churn_deliveries.fetch_add(1, std::memory_order_relaxed);
            });
        platform.bus().publish(topic, "churn");
        platform.bus().unsubscribe(id);
      }
    });
  }
  // TimerService churn: each thread drives its own service (the class is
  // documented single-threaded; the rule is enforced by this usage).
  std::atomic<std::uint64_t> timers_fired{0};
  background.emplace_back([&] {
    runtime::TimerService timers(obs::steady_clock());
    while (!stop.load(std::memory_order_relaxed)) {
      auto keep = timers.schedule(Duration(0), [&timers_fired] {
        timers_fired.fetch_add(1, std::memory_order_relaxed);
      });
      auto cancelled = timers.schedule(Duration(1'000'000), [] {});
      timers.cancel(cancelled);
      timers.run_due();
      (void)keep;
    }
    timers.run_due();
  });

  // The storm is under way before the first submission, however fast
  // the submissions then run: both kinds of churn have cycled once.
  while (churn_deliveries.load() == 0 || timers_fired.load() == 0) {
    std::this_thread::yield();
  }

  constexpr int kThreads = 2;
  constexpr int kPerThread = 30;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  std::vector<std::thread> submitters;
  std::atomic<std::uint64_t> ok_submissions{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = "c-" + std::to_string(t) + "-" + std::to_string(i);
        obs::RequestContext context = platform.make_context();
        if (platform.submit_model_text(open_session_text(id), context).ok()) {
          ok_submissions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  stop = true;
  for (auto& thread : background) thread.join();

  EXPECT_EQ(ok_submissions.load(), kTotal);
  // Fault-free: exactly two resource commands per submission.
  EXPECT_EQ(platform.trace().size(), 2 * kTotal);
  EXPECT_EQ(soaked.inner->executed(), 2 * kTotal);
  EXPECT_EQ(platform.controller().stats().errors, 0u);
  // The churn left no subscriptions behind and timers really cycled.
  EXPECT_EQ(platform.bus().subscription_count(), baseline_subscriptions);
  EXPECT_GT(churn_deliveries.load(), 0u);
  EXPECT_GT(timers_fired.load(), 0u);

  // The platform still serves the deterministic Case-1 path after the
  // storm: open one more session, then close it.
  obs::RequestContext open_context = platform.make_context();
  ASSERT_TRUE(platform
                  .submit_model_text(open_session_text("s-final"),
                                     open_context)
                  .ok());
  obs::RequestContext close_context = platform.make_context();
  ASSERT_TRUE(platform
                  .submit_model_text(soak::close_session_text("s-final"),
                                     close_context)
                  .ok());
  EXPECT_EQ(platform.controller().stats().case1_executions, 1u);
  ASSERT_FALSE(platform.trace().entries().empty());
  EXPECT_EQ(platform.trace().entries().back(), "svc.close(id=\"s-final\")");

  EXPECT_TRUE(platform.stop().ok());
}

TEST_F(SoakTest, ExecutorDrainSurvivesThrowingTasksUnderLoad) {
  obs::MetricsRegistry metrics;
  runtime::Executor executor(4);
  executor.set_metrics(&metrics);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<std::int64_t> completed{0};
  std::uint64_t expected_failures = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      if (i % 7 == 3) ++expected_failures;
    }
  }
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&executor, &completed] {
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 7 == 3) {
          executor.submit(
              [] { throw std::runtime_error("soak: injected task fault"); });
        } else {
          executor.submit([&completed] {
            completed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  // The throwing tasks must neither terminate the process nor strand
  // drain(): it returns with every surviving task completed.
  executor.drain();
  EXPECT_EQ(completed.load(),
            static_cast<std::int64_t>(kThreads * kPerThread -
                                      expected_failures));
  EXPECT_EQ(executor.task_failures(), expected_failures);
  EXPECT_EQ(metrics.snapshot().counter_value(
                "runtime.executor_task_failures"),
            expected_failures);

  // The pool is still serviceable after containing the faults.
  completed = 0;
  for (int i = 0; i < 50; ++i) {
    executor.submit(
        [&completed] { completed.fetch_add(1, std::memory_order_relaxed); });
  }
  executor.drain();
  EXPECT_EQ(completed.load(), 50);
}

}  // namespace
}  // namespace mdsm
