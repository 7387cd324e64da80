// Concurrency stress for the components documented as thread-safe:
// EventBus, ContextStore, id generation, Executor. The platforms run
// their command paths single-threaded by design, but these primitives
// are shared with the executor-driven paths (fleet benches, future
// multi-threaded deployments) and must hold up under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/ids.hpp"
#include "common/strings.hpp"
#include "policy/context.hpp"
#include "policy/policy_engine.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/executor.hpp"

namespace mdsm {
namespace {

TEST(Concurrency, EventBusPublishFromManyThreads) {
  runtime::EventBus bus;
  std::atomic<int> delivered{0};
  bus.subscribe("stress", [&](const runtime::Event&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus] {
      for (int i = 0; i < kPerThread; ++i) {
        bus.publish("stress", "t");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(delivered.load(), kThreads * kPerThread);
  EXPECT_EQ(bus.published_count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// Regression: published_count() used to read published_ without holding
// the bus mutex, racing with publishers. The counter is atomic now —
// reading it mid-storm must be safe and monotone (TSan enforces the
// "safe" half when this suite runs under -DMDSM_TSAN=ON).
TEST(Concurrency, EventBusPublishedCountReadableWhilePublishing) {
  runtime::EventBus bus;
  std::atomic<bool> stop{false};
  constexpr int kPublishers = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> publishers;
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&bus] {
      for (int i = 0; i < kPerThread; ++i) bus.publish("count.race", "x");
    });
  }
  std::uint64_t last_seen = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::uint64_t now = bus.published_count();
      if (now < last_seen) monotone = false;
      last_seen = now;
    }
  });
  for (auto& thread : publishers) thread.join();
  stop = true;
  reader.join();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(bus.published_count(),
            static_cast<std::uint64_t>(kPublishers * kPerThread));
}

TEST(Concurrency, EventBusSubscribeUnsubscribeUnderPublishLoad) {
  runtime::EventBus bus;
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load()) bus.publish("churn", "p");
  });
  for (int round = 0; round < 200; ++round) {
    auto id = bus.subscribe("churn", [](const runtime::Event&) {});
    bus.unsubscribe(id);
  }
  stop = true;
  publisher.join();
  EXPECT_EQ(bus.subscription_count(), 0u);
}

TEST(Concurrency, ContextStoreConcurrentReadersAndWriters) {
  policy::ContextStore context;
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&context, &stop, w] {
      std::int64_t n = 0;
      while (!stop.load()) {
        context.set(numbered("k", w), model::Value(++n));
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&context, &stop, &read_errors, r] {
      while (!stop.load()) {
        model::Value value = context.get(numbered("k", r));
        if (!value.is_none() && !value.is_int()) {
          read_errors.fetch_add(1);
        }
        (void)context.version();
        (void)context.has("k0");
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop = true;
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(read_errors.load(), 0);
  // Every writer wrote at least once; version moved accordingly.
  EXPECT_GE(context.version(), 4u);
  EXPECT_EQ(context.names().size(), 4u);
}

TEST(Concurrency, PolicyEvaluationWhileContextMutates) {
  policy::ContextStore context;
  policy::PolicySet policies;
  ASSERT_TRUE(policies.add("hot", "load > 0.5", "shed", 5).ok());
  ASSERT_TRUE(policies.add("base", "", "noop", 0).ok());
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    double load = 0.0;
    while (!stop.load()) {
      context.set("load", model::Value(load));
      load = load > 1.0 ? 0.0 : load + 0.01;
    }
  });
  int decisions = 0;
  for (int i = 0; i < 20000; ++i) {
    auto decision = policies.evaluate(context);
    ASSERT_TRUE(decision.has_value());
    ASSERT_TRUE(decision->decision == "shed" || decision->decision == "noop");
    ++decisions;
  }
  stop = true;
  mutator.join();
  EXPECT_EQ(decisions, 20000);
}

TEST(Concurrency, ExecutorStressWithMixedWorkloads) {
  runtime::Executor executor(4);
  std::atomic<std::int64_t> sum{0};
  constexpr int kTasks = 2000;
  for (int i = 0; i < kTasks; ++i) {
    executor.submit([&sum, i] { sum.fetch_add(i); });
  }
  executor.drain();
  EXPECT_EQ(sum.load(),
            static_cast<std::int64_t>(kTasks) * (kTasks - 1) / 2);
  // Drain is reusable: a second wave behaves identically.
  sum = 0;
  for (int i = 0; i < 100; ++i) {
    executor.submit([&sum] { sum.fetch_add(1); });
  }
  executor.drain();
  EXPECT_EQ(sum.load(), 100);
}

TEST(Concurrency, TaggedIdsUniqueAcrossThreads) {
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> batches(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&batches, t] {
      for (int i = 0; i < 500; ++i) {
        batches[t].push_back(next_tagged_id("x"));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::string> all;
  for (const auto& batch : batches) {
    for (const auto& id : batch) {
      EXPECT_TRUE(all.insert(id).second) << id;
    }
  }
  EXPECT_EQ(all.size(), 3000u);
}

}  // namespace
}  // namespace mdsm
