// Unit tests for the generic runtime environment: components, factory,
// event bus, executor and its stages, event loop and its timers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "model/metamodel.hpp"
#include "runtime/component.hpp"
#include "runtime/component_factory.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/executor.hpp"
#include "runtime/task.hpp"
#include "metrics_fixtures.hpp"

namespace mdsm::runtime {
namespace {

// ------------------------------------------------------------ Component

class CountingComponent : public Component {
 public:
  explicit CountingComponent(std::string name, bool fail_start = false)
      : Component(std::move(name)), fail_start_(fail_start) {}
  int starts = 0;
  int stops = 0;

 protected:
  Status on_start() override {
    if (fail_start_) return Unavailable("refusing to start");
    ++starts;
    return Status::Ok();
  }
  Status on_stop() override {
    ++stops;
    return Status::Ok();
  }

 private:
  bool fail_start_;
};

TEST(Component, LifecycleIsIdempotent) {
  CountingComponent component("c");
  EXPECT_EQ(component.state(), ComponentState::kCreated);
  ASSERT_TRUE(component.start().ok());
  ASSERT_TRUE(component.start().ok());  // no-op
  EXPECT_EQ(component.starts, 1);
  EXPECT_EQ(component.state(), ComponentState::kStarted);
  ASSERT_TRUE(component.stop().ok());
  ASSERT_TRUE(component.stop().ok());  // no-op
  EXPECT_EQ(component.stops, 1);
  EXPECT_EQ(component.state(), ComponentState::kStopped);
}

TEST(Component, FailedStartLeavesStateCreated) {
  CountingComponent component("c", /*fail_start=*/true);
  EXPECT_FALSE(component.start().ok());
  EXPECT_EQ(component.state(), ComponentState::kCreated);
}

TEST(Component, StopBeforeStartIsNoOp) {
  CountingComponent component("c");
  EXPECT_TRUE(component.stop().ok());
  EXPECT_EQ(component.stops, 0);
}

// ----------------------------------------------------- ComponentFactory

model::MetamodelPtr factory_metamodel() {
  model::Metamodel mm("factorylang");
  auto& spec = mm.add_class("ComponentSpec");
  spec.add_attribute({.name = "template", .type = model::AttrType::kString});
  spec.add_attribute({.name = "threads", .type = model::AttrType::kInt});
  return model::finalize_metamodel(std::move(mm));
}

TEST(ComponentFactory, InstantiatesByExplicitTemplateAttribute) {
  ComponentFactory factory;
  ASSERT_TRUE(factory
                  .register_template(
                      "counting",
                      [](const model::ModelObject& spec, const model::Model&) {
                        return Result<std::unique_ptr<Component>>(
                            std::make_unique<CountingComponent>(spec.id()));
                      })
                  .ok());
  auto mm = factory_metamodel();
  model::Model model("m", mm);
  model.create("ComponentSpec", "broker-main");
  model.set_attribute("broker-main", "template", model::Value("counting"));
  auto component = factory.instantiate(*model.find("broker-main"), model);
  ASSERT_TRUE(component.ok()) << component.status().to_string();
  EXPECT_EQ((*component)->name(), "broker-main");
}

TEST(ComponentFactory, FallsBackToClassNameTemplate) {
  ComponentFactory factory;
  ASSERT_TRUE(factory
                  .register_template(
                      "ComponentSpec",
                      [](const model::ModelObject& spec, const model::Model&) {
                        return Result<std::unique_ptr<Component>>(
                            std::make_unique<CountingComponent>(spec.id()));
                      })
                  .ok());
  auto mm = factory_metamodel();
  model::Model model("m", mm);
  model.create("ComponentSpec", "x");
  EXPECT_TRUE(factory.instantiate(*model.find("x"), model).ok());
}

TEST(ComponentFactory, MissingTemplateIsNotFound) {
  ComponentFactory factory;
  auto mm = factory_metamodel();
  model::Model model("m", mm);
  model.create("ComponentSpec", "x");
  EXPECT_EQ(factory.instantiate(*model.find("x"), model).status().code(),
            ErrorCode::kNotFound);
}

TEST(ComponentFactory, DuplicateAndNullRegistrationsRejected) {
  ComponentFactory factory;
  auto builder = [](const model::ModelObject& spec, const model::Model&) {
    return Result<std::unique_ptr<Component>>(
        std::make_unique<CountingComponent>(spec.id()));
  };
  EXPECT_TRUE(factory.register_template("t", builder).ok());
  EXPECT_EQ(factory.register_template("t", builder).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(factory.register_template("u", nullptr).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(factory.has_template("t"));
  EXPECT_FALSE(factory.has_template("u"));
  EXPECT_EQ(factory.template_names(), std::vector<std::string>{"t"});
}

// --------------------------------------------------------------- EventBus

TEST(EventBus, ExactTopicDelivery) {
  EventBus bus;
  int count = 0;
  bus.subscribe("resource.up", [&](const Event&) { ++count; });
  EXPECT_EQ(bus.publish("resource.up", "test"), 1u);
  EXPECT_EQ(bus.publish("resource.down", "test"), 0u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.published_count(), 2u);
}

TEST(EventBus, WildcardMatchesSubtreeAndSelf) {
  EventBus bus;
  std::vector<std::string> seen;
  bus.subscribe("resource.*", [&](const Event& e) { seen.push_back(e.topic); });
  bus.publish("resource.up", "t");
  bus.publish("resource", "t");           // prefix itself matches
  bus.publish("resource.link.down", "t"); // deeper levels match
  bus.publish("resources.up", "t");       // different segment: no match
  ASSERT_EQ(seen.size(), 3u);
}

TEST(EventBus, StarMatchesEverything) {
  EventBus bus;
  int count = 0;
  bus.subscribe("*", [&](const Event&) { ++count; });
  bus.publish("a", "t");
  bus.publish("b.c", "t");
  EXPECT_EQ(count, 2);
}

TEST(EventBus, UnsubscribeStopsDelivery) {
  EventBus bus;
  int count = 0;
  auto id = bus.subscribe("x", [&](const Event&) { ++count; });
  bus.publish("x", "t");
  bus.unsubscribe(id);
  bus.publish("x", "t");
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.subscription_count(), 0u);
}

TEST(EventBus, DeliveryInSubscriptionOrder) {
  EventBus bus;
  std::vector<int> order;
  bus.subscribe("x", [&](const Event&) { order.push_back(1); });
  bus.subscribe("x", [&](const Event&) { order.push_back(2); });
  bus.publish("x", "t");
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventBus, HandlerMayPublishReentrantly) {
  EventBus bus;
  int second = 0;
  bus.subscribe("first", [&](const Event&) { bus.publish("second", "t"); });
  bus.subscribe("second", [&](const Event&) { ++second; });
  bus.publish("first", "t");
  EXPECT_EQ(second, 1);
}

TEST(EventBus, PayloadCarriedThrough) {
  EventBus bus;
  model::Value received;
  bus.subscribe("x", [&](const Event& e) { received = e.payload; });
  bus.publish("x", "src", model::Value(42));
  EXPECT_EQ(received, model::Value(42));
}

// --------------------------------------------------------------- Executor

TEST(Executor, RunsSubmittedTasks) {
  obs::MetricsRegistry metrics;
  Executor executor(4, metrics);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    executor.submit([&counter] { ++counter; });
  }
  executor.drain();
  EXPECT_EQ(counter.load(), 100);
}

TEST(Executor, DrainWaitsForInFlightWork) {
  obs::MetricsRegistry metrics;
  Executor executor(2, metrics);
  std::atomic<bool> done{false};
  executor.submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done = true;
  });
  executor.drain();
  EXPECT_TRUE(done.load());
}

TEST(Executor, WorkersMaySubmitMoreWork) {
  obs::MetricsRegistry metrics;
  Executor executor(2, metrics);
  std::atomic<int> counter{0};
  executor.submit([&] {
    for (int i = 0; i < 10; ++i) {
      executor.submit([&counter] { ++counter; });
    }
  });
  executor.drain();
  EXPECT_EQ(counter.load(), 10);
}

TEST(Executor, ZeroThreadsClampedToOne) {
  obs::MetricsRegistry metrics;
  Executor executor(0, metrics);
  EXPECT_EQ(executor.thread_count(), 1u);
}

// Regression: a throwing task used to unwind through worker_loop without
// decrementing active_, leaving drain() waiting forever and killing the
// worker thread. Faults must be contained, counted and drained past.
TEST(Executor, ThrowingTaskIsContainedAndCounted) {
  set_log_level(LogLevel::kOff);
  obs::MetricsRegistry metrics;
  Executor executor(2, metrics);
  std::atomic<int> counter{0};
  executor.submit([] { throw std::runtime_error("task fault"); });
  executor.submit([&counter] { ++counter; });
  executor.submit([] { throw 42; });  // non-std::exception payloads too
  executor.submit([&counter] { ++counter; });
  executor.drain();  // must return despite the two faults
  EXPECT_EQ(counter.load(), 2);
  EXPECT_EQ(cell_value(metrics, "runtime.executor_task_failures"), 2u);
  // Workers survive: the pool still runs tasks after the faults.
  executor.submit([&counter] { ++counter; });
  executor.drain();
  EXPECT_EQ(counter.load(), 3);
  set_log_level(LogLevel::kWarn);
}

// --------------------------------------- Executor overload protection (PR 5)

// Regression: submit() after shutdown() used to enqueue into a pool with
// no workers left — the task silently never ran. It must be refused.
TEST(Executor, SubmitAfterShutdownIsRejected) {
  obs::MetricsRegistry metrics;
  Executor executor(1, metrics);
  std::atomic<int> ran{0};
  EXPECT_TRUE(executor.submit([&ran] { ++ran; }).ok());
  executor.shutdown();
  Status late = executor.submit([&ran] { ++ran; });
  EXPECT_EQ(late.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(cell_value(metrics, "runtime.executor_rejections"), 1u);
}

// Saturating a bounded kReject queue fails fast — typed status, counter
// bump — and never deadlocks the submitter or the pool.
TEST(Executor, BoundedQueueRejectsAtCapacityWithoutDeadlock) {
  obs::MetricsRegistry metrics;
  Executor executor(ExecutorConfig{.thread_count = 1,
                                   .queue_capacity = 2,
                                   .overflow_policy = OverflowPolicy::kReject},
                    metrics);
  std::atomic<bool> gate{false};
  // Park the single worker so submissions pile up behind it.
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  EXPECT_TRUE(executor.submit([] {}).ok());
  EXPECT_TRUE(executor.submit([] {}).ok());
  Status rejected = executor.submit([] {});
  EXPECT_EQ(rejected.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(executor.pending(), 2u);  // bound held
  EXPECT_EQ(cell_value(metrics, "runtime.executor_rejections"), 1u);
  gate = true;
  executor.drain();
  EXPECT_EQ(executor.max_pending(), 2u);  // depth never exceeded capacity
}

// kShedOldest admits the newest work by dropping the oldest queued task;
// the victim's on_shed hook fires exactly once so callers can resolve
// completions for work that never ran.
TEST(Executor, ShedOldestDropsOldestAndKeepsNewest) {
  obs::MetricsRegistry metrics;
  Executor executor(
      ExecutorConfig{.thread_count = 1,
                     .queue_capacity = 2,
                     .overflow_policy = OverflowPolicy::kShedOldest}, metrics);
  std::atomic<bool> gate{false};
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  std::vector<int> ran;
  std::atomic<int> shed_calls{0};
  auto make_task = [&ran, &shed_calls](int id) {
    Executor::Task task;
    task.run = [&ran, id] { ran.push_back(id); };
    task.on_shed = [&shed_calls] { ++shed_calls; };
    return task;
  };
  EXPECT_TRUE(executor.submit(make_task(1)).ok());
  EXPECT_TRUE(executor.submit(make_task(2)).ok());
  EXPECT_TRUE(executor.submit(make_task(3)).ok());  // sheds task 1
  EXPECT_EQ(cell_value(metrics, "runtime.executor_shed"), 1u);
  EXPECT_EQ(shed_calls.load(), 1);
  gate = true;
  executor.drain();
  EXPECT_EQ(ran, (std::vector<int>{2, 3}));
}

// kBlock applies backpressure: the submitter waits for space instead of
// failing, and nothing is lost.
TEST(Executor, BlockPolicyWaitsForSpaceInsteadOfFailing) {
  obs::MetricsRegistry metrics;
  Executor executor(ExecutorConfig{.thread_count = 1,
                                   .queue_capacity = 1,
                                   .overflow_policy = OverflowPolicy::kBlock},
                    metrics);
  std::atomic<bool> gate{false};
  std::atomic<int> ran{0};
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  EXPECT_TRUE(executor.submit([&ran] { ++ran; }).ok());  // fills the queue
  std::atomic<bool> accepted{false};
  std::thread submitter([&] {
    EXPECT_TRUE(executor.submit([&ran] { ++ran; }).ok());
    accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(accepted.load());  // still waiting — not rejected, not lost
  gate = true;
  submitter.join();
  EXPECT_TRUE(accepted.load());
  executor.drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(cell_value(metrics, "runtime.executor_rejections"), 0u);
}

// The high lane drains before any queued normal work, regardless of
// arrival order.
TEST(Executor, HighLaneOvertakesQueuedNormalWork) {
  obs::MetricsRegistry metrics;
  Executor executor(ExecutorConfig{.thread_count = 1}, metrics);
  std::atomic<bool> gate{false};
  std::vector<std::string> order;
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  executor.submit([&order] { order.push_back("normal-1"); });
  executor.submit([&order] { order.push_back("normal-2"); });
  Executor::Task urgent;
  urgent.run = [&order] { order.push_back("high"); };
  urgent.lane = TaskLane::kHigh;
  executor.submit(std::move(urgent));
  gate = true;
  executor.drain();
  EXPECT_EQ(order,
            (std::vector<std::string>{"high", "normal-1", "normal-2"}));
}

// Enqueue→dequeue delay is measured on the injected clock and recorded
// into the "runtime.queue_delay_us" histogram — the signal admission
// control's EWMA feeds on.
TEST(Executor, QueueDelayRecordedOnInjectedClock) {
  obs::MetricsRegistry metrics;
  SimClock sim;
  Executor executor(ExecutorConfig{.thread_count = 1}, metrics);
  executor.set_clock(&sim);
  std::atomic<bool> gate{false};
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  executor.submit([] {});  // enqueued at virtual t0
  sim.advance(std::chrono::microseconds(750));
  gate = true;
  executor.drain();
  const auto snapshot = metrics.snapshot();
  const auto* delay = snapshot.histogram("runtime.queue_delay_us");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count, 2u);  // the gate task and the measured task
  EXPECT_GE(delay->sum_us, 750u);
}

// ------------------------------------------------------------- EventLoop

TEST(EventLoop, ManualModeRunsNothingUntilPolled) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int ran = 0;
  loop.post([&] { ++ran; });
  loop.schedule(Duration(5), [&] { ++ran; });
  EXPECT_EQ(ran, 0);  // nothing fires from a hidden thread
  EXPECT_EQ(loop.poll(), 1u);  // the post; the timer is not due
  clock.advance(Duration(10));
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, FiresTimersInDeadlineOrderWhenDue) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  std::vector<int> fired;
  loop.schedule(std::chrono::milliseconds(10), [&] { fired.push_back(2); });
  loop.schedule(std::chrono::milliseconds(5), [&] { fired.push_back(1); });
  EXPECT_EQ(loop.poll(), 0u);  // nothing due yet
  clock.advance(std::chrono::milliseconds(7));
  EXPECT_EQ(loop.poll(), 1u);
  clock.advance(std::chrono::milliseconds(7));
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, TimerFiresAtItsDeadline) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int fired = 0;
  loop.schedule(std::chrono::milliseconds(3), [&] { ++fired; });
  clock.advance(Duration(2'999));
  EXPECT_EQ(loop.poll(), 0u);
  clock.advance(Duration(1));
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(fired, 1);
}

// Tick discipline carries through the loop: a callback that schedules a
// zero-delay timer during poll() sees it fire on the *next* poll.
TEST(EventLoop, TimerScheduledDuringPollDefersToNextPoll) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int fired = 0;
  loop.schedule(Duration(0), [&] {
    ++fired;
    loop.schedule(Duration(0), [&] { ++fired; });
  });
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(fired, 2);
}

// Regression (PR 6): a timer scheduled by a timer callback — even with
// zero delay — is parked until the *next* poll. It must never fire in the
// same poll (that made a tick's work depend on callback order) and never
// be skipped or double-fired.
TEST(EventLoop, CallbackScheduledTimerIsParkedUntilNextPoll) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int fired = 0;
  loop.schedule(Duration(0), [&] {
    ++fired;
    loop.schedule(Duration(0), [&] { ++fired; });
  });
  EXPECT_EQ(loop.poll(), 1u);  // only the timer due at entry fires
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending_timers(), 1u);  // parked, not lost
  EXPECT_EQ(loop.poll(), 1u);  // ...and fires exactly once next poll
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

// A self-rescheduling heartbeat must not spin poll() forever: each poll
// fires exactly one generation.
TEST(EventLoop, SelfReschedulingTimerFiresOncePerPoll) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int generation = 0;
  std::function<void()> beat = [&] {
    ++generation;
    loop.schedule(Duration(0), beat);
  };
  loop.schedule(Duration(0), beat);
  for (int tick = 1; tick <= 5; ++tick) {
    EXPECT_EQ(loop.poll(), 1u);
    EXPECT_EQ(generation, tick);
  }
  EXPECT_EQ(loop.pending_timers(), 1u);
}

// Callbacks may cancel a timer that is due but not yet fired in the same
// poll; the poll skips it without double-firing anything.
TEST(EventLoop, CallbackMayCancelLaterDueTimer) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int fired = 0;
  std::uint64_t victim = 0;
  loop.schedule(Duration(1), [&] {
    ++fired;
    EXPECT_TRUE(loop.cancel(victim));
  });
  victim = loop.schedule(Duration(2), [&] { ++fired; });
  clock.advance(Duration(10));
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

// Regression: a callback that cancels a due timer and schedules a
// zero-delay one in its place must not hand the cancelled timer's turn
// to the new one. poll() snapshots the due ids, not their count.
TEST(EventLoop, TimerReplacingACancelledDueTimerWaitsForNextPoll) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  std::vector<int> fired;
  std::uint64_t victim = 0;
  loop.schedule(Duration(0), [&] {
    fired.push_back(1);
    EXPECT_TRUE(loop.cancel(victim));
    loop.schedule(Duration(0), [&] { fired.push_back(3); });
  });
  victim = loop.schedule(Duration(0), [&] { fired.push_back(2); });
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(loop.poll(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventLoop, CancelPreventsScheduledCallback) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  bool fired = false;
  auto id = loop.schedule(Duration(1), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  clock.advance(Duration(10));
  loop.poll();
  EXPECT_FALSE(fired);
}

// A cancelled timer's id is forgotten: cancelling it again reports it
// unknown, and nothing of it stays pending.
TEST(EventLoop, CancelledTimerIdIsForgotten) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  bool fired = false;
  auto id = loop.schedule(std::chrono::milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel: unknown
  EXPECT_EQ(loop.pending_timers(), 0u);
  clock.advance(std::chrono::milliseconds(5));
  EXPECT_EQ(loop.poll(), 0u);
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelScalesViaIdIndex) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  // Many pending timers, cancelled out of schedule order — the id index
  // must stay in lockstep with the deadline order through the churn.
  std::vector<std::uint64_t> ids;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(loop.schedule(Duration(100 + i), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(loop.cancel(ids[i]));
  }
  EXPECT_EQ(loop.pending_timers(), 100u);
  clock.advance(Duration(1'000));
  EXPECT_EQ(loop.poll(), 100u);
  EXPECT_EQ(fired, 100);
  // Every cancelled and fired id is now unknown.
  for (std::uint64_t id : ids) EXPECT_FALSE(loop.cancel(id));
}

// flush() is the shutdown drain: every pending timer runs immediately,
// due or not, so parked continuations run out instead of leaking.
TEST(EventLoop, FlushFiresPendingTimersRegardlessOfDeadline) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int fired = 0;
  loop.schedule(std::chrono::hours(1), [&] { ++fired; });
  loop.schedule(std::chrono::hours(2), [&] { ++fired; });
  loop.post([&] { ++fired; });
  EXPECT_EQ(loop.flush(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, ThreadedModeDrainsPostsAndTimers) {
  EventLoop loop;  // real clock, threaded
  std::atomic<int> ran{0};
  loop.post([&] { ++ran; });
  loop.schedule(std::chrono::milliseconds(1), [&] { ++ran; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() != 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 2);
}

TEST(EventLoop, PostAfterStopIsDropped) {
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  loop.stop();
  loop.post([] { FAIL() << "posted after stop must not run"; });
  EXPECT_EQ(loop.poll(), 0u);
  EXPECT_EQ(loop.pending_posts(), 0u);
}

TEST(EventLoop, ThrowingCallbackIsContained) {
  set_log_level(LogLevel::kOff);
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  int ran = 0;
  loop.post([] { throw std::runtime_error("loop fault"); });
  loop.post([&] { ++ran; });
  EXPECT_EQ(loop.poll(), 2u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.callback_failures(), 1u);
  set_log_level(LogLevel::kWarn);
}

TEST(EventLoop, ThrowingTimerDoesNotAbortThePoll) {
  set_log_level(LogLevel::kOff);
  SimClock clock;
  EventLoop loop(EventLoopConfig{.clock = &clock, .threaded = false});
  std::vector<int> fired;
  loop.schedule(Duration(1), [&] { fired.push_back(1); });
  loop.schedule(Duration(2), [&]() -> void {
    throw std::runtime_error("timer fault injected");
  });
  loop.schedule(Duration(3), [&] { fired.push_back(3); });
  clock.advance(Duration(10));
  // All three ran (the throwing one counts: it was retired and invoked);
  // the timers behind the fault still fired.
  EXPECT_EQ(loop.poll(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(loop.callback_failures(), 1u);
  EXPECT_EQ(loop.pending_timers(), 0u);
  set_log_level(LogLevel::kWarn);
}

// ------------------------------------------------------- Executor stages

TEST(Executor, StagesTrackDepthAndDelay) {
  obs::MetricsRegistry metrics;
  SimClock sim;
  Executor executor(ExecutorConfig{.thread_count = 1}, metrics);
  executor.set_clock(&sim);
  const std::uint32_t synthesis = executor.add_stage("synthesis");
  const std::uint32_t broker = executor.add_stage("broker");
  std::atomic<bool> gate{false};
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  std::atomic<int> ran{0};
  for (std::uint32_t stage : {synthesis, broker}) {
    Status accepted =
        executor.submit({.run = [&ran] { ++ran; }, .stage = stage});
    ASSERT_TRUE(accepted.ok());
  }
  auto stats = executor.stage_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].depth, 1u);
  EXPECT_EQ(stats[1].depth, 1u);
  sim.advance(std::chrono::microseconds(500));
  gate = true;
  executor.drain();
  EXPECT_EQ(ran.load(), 2);
  stats = executor.stage_stats();
  EXPECT_EQ(stats[0].name, "synthesis");
  EXPECT_EQ(stats[0].depth, 0u);
  EXPECT_EQ(stats[0].max_depth, 1u);
  EXPECT_EQ(stats[0].entered, 1u);
  EXPECT_FALSE(executor.submit({.run = [] {}, .stage = 2}).ok());  // no stage
  const auto snapshot = metrics.snapshot();
  const auto* delay = snapshot.histogram("stage.synthesis.delay_us");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count, 1u);
  EXPECT_GE(delay->sum_us, 500u);
}

// Continuations of admitted work bypass the executor's capacity bound:
// a full queue must never strand a mid-pipeline hop.
TEST(Executor, StageContinuationBypassesCapacityBound) {
  obs::MetricsRegistry metrics;
  Executor executor(ExecutorConfig{.thread_count = 1,
                                   .queue_capacity = 1,
                                   .overflow_policy = OverflowPolicy::kReject},
                    metrics);
  const std::uint32_t stage = executor.add_stage("s");
  std::atomic<bool> gate{false};
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  std::atomic<int> ran{0};
  auto entry = [&] {
    return Executor::Task{.run = [&ran] { ++ran; }, .stage = stage};
  };
  ASSERT_TRUE(executor.submit(entry()).ok());   // fills the queue
  EXPECT_FALSE(executor.submit(entry()).ok());  // entry refused
  EXPECT_EQ(executor.stage_stats()[0].entered, 1u);  // refusals don't count
  Executor::Task hop = entry();
  hop.continuation = true;
  EXPECT_TRUE(executor.submit(std::move(hop)).ok());
  gate = true;
  executor.drain();
  EXPECT_EQ(ran.load(), 2);
}

// A shed entry submission fires its on_shed hook and counts against the
// stage, so the caller can resolve the callback of work that never ran.
TEST(Executor, ShedStageEntryRunsOnShedAndCounts) {
  obs::MetricsRegistry metrics;
  Executor executor(
      ExecutorConfig{.thread_count = 1,
                     .queue_capacity = 1,
                     .overflow_policy = OverflowPolicy::kShedOldest}, metrics);
  const std::uint32_t stage = executor.add_stage("s");
  std::atomic<bool> gate{false};
  executor.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  while (executor.pending() != 0) std::this_thread::yield();
  std::atomic<int> shed{0};
  std::atomic<int> ran{0};
  auto entry = [&] {
    return Executor::Task{.run = [&ran] { ++ran; },
                          .on_shed = [&shed] { ++shed; },
                          .stage = stage};
  };
  ASSERT_TRUE(executor.submit(entry()).ok());
  ASSERT_TRUE(executor.submit(entry()).ok());
  EXPECT_EQ(shed.load(), 1);
  gate = true;
  executor.drain();
  EXPECT_EQ(ran.load(), 1);
  const auto stats = executor.stage_stats();
  EXPECT_EQ(stats[0].shed, 1u);
  EXPECT_EQ(stats[0].depth, 0u);  // shed work leaves no ghost depth
}


// ---- Task ----------------------------------------------------------

Task<int> ready(int value) { co_return value; }

Task<long> sum_of_ready(int count) {
  long sum = 0;
  for (int i = 0; i < count; ++i) sum += co_await ready(i);
  co_return sum;
}

TEST(Task, InlineCompletionsDoNotNest) {
  // A frame per completion would overflow the stack long before this.
  EXPECT_EQ(run_inline(sum_of_ready(1'000'000)), 499'999'500'000L);
}

/// A leaf that parks until the test resumes it from another thread.
struct Parked {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> waiter) { *slot = waiter; }
  int await_resume() const noexcept { return 41; }
};

Task<int> parks(std::coroutine_handle<>* slot) {
  co_return co_await Parked{slot} + 1;
}

Task<std::string> awaits_parked(std::coroutine_handle<>* slot) {
  const int value = co_await parks(slot);
  co_return std::to_string(value);
}

TEST(Task, ParkedChildResumesItsParentOnTheSettlingThread) {
  std::coroutine_handle<> slot;
  std::string result;
  std::thread::id finished_on;
  start_detached(awaits_parked(&slot), [&](std::string value) {
    result = std::move(value);
    finished_on = std::this_thread::get_id();
  });
  ASSERT_TRUE(slot);
  EXPECT_TRUE(result.empty());
  std::thread settler([&slot] { slot.resume(); });
  const std::thread::id settler_id = settler.get_id();
  settler.join();
  EXPECT_EQ(result, "42");
  EXPECT_EQ(finished_on, settler_id);
}

Task<> throws() {
  throw std::runtime_error("inside a task");
  co_return;
}

Task<int> catches() {
  try {
    co_await throws();
  } catch (const std::runtime_error&) {
    co_return 1;
  }
  co_return 0;
}

TEST(Task, ExceptionsReachTheAwaiter) { EXPECT_EQ(run_inline(catches()), 1); }

}  // namespace
}  // namespace mdsm::runtime
