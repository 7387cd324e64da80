// Fault-tolerance tests for the Broker layer: retry backoff math, the
// circuit-breaker state machine, the ResourceManager's policy-driven
// invocation state machine (deadline budgets, attempt timeouts,
// fallbacks) through both of its entry points, sync and async, the
// autonomic reaction to breaker events, and chaos soaks proving that
// transient resource faults below the retry budget never surface to the
// submitting user while the cross-layer ledgers still reconcile exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "broker/broker_layer.hpp"
#include "broker/invocation_policy.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "runtime/event_loop.hpp"
#include "metrics_fixtures.hpp"
#include "soak_fixtures.hpp"

namespace mdsm {
namespace {

using broker::BreakerConfig;
using broker::BrokerLayer;
using broker::ChangePlan;
using broker::CircuitBreaker;
using broker::InvocationPolicy;
using broker::ResourceAdapter;
using broker::RetryBackoff;
using model::Value;

// ------------------------------------------------------------- mechanisms

TEST(RetryBackoff, StaysWithinBoundsAndIsDeterministic) {
  RetryBackoff backoff(Duration(100), Duration(1'000), 7);
  RetryBackoff twin(Duration(100), Duration(1'000), 7);
  Duration previous(100);
  for (int i = 0; i < 50; ++i) {
    Duration delay = backoff.next();
    EXPECT_GE(delay, Duration(100));
    EXPECT_LE(delay, Duration(1'000));
    // Decorrelated jitter: each draw is bounded by 3x the previous sleep.
    EXPECT_LE(delay.count(), std::max<std::int64_t>(100, 3 * previous.count()));
    previous = delay;
    EXPECT_EQ(delay, twin.next());  // same seed, same sequence
  }
}

TEST(RetryBackoff, ZeroBaseDisablesSleeping) {
  RetryBackoff backoff(Duration(0), Duration(1'000), 7);
  EXPECT_EQ(backoff.next(), Duration(0));
}

TEST(Retryable, OnlyTransientCodesRetry) {
  EXPECT_TRUE(broker::retryable(ErrorCode::kUnavailable));
  EXPECT_TRUE(broker::retryable(ErrorCode::kTimeout));
  EXPECT_TRUE(broker::retryable(ErrorCode::kExecutionError));
  EXPECT_FALSE(broker::retryable(ErrorCode::kNotFound));
  EXPECT_FALSE(broker::retryable(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(broker::retryable(ErrorCode::kFailedPrecondition));
}

TEST(CircuitBreakerTest, TripsOnFailureRateAndRecoversViaProbe) {
  BreakerConfig config;
  config.window = 4;
  config.min_samples = 4;
  config.failure_threshold = 0.5;
  config.cooldown = Duration(1'000);
  CircuitBreaker breaker(config);
  TimePoint now{};

  // Below min_samples nothing trips, even at 100% failures.
  for (int i = 0; i < 3; ++i) {
    auto admitted = breaker.admit(now);
    EXPECT_EQ(admitted.admission, CircuitBreaker::Admission::kAllow);
    EXPECT_EQ(breaker.on_result(admitted.admission, false, now),
              CircuitBreaker::Transition::kNone);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Fourth failure reaches min_samples at 100% >= 50%: trip.
  auto admitted = breaker.admit(now);
  EXPECT_EQ(breaker.on_result(admitted.admission, false, now),
            CircuitBreaker::Transition::kOpened);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Open rejects until the cooldown has elapsed.
  EXPECT_EQ(breaker.admit(now + Duration(500)).admission,
            CircuitBreaker::Admission::kReject);
  now += Duration(1'000);
  auto probe = breaker.admit(now);
  EXPECT_EQ(probe.admission, CircuitBreaker::Admission::kProbe);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // Only one probe in flight; a second caller is rejected meanwhile.
  EXPECT_EQ(breaker.admit(now).admission, CircuitBreaker::Admission::kReject);
  // Probe success closes.
  EXPECT_EQ(breaker.on_result(probe.admission, true, now),
            CircuitBreaker::Transition::kClosed);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensWithFreshWindow) {
  BreakerConfig config;
  config.window = 2;
  config.min_samples = 2;
  config.failure_threshold = 0.5;
  config.cooldown = Duration(100);
  CircuitBreaker breaker(config);
  TimePoint now{};
  for (int i = 0; i < 2; ++i) {
    auto admitted = breaker.admit(now);
    (void)breaker.on_result(admitted.admission, false, now);
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  now += Duration(100);
  auto probe = breaker.admit(now);
  ASSERT_EQ(probe.admission, CircuitBreaker::Admission::kProbe);
  EXPECT_EQ(breaker.on_result(probe.admission, false, now),
            CircuitBreaker::Transition::kOpened);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // After recovery the pre-trip failures are gone from the window: one
  // fresh failure is below min_samples and must NOT re-trip (with a stale
  // window it would, since two failures would already be on record).
  now += Duration(100);
  probe = breaker.admit(now);
  (void)breaker.on_result(probe.admission, true, now);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  auto admitted = breaker.admit(now);
  EXPECT_EQ(breaker.on_result(admitted.admission, false, now),
            CircuitBreaker::Transition::kNone);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // The second fresh failure reaches min_samples at 100%: trip again.
  admitted = breaker.admit(now);
  EXPECT_EQ(breaker.on_result(admitted.admission, false, now),
            CircuitBreaker::Transition::kOpened);
}

// -------------------------------------------------- policy-driven invoke

/// Plays back a queue of scripted outcomes, then succeeds forever.
class ScriptedAdapter final : public ResourceAdapter {
 public:
  using Outcome = std::function<Result<Value>()>;

  explicit ScriptedAdapter(std::string name)
      : ResourceAdapter(std::move(name)) {}

  std::deque<Outcome> script;
  int executed = 0;

  Result<Value> execute(const std::string& command, const broker::Args&)
      override {
    ++executed;
    if (script.empty()) return Value("ok:" + command);
    Outcome next = std::move(script.front());
    script.pop_front();
    return next();
  }

  void fail_times(int n, Status status) {
    for (int i = 0; i < n; ++i) {
      script.push_back([status] { return Result<Value>(status); });
    }
  }
};

/// The two doors of ResourceManager's one invocation coroutine: run
/// inline, it waits backoffs through the sleep hook, which advances the
/// SimClock; started detached for a request that may park, on a manual
/// event loop, it parks each backoff on a loop timer that the pump
/// reaches by stepping the same SimClock.
enum class Entry { kInvoke, kInvokeAsync };

/// One broker layer over a ScriptedAdapter "svc", driven through one
/// entry point.
struct Rig {
  explicit Rig(Entry entry_point) : entry(entry_point) {
    auto adapter = std::make_unique<ScriptedAdapter>("svc");
    primary = adapter.get();
    EXPECT_TRUE(layer.resources().add_adapter(std::move(adapter)).ok());
    if (entry == Entry::kInvoke) {
      // Backoff sleeps advance the simulated clock instead of
      // wall-blocking.
      layer.resources().set_sleep_hook(
          [this](Duration d) { clock.advance(d); });
    } else {
      layer.resources().set_sleep_hook([](Duration) {
        ADD_FAILURE() << "async mode slept a backoff";
      });
      layer.resources().set_async_engine(&loop, nullptr);
    }
  }

  obs::RequestContext make_context(
      std::optional<Duration> deadline = std::nullopt) {
    return obs::RequestContext(clock, &metrics, deadline);
  }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return metrics.snapshot().counter_value(name);
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  broker_counters() const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& row : metrics.snapshot().counters) {
      if (row.name.starts_with("broker.")) out.emplace_back(row.name, row.value);
    }
    return out;
  }

  Result<Value> invoke(const std::string& resource,
                       obs::RequestContext& context) {
    const std::string command = "start";
    const broker::Args args;
    if (entry == Entry::kInvoke) {
      return runtime::run_inline(
          layer.resources().invoke(resource, command, args, context));
    }
    // The async door: a request that may park, started detached.
    context.allow_parking();
    std::optional<Result<Value>> outcome;
    runtime::start_detached(
        layer.resources().invoke(resource, command, args, context),
        [this, &outcome](Result<Value> settled) {
          ++callbacks;
          outcome.emplace(settled);
        });
    // Pump: run what is due; when idle, step virtual time towards the
    // next parked backoff.
    while (!outcome.has_value() &&
           loop.pending_timers() + loop.pending_posts() > 0) {
      if (loop.poll() == 0) clock.advance(Duration(1));
    }
    if (!outcome.has_value()) return Internal("invoke never settled");
    return *outcome;
  }

  Entry entry;
  runtime::EventBus bus;
  policy::ContextStore store;
  obs::MetricsRegistry metrics;
  BrokerLayer layer{"resilient", bus, store, metrics};
  SimClock clock;
  runtime::EventLoop loop{{.clock = &clock, .threaded = false}};
  ScriptedAdapter* primary = nullptr;
  int callbacks = 0;  ///< async door: completions delivered
};

struct ResilienceFixture : ::testing::Test {
  void SetUp() override { set_log_level(LogLevel::kOff); }
  void TearDown() override { set_log_level(LogLevel::kWarn); }

  /// Run `body` once per entry point, each on a fresh rig, then check
  /// the parity the single state machine guarantees: the same command
  /// trace and the same broker.* counters. (`body` asserts the results
  /// and spans, identically for both.)
  template <typename Body>
  void for_each_entry(Body body) {
    Rig sync(Entry::kInvoke);
    {
      SCOPED_TRACE("invoke");
      body(sync);
    }
    Rig async(Entry::kInvokeAsync);
    {
      SCOPED_TRACE("invoke_async");
      body(async);
    }
    EXPECT_EQ(sync.layer.trace().snapshot(), async.layer.trace().snapshot());
    EXPECT_EQ(sync.broker_counters(), async.broker_counters());
  }
};

TEST_F(ResilienceFixture, RetriesTransientFaultsUntilSuccess) {
  for_each_entry([](Rig& r) {
    InvocationPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff = Duration(100);
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->fail_times(2, Unavailable("flaky"));

    obs::RequestContext context = r.make_context();
    auto result = r.invoke("svc", context);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->as_string(), "ok:start");
    EXPECT_EQ(r.primary->executed, 3);
    EXPECT_EQ(r.layer.trace().size(), 3u);  // every physical attempt traced
    EXPECT_EQ(r.counter("broker.commands"), 3u);
    EXPECT_EQ(r.counter("broker.retries"), 2u);
    EXPECT_EQ(r.counter("broker.retry_exhausted"), 0u);
    // One "broker.attempt" span per physical attempt, under the policy
    // path.
    EXPECT_EQ(context.trace().count("broker.attempt"), 3u);
    // Two backoff waits actually elapsed (on the simulated clock).
    EXPECT_GE(r.clock.now().time_since_epoch(), Duration(200));
  });
}

TEST_F(ResilienceFixture, PolicyFreeResourceKeepsFireOnceSemantics) {
  for_each_entry([](Rig& r) {
    r.primary->fail_times(1, Unavailable("flaky"));
    obs::RequestContext context = r.make_context();
    auto result = r.invoke("svc", context);
    EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
    EXPECT_EQ(r.primary->executed, 1);
    EXPECT_EQ(r.counter("broker.retries"), 0u);
    EXPECT_EQ(context.trace().count("broker.attempt"), 0u);  // fast path
  });
}

TEST_F(ResilienceFixture, NonRetryableFaultFailsFast) {
  for_each_entry([](Rig& r) {
    InvocationPolicy policy;
    policy.max_attempts = 3;
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->script.push_back(
        [] { return Result<Value>(InvalidArgument("bad command")); });

    obs::RequestContext context = r.make_context();
    auto result = r.invoke("svc", context);
    EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(r.primary->executed, 1);  // authoring bugs are not retried
    EXPECT_EQ(r.counter("broker.retries"), 0u);
    EXPECT_EQ(r.counter("broker.retry_exhausted"), 0u);
  });
}

TEST_F(ResilienceFixture, RetryLoopNeverSleepsPastTheDeadline) {
  for_each_entry([](Rig& r) {
    InvocationPolicy policy;
    policy.max_attempts = 10;
    policy.initial_backoff = Duration(200);
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->fail_times(10, Unavailable("down"));

    const Duration budget(500);
    obs::RequestContext context = r.make_context(budget);
    const TimePoint start = r.clock.now();
    auto result = r.invoke("svc", context);
    EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
    EXPECT_EQ(r.counter("broker.retry_exhausted"), 1u);
    // The invocation gave up with budget to spare rather than waiting
    // past it: the simulated clock (advanced only by backoff waits)
    // stayed inside it.
    EXPECT_LT(r.clock.now() - start, budget);
    EXPECT_LT(r.primary->executed, 10);
  });
}

TEST_F(ResilienceFixture, ExhaustedBudgetAtEntryIssuesNoCommand) {
  for_each_entry([](Rig& r) {
    InvocationPolicy policy;
    policy.max_attempts = 3;
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    obs::RequestContext context = r.make_context(Duration(100));
    r.clock.advance(Duration(100));  // spend the whole budget first
    auto result = r.invoke("svc", context);
    EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
    EXPECT_EQ(r.primary->executed, 0);
    EXPECT_EQ(r.layer.trace().size(), 0u);
  });
}

// Mode-specific: inline mode cannot preempt a synchronous adapter, so it
// reclassifies a slow failure after the fact; async mode disowns an
// overrunning attempt from a loop timer instead.
TEST_F(ResilienceFixture, AttemptTimeoutReclassifiesSlowFailuresAsRetryable) {
  Rig r(Entry::kInvoke);
  InvocationPolicy policy;
  policy.max_attempts = 2;
  policy.attempt_timeout = Duration(100);
  policy.initial_backoff = Duration(0);
  ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
  // A stalled attempt that then fails with a non-retryable code: the
  // stall past the attempt budget makes it a Timeout fault, so it IS
  // retried — and the retry succeeds.
  r.primary->script.push_back([&r]() -> Result<Value> {
    r.clock.advance(Duration(150));
    return InvalidArgument("garbled response after stall");
  });

  obs::RequestContext context = r.make_context();
  auto result = r.invoke("svc", context);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(r.primary->executed, 2);
  EXPECT_EQ(r.counter("broker.retries"), 1u);
}

/// An async resource that misbehaves inside execute_async(): it
/// completes and then throws, or throws without completing.
class ThrowingAsyncAdapter final : public ResourceAdapter {
 public:
  ThrowingAsyncAdapter(std::string name, bool complete_first)
      : ResourceAdapter(std::move(name)), complete_first_(complete_first) {}

  Result<Value> execute(const std::string&, const broker::Args&) override {
    return Internal("the async door never calls execute()");
  }
  void execute_async(const std::string& command, const broker::Args&,
                     Completion done) override {
    if (complete_first_) done(Value("ok:" + command));
    throw std::runtime_error("fault after dispatch");
  }

 private:
  bool complete_first_;
};

// The attempt settles exactly once: a completion that is followed by a
// throw keeps its outcome, and a throw with no completion degrades to
// ExecutionError. Both count one contained exception and one trace
// entry, with and without a policy (whose overrun timer is armed).
TEST_F(ResilienceFixture, MisbehavingAsyncAdapterSettlesOnce) {
  for (bool complete_first : {true, false}) {
    for (bool with_policy : {false, true}) {
      SCOPED_TRACE(std::string(complete_first ? "done-then-throw" : "throw") +
                   (with_policy ? ", policy" : ", fire-once"));
      Rig r(Entry::kInvokeAsync);
      ASSERT_TRUE(r.layer.resources()
                      .add_adapter(std::make_unique<ThrowingAsyncAdapter>(
                          "odd", complete_first))
                      .ok());
      if (with_policy) {
        InvocationPolicy policy;
        policy.max_attempts = 1;
        policy.attempt_timeout = Duration(1'000);
        ASSERT_TRUE(r.layer.resources().set_policy("odd", policy).ok());
      }
      obs::RequestContext context = r.make_context();
      auto result = r.invoke("odd", context);
      r.loop.flush();
      EXPECT_EQ(r.callbacks, 1);
      EXPECT_EQ(r.layer.trace().size(), 1u);
      EXPECT_EQ(r.counter("broker.adapter_exceptions"), 1u);
      EXPECT_EQ(r.counter("broker.late_completions"), 0u);
      if (complete_first) {
        ASSERT_TRUE(result.ok()) << result.status().to_string();
        EXPECT_EQ(result->as_string(), "ok:start");
      } else {
        EXPECT_EQ(result.status().code(), ErrorCode::kExecutionError);
      }
    }
  }
}

TEST_F(ResilienceFixture, FallbackTagsDegradedResultAndPublishesEvent) {
  for_each_entry([](Rig& r) {
    auto backup = std::make_unique<ScriptedAdapter>("backup");
    ASSERT_TRUE(r.layer.resources().add_adapter(std::move(backup)).ok());
    InvocationPolicy policy;
    policy.max_attempts = 2;
    policy.initial_backoff = Duration(0);
    policy.fallback_resource = "backup";
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->fail_times(2, Unavailable("down"));

    std::vector<std::string> degraded_events;
    r.bus.subscribe("resource.degraded", [&](const runtime::Event& e) {
      degraded_events.push_back(e.payload.as_list()[0].as_string());
    });

    obs::RequestContext context = r.make_context();
    auto result = r.invoke("svc", context);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ASSERT_TRUE(result->is_list());
    ASSERT_EQ(result->as_list().size(), 2u);
    EXPECT_EQ(result->as_list()[0].as_string(), "degraded");
    EXPECT_EQ(result->as_list()[1].as_string(), "ok:start");
    EXPECT_EQ(r.counter("broker.fallbacks"), 1u);
    EXPECT_EQ(r.counter("broker.retry_exhausted"), 1u);
    ASSERT_EQ(degraded_events.size(), 1u);
    EXPECT_EQ(degraded_events[0], "svc");
    EXPECT_EQ(context.trace().count("broker.fallback"), 1u);
  });
}

TEST_F(ResilienceFixture, UntaggedFallbackReturnsPlainValue) {
  for_each_entry([](Rig& r) {
    auto backup = std::make_unique<ScriptedAdapter>("backup");
    ASSERT_TRUE(r.layer.resources().add_adapter(std::move(backup)).ok());
    InvocationPolicy policy;
    policy.max_attempts = 1;
    policy.fallback_resource = "backup";
    policy.tag_degraded = false;
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->fail_times(1, Unavailable("down"));

    obs::RequestContext context = r.make_context();
    auto result = r.invoke("svc", context);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->as_string(), "ok:start");
  });
}

TEST_F(ResilienceFixture, FallbackFailureSurfacesThePrimaryFault) {
  for_each_entry([](Rig& r) {
    auto backup = std::make_unique<ScriptedAdapter>("backup");
    backup->fail_times(1, ExecutionError("backup also broken"));
    ASSERT_TRUE(r.layer.resources().add_adapter(std::move(backup)).ok());
    InvocationPolicy policy;
    policy.max_attempts = 1;
    policy.fallback_resource = "backup";
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->fail_times(1, Unavailable("primary down"));

    obs::RequestContext context = r.make_context();
    auto result = r.invoke("svc", context);
    EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
    EXPECT_NE(result.status().to_string().find("primary down"),
              std::string::npos);
    EXPECT_EQ(r.counter("broker.fallbacks"), 1u);
  });
}

TEST_F(ResilienceFixture, BreakerFastFailsWhileOpenThenProbesClosed) {
  for_each_entry([](Rig& r) {
    InvocationPolicy policy;
    policy.max_attempts = 1;
    policy.breaker.window = 4;
    policy.breaker.min_samples = 4;
    policy.breaker.failure_threshold = 0.5;
    policy.breaker.cooldown = Duration(1'000);
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->fail_times(4, Unavailable("down"));

    std::vector<std::string> breaker_events;
    r.bus.subscribe("resource.breaker.*", [&](const runtime::Event& e) {
      breaker_events.push_back(e.topic);
    });

    obs::RequestContext context = r.make_context();
    for (int i = 0; i < 4; ++i) {
      EXPECT_FALSE(r.invoke("svc", context).ok());
    }
    EXPECT_EQ(r.layer.resources().breaker_state("svc"),
              CircuitBreaker::State::kOpen);
    ASSERT_EQ(breaker_events.size(), 1u);
    EXPECT_EQ(breaker_events[0], "resource.breaker.open");

    // While open: fast-fail, the resource is never touched.
    auto rejected = r.invoke("svc", context);
    EXPECT_EQ(rejected.status().code(), ErrorCode::kUnavailable);
    EXPECT_NE(rejected.status().to_string().find("circuit open"),
              std::string::npos);
    EXPECT_EQ(r.primary->executed, 4);
    EXPECT_EQ(r.counter("broker.breaker_open"), 1u);

    // After the cooldown the next invoke runs as the probe and succeeds
    // (the script is exhausted), closing the breaker.
    r.clock.advance(Duration(1'000));
    auto probe = r.invoke("svc", context);
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(r.layer.resources().breaker_state("svc"),
              CircuitBreaker::State::kClosed);
    ASSERT_EQ(breaker_events.size(), 2u);
    EXPECT_EQ(breaker_events[1], "resource.breaker.close");
    EXPECT_EQ(r.counter("broker.breaker_transitions"), 2u);
  });
}

TEST_F(ResilienceFixture, AutonomicSymptomReactsToBreakerOpen) {
  for_each_entry([](Rig& r) {
    ASSERT_TRUE(r.layer.autonomic()
                    .add_symptom({.name = "svc-circuit-open",
                                  .trigger_topic = "resource.breaker.open",
                                  .condition = {},
                                  .change_request = "enter-safe-mode"})
                    .ok());
    ChangePlan plan;
    plan.name = "degrade-gracefully";
    plan.handles_request = "enter-safe-mode";
    plan.steps = {broker::set_context_step("mode", Value("safe"))};
    ASSERT_TRUE(r.layer.autonomic().add_plan(std::move(plan)).ok());

    InvocationPolicy policy;
    policy.max_attempts = 1;
    policy.breaker.window = 2;
    policy.breaker.min_samples = 2;
    policy.breaker.failure_threshold = 0.5;
    ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
    r.primary->fail_times(2, Unavailable("down"));

    obs::RequestContext context = r.make_context();
    (void)r.invoke("svc", context);
    (void)r.invoke("svc", context);
    EXPECT_EQ(r.layer.resources().breaker_state("svc"),
              CircuitBreaker::State::kOpen);
    EXPECT_EQ(cell_value(r.metrics, "autonomic.reactions"), 1u);
    EXPECT_EQ(r.store.get("mode"), Value("safe"));
  });
}

TEST_F(ResilienceFixture, LegacyContextFreeInvokeRunsThePolicy) {
  Rig r(Entry::kInvoke);
  InvocationPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = Duration(0);
  ASSERT_TRUE(r.layer.resources().set_policy("svc", policy).ok());
  r.primary->fail_times(1, Unavailable("flaky"));
  auto result =
      runtime::run_inline(r.layer.resources().invoke("svc", "start", {}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(r.counter("broker.retries"), 1u);
}

TEST_F(ResilienceFixture, SetPolicyValidatesItsInputs) {
  Rig r(Entry::kInvoke);
  InvocationPolicy policy;
  policy.max_attempts = 0;
  EXPECT_EQ(r.layer.resources().set_policy("svc", policy).code(),
            ErrorCode::kInvalidArgument);
  policy.max_attempts = 1;
  policy.breaker.window = 4;
  policy.breaker.failure_threshold = 1.5;
  EXPECT_EQ(r.layer.resources().set_policy("svc", policy).code(),
            ErrorCode::kInvalidArgument);
  policy.breaker.failure_threshold = 0.5;
  policy.fallback_resource = "svc";
  EXPECT_EQ(r.layer.resources().set_policy("svc", policy).code(),
            ErrorCode::kInvalidArgument);
  // No policy installed by the failed attempts: default is fire-once.
  EXPECT_EQ(r.layer.resources().policy("svc").max_attempts, 1);
  EXPECT_EQ(r.layer.resources().breaker_state("svc"),
            CircuitBreaker::State::kClosed);
}

// ------------------------------------------------------------ chaos soaks

struct ResilienceSoak : ::testing::Test {
  void SetUp() override { set_log_level(LogLevel::kOff); }
  void TearDown() override { set_log_level(LogLevel::kWarn); }
};

/// Single-threaded and seeded, so the chaos fault sequence is exactly
/// reproducible: with fail_rate = 0.1 and a 3-attempt budget, no command
/// ever exhausts its retries, so the user sees zero failures while the
/// ledger still proves the faults happened and were absorbed.
TEST_F(ResilienceSoak, SeededChaosBelowRetryBudgetIsInvisibleToUsers) {
  broker::ChaosConfig chaos_config;
  chaos_config.fail_rate = 0.1;
  chaos_config.seed = 42;
  InvocationPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = Duration(0);  // no sleeping: pure virtual soak
  auto soaked = soak::make_soak_platform(chaos_config, policy);
  ASSERT_TRUE(soaked.ok()) << soaked.status.to_string();
  core::Platform& platform = *soaked.platform;

  std::uint64_t error_events = 0;
  auto error_sub = platform.bus().subscribe(
      "controller.error",
      [&error_events](const runtime::Event&) { ++error_events; });

  constexpr int kSessions = 150;
  const Duration kDeadline(1'000'000);  // 1 s: ample, but enforced
  for (int i = 0; i < kSessions; ++i) {
    obs::RequestContext context = platform.make_context(kDeadline);
    auto script = platform.submit_model_text(
        soak::open_session_text(numbered("s", i)), context);
    ASSERT_TRUE(script.ok()) << "submission " << i << ": "
                             << script.status().to_string();
    EXPECT_LT(context.elapsed(), kDeadline);
    EXPECT_TRUE(context.trace().all_closed());
  }
  platform.bus().unsubscribe(error_sub);

  const obs::MetricsSnapshot chaos = soaked.chaos->metrics().snapshot();
  const std::uint64_t executed = cell_value(chaos, "chaos.executed");
  const std::uint64_t passed = cell_value(chaos, "chaos.passed");
  const std::uint64_t failed = cell_value(chaos, "chaos.failed");
  const obs::MetricsSnapshot snapshot = platform.metrics().snapshot();
  // Zero user-visible failures...
  EXPECT_EQ(platform.controller().stats().errors, 0u);
  EXPECT_EQ(error_events, 0u);
  EXPECT_EQ(snapshot.counter_value("broker.retry_exhausted"), 0u);
  // ...yet real faults were injected and absorbed by retries: every
  // chaos fault triggered exactly one retry, nothing more.
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(snapshot.counter_value("broker.retries"), failed);
  // Physical-attempt accounting is airtight across layers.
  EXPECT_EQ(snapshot.counter_value("broker.commands"), executed);
  EXPECT_EQ(platform.trace().size(), executed);
  EXPECT_EQ(passed, soaked.inner->executed());
  // Fault-free arithmetic at the logical level: two logical commands per
  // session, all of which ultimately succeeded.
  EXPECT_EQ(passed, 2u * kSessions);

  EXPECT_TRUE(platform.stop().ok());
}

/// Multi-threaded: the fault *sequence* is nondeterministic once draws
/// interleave, so assert the exact cross-layer identities that hold for
/// every interleaving instead of a specific outcome.
TEST_F(ResilienceSoak, ConcurrentChaosLedgerReconcilesWithRetries) {
  broker::ChaosConfig chaos_config;
  chaos_config.fail_rate = 0.15;
  chaos_config.throw_rate = 0.10;
  InvocationPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = Duration(0);
  auto soaked = soak::make_soak_platform(chaos_config, policy);
  ASSERT_TRUE(soaked.ok()) << soaked.status.to_string();
  core::Platform& platform = *soaked.platform;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  std::atomic<std::uint64_t> ok_submissions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = numbered("r-", t) + numbered("-", i);
        obs::RequestContext context = platform.make_context();
        if (platform.submit_model_text(soak::open_session_text(id), context)
                .ok()) {
          ok_submissions.fetch_add(1, std::memory_order_relaxed);
        }
        EXPECT_TRUE(context.trace().all_closed());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Command failures are contained per command; submissions always return.
  EXPECT_EQ(ok_submissions.load(), kTotal);

  const obs::MetricsSnapshot chaos = soaked.chaos->metrics().snapshot();
  const std::uint64_t executed = cell_value(chaos, "chaos.executed");
  const std::uint64_t passed = cell_value(chaos, "chaos.passed");
  const std::uint64_t failed = cell_value(chaos, "chaos.failed");
  const std::uint64_t threw = cell_value(chaos, "chaos.threw");
  const obs::MetricsSnapshot snapshot = platform.metrics().snapshot();
  const std::uint64_t faults = failed + threw;
  const std::uint64_t retries = snapshot.counter_value("broker.retries");
  const std::uint64_t exhausted =
      snapshot.counter_value("broker.retry_exhausted");
  // Every injected fault was consumed by exactly one retry, except the
  // final fault of each exhausted chain (which surfaced as the error).
  EXPECT_EQ(faults, retries + exhausted);
  // Only exhausted chains become user-visible command errors.
  EXPECT_EQ(platform.controller().stats().errors, exhausted);
  EXPECT_EQ(snapshot.counter_value("controller.errors"), exhausted);
  // Physical attempts reconcile across trace, metrics and chaos.
  EXPECT_EQ(snapshot.counter_value("broker.commands"), executed);
  EXPECT_EQ(platform.trace().size(), executed);
  EXPECT_EQ(snapshot.counter_value("broker.adapter_exceptions"), threw);
  EXPECT_EQ(executed, passed + failed + threw);
  EXPECT_EQ(passed, soaked.inner->executed());
  EXPECT_GT(faults, 0u);

  EXPECT_TRUE(platform.stop().ok());
}

/// The ChaosAdapter's stall hook runs stalls in virtual time: a "slow
/// resource" scenario that would wall-block for seconds completes
/// instantly, and the per-attempt timeout reclassifies the slow failure.
TEST_F(ResilienceSoak, ChaosStallsRunInVirtualTimeThroughTheSleeperHook) {
  SimClock clock;
  std::uint64_t stalls = 0;
  broker::ChaosConfig chaos_config;
  chaos_config.delay_rate = 1.0;        // every command stalls...
  chaos_config.delay = Duration(5'000'000);  // ...for 5 virtual seconds
  chaos_config.sleeper = [&](Duration d) {
    ++stalls;
    clock.advance(d);
  };
  chaos_config.fail_rate = 1.0;  // and then fails

  runtime::EventBus bus;
  policy::ContextStore store;
  obs::MetricsRegistry metrics;
  BrokerLayer layer("stalls", bus, store, metrics);
  auto inner = std::make_unique<ScriptedAdapter>("svc");
  auto chaos = std::make_unique<broker::ChaosAdapter>(std::move(inner),
                                                      chaos_config);
  ASSERT_TRUE(layer.resources().add_adapter(std::move(chaos)).ok());

  InvocationPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = Duration(0);
  policy.attempt_timeout = Duration(1'000'000);  // 1 s per attempt
  ASSERT_TRUE(layer.resources().set_policy("svc", policy).ok());

  obs::RequestContext context(clock);
  auto result = runtime::run_inline(
      layer.resources().invoke("svc", "start", {}, context));
  // Both attempts stalled past the 1 s attempt budget and failed: the
  // surfaced fault is the reclassified Timeout, not chaos's Unavailable.
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(stalls, 2u);
  // Ten virtual seconds passed; no wall time was actually slept.
  EXPECT_GE(clock.now().time_since_epoch(), Duration(10'000'000));
}

}  // namespace
}  // namespace mdsm
