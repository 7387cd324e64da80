// The event-driven staged pipeline (PR 6): cross-thread span parentage,
// deadline expiry while a request is parked between stages, and N
// concurrent retrying requests — in the script or in its event-signal
// drain — progressing on fewer than N executor threads: the properties
// that distinguish the continuation-passing core from a pipeline that
// holds one worker per request end-to-end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broker/action.hpp"
#include "broker/invocation_policy.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/platform.hpp"
#include "soak_fixtures.hpp"

namespace mdsm::core {
namespace {

/// Fails the first `failures` executions with a retryable fault, then
/// succeeds — deterministic fuel for retry-path tests.
class FlakyAdapter final : public broker::ResourceAdapter {
 public:
  FlakyAdapter(std::string name, int failures)
      : ResourceAdapter(std::move(name)), remaining_(failures) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)args;
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      return Unavailable("injected transient fault");
    }
    return model::Value("done:" + command);
  }

  [[nodiscard]] std::uint64_t executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<int> remaining_;
};

/// Completes asynchronously on the platform's event loop after `delay`
/// of loop-clock time — the request parks in the broker stage with no
/// worker held while the "device" is busy.
class ParkingAdapter final : public broker::ResourceAdapter {
 public:
  ParkingAdapter(std::string name, Platform** platform, Duration delay)
      : ResourceAdapter(std::move(name)), platform_(platform), delay_(delay) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args&) override {
    return model::Value("sync:" + command);  // unused; async path below
  }

  void execute_async(const std::string& command, const broker::Args&,
                     Completion done) override {
    started_.fetch_add(1, std::memory_order_relaxed);
    (*platform_)->event_loop()->schedule(
        delay_, [command, done = std::move(done)] {
          done(model::Value("late:" + command));
        });
  }

  [[nodiscard]] std::uint64_t started() const noexcept {
    return started_.load(std::memory_order_relaxed);
  }

 private:
  Platform** platform_;
  Duration delay_;
  std::atomic<std::uint64_t> started_{0};
};

struct StagedFixture {
  model::MetamodelPtr dsml;
  std::unique_ptr<Platform> platform;
};

StagedFixture make_staged_platform(PlatformConfig config,
                                   std::unique_ptr<broker::ResourceAdapter>
                                       adapter) {
  StagedFixture out;
  out.dsml = model::testing::make_test_metamodel();
  config.dsml = out.dsml;
  auto assembled =
      Platform::assemble_from_text(soak::kSoakMiddlewareModel, config);
  if (!assembled.ok()) return out;
  out.platform = std::move(assembled.value());
  if (!out.platform->add_resource_adapter(std::move(adapter)).ok() ||
      !out.platform->start().ok()) {
    out.platform.reset();
  }
  return out;
}

// Satellite (PR 6): a request crossing every stage on different workers
// — including a retry that parks on the event loop and resumes on yet
// another thread — must still produce ONE nested span tree: exactly one
// root, every other span reachable from it, nothing left open.
TEST(Staged, CrossThreadSpanParentageStaysOneTree) {
  PlatformConfig config;
  config.pipeline_threads = 4;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", /*failures=*/1));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  broker::InvocationPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = Duration(200);  // real microseconds, loop timer
  ASSERT_TRUE(platform.broker().resources().set_policy("svc", policy).ok());

  std::atomic<int> done{0};
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s1"),
                                [&done](Result<controller::ControlScript> r) {
                                  EXPECT_TRUE(r.ok()) << r.status().to_string();
                                  ++done;
                                })
                  .ok());
  while (done.load() != 1) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());

  auto context = platform.last_async_context();
  ASSERT_NE(context, nullptr);
  const obs::Trace& trace = context->trace();
  EXPECT_TRUE(trace.all_closed());
  // Exactly one root, and it is the UI-layer submission span.
  std::size_t roots = 0;
  for (const obs::Span& span : trace.spans()) {
    if (span.parent == 0) {
      ++roots;
      EXPECT_EQ(span.name, "ui.submit");
    } else {
      // No orphans: every non-root span's parent is in the same tree.
      EXPECT_NE(trace.find_id(span.parent), nullptr)
          << span.name << " lost its parent across a thread hop";
    }
  }
  EXPECT_EQ(roots, 1u);
  // The request crossed all four layers...
  EXPECT_EQ(trace.count("runtime.queue"), 1u);
  EXPECT_EQ(trace.count("synthesis.submit"), 1u);
  EXPECT_EQ(trace.count("controller.script"), 1u);
  EXPECT_GE(trace.count("broker.call"), 1u);
  // ...and the flaky resource forced a second attempt, so the trace
  // provably spans a park/resume hop through the event loop.
  EXPECT_GE(trace.count("broker.attempt"), 2u);
}

// Satellite (PR 6): a deadline that expires while the request is parked
// between stages (virtual clock) fires exactly one kTimeout callback at
// expiry — not when a stage eventually notices — and the parked
// continuation is released and cleaned up, not leaked.
TEST(Staged, DeadlineExpiryWhileParkedFiresExactlyOnce) {
  set_log_level(LogLevel::kOff);
  SimClock sim;
  Platform* platform_handle = nullptr;
  PlatformConfig config;
  config.clock = &sim;
  config.pipeline_threads = 1;
  config.manual_event_loop = true;
  auto fixture = make_staged_platform(
      config, std::make_unique<ParkingAdapter>(
                  "svc", &platform_handle, std::chrono::seconds(1)));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  platform_handle = &platform;

  std::atomic<int> callbacks{0};
  std::atomic<int> timeouts{0};
  SubmitOptions options;
  options.deadline = std::chrono::milliseconds(100);
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s1"),
                                [&](Result<controller::ControlScript> r) {
                                  ++callbacks;
                                  if (r.status().code() == ErrorCode::kTimeout)
                                    ++timeouts;
                                },
                                options)
                  .ok());
  // Two timers pending = the deadline watchdog + the parked attempt's
  // completion: the request is suspended with no worker held.
  runtime::EventLoop* loop = platform.event_loop();
  ASSERT_NE(loop, nullptr);
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (loop->pending_timers() < 2 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(loop->pending_timers(), 2u);
  EXPECT_EQ(callbacks.load(), 0);

  // Virtual time passes the deadline while the request is still parked:
  // the watchdog fires on this poll, the adapter's timer does not.
  sim.advance(std::chrono::milliseconds(200));
  loop->poll();
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(timeouts.load(), 1);
  EXPECT_EQ(
      platform.metrics().snapshot().counter_value("ui.watchdog_timeouts"),
      1u);

  // Release the parked continuation: the late completion resumes the
  // chain, which observes the resolved flag and cleans up — it must NOT
  // deliver a second callback.
  sim.advance(std::chrono::seconds(2));
  loop->poll();
  EXPECT_TRUE(platform.stop().ok());  // no leaked inflight slot
  EXPECT_EQ(callbacks.load(), 1);     // exactly once, ever
  set_log_level(LogLevel::kWarn);
}

// Acceptance (PR 6): N concurrent requests all in retry backoff make
// progress on ONE executor thread — backoff parks on the event loop
// instead of sleeping the worker, so a single worker serves all first
// attempts, parks all N, then serves all retries after virtual time
// advances.
TEST(Staged, ConcurrentRetriesProgressOnOneWorkerThread) {
  set_log_level(LogLevel::kOff);
  constexpr int kRequests = 4;
  SimClock sim;
  PlatformConfig config;
  config.clock = &sim;
  config.pipeline_threads = 1;  // fewer threads than retrying requests
  config.manual_event_loop = true;
  auto flaky = std::make_unique<FlakyAdapter>("svc", kRequests);
  FlakyAdapter* svc = flaky.get();  // owned by the platform from here on
  auto fixture = make_staged_platform(config, std::move(flaky));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  broker::InvocationPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = std::chrono::milliseconds(50);
  ASSERT_TRUE(platform.broker().resources().set_policy("svc", policy).ok());

  std::atomic<int> completed_ok{0};
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(platform
                    .submit_async(
                        soak::open_session_text("s" + std::to_string(i)),
                        [&](Result<controller::ControlScript> r) {
                          if (r.ok()) ++completed_ok;
                        })
                    .ok());
  }
  // All N first attempts fail and park in backoff without any poll: the
  // single worker was never held across a backoff sleep.
  runtime::EventLoop* loop = platform.event_loop();
  ASSERT_NE(loop, nullptr);
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (loop->pending_timers() < kRequests &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(loop->pending_timers(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(svc->executed(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(completed_ok.load(), 0);

  // One tick of virtual time releases every parked request; the same
  // single worker runs all N retries to completion.
  sim.advance(std::chrono::seconds(10));
  loop->poll();
  while (completed_ok.load() != kRequests &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(completed_ok.load(), kRequests);
  // Every first attempt retried once; later scripts also close the
  // previous session (the model diff), so there are at least 2N calls.
  EXPECT_GE(svc->executed(), static_cast<std::uint64_t>(2 * kRequests));
  EXPECT_TRUE(platform.stop().ok());
  EXPECT_EQ(platform.metrics().snapshot().counter_value("broker.retries"),
            static_cast<std::uint64_t>(kRequests));
  set_log_level(LogLevel::kWarn);
}

/// Succeeds at once and raises "resource.opened" on every "open": the
/// script emits an event mid-execution, which the controller queues as
/// an event signal for the drain at the end of the script.
class OpenNotifyingAdapter final : public broker::ResourceAdapter {
 public:
  explicit OpenNotifyingAdapter(std::string name)
      : ResourceAdapter(std::move(name)) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    if (command == "open") {
      auto id = args.find("id");
      raise_event("opened", id == args.end() ? model::Value() : id->second);
    }
    return model::Value("done:" + command);
  }
};

// Regression: the event-signal drain at the end of a staged script is
// part of the script's state machine, so an event-bound Case-1 action
// whose resource retries parks its backoff on the event loop like any
// other staged invocation. A blocking drain would sleep the only
// pipeline worker through the backoff and stall every other request.
TEST(Staged, EventDrainRetryParksInsteadOfSleeping) {
  set_log_level(LogLevel::kOff);
  SimClock sim;
  PlatformConfig config;
  config.clock = &sim;
  config.pipeline_threads = 1;
  config.manual_event_loop = true;
  auto flaky = std::make_unique<FlakyAdapter>("flaky", /*failures=*/1);
  FlakyAdapter* poked = flaky.get();  // the platform owns it once added
  auto fixture = make_staged_platform(
      config, std::make_unique<OpenNotifyingAdapter>("svc"));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  ASSERT_TRUE(platform.add_resource_adapter(std::move(flaky)).ok());
  broker::BrokerLayer& broker = platform.broker();
  broker::InvocationPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = std::chrono::milliseconds(50);
  ASSERT_TRUE(broker.resources().set_policy("flaky", policy).ok());
  std::atomic<int> sleeps{0};
  broker.resources().set_sleep_hook([&sleeps](Duration) { ++sleeps; });
  broker::Action poke;
  poke.name = "bk-poke";
  poke.steps = {broker::invoke_step("flaky", "poke")};
  ASSERT_TRUE(broker.register_action(std::move(poke)).ok());
  ASSERT_TRUE(broker.bind_handler("flaky.poke", {"bk-poke"}).ok());
  controller::ControllerLayer& controller = platform.controller();
  controller::ControllerAction on_opened;
  on_opened.name = "on-opened";
  on_opened.body = {controller::broker_call("flaky.poke")};
  ASSERT_TRUE(controller.register_action(std::move(on_opened)).ok());
  ASSERT_TRUE(controller.bind_action("resource.opened", {"on-opened"}).ok());
  controller.attach_event_topic("resource.opened");

  std::atomic<int> first_done{0};
  std::atomic<int> second_done{0};
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s0"),
                                [&](Result<controller::ControlScript> r) {
                                  EXPECT_TRUE(r.ok());
                                  ++first_done;
                                })
                  .ok());
  // The first request's drained event action fails its first attempt
  // and parks the backoff on the loop: one pending timer, no sleep.
  runtime::EventLoop* loop = platform.event_loop();
  ASSERT_NE(loop, nullptr);
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (loop->pending_timers() < 1 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(loop->pending_timers(), 1u);
  EXPECT_EQ(poked->executed(), 1u);

  // The single worker is free: a second request runs to completion
  // (its own drained event action succeeds first time) while the first
  // one's backoff is still parked.
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s1"),
                                [&](Result<controller::ControlScript> r) {
                                  EXPECT_TRUE(r.ok());
                                  ++second_done;
                                })
                  .ok());
  while (second_done.load() != 1 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(second_done.load(), 1);
  EXPECT_EQ(first_done.load(), 0);
  EXPECT_EQ(loop->pending_timers(), 1u);

  // Virtual time releases the parked retry; the first request finishes.
  sim.advance(std::chrono::seconds(1));
  loop->poll();
  while (first_done.load() != 1 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(first_done.load(), 1);
  EXPECT_TRUE(platform.stop().ok());
  EXPECT_EQ(poked->executed(), 3u);
  EXPECT_EQ(sleeps.load(), 0);  // no worker ever slept a backoff
  EXPECT_EQ(platform.metrics().snapshot().counter_value("broker.retries"),
            1u);
  EXPECT_EQ(controller.stats().errors, 0u);
  set_log_level(LogLevel::kWarn);
}

// Per-stage queue visibility: the staged pipeline reports depth/entered
// counters for each of its four stages.
TEST(Staged, StageStatsExposePerStageCounters) {
  PlatformConfig config;
  config.pipeline_threads = 2;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", 0));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(platform
                    .submit_async(
                        soak::open_session_text("s" + std::to_string(i)),
                        [&done](Result<controller::ControlScript> r) {
                          EXPECT_TRUE(r.ok());
                          ++done;
                        })
                    .ok());
  }
  while (done.load() != 3) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());
  const auto stats = platform.stage_stats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].name, "synthesis");
  EXPECT_EQ(stats[1].name, "controller");
  EXPECT_EQ(stats[2].name, "broker");
  EXPECT_EQ(stats[3].name, "complete");
  EXPECT_EQ(stats[0].entered, 3u);
  EXPECT_EQ(stats[3].entered, 3u);
  // Per-stage delay histograms landed in the registry.
  const auto snapshot = platform.metrics().snapshot();
  EXPECT_NE(snapshot.histogram("stage.synthesis.delay_us"), nullptr);
  EXPECT_NE(snapshot.histogram("stage.complete.delay_us"), nullptr);
}

// PR 10 bugfix regression: only EXECUTED requests feed the admission
// latency EWMA. A refusal resolves in microseconds, so a burst of them
// (here: parse errors caught in the synthesis stage before any pipeline
// work) used to drag the predicted latency toward zero — and the
// controller would then re-admit doomed work it should have shed.
TEST(Staged, RefusalBurstDoesNotFeedTheAdmissionEwma) {
  PlatformConfig config;
  config.pipeline_threads = 2;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", 0));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;

  // Seed the prediction with genuinely completed work.
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(platform
                    .submit_async(
                        soak::open_session_text("e" + std::to_string(i)),
                        [&done](Result<controller::ControlScript> r) {
                          EXPECT_TRUE(r.ok()) << r.status().to_string();
                          ++done;
                        })
                    .ok());
  }
  while (done.load() != 4) std::this_thread::yield();
  const Duration seeded = platform.admission().predicted_latency();
  EXPECT_GT(seeded.count(), 0);

  // The refusal burst: every submission dies at parse, executed = false.
  std::atomic<int> refused{0};
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(platform
                    .submit_async("not a model {",
                                  [&refused](
                                      Result<controller::ControlScript> r) {
                                    EXPECT_FALSE(r.ok());
                                    ++refused;
                                  })
                    .ok());
  }
  while (refused.load() != kBurst) std::this_thread::yield();

  // Not one refusal touched the prediction.
  EXPECT_EQ(platform.admission().predicted_latency(), seeded);
  EXPECT_TRUE(platform.stop().ok());
}

// A request whose budget is already spent races its deadline watchdog
// against the synthesis stage; whichever resolves it, it counts as one
// failed request, never two.
TEST(Staged, ExpiredRequestCountsAsOneFailure) {
  set_log_level(LogLevel::kOff);
  PlatformConfig config;
  config.pipeline_threads = 1;
  auto fixture =
      make_staged_platform(config, std::make_unique<FlakyAdapter>("svc", 0));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  constexpr int kRequests = 500;
  std::atomic<int> settled{0};
  std::atomic<int> timeouts{0};
  for (int i = 0; i < kRequests; ++i) {
    SubmitOptions options;
    options.deadline = Duration(0);
    ASSERT_TRUE(platform
                    .submit_async(soak::open_session_text(numbered("s", i)),
                                  [&](Result<controller::ControlScript> r) {
                                    if (r.status().code() ==
                                        ErrorCode::kTimeout) {
                                      ++timeouts;
                                    }
                                    ++settled;
                                  },
                                  options)
                    .ok());
  }
  // Each side counts the failure before it invokes the callback.
  while (settled.load() != kRequests) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());
  EXPECT_EQ(timeouts.load(), kRequests);
  EXPECT_EQ(platform.metrics().counter("requests.failed").value(),
            static_cast<std::uint64_t>(kRequests));
  set_log_level(LogLevel::kWarn);
}

// ---- one request machine, two doors ----------------------------------

/// The soak middleware model plus a retune: a live session whose
/// bandwidth changes issues session.retune → svc.retune and stays live.
std::string retune_middleware_model() {
  std::string text(soak::kSoakMiddlewareModel);
  auto insert_before = [&text](std::string_view anchor,
                               std::string_view extra) {
    text.insert(text.find(anchor), extra);
  };
  insert_before("    child resources ResourceSpec r1", R"mw(
    child actions ActionSpec act-retune {
      name = "bk-retune"
      child steps StepSpec s4 {
        op = invoke
        a = "svc"
        b = "retune"
        child args ArgSpec a4 { key = "id" value = "$id" }
      }
    }
    child handlers HandlerSpec h4 { signal = "svc.retune" actions -> act-retune }
)mw");
  insert_before("    child mappings CommandMappingSpec m1", R"mw(
    child actions ActionSpec ca2 {
      name = "ctl-retune"
      child steps StepSpec t5 {
        op = broker-call
        a = "svc.retune"
        child args ArgSpec c2a { key = "id" value = "$id" }
      }
    }
    child bindings BindingSpec bind2 { command = "session.retune" actions -> ca2 }
)mw");
  insert_before("    child transitions TransitionSpec tr2", R"mw(
    child transitions TransitionSpec tr3 {
      from = "live"
      to = "live"
      kind = set-attribute
      class = "Session"
      feature = "bandwidth"
      child commands CommandTemplateSpec ct3 {
        name = "session.retune"
        child args ArgSpec sa3 { key = "id" value = "%id" }
      }
    }
)mw");
  return text;
}

/// What one run of a model sequence left behind.
struct DoorRun {
  std::vector<ErrorCode> codes;
  std::deque<std::string> commands;  ///< the broker CommandTrace
  std::map<std::string, std::uint64_t> counters;  ///< requests/layers
  /// Per request that ran a script: the name of controller.script's
  /// parent span.
  std::vector<std::string> script_parents;
};

DoorRun run_sequence(bool async) {
  struct Step {
    std::string text;
    bool expired = false;
  };
  const std::vector<Step> steps = {
      {"model a conforms testlang\n"
       "object Session s1 { state = open }\n"},
      {"model a conforms testlang\n"
       "object Session s1 { state = open bandwidth = 2.0 }\n"},
      {"model a conforms testlang\n"
       "object Session s1 { state = open bandwidth = 3.0 }\n",
       /*expired=*/true},
      {"garbage {{{"},
      {"model a conforms testlang\n"
       "object Session s1 { state = closed bandwidth = 2.0 }\n"},
  };
  DoorRun run;
  model::MetamodelPtr dsml = model::testing::make_test_metamodel();
  PlatformConfig config;
  config.dsml = dsml;
  // A manual loop is never pumped here, so the zero-budget request's
  // watchdog cannot race the synthesis stage: both doors refuse it at
  // the same admission check.
  config.pipeline_threads = 1;
  config.manual_event_loop = true;
  auto assembled =
      Platform::assemble_from_text(retune_middleware_model(), config);
  EXPECT_TRUE(assembled.ok()) << assembled.status().to_string();
  if (!assembled.ok()) return run;
  Platform& platform = **assembled;
  EXPECT_TRUE(platform
                  .add_resource_adapter(
                      std::make_unique<soak::CountingAdapter>("svc"))
                  .ok());
  EXPECT_TRUE(platform.start().ok());
  auto record_parent = [&run](const obs::Trace& trace) {
    const obs::Span* script = trace.find("controller.script");
    if (script == nullptr) return;
    const obs::Span* parent = trace.find_id(script->parent);
    run.script_parents.push_back(parent == nullptr ? "" : parent->name);
  };
  for (const Step& step : steps) {
    std::optional<Duration> deadline;
    if (step.expired) deadline = Duration(0);
    if (async) {
      SubmitOptions options;
      options.deadline = deadline;
      std::promise<ErrorCode> settled;
      EXPECT_TRUE(platform
                      .submit_async(step.text,
                                    [&settled](
                                        Result<controller::ControlScript> r) {
                                      settled.set_value(r.status().code());
                                    },
                                    options)
                      .ok());
      run.codes.push_back(settled.get_future().get());
      record_parent(platform.last_async_context()->trace());
    } else {
      obs::RequestContext context = platform.make_context(deadline);
      run.codes.push_back(
          platform.submit_model_text(step.text, context).status().code());
      record_parent(context.trace());
    }
  }
  EXPECT_TRUE(platform.stop().ok());
  run.commands = platform.trace().entries();
  for (const auto& row : platform.metrics().snapshot().counters) {
    for (std::string_view prefix :
         {"requests.", "synthesis.", "controller.", "broker."}) {
      if (row.name.starts_with(prefix)) run.counters[row.name] = row.value;
    }
  }
  return run;
}

// The sync door and submit_async() run one request machine: the same
// model sequence — an open, a retune, a request whose deadline is
// already spent, an invalid model and a close — leaves the same broker
// trace, counters, statuses and span nesting through either.
TEST(Staged, SyncAndAsyncDoorsRunOneMachine) {
  const DoorRun sync = run_sequence(/*async=*/false);
  const DoorRun async = run_sequence(/*async=*/true);
  EXPECT_EQ(sync.codes,
            (std::vector<ErrorCode>{ErrorCode::kOk, ErrorCode::kOk,
                                    ErrorCode::kTimeout,
                                    ErrorCode::kParseError, ErrorCode::kOk}));
  EXPECT_EQ(async.codes, sync.codes);
  EXPECT_EQ(sync.commands.size(), 4u);  // create, open, retune, close
  EXPECT_EQ(async.commands, sync.commands);
  EXPECT_EQ(sync.counters.at("requests.submitted"), 5u);
  EXPECT_EQ(sync.counters.at("requests.failed"), 2u);
  EXPECT_EQ(async.counters, sync.counters);
  // ui.submit > synthesis.submit > controller.script in both modes.
  EXPECT_EQ(sync.script_parents,
            (std::vector<std::string>(3, "synthesis.submit")));
  EXPECT_EQ(async.script_parents, sync.script_parents);
}

}  // namespace
}  // namespace mdsm::core
