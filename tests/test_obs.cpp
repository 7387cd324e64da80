// Unit tests for the observability subsystem: metrics registry (counters
// + latency histograms), span traces, and the RequestContext that ties
// them to a request's journey through the layers.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "ingress/ingress_client.hpp"
#include "ingress/ingress_server.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "metrics_fixtures.hpp"
#include "soak_fixtures.hpp"

namespace mdsm::obs {
namespace {

// ---- metrics ------------------------------------------------------------

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Histogram, RecordsCountSumAndBuckets) {
  Histogram histogram;
  histogram.record_us(0);
  histogram.record_us(1);
  histogram.record_us(100);
  histogram.record(Duration(1000));
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum_us(), 1101u);
}

TEST(Histogram, QuantileWalksCumulativeBuckets) {
  Histogram histogram;
  for (int i = 0; i < 99; ++i) histogram.record_us(10);
  histogram.record_us(100000);
  // p50 lands in the bucket containing 10us; p100 in the outlier's.
  EXPECT_LE(histogram.quantile_us(0.5), 15u);
  EXPECT_GE(histogram.quantile_us(1.0), 65536u);
}

TEST(Histogram, HugeValuesClampToLastBucket) {
  Histogram histogram;
  histogram.record(Duration(std::chrono::hours(24)));
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_GT(histogram.quantile_us(1.0), 0u);
}

TEST(MetricsRegistry, CellsAreStableAndNamed) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests.submitted");
  Counter& b = registry.counter("requests.submitted");
  EXPECT_EQ(&a, &b);  // same cell on re-lookup
  a.add(3);
  registry.histogram("latency.ui.submit").record_us(12);

  MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("requests.submitted"), 3u);
  ASSERT_NE(snapshot.histogram("latency.ui.submit"), nullptr);
  EXPECT_EQ(snapshot.histogram("latency.ui.submit")->count, 1u);
  EXPECT_EQ(snapshot.counter_value("no.such.counter"), 0u);

  std::string text = registry.to_text();
  EXPECT_NE(text.find("requests.submitted"), std::string::npos);
  EXPECT_NE(text.find("latency.ui.submit"), std::string::npos);
}

TEST(MetricsRegistry, SafeUnderConcurrentRecording) {
  MetricsRegistry registry;
  constexpr int kTasks = 64;
  constexpr int kPerTask = 250;
  obs::MetricsRegistry executor_metrics;
  runtime::Executor executor(4, executor_metrics);
  for (int task = 0; task < kTasks; ++task) {
    executor.submit([&registry, task] {
      // Mix of shared cells and per-task cells: exercises both the map
      // mutex (first-touch) and the atomic cells (hot path).
      Counter& shared = registry.counter("shared.ops");
      Histogram& latency = registry.histogram("latency.shared");
      Counter& own =
          registry.counter("task." + std::to_string(task % 8) + ".ops");
      for (int i = 0; i < kPerTask; ++i) {
        shared.add();
        own.add();
        latency.record_us(static_cast<std::uint64_t>(i));
      }
    });
  }
  executor.drain();
  MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("shared.ops"),
            static_cast<std::uint64_t>(kTasks) * kPerTask);
  ASSERT_NE(snapshot.histogram("latency.shared"), nullptr);
  EXPECT_EQ(snapshot.histogram("latency.shared")->count,
            static_cast<std::uint64_t>(kTasks) * kPerTask);
  std::uint64_t per_task_total = 0;
  for (int bucket = 0; bucket < 8; ++bucket) {
    per_task_total += snapshot.counter_value(
        "task." + std::to_string(bucket) + ".ops");
  }
  EXPECT_EQ(per_task_total, static_cast<std::uint64_t>(kTasks) * kPerTask);
}

// ---- trace --------------------------------------------------------------

TEST(TraceTree, SpansNestByOpenOrder) {
  SimClock clock;
  Trace trace(clock);
  std::uint64_t outer = trace.open("ui.submit", "app");
  clock.advance(Duration(10));
  std::uint64_t inner = trace.open("synthesis.submit");
  clock.advance(Duration(5));
  trace.close(inner);
  trace.close(outer);

  ASSERT_EQ(trace.spans().size(), 2u);
  const Span& root = trace.spans()[0];
  const Span& child = trace.spans()[1];
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.depth, 0u);
  EXPECT_EQ(child.parent, root.id);
  EXPECT_EQ(child.depth, 1u);
  EXPECT_TRUE(trace.all_closed());
  // Nested timestamps: child starts after root, ends before root.
  EXPECT_GE(child.start, root.start);
  EXPECT_LE(child.end, root.end);
  EXPECT_EQ(child.elapsed(), Duration(5));
  EXPECT_EQ(root.elapsed(), Duration(15));
}

TEST(TraceTree, CloseUnwindsThroughOpenDescendants) {
  SimClock clock;
  Trace trace(clock);
  std::uint64_t outer = trace.open("controller.signal");
  trace.open("controller.eu");
  trace.open("broker.call");
  trace.close(outer);  // error-path unwind: closes all three
  EXPECT_TRUE(trace.all_closed());
  for (const Span& span : trace.spans()) EXPECT_TRUE(span.closed);
}

TEST(TraceTree, FindCountAndText) {
  SimClock clock;
  Trace trace(clock);
  std::uint64_t a = trace.open("broker.call", "svc.create");
  trace.close(a);
  std::uint64_t b = trace.open("broker.call", "svc.open");
  trace.close(b);
  EXPECT_EQ(trace.count("broker.call"), 2u);
  ASSERT_NE(trace.find("broker.call"), nullptr);
  EXPECT_EQ(trace.find("broker.call")->detail, "svc.create");
  EXPECT_EQ(trace.find("no.such"), nullptr);
  std::string text = trace.to_text();
  EXPECT_NE(text.find("broker.call [svc.create]"), std::string::npos);
}

// ---- request context ----------------------------------------------------

TEST(RequestContextTest, MintsUniqueIdsAndTags) {
  RequestContext first;
  RequestContext second;
  EXPECT_NE(first.id(), second.id());
  EXPECT_NE(first.id(), 0u);
  EXPECT_EQ(first.tag(), "req-" + std::to_string(first.id()));
}

TEST(RequestContextTest, NoopContextIsDisabledAndInert) {
  RequestContext& noop = RequestContext::noop();
  EXPECT_FALSE(noop.enabled());
  std::uint64_t span = noop.open_span("ui.submit");
  EXPECT_EQ(span, 0u);
  noop.close_span(span);  // must not crash or record
  EXPECT_TRUE(noop.trace().spans().empty());
  EXPECT_EQ(&noop, &RequestContext::noop());  // shared singleton
}

TEST(RequestContextTest, SpanCloseRecordsLatencyHistogram) {
  SimClock clock;
  MetricsRegistry registry;
  RequestContext context(clock, &registry);
  std::uint64_t span = context.open_span("broker.call", "svc.x");
  clock.advance(Duration(250));
  context.close_span(span);
  MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_NE(snapshot.histogram("latency.broker.call"), nullptr);
  EXPECT_EQ(snapshot.histogram("latency.broker.call")->count, 1u);
  EXPECT_EQ(snapshot.histogram("latency.broker.call")->sum_us, 250u);
}

TEST(RequestContextTest, DeadlineExpiresOnSimClock) {
  SimClock clock;
  RequestContext context(clock, nullptr, Duration(100));
  EXPECT_FALSE(context.expired());
  EXPECT_TRUE(context.check_deadline("ui").ok());
  clock.advance(Duration(101));
  EXPECT_TRUE(context.expired());
  Status late = context.check_deadline("controller");
  EXPECT_EQ(late.code(), ErrorCode::kTimeout);
  EXPECT_NE(late.to_string().find("controller"), std::string::npos);
}

TEST(RequestContextTest, DeadlineBoundaryCountsAsExpired) {
  // At now == deadline the full budget is spent; the boundary instant
  // must not admit one more layer crossing.
  SimClock clock;
  RequestContext context(clock, nullptr, Duration(100));
  clock.advance(Duration(99));
  EXPECT_FALSE(context.expired());
  EXPECT_TRUE(context.check_deadline("broker").ok());
  clock.advance(Duration(1));
  EXPECT_TRUE(context.expired());
  EXPECT_EQ(context.check_deadline("broker").code(), ErrorCode::kTimeout);
}

TEST(AmbientScope, InstallsAndRestoresCurrent) {
  EXPECT_EQ(current(), nullptr);
  RequestContext outer_context;
  {
    ContextScope outer(outer_context);
    EXPECT_EQ(current(), &outer_context);
    RequestContext inner_context;
    {
      ContextScope inner(inner_context);
      EXPECT_EQ(current(), &inner_context);
    }
    EXPECT_EQ(current(), &outer_context);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(AmbientScope, NoopContextNeverMasksOuterRequest) {
  RequestContext real;
  ContextScope outer(real);
  {
    // A legacy call path entered mid-request runs against noop() — it
    // must not hide the traced request from bus stamping underneath.
    ContextScope inner(RequestContext::noop());
    EXPECT_EQ(current(), &real);
  }
  EXPECT_EQ(current(), &real);
}

TEST(AmbientScope, ThreadLocalIsolation) {
  RequestContext context;
  ContextScope scope(context);
  RequestContext* seen = &context;  // sentinel, overwritten by the thread
  std::thread worker([&seen] { seen = current(); });
  worker.join();
  EXPECT_EQ(seen, nullptr);  // other threads see no ambient context
}

// ---- count once: typed views read the registry cells ---------------------

/// Counter names the platform and its ingress registered for the
/// CountOnce run before typed views became views over registry cells,
/// and the cells of the typed views since deleted. A rename or a
/// dropped cell fails here; new cells may be added.
constexpr std::string_view kPinnedCounterNames[] = {
    "autonomic.reactions",
    "autonomic.symptoms_detected",
    "broker.adapter_exceptions",
    "broker.attempt_overruns",
    "broker.breaker_open",
    "broker.breaker_transitions",
    "broker.calls",
    "broker.commands",
    "broker.events_received",
    "broker.fallbacks",
    "broker.late_completions",
    "broker.retries",
    "broker.retry_exhausted",
    "controller.broker_calls",
    "controller.case2",
    "controller.commands",
    "controller.errors",
    "controller.eu_executions",
    "controller.instructions",
    "controller.procedure_pushes",
    "controller.signals",
    "ingress.accepted",
    "ingress.completed_error",
    "ingress.completed_ok",
    "ingress.dedup_expired",
    "ingress.deduped",
    "ingress.malformed",
    "ingress.received",
    "ingress.refused",
    "ingress.refused.no-route",
    "ingress.replies",
    "ingress.reply_failures",
    "ingress.unrouted",
    "requests.failed",
    "requests.submitted",
    "runtime.executor_rejections",
    "runtime.executor_shed",
    "runtime.executor_task_failures",
    "stage.broker.entered",
    "stage.complete.entered",
    "stage.controller.entered",
    "stage.synthesis.entered",
    "synthesis.commands",
    "synthesis.controller_events",
    "synthesis.models",
    "synthesis.rejected_models",
    "synthesis.scripts",
    "ui.shed_expired",
    "ui.shed_predicted",
};

// One platform with an attached ingress, driven through a wire submit
// and query, sync and async submits, one controller error, one
// admission shed and one executor rejection. Each event must land in
// exactly one registry cell, and every typed view must read that cell.
TEST(CountOnce, TypedViewsEqualTheirRegistryCells) {
  std::string text(soak::kSoakMiddlewareModel);
  const std::string anchor = "domain = \"testing\"";
  text.insert(text.find(anchor) + anchor.size(),
              "\n  admission = true\n  queue_capacity = 1");
  core::PlatformConfig config;
  config.dsml = model::testing::make_test_metamodel();
  config.pipeline_threads = 1;
  auto assembled = core::Platform::assemble_from_text(text, config);
  ASSERT_TRUE(assembled.ok()) << assembled.status().to_string();
  core::Platform& platform = *assembled.value();
  auto lever = std::make_unique<soak::LeverAdapter>();
  soak::LeverAdapter& svc = *lever;
  ASSERT_TRUE(platform.add_resource_adapter(std::move(lever)).ok());
  ASSERT_TRUE(platform.start().ok());

  SimClock clock;
  net::Network network(clock);
  auto server = ingress::IngressServer::attach(
      platform, network, {.manual_reply_loop = true});
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client =
      ingress::IngressClient::attach(network, (*server)->endpoint_name());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  auto drive_until = [&](const std::function<bool()>& done) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < give_up) {
      network.run_until_idle();
      (*server)->pump();
      network.run_until_idle();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };

  // Over the wire: one submit that completes, one refused query.
  std::optional<ingress::RemoteOutcome> submitted;
  std::optional<ingress::RemoteOutcome> queried;
  ASSERT_TRUE((*client)
                  ->submit("testlang", "w1", soak::open_session_text("w1"),
                           [&](const ingress::RemoteOutcome& outcome) {
                             submitted = outcome;
                           })
                  .ok());
  ASSERT_TRUE((*client)
                  ->query("no-such-view",
                          [&](const ingress::RemoteOutcome& outcome) {
                            queried = outcome;
                          })
                  .ok());
  ASSERT_TRUE(drive_until(
      [&] { return submitted.has_value() && queried.has_value(); }));
  EXPECT_TRUE(submitted->status.ok()) << submitted->status.to_string();
  EXPECT_EQ(queried->refusal, "no-route");

  // In process: a sync submit, a shed and a controller error.
  EXPECT_TRUE(platform.submit_model_text(soak::open_session_text("s1")).ok());
  obs::RequestContext spent = platform.make_context(Duration(0));
  EXPECT_EQ(platform.submit_model_text(soak::open_session_text("s2"), spent)
                .status()
                .code(),
            ErrorCode::kTimeout);
  EXPECT_TRUE(platform.submit_model_text(soak::open_session_text("bad")).ok());

  // Async: park the only worker, fill the one queue slot, and the next
  // submit is refused by the executor.
  svc.hold_next();
  std::atomic<int> completed{0};
  auto count = [&completed](Result<controller::ControlScript> outcome) {
    EXPECT_TRUE(outcome.ok()) << outcome.status().to_string();
    ++completed;
  };
  ASSERT_TRUE(platform.submit_async(soak::open_session_text("a1"), count).ok());
  svc.wait_parked();
  ASSERT_TRUE(platform.submit_async(soak::open_session_text("a2"), count).ok());
  EXPECT_EQ(platform.submit_async(soak::open_session_text("a3"), count).code(),
            ErrorCode::kUnavailable);
  svc.release();
  ASSERT_TRUE(drive_until([&] { return completed.load() == 2; }));
  ASSERT_TRUE(platform.stop().ok());

  const MetricsSnapshot snapshot = platform.metrics().snapshot();
  const controller::ControllerStats layer = platform.controller().stats();
  const controller::GeneratorStats im =
      platform.controller().generator().stats();
  const std::vector<runtime::Executor::StageStats> stages =
      platform.stage_stats();
  ASSERT_EQ(stages.size(), 4u);
  struct Row {
    std::string cell;
    std::uint64_t view;
  };
  const std::vector<Row> rows = {
      {"controller.signals_received", layer.signals_received},
      {"controller.commands", layer.commands_executed},
      {"controller.case1", layer.case1_executions},
      {"controller.case2", layer.case2_executions},
      {"controller.errors", layer.errors},
      {"controller.events_handled", layer.events_handled},
      {"controller.im_generated", im.generated},
      {"controller.im_validated", im.validated},
      {"controller.im_selected", im.selected},
      {"controller.im_cache_hits", im.cache_hits},
      {"controller.im_cache_misses", im.cache_misses},
      {"controller.im_guard_rejections", im.guard_rejections},
      {"controller.im_cycle_rejections", im.cycle_rejections},
  };
  for (const Row& row : rows) {
    EXPECT_NE(snapshot.counter(row.cell), nullptr) << row.cell;
    EXPECT_EQ(snapshot.counter_value(row.cell), row.view) << row.cell;
  }
  for (const auto& stage : stages) {
    EXPECT_EQ(snapshot.counter_value("stage." + stage.name + ".entered"),
              stage.entered)
        << stage.name;
    EXPECT_EQ(snapshot.counter_value("stage." + stage.name + ".shed"),
              stage.shed)
        << stage.name;
  }
  // Each lever fired once and counted once.
  EXPECT_EQ(layer.errors, 1u);
  EXPECT_EQ(cell_value(snapshot, "synthesis.controller_events"), 1u);
  EXPECT_EQ(snapshot.counter_value("ui.shed_expired"), 1u);
  EXPECT_EQ(cell_value(snapshot, "runtime.executor_rejections"), 1u);
  EXPECT_EQ(cell_value(snapshot, "ingress.refused"), 1u);
  EXPECT_EQ(snapshot.counter_value("ingress.refused.no-route"), 1u);
  // Four sync attempts and three accepted async ones reached the UI
  // layer; the shed one and the refused one failed there.
  EXPECT_EQ(snapshot.counter_value("requests.submitted"), 6u);
  EXPECT_EQ(snapshot.counter_value("requests.failed"), 1u);
  for (std::string_view name : kPinnedCounterNames) {
    EXPECT_NE(snapshot.counter(name), nullptr) << name;
  }

  (*client).reset();
  (*server).reset();
}

// The platform's registry carries the IM cache counters, so the
// query/metrics route reports them.
TEST(CountOnce, PlatformMetricsCarryIntentModelCacheCounters) {
  soak::SoakPlatform soak = soak::make_soak_platform(broker::ChaosConfig{});
  ASSERT_TRUE(soak.ok()) << soak.status.to_string();
  core::Platform& platform = *soak.platform;
  for (const char* id : {"s1", "s2", "s3"}) {
    ASSERT_TRUE(platform.submit_model_text(soak::open_session_text(id)).ok());
  }
  ASSERT_TRUE(platform.stop().ok());
  const controller::GeneratorStats im =
      platform.controller().generator().stats();
  EXPECT_GT(im.cache_hits, 0u);
  EXPECT_GT(im.cache_misses, 0u);
  const MetricsSnapshot snapshot = platform.metrics().snapshot();
  ASSERT_NE(snapshot.counter("controller.im_cache_hits"), nullptr);
  ASSERT_NE(snapshot.counter("controller.im_cache_misses"), nullptr);
  EXPECT_EQ(snapshot.counter_value("controller.im_cache_hits"),
            im.cache_hits);
  EXPECT_EQ(snapshot.counter_value("controller.im_cache_misses"),
            im.cache_misses);
}

}  // namespace
}  // namespace mdsm::obs
