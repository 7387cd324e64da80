// Throughput bench for the concurrent request pipeline (PR 3): aggregate
// submissions/sec of Platform::submit_model_text at 1/2/4/8 client
// threads on the CVM comm scenario mix, against a simulated comm service
// with realistic per-invocation latency.
//
// Two synchronous modes measure the tentpole change directly:
//   serialized_baseline — every submission runs under one global mutex,
//     reproducing the pre-PR Platform::submit_mutex_ behaviour where N
//     client threads collapse to single-threaded throughput (resource
//     waits included).
//   concurrent_pipeline — submissions run concurrently; only the
//     synthesis model swap serializes, so client threads overlap their
//     controller work and broker/resource waits.
// The async_staged row (PR 6) drives submit_async() — the event-driven
// staged core: each layer hop is a continuation, waits park on the
// event loop — under a closed-loop feeder (bounded in-flight window, so
// latency measures the pipeline, not open-loop queue buildup). The
// inflight_staged row measures requests-in-flight-per-core against a
// "device" that completes asynchronously after 5ms: the staged core
// parks every request on the event loop instead of holding a worker.
//
// Output: human summary on stderr, one JSON document on stdout so
// run_benches.sh can record the rows in BENCH_6.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"

namespace {

using namespace mdsm;

/// Bench-local thread-safe stand-in for the comm services: every
/// invocation sleeps for the configured service latency (session
/// signalling / media path setup are network operations in the CVM) and
/// counts itself. No shared mutable state beyond the atomic counter.
class SimulatedCommService final : public broker::ResourceAdapter {
 public:
  SimulatedCommService(std::string name, std::chrono::microseconds delay)
      : ResourceAdapter(std::move(name)), delay_(delay) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)command;
    (void)args;
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    invocations_.fetch_add(1, std::memory_order_relaxed);
    return model::Value(true);
  }

  [[nodiscard]] std::uint64_t invocations() const noexcept {
    return invocations_.load(std::memory_order_relaxed);
  }

 private:
  std::chrono::microseconds delay_;
  std::atomic<std::uint64_t> invocations_{0};
};

/// A "device" whose operations take 5ms of wall time but no thread:
/// execute_async() parks the request on the platform's event loop and
/// completes from a timer (a synchronous execute() would sleep the
/// caller instead). Tracks the high-water mark of concurrently
/// outstanding operations.
class ParkingCommService final : public broker::ResourceAdapter {
 public:
  ParkingCommService(std::string name, core::Platform** platform,
                     std::chrono::microseconds delay)
      : ResourceAdapter(std::move(name)), platform_(platform), delay_(delay) {}

  Result<model::Value> execute(const std::string&,
                               const broker::Args&) override {
    enter();
    std::this_thread::sleep_for(delay_);
    leave();
    return model::Value(true);
  }

  void execute_async(const std::string&, const broker::Args&,
                     Completion done) override {
    enter();
    (*platform_)->event_loop()->schedule(
        std::chrono::duration_cast<Duration>(delay_),
        [this, done = std::move(done)] {
          leave();
          done(model::Value(true));
        });
  }

  [[nodiscard]] std::uint64_t max_inflight() const noexcept {
    return max_inflight_.load(std::memory_order_relaxed);
  }

 private:
  void enter() {
    std::uint64_t now = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::uint64_t seen = max_inflight_.load(std::memory_order_relaxed);
    while (now > seen && !max_inflight_.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
  }
  void leave() { inflight_.fetch_sub(1, std::memory_order_acq_rel); }

  core::Platform** platform_;
  std::chrono::microseconds delay_;
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> max_inflight_{0};
};

/// The comm scenario mix: three application-model shapes rotated per
/// request, each with a unique Connection id so every submission drives
/// the full path (synthesis diff -> Case-2 session establishment with
/// IM generation/cache -> Case-1 pass-throughs -> broker -> resource).
std::string scenario_text(int variant, int thread, int rep) {
  std::string id = numbered("c", thread) + numbered("_", rep);
  std::string text = "model app_" + id + " conforms cml\n";
  switch (variant % 3) {
    case 0:  // bare session establishment (Case 2, IM cache hot path)
      text += "object Connection " + id + " { state = pending }\n";
      break;
    case 1:  // session + two parties (adds Case-1 pass-through actions)
      text += "object Connection " + id + " {\n  state = pending\n" +
              "  child participants Participant pa_" + id +
              " { address = \"a@net\" }\n" +
              "  child participants Participant pb_" + id +
              " { address = \"b@net\" }\n}\n";
      break;
    default:  // session + party + medium (Case-2 media path w/ dependency)
      text += "object Connection " + id + " {\n  state = pending\n" +
              "  child participants Participant pa_" + id +
              " { address = \"a@net\" }\n" +
              "  child media Medium m_" + id + " { kind = audio }\n}\n";
      break;
  }
  return text;
}

struct BenchConfig {
  int reps_per_thread = 200;
  int service_delay_us = 200;
  bool json_only = false;
};

struct Row {
  std::string mode;
  int threads = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  double elapsed_ms = 0.0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t max_inflight = 0;    ///< in-flight rows only
  double inflight_per_core = 0.0;    ///< max_inflight / pipeline threads
};

Result<std::unique_ptr<core::Platform>> make_bench_platform(
    const BenchConfig& config, unsigned pipeline_threads,
    std::unique_ptr<broker::ResourceAdapter> service = nullptr) {
  core::PlatformConfig platform_config;
  platform_config.dsml = comm::cml_metamodel();
  platform_config.pipeline_threads = pipeline_threads;
  auto platform = core::Platform::assemble_from_text(
      comm::cvm_middleware_model_text(), platform_config);
  if (!platform.ok()) return platform.status();
  if (service == nullptr) {
    service = std::make_unique<SimulatedCommService>(
        "comm", std::chrono::microseconds(config.service_delay_us));
  }
  MDSM_RETURN_IF_ERROR((*platform)->add_resource_adapter(std::move(service)));
  MDSM_RETURN_IF_ERROR((*platform)->start());
  return platform;
}

void finish_row(Row& row, std::vector<double>& latencies_us,
                double elapsed_ms) {
  std::sort(latencies_us.begin(), latencies_us.end());
  row.requests = latencies_us.size();
  row.elapsed_ms = elapsed_ms;
  row.rps = elapsed_ms > 0.0
                ? static_cast<double>(row.requests) / (elapsed_ms / 1000.0)
                : 0.0;
  if (!latencies_us.empty()) {
    row.p50_us = latencies_us[latencies_us.size() / 2];
    row.p99_us = latencies_us[std::min(latencies_us.size() - 1,
                                       latencies_us.size() * 99 / 100)];
  }
}

/// Synchronous mode: `threads` client threads each submit
/// `reps_per_thread` scenario-mix models. With `serialize`, the whole
/// submission (context mint + submit) runs under one global mutex — the
/// pre-PR submit path.
Result<Row> run_sync(const BenchConfig& config, int threads, bool serialize) {
  auto platform = make_bench_platform(config, 1);
  if (!platform.ok()) return platform.status();
  core::Platform& p = **platform;

  SteadyClock clock;
  std::mutex submit_mutex;  // the resurrected global submit lock
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::vector<double>> per_thread(
      static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& latencies = per_thread[static_cast<std::size_t>(t)];
      latencies.reserve(static_cast<std::size_t>(config.reps_per_thread));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < config.reps_per_thread; ++r) {
        std::string text = scenario_text(t + r, t, r);
        Stopwatch watch(clock);
        bool ok = false;
        if (serialize) {
          std::lock_guard lock(submit_mutex);
          obs::RequestContext request = p.make_context();
          ok = p.submit_model_text(text, request).ok();
        } else {
          obs::RequestContext request = p.make_context();
          ok = p.submit_model_text(text, request).ok();
        }
        latencies.push_back(watch.elapsed_ms() * 1000.0);
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  Stopwatch wall(clock);
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  double elapsed_ms = wall.elapsed_ms();

  Row row;
  row.mode = serialize ? "serialized_baseline" : "concurrent_pipeline";
  row.threads = threads;
  row.failures = failures.load();
  std::vector<double> all;
  for (auto& batch : per_thread) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  finish_row(row, all, elapsed_ms);
  return row;
}

/// Async mode (PR 6): a closed-loop feeder keeps at most 2×width
/// requests in flight through submit_async() — latency then measures
/// the pipeline itself, not the open-loop queue an all-at-once feeder
/// builds.
Result<Row> run_async(const BenchConfig& config, int width) {
  auto platform = make_bench_platform(config, static_cast<unsigned>(width));
  if (!platform.ok()) return platform.status();
  core::Platform& p = **platform;

  SteadyClock clock;
  const int total = config.reps_per_thread * width;
  const int window = 2 * width;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  int completed = 0;
  int inflight = 0;
  std::uint64_t failures = 0;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(total));

  Stopwatch wall(clock);
  for (int r = 0; r < total; ++r) {
    {
      std::unique_lock lock(done_mutex);
      done_cv.wait(lock, [&] { return inflight < window; });
      ++inflight;
    }
    TimePoint enqueued = clock.now();
    Status queued = p.submit_async(
        scenario_text(r, width, r),
        [&, enqueued](Result<controller::ControlScript> script) {
          double latency_us =
              std::chrono::duration<double, std::micro>(clock.now() -
                                                        enqueued)
                  .count();
          std::lock_guard lock(done_mutex);
          latencies_us.push_back(latency_us);
          if (!script.ok()) ++failures;
          ++completed;
          --inflight;
          done_cv.notify_all();
        });
    if (!queued.ok()) return queued;
  }
  std::unique_lock done(done_mutex);
  done_cv.wait(done, [&] { return completed == total; });
  double elapsed_ms = wall.elapsed_ms();

  Row row;
  row.mode = "async_staged";
  row.threads = width;
  row.failures = failures;
  finish_row(row, latencies_us, elapsed_ms);
  return row;
}

/// In-flight rows (PR 6): `total` requests against a device that takes
/// 5ms per operation but no thread — all submitted at once over a small
/// worker pool. The staged core parks every request on the event loop,
/// so in-flight-per-core is the request count over the pool size.
Result<Row> run_inflight(const BenchConfig& config) {
  constexpr unsigned kWorkers = 2;
  const int total = config.reps_per_thread;
  core::Platform* handle = nullptr;
  auto service = std::make_unique<ParkingCommService>(
      "comm", &handle, std::chrono::milliseconds(5));
  ParkingCommService* device = service.get();
  auto platform = make_bench_platform(config, kWorkers, std::move(service));
  if (!platform.ok()) return platform.status();
  core::Platform& p = **platform;
  handle = &p;

  SteadyClock clock;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  int completed = 0;
  std::uint64_t failures = 0;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(total));

  Stopwatch wall(clock);
  for (int r = 0; r < total; ++r) {
    TimePoint enqueued = clock.now();
    Status queued = p.submit_async(
        scenario_text(r, 1, r),
        [&, enqueued](Result<controller::ControlScript> script) {
          double latency_us =
              std::chrono::duration<double, std::micro>(clock.now() -
                                                        enqueued)
                  .count();
          std::lock_guard lock(done_mutex);
          latencies_us.push_back(latency_us);
          if (!script.ok()) ++failures;
          ++completed;
          done_cv.notify_one();
        });
    if (!queued.ok()) return queued;
  }
  std::unique_lock done(done_mutex);
  done_cv.wait(done, [&] { return completed == total; });
  double elapsed_ms = wall.elapsed_ms();

  Row row;
  row.mode = "inflight_staged";
  row.threads = static_cast<int>(kWorkers);
  row.failures = failures;
  finish_row(row, latencies_us, elapsed_ms);
  row.max_inflight = device->max_inflight();
  row.inflight_per_core =
      static_cast<double>(row.max_inflight) / static_cast<double>(kWorkers);
  return row;
}

void print_row_json(const Row& row, bool last) {
  std::printf("    {\"mode\": \"%s\", \"threads\": %d, \"requests\": %llu, "
              "\"failures\": %llu, \"elapsed_ms\": %.2f, \"rps\": %.1f, "
              "\"p50_us\": %.1f, \"p99_us\": %.1f, \"max_inflight\": %llu, "
              "\"inflight_per_core\": %.1f}%s\n",
              row.mode.c_str(), row.threads,
              static_cast<unsigned long long>(row.requests),
              static_cast<unsigned long long>(row.failures), row.elapsed_ms,
              row.rps, row.p50_us, row.p99_us,
              static_cast<unsigned long long>(row.max_inflight),
              row.inflight_per_core, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.reps_per_thread = 20;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      config.reps_per_thread = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--service-delay-us") == 0 &&
               i + 1 < argc) {
      config.service_delay_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--reps N] [--service-delay-us D] "
                   "[--json]\n",
                   argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kOff);

  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<Row> rows;
  for (bool serialize : {true, false}) {
    for (int threads : thread_counts) {
      auto row = run_sync(config, threads, serialize);
      if (!row.ok()) {
        std::fprintf(stderr, "bench run failed: %s\n",
                     row.status().to_string().c_str());
        return 1;
      }
      rows.push_back(std::move(row.value()));
    }
  }
  auto async_row = run_async(config, 8);
  if (!async_row.ok()) {
    std::fprintf(stderr, "async bench run failed: %s\n",
                 async_row.status().to_string().c_str());
    return 1;
  }
  rows.push_back(std::move(async_row.value()));
  auto inflight_row = run_inflight(config);
  if (!inflight_row.ok()) {
    std::fprintf(stderr, "inflight bench run failed: %s\n",
                 inflight_row.status().to_string().c_str());
    return 1;
  }
  rows.push_back(std::move(inflight_row.value()));

  double baseline_8 = 0.0;
  double pipeline_8 = 0.0;
  double staged_p50_us = 0.0;
  std::uint64_t total_failures = 0;
  if (!config.json_only) {
    std::fprintf(stderr, "%-22s %8s %10s %12s %10s %10s\n", "mode", "threads",
                 "requests", "req/s", "p50 us", "p99 us");
  }
  for (const Row& row : rows) {
    if (!config.json_only) {
      std::fprintf(stderr, "%-22s %8d %10llu %12.1f %10.1f %10.1f\n",
                   row.mode.c_str(), row.threads,
                   static_cast<unsigned long long>(row.requests), row.rps,
                   row.p50_us, row.p99_us);
    }
    if (row.threads == 8 && row.mode == "serialized_baseline") {
      baseline_8 = row.rps;
    }
    if (row.threads == 8 && row.mode == "concurrent_pipeline") {
      pipeline_8 = row.rps;
    }
    if (row.mode == "async_staged") {
      staged_p50_us = row.p50_us;
    }
    total_failures += row.failures;
  }
  double speedup_8 = baseline_8 > 0.0 ? pipeline_8 / baseline_8 : 0.0;
  if (!config.json_only) {
    std::fprintf(stderr,
                 "\n8-thread aggregate speedup vs serialized baseline: "
                 "%.2fx (target >= 3x)\n",
                 speedup_8);
    std::fprintf(stderr,
                 "async staged p50 at 8 pipeline threads: %.1f us "
                 "(guard < 10000)\n",
                 staged_p50_us);
  }

  std::printf("{\n  \"bench\": \"throughput\", \"scenario\": \"cvm_mix\", "
              "\"service_delay_us\": %d, \"reps_per_thread\": %d,\n"
              "  \"rows\": [\n",
              config.service_delay_us, config.reps_per_thread);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    print_row_json(rows[i], i + 1 == rows.size());
  }
  const bool p50_ok = staged_p50_us > 0.0 && staged_p50_us < 10'000.0;
  std::printf("  ],\n  \"speedup_8t\": %.2f, \"target_speedup\": 3.0,\n"
              "  \"async_staged_p50_us\": %.1f, \"p50_guard_us\": 10000,\n"
              "  \"pass\": %s\n}\n",
              speedup_8, staged_p50_us,
              speedup_8 >= 3.0 && p50_ok && total_failures == 0 ? "true"
                                                                : "false");
  return total_failures == 0 && p50_ok ? 0 : 1;
}
