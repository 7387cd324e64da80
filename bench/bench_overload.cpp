// Overload bench (PR 5): goodput, shed rate and tail latency of the
// async request pipeline as offered load sweeps 1x–10x of its nominal
// capacity.
//
// The platform under test is the CVM with model-driven overload
// protection spliced into its MiddlewarePlatform root: a bounded
// pipeline queue (kReject) and deadline-aware admission control. A
// feeder thread paces submit_async() calls at the target rate; every
// request carries the same deadline budget. Per multiplier we record:
//
//   - goodput: requests whose callback delivered Ok, per second;
//   - shed/rejected: refused at the door (admission or full queue) or
//     failed in flight (deadline crossings);
//   - late completions: Ok callbacks delivered after the request's
//     budget — the overload system's contract is that this stays ZERO
//     (doomed work is shed, not finished late);
//   - queue depth high-water vs the configured capacity.
//
// Pass criteria (recorded in BENCH_5.json): bounded depth <= capacity,
// zero late completions at every multiplier, and 10x goodput within 20%
// of the 1x plateau — an unprotected pipeline instead collapses as every
// queued request times out.
//
// Output: human summary on stderr, one JSON document on stdout so
// run_benches.sh can record the rows in BENCH_5.json.
#include <algorithm>
#include <atomic>
#include <chrono>
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

/// Thread-safe stand-in for the comm services: each invocation sleeps
/// for the configured service latency.
class SimulatedCommService final : public broker::ResourceAdapter {
 public:
  SimulatedCommService(std::string name, std::chrono::microseconds delay)
      : ResourceAdapter(std::move(name)), delay_(delay) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)command;
    (void)args;
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return model::Value(true);
  }

 private:
  std::chrono::microseconds delay_;
};

struct BenchConfig {
  int pipeline_threads = 4;
  int queue_capacity = 64;
  int service_delay_us = 300;
  int deadline_ms = 25;
  double seconds_per_step = 1.0;
  bool json_only = false;
};

/// The CVM middleware model with the PR-5 overload attributes spliced
/// into its MiddlewarePlatform root — the same model-driven path the
/// platform decodes queue_capacity / overflow_policy / admission from.
std::string overload_cvm_text(const BenchConfig& config) {
  std::string text(comm::cvm_middleware_model_text());
  const std::string anchor = "domain = \"communication\"";
  std::string attrs = "\n  queue_capacity = " +
                      std::to_string(config.queue_capacity) +
                      "\n  overflow_policy = reject"
                      "\n  admission = true";
  text.insert(text.find(anchor) + anchor.size(), attrs);
  return text;
}

std::string scenario_text(int rep) {
  std::string id = numbered("c", rep);
  return "model app_" + id + " conforms cml\nobject Connection " + id +
         " { state = pending }\n";
}

struct Row {
  double multiplier = 0.0;
  double offered_rps = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t refused = 0;       ///< non-Ok submit_async (door)
  std::uint64_t completed_ok = 0;  ///< callback with Ok
  std::uint64_t failed = 0;        ///< callback with non-Ok
  std::uint64_t late = 0;          ///< Ok callbacks past the deadline
  std::uint64_t shed_expired = 0;
  std::uint64_t shed_predicted = 0;
  std::uint64_t queue_rejections = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t max_bounded_pending = 0;  ///< entry backlog high-water
  double goodput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Result<Row> run_step(const BenchConfig& config, double multiplier,
                     double capacity_rps) {
  core::PlatformConfig platform_config;
  platform_config.dsml = comm::cml_metamodel();
  platform_config.pipeline_threads =
      static_cast<unsigned>(config.pipeline_threads);
  auto assembled = core::Platform::assemble_from_text(
      overload_cvm_text(config), platform_config);
  if (!assembled.ok()) return assembled.status();
  auto platform = std::move(assembled.value());
  MDSM_RETURN_IF_ERROR(platform->add_resource_adapter(
      std::make_unique<SimulatedCommService>(
          "comm", std::chrono::microseconds(config.service_delay_us))));
  MDSM_RETURN_IF_ERROR(platform->start());

  const double offered_rps = multiplier * capacity_rps;
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / offered_rps));
  const int total = static_cast<int>(offered_rps * config.seconds_per_step);
  const Duration deadline = std::chrono::milliseconds(config.deadline_ms);

  std::mutex done_mutex;
  std::uint64_t completed_ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t late = 0;
  std::vector<double> ok_latencies_us;
  ok_latencies_us.reserve(static_cast<std::size_t>(total));
  std::atomic<int> outstanding{0};

  Row row;
  row.multiplier = multiplier;
  row.offered_rps = offered_rps;
  core::SubmitOptions options;
  options.deadline = deadline;

  const auto start = std::chrono::steady_clock::now();
  auto next_at = start;
  for (int r = 0; r < total; ++r) {
    std::this_thread::sleep_until(next_at);
    next_at += interval;
    const auto enqueued = std::chrono::steady_clock::now();
    ++row.submitted;
    outstanding.fetch_add(1, std::memory_order_relaxed);
    Status queued = platform->submit_async(
        scenario_text(r),
        [&, enqueued](Result<controller::ControlScript> outcome) {
          const double latency_us =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - enqueued)
                  .count();
          {
            std::lock_guard lock(done_mutex);
            if (outcome.ok()) {
              ++completed_ok;
              ok_latencies_us.push_back(latency_us);
              if (latency_us >
                  static_cast<double>(config.deadline_ms) * 1000.0) {
                ++late;
              }
            } else {
              ++failed;
            }
          }
          outstanding.fetch_sub(1, std::memory_order_relaxed);
        },
        options);
    if (!queued.ok()) {
      ++row.refused;
      outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  while (outstanding.load(std::memory_order_relaxed) != 0) {
    std::this_thread::yield();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto snapshot = platform->metrics().snapshot();
  row.shed_expired = snapshot.counter_value("ui.shed_expired");
  row.shed_predicted = snapshot.counter_value("ui.shed_predicted");
  row.queue_rejections = snapshot.counter_value("runtime.executor_rejections");
  const core::Platform::PipelineStats stats = platform->pipeline_stats();
  row.max_pending = stats.max_pending;
  row.max_bounded_pending = stats.max_bounded_pending;
  MDSM_RETURN_IF_ERROR(platform->stop());

  row.completed_ok = completed_ok;
  row.failed = failed;
  row.late = late;
  row.goodput_rps = elapsed_s > 0.0
                        ? static_cast<double>(completed_ok) / elapsed_s
                        : 0.0;
  std::sort(ok_latencies_us.begin(), ok_latencies_us.end());
  if (!ok_latencies_us.empty()) {
    row.p50_us = ok_latencies_us[ok_latencies_us.size() / 2];
    row.p99_us = ok_latencies_us[std::min(ok_latencies_us.size() - 1,
                                          ok_latencies_us.size() * 99 / 100)];
  }
  return row;
}

void print_row_json(const Row& row, bool last) {
  std::printf(
      "    {\"multiplier\": %.1f, \"offered_rps\": %.0f, \"submitted\": %llu, "
      "\"refused\": %llu, \"completed_ok\": %llu, \"failed\": %llu, "
      "\"late\": %llu, \"shed_expired\": %llu, \"shed_predicted\": %llu, "
      "\"queue_rejections\": %llu, \"max_pending\": %llu, "
      "\"max_bounded_pending\": %llu, "
      "\"goodput_rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
      row.multiplier, row.offered_rps,
      static_cast<unsigned long long>(row.submitted),
      static_cast<unsigned long long>(row.refused),
      static_cast<unsigned long long>(row.completed_ok),
      static_cast<unsigned long long>(row.failed),
      static_cast<unsigned long long>(row.late),
      static_cast<unsigned long long>(row.shed_expired),
      static_cast<unsigned long long>(row.shed_predicted),
      static_cast<unsigned long long>(row.queue_rejections),
      static_cast<unsigned long long>(row.max_pending),
      static_cast<unsigned long long>(row.max_bounded_pending),
      row.goodput_rps, row.p50_us, row.p99_us, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.seconds_per_step = 0.2;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      config.seconds_per_step = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--capacity") == 0 && i + 1 < argc) {
      config.queue_capacity = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--service-delay-us") == 0 &&
               i + 1 < argc) {
      config.service_delay_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seconds S] [--capacity N] "
                   "[--service-delay-us D] [--json]\n",
                   argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kOff);

  // Nominal capacity of the pipeline: each request costs two service
  // invocations (session signalling + media path) serialized on one of
  // the pipeline workers.
  const double request_cost_s = 2.0 * config.service_delay_us * 1e-6;
  const double capacity_rps =
      static_cast<double>(config.pipeline_threads) / request_cost_s;

  const double multipliers[] = {1.0, 2.0, 4.0, 6.0, 8.0, 10.0};
  std::vector<Row> rows;
  for (double multiplier : multipliers) {
    auto row = run_step(config, multiplier, capacity_rps);
    if (!row.ok()) {
      std::fprintf(stderr, "bench step failed: %s\n",
                   row.status().to_string().c_str());
      return 1;
    }
    rows.push_back(std::move(row.value()));
  }

  double plateau = rows.front().goodput_rps;
  double goodput_10x = rows.back().goodput_rps;
  std::uint64_t total_late = 0;
  std::uint64_t worst_depth = 0;
  if (!config.json_only) {
    std::fprintf(stderr, "%6s %12s %10s %9s %9s %6s %10s %10s %8s\n", "mult",
                 "offered/s", "goodput/s", "refused", "failed", "late",
                 "p99 us", "depth", "cap");
  }
  for (const Row& row : rows) {
    total_late += row.late;
    // The capacity bound governs the entry backlog; continuation hops of
    // the staged pipeline ride above it by design, so the gate checks
    // the bounded gauge.
    worst_depth = std::max(worst_depth, row.max_bounded_pending);
    if (!config.json_only) {
      std::fprintf(stderr,
                   "%6.1f %12.0f %10.1f %9llu %9llu %6llu %10.1f %10llu %8d\n",
                   row.multiplier, row.offered_rps, row.goodput_rps,
                   static_cast<unsigned long long>(row.refused),
                   static_cast<unsigned long long>(row.failed),
                   static_cast<unsigned long long>(row.late), row.p99_us,
                   static_cast<unsigned long long>(row.max_bounded_pending),
                   config.queue_capacity);
    }
  }
  const double retention = plateau > 0.0 ? goodput_10x / plateau : 0.0;
  const bool depth_ok =
      worst_depth <= static_cast<std::uint64_t>(config.queue_capacity);
  const bool pass = depth_ok && total_late == 0 && retention >= 0.8;
  if (!config.json_only) {
    std::fprintf(stderr,
                 "\n10x goodput retention vs 1x plateau: %.2f (target >= "
                 "0.80), late completions: %llu (target 0), max depth %llu "
                 "<= capacity %d: %s\n",
                 retention, static_cast<unsigned long long>(total_late),
                 static_cast<unsigned long long>(worst_depth),
                 config.queue_capacity, depth_ok ? "yes" : "NO");
  }

  std::printf("{\n  \"bench\": \"overload\", \"scenario\": \"cvm_bounded\", "
              "\"pipeline_threads\": %d, \"queue_capacity\": %d, "
              "\"service_delay_us\": %d, \"deadline_ms\": %d, "
              "\"capacity_rps\": %.0f,\n  \"rows\": [\n",
              config.pipeline_threads, config.queue_capacity,
              config.service_delay_us, config.deadline_ms, capacity_rps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    print_row_json(rows[i], i + 1 == rows.size());
  }
  std::printf("  ],\n  \"goodput_retention_10x\": %.3f, "
              "\"late_completions\": %llu, \"max_depth\": %llu, "
              "\"pass\": %s\n}\n",
              retention, static_cast<unsigned long long>(total_late),
              static_cast<unsigned long long>(worst_depth),
              pass ? "true" : "false");
  return pass ? 0 : 1;
}
