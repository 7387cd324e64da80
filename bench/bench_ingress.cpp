// Ingress bench (PR 7): what does the networked front-end cost? The same
// CVM platform is loaded two ways at each offered-load multiplier —
//
//   in-process:    a feeder thread calls submit_async() directly
//                  (the PR-5/PR-6 baseline);
//   over-the-wire: an IngressClient submits through the simulated
//                  network into an IngressServer, whose router +
//                  middleware chain hand the request to the same
//                  submit_async(), and every outcome travels back as a
//                  typed reply.
//
// A driver thread slaves the network's SimClock to real time, so wire
// latency (100us each way here) and codec/routing overhead show up in
// the measured latencies exactly once. Per (mode, multiplier) we record
// goodput, typed-refusal counts and p50/p99 of the successful requests.
//
// Pass criterion (recorded in BENCH_7.json): over-the-wire goodput at 1x
// stays within 70% of in-process goodput at 1x — the front-end may tax
// each request with codec + two hops, but it must not throttle a
// pipeline that is keeping up. At 10x both deployments shed via the
// PR-5 admission gates; the wire rows show the refusals arriving as
// typed replies instead of silence.
//
// Output: human summary on stderr, one JSON document on stdout so
// run_benches.sh can record the rows in BENCH_7.json.
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
#include "ingress/ingress_client.hpp"
#include "ingress/ingress_server.hpp"
#include "net/network.hpp"

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
  int wire_latency_us = 100;
  double seconds_per_step = 1.0;
  bool json_only = false;
};

/// The CVM middleware model with the PR-5 overload attributes spliced
/// into its MiddlewarePlatform root, so both deployments shed instead of
/// collapsing at 10x.
std::string ingress_cvm_text(const BenchConfig& config) {
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

enum class Mode { kInProcess, kOverTheWire };

struct Row {
  Mode mode = Mode::kInProcess;
  double multiplier = 0.0;
  double offered_rps = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t refused = 0;  ///< door refusals + typed refusal replies
  double goodput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Result<std::unique_ptr<core::Platform>> make_platform(
    const BenchConfig& config) {
  core::PlatformConfig platform_config;
  platform_config.dsml = comm::cml_metamodel();
  platform_config.pipeline_threads =
      static_cast<unsigned>(config.pipeline_threads);
  auto assembled = core::Platform::assemble_from_text(
      ingress_cvm_text(config), platform_config);
  if (!assembled.ok()) return assembled.status();
  auto platform = std::move(assembled.value());
  MDSM_RETURN_IF_ERROR(platform->add_resource_adapter(
      std::make_unique<SimulatedCommService>(
          "comm", std::chrono::microseconds(config.service_delay_us))));
  MDSM_RETURN_IF_ERROR(platform->start());
  return platform;
}

/// Shared per-step ledger; finalizes goodput and percentiles.
struct Ledger {
  std::mutex mutex;
  std::uint64_t completed_ok = 0;
  std::uint64_t refused = 0;
  std::vector<double> ok_latencies_us;
  std::atomic<int> outstanding{0};

  void resolve(bool ok, double latency_us) {
    {
      std::lock_guard lock(mutex);
      if (ok) {
        ++completed_ok;
        ok_latencies_us.push_back(latency_us);
      } else {
        ++refused;
      }
    }
    outstanding.fetch_sub(1, std::memory_order_relaxed);
  }

  void finalize(Row& row, double elapsed_s) {
    row.completed_ok = completed_ok;
    row.refused = refused;
    row.goodput_rps =
        elapsed_s > 0.0 ? static_cast<double>(completed_ok) / elapsed_s : 0.0;
    std::sort(ok_latencies_us.begin(), ok_latencies_us.end());
    if (!ok_latencies_us.empty()) {
      row.p50_us = ok_latencies_us[ok_latencies_us.size() / 2];
      row.p99_us = ok_latencies_us[std::min(
          ok_latencies_us.size() - 1, ok_latencies_us.size() * 99 / 100)];
    }
  }
};

Result<Row> run_in_process(const BenchConfig& config, double multiplier,
                           double capacity_rps) {
  auto platform = make_platform(config);
  if (!platform.ok()) return platform.status();

  const double offered_rps = multiplier * capacity_rps;
  const auto interval =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / offered_rps));
  const int total = static_cast<int>(offered_rps * config.seconds_per_step);

  Row row;
  row.mode = Mode::kInProcess;
  row.multiplier = multiplier;
  row.offered_rps = offered_rps;
  Ledger ledger;
  ledger.ok_latencies_us.reserve(static_cast<std::size_t>(total));
  core::SubmitOptions options;
  options.deadline = std::chrono::milliseconds(config.deadline_ms);

  const auto start = std::chrono::steady_clock::now();
  auto next_at = start;
  for (int r = 0; r < total; ++r) {
    std::this_thread::sleep_until(next_at);
    next_at += interval;
    const auto enqueued = std::chrono::steady_clock::now();
    ++row.submitted;
    ledger.outstanding.fetch_add(1, std::memory_order_relaxed);
    Status queued = platform.value()->submit_async(
        scenario_text(r),
        [&ledger, enqueued](Result<controller::ControlScript> outcome) {
          ledger.resolve(outcome.ok(),
                         std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - enqueued)
                             .count());
        },
        options);
    if (!queued.ok()) ledger.resolve(false, 0.0);
  }
  while (ledger.outstanding.load(std::memory_order_relaxed) != 0) {
    std::this_thread::yield();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  MDSM_RETURN_IF_ERROR(platform.value()->stop());
  ledger.finalize(row, elapsed_s);
  return row;
}

Result<Row> run_over_the_wire(const BenchConfig& config, double multiplier,
                              double capacity_rps) {
  auto platform = make_platform(config);
  if (!platform.ok()) return platform.status();

  SimClock sim;
  net::NetworkConfig network_config;
  network_config.base_latency =
      std::chrono::microseconds(config.wire_latency_us);
  network_config.jitter = Duration(0);
  network_config.drop_rate = 0.0;
  net::Network network(sim, network_config);

  auto server = ingress::IngressServer::attach(*platform.value(), network);
  if (!server.ok()) return server.status();
  auto client =
      ingress::IngressClient::attach(network, server.value()->endpoint_name());
  if (!client.ok()) return client.status();

  // The driver slaves the SimClock to real time and pumps deliveries:
  // requests into the server's handler, replies back into the client's.
  std::atomic<bool> stop{false};
  std::thread driver([&] {
    // Tracking an absolute target avoids accumulating truncation drift.
    const auto origin = std::chrono::steady_clock::now();
    Duration advanced{0};
    while (!stop.load(std::memory_order_acquire)) {
      const auto target = std::chrono::duration_cast<Duration>(
          std::chrono::steady_clock::now() - origin);
      if (target > advanced) {
        sim.advance(target - advanced);
        advanced = target;
      }
      network.deliver_due();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // Final drain: let every in-flight message and reply land.
    sim.advance(std::chrono::seconds(1));
    network.run_until_idle();
  });

  const double offered_rps = multiplier * capacity_rps;
  const auto interval =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / offered_rps));
  const int total = static_cast<int>(offered_rps * config.seconds_per_step);

  Row row;
  row.mode = Mode::kOverTheWire;
  row.multiplier = multiplier;
  row.offered_rps = offered_rps;
  Ledger ledger;
  ledger.ok_latencies_us.reserve(static_cast<std::size_t>(total));
  ingress::RemoteSubmitOptions options;
  options.deadline = std::chrono::milliseconds(config.deadline_ms);

  const auto start = std::chrono::steady_clock::now();
  auto next_at = start;
  for (int r = 0; r < total; ++r) {
    std::this_thread::sleep_until(next_at);
    next_at += interval;
    const auto enqueued = std::chrono::steady_clock::now();
    ++row.submitted;
    ledger.outstanding.fetch_add(1, std::memory_order_relaxed);
    auto submitted = client.value()->submit(
        "cml", numbered("s", r), scenario_text(r),
        [&ledger, enqueued](const ingress::RemoteOutcome& outcome) {
          ledger.resolve(outcome.status.ok(),
                         std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - enqueued)
                             .count());
        },
        options);
    if (!submitted.ok()) ledger.resolve(false, 0.0);
  }
  // Every request resolves: success reply, typed refusal reply, or (with
  // a lossless link, only if something went badly wrong) expiry.
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ledger.outstanding.load(std::memory_order_relaxed) != 0 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (ledger.outstanding.load(std::memory_order_relaxed) != 0) {
    sim.advance(std::chrono::minutes(10));
    client.value()->expire_overdue();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  MDSM_RETURN_IF_ERROR(platform.value()->stop());
  stop.store(true, std::memory_order_release);
  driver.join();
  client.value().reset();
  server.value().reset();
  ledger.finalize(row, elapsed_s);
  return row;
}

void print_row_json(const Row& row, bool last) {
  std::printf(
      "    {\"mode\": \"%s\", \"multiplier\": %.1f, \"offered_rps\": %.0f, "
      "\"submitted\": %llu, \"completed_ok\": %llu, \"refused\": %llu, "
      "\"goodput_rps\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
      row.mode == Mode::kInProcess ? "in-process" : "wire", row.multiplier,
      row.offered_rps, static_cast<unsigned long long>(row.submitted),
      static_cast<unsigned long long>(row.completed_ok),
      static_cast<unsigned long long>(row.refused), row.goodput_rps,
      row.p50_us, row.p99_us, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.seconds_per_step = 0.2;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      config.seconds_per_step = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--service-delay-us") == 0 &&
               i + 1 < argc) {
      config.service_delay_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--wire-latency-us") == 0 &&
               i + 1 < argc) {
      config.wire_latency_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seconds S] [--service-delay-us D] "
                   "[--wire-latency-us L] [--json]\n",
                   argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kOff);

  // Nominal pipeline capacity, as in bench_overload: each request costs
  // two serialized service invocations on one worker.
  const double request_cost_s = 2.0 * config.service_delay_us * 1e-6;
  const double capacity_rps =
      static_cast<double>(config.pipeline_threads) / request_cost_s;

  const double multipliers[] = {1.0, 10.0};
  std::vector<Row> rows;
  for (double multiplier : multipliers) {
    for (Mode mode : {Mode::kInProcess, Mode::kOverTheWire}) {
      auto row = mode == Mode::kInProcess
                     ? run_in_process(config, multiplier, capacity_rps)
                     : run_over_the_wire(config, multiplier, capacity_rps);
      if (!row.ok()) {
        std::fprintf(stderr, "bench step failed: %s\n",
                     row.status().to_string().c_str());
        return 1;
      }
      rows.push_back(std::move(row.value()));
    }
  }

  double inproc_1x = 0.0;
  double wire_1x = 0.0;
  if (!config.json_only) {
    std::fprintf(stderr, "%12s %6s %12s %10s %10s %9s %10s %10s\n", "mode",
                 "mult", "offered/s", "goodput/s", "ok", "refused", "p50 us",
                 "p99 us");
  }
  for (const Row& row : rows) {
    if (row.multiplier == 1.0 && row.mode == Mode::kInProcess) {
      inproc_1x = row.goodput_rps;
    }
    if (row.multiplier == 1.0 && row.mode == Mode::kOverTheWire) {
      wire_1x = row.goodput_rps;
    }
    if (!config.json_only) {
      std::fprintf(
          stderr, "%12s %6.1f %12.0f %10.1f %10llu %9llu %10.1f %10.1f\n",
          row.mode == Mode::kInProcess ? "in-process" : "wire", row.multiplier,
          row.offered_rps, row.goodput_rps,
          static_cast<unsigned long long>(row.completed_ok),
          static_cast<unsigned long long>(row.refused), row.p50_us,
          row.p99_us);
    }
  }
  const double ratio = inproc_1x > 0.0 ? wire_1x / inproc_1x : 0.0;
  const bool pass = ratio >= 0.7;
  if (!config.json_only) {
    std::fprintf(stderr,
                 "\nwire goodput at 1x vs in-process: %.2f (target >= 0.70)\n",
                 ratio);
  }

  std::printf("{\n  \"bench\": \"ingress\", \"scenario\": \"cvm_split\", "
              "\"pipeline_threads\": %d, \"queue_capacity\": %d, "
              "\"service_delay_us\": %d, \"deadline_ms\": %d, "
              "\"wire_latency_us\": %d, \"capacity_rps\": %.0f,\n"
              "  \"rows\": [\n",
              config.pipeline_threads, config.queue_capacity,
              config.service_delay_us, config.deadline_ms,
              config.wire_latency_us, capacity_rps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    print_row_json(rows[i], i + 1 == rows.size());
  }
  std::printf("  ],\n  \"wire_vs_in_process_1x\": %.3f, \"pass\": %s\n}\n",
              ratio, pass ? "true" : "false");
  return pass ? 0 : 1;
}
