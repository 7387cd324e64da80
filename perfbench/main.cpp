// Benchmark program for the MD-DSM middleware.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: conference_edits, session_lifecycle, adaptive_media (see
// README.md beside this file). With --trace 0 the last stdout line
// carries the end-to-end metrics; with --trace 1 it carries the
// per-layer split from a traced run over the same seeded inputs. The line
// before it holds the noise diagnostics and the seed. The exit code is
// non-zero when any output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

/// CPU time counters, in jiffies (clock ticks).
struct CpuTicks {
  long long steal = 0;    ///< the VM's vCPUs waiting on the host
  long long busy = 0;     ///< every process in the VM, this one included
  long long process = 0;  ///< this process (user + system)
};

/// Reads the aggregate cpu line of /proc/stat and this process's
/// /proc/self/stat; fields the kernel does not report stay 0.
CpuTicks cpu_ticks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  long long field[8] = {};
  for (long long& value : field) stat >> value;
  if (label == "cpu") {
    // user nice system idle iowait irq softirq steal
    ticks.busy = field[0] + field[1] + field[2] + field[5] + field[6];
    ticks.steal = field[7];
  }
  std::ifstream self("/proc/self/stat");
  std::string line;
  std::getline(self, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 12th and 13th of them.
  std::istringstream rest(line.substr(line.rfind(')') + 1));
  std::string skip;
  for (int i = 0; i < 11; ++i) rest >> skip;
  long long utime = 0;
  long long stime = 0;
  rest >> utime >> stime;
  ticks.process = utime + stime;
  return ticks;
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload conference_edits|session_lifecycle|"
               "adaptive_media --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

std::string metric(const std::string& name, double value, const char* unit) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", name.c_str(),
                value, unit);
  return buffer;
}

/// Unit of a per-layer metric, from its name's suffix.
const char* layer_unit(const std::string& name) {
  auto ends_with = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("_us_per_req")) return "us/req";
  if (ends_with("_us")) return "us";
  if (ends_with("_ns")) return "ns";
  if (ends_with("_ratio") || ends_with("_max")) return "ratio";
  if (ends_with("bytes_per_req")) return "B/req";
  if (ends_with("_per_req")) return "count/req";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return usage(argv[0]);

  const CpuTicks before = cpu_ticks();
  Report report;
  if (options.workload == "conference_edits") {
    report = run_conference_edits(options);
  } else if (options.workload == "session_lifecycle") {
    report = run_session_lifecycle(options);
  } else if (options.workload == "adaptive_media") {
    report = run_adaptive_media(options);
  } else {
    return usage(argv[0]);
  }
  const CpuTicks after = cpu_ticks();

  // Goodput is OK completions over the rounds' wall time, and the
  // latency percentiles are each round's exact percentile averaged over
  // the rounds. The host's speed switches between states every few
  // seconds; a mean moves in proportion to the mix of states in a run,
  // where a median over rounds jumps between them.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::size_t samples = 0;
  double latency_sum_us = 0.0;
  double wall_s = 0.0;
  double p50_sum_us = 0.0;
  double p99_sum_us = 0.0;
  std::vector<double> goodput;
  for (const Round& round : report.rounds) {
    attempted += round.attempted;
    ok += round.ok;
    samples += round.samples;
    latency_sum_us += round.latency_sum_us;
    wall_s += round.wall_s;
    p50_sum_us += round.p50_us;
    p99_sum_us += round.p99_us;
    goodput.push_back(ratio(static_cast<double>(round.ok), round.wall_s));
  }
  const double rounds = static_cast<double>(report.rounds.size());
  const bool correct = report.check_failures == 0 && attempted > 0;
  for (const std::string& note : report.failure_notes) {
    std::fprintf(stderr, "check failed: %s\n", note.c_str());
  }

  std::ostringstream diagnostics;
  diagnostics << "{\"workload\": \"" << options.workload
              << "\", \"seed\": " << options.seed
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"diagnostics\": {\"steal_jiffies\": "
              << after.steal - before.steal
              << ", \"other_busy_jiffies\": "
              << (after.busy - before.busy) - (after.process - before.process)
              << ", \"rounds\": " << report.rounds.size()
              << ", \"samples\": " << samples
              << ", \"setups\": " << report.setup_s.size()
              << ", \"check_failures\": " << report.check_failures;
  char buffer[128];
  auto add = [&](const std::string& name, double value) {
    std::snprintf(buffer, sizeof buffer, ", \"%s\": %.10g", name.c_str(),
                  value);
    diagnostics << buffer;
  };
  add("latency_mean_us",
      ratio(latency_sum_us, static_cast<double>(samples)));
  add("goodput_round_min_rps", quantile(goodput, 0.0));
  add("goodput_round_max_rps", quantile(goodput, 1.0));
  for (const auto& [name, value] : report.diagnostics) add(name, value);
  diagnostics << "}}";
  std::printf("%s\n", diagnostics.str().c_str());

  std::string metrics;
  auto append = [&metrics](const std::string& entry) {
    if (!metrics.empty()) metrics += ", ";
    metrics += entry;
  };
  if (!options.trace) {
    append(metric("setup_s", median(report.setup_s), "s"));
    append(metric("goodput_rps", ratio(static_cast<double>(ok), wall_s),
                  "1/s"));
    append(metric("latency_p50_us", ratio(p50_sum_us, rounds), "us"));
    append(metric("latency_p99_us", ratio(p99_sum_us, rounds), "us"));
    append(metric(
        "ok_frac",
        ratio(static_cast<double>(ok), static_cast<double>(attempted)),
        "ratio"));
    append(metric("peak_rss_mb", peak_rss_mb(), "MB"));
  } else {
    for (const auto& [name, value] : report.layers) {
      append(metric(name, value, layer_unit(name)));
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(attempted - ok), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
