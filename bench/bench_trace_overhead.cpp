// Tracing-overhead bench: latency of Platform::submit_model_text on the
// CVM conference scenario with a real (enabled) RequestContext — span
// tree + metrics recording active — vs the shared noop context, where
// every observability operation early-returns.
//
// The two variants run as interleaved pairs, each on a fresh platform's
// first submit. The overhead is the median over pairs of each pair's
// enabled/noop ratio, so drift in machine load between pairs cancels
// out instead of landing on one variant's median.
//
// Acceptance target: enabling tracing costs < 5% median latency. Emits
// one JSON object (with the per-pair quartiles, so the flag's margin is
// visible) so CI and the trajectory can record it.
#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "domains/comm/cvm.hpp"

namespace {

using mdsm::SteadyClock;
using mdsm::Stopwatch;

constexpr int kWarmup = 5;
constexpr int kPairs = 1001;  // odd: the median is one pair

constexpr std::string_view kConferenceModel = R"(
model conference conforms cml
object Connection standup {
  state = active
  topology = conference
  child participants Participant ana { address = "ana@hq" role = initiator }
  child participants Participant bruno { address = "bruno@lab" }
  child participants Participant carla { address = "carla@home" }
  child media Medium voice { kind = audio }
  child media Medium cam { kind = video }
}
)";

/// The `q` quantile of `samples` (nearest rank; sorts in place).
double quantile(std::vector<double>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5)];
}

/// One submit latency (µs) on a fresh platform (built untimed). With
/// `traced`, the submission runs under a fresh enabled context;
/// otherwise under RequestContext::noop().
double time_one(bool traced) {
  static SteadyClock clock;
  auto cvm = mdsm::comm::make_cvm();
  if (!cvm.ok()) return -1.0;
  mdsm::core::Platform& platform = *(*cvm)->platform;
  mdsm::Result<mdsm::controller::ControlScript> script =
      mdsm::InvalidArgument("not run");
  Stopwatch watch(clock);
  if (traced) {
    mdsm::obs::RequestContext request = platform.make_context();
    script = platform.submit_model_text(kConferenceModel, request);
  } else {
    script = platform.submit_model_text(kConferenceModel,
                                        mdsm::obs::RequestContext::noop());
  }
  double elapsed_us = watch.elapsed_ms() * 1000.0;
  return script.ok() ? elapsed_us : -1.0;
}

}  // namespace

int main() {
  // Interleave the two variants (alternating order each pair) so
  // machine-load drift over the run hits both sides of a pair equally
  // instead of masquerading as tracing overhead.
  std::vector<double> enabled_samples;
  std::vector<double> noop_samples;
  std::vector<double> overhead_pct;
  for (int rep = 0; rep < kWarmup + kPairs; ++rep) {
    const bool traced_first = (rep % 2) == 0;
    double first = time_one(traced_first);
    double second = time_one(!traced_first);
    if (first <= 0.0 || second <= 0.0) {
      std::printf("{\"bench\": \"trace_overhead\", \"error\": \"run failed\"}\n");
      return 1;
    }
    if (rep < kWarmup) continue;
    const double enabled = traced_first ? first : second;
    const double noop = traced_first ? second : first;
    enabled_samples.push_back(enabled);
    noop_samples.push_back(noop);
    overhead_pct.push_back((enabled - noop) / noop * 100.0);
  }
  const double median_pct = quantile(overhead_pct, 0.5);
  std::printf(
      "{\"bench\": \"trace_overhead\", \"scenario\": \"cvm_conference\", "
      "\"pairs\": %d, \"enabled_us\": %.2f, \"noop_us\": %.2f, "
      "\"overhead_pct\": %.2f, \"overhead_q1_pct\": %.2f, "
      "\"overhead_q3_pct\": %.2f, \"target_pct\": 5.0, \"pass\": %s}\n",
      kPairs, quantile(enabled_samples, 0.5), quantile(noop_samples, 0.5),
      median_pct, quantile(overhead_pct, 0.25), quantile(overhead_pct, 0.75),
      median_pct < 5.0 ? "true" : "false");
  return 0;
}
