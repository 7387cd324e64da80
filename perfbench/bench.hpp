// Shared pieces of the benchmark program: options, per-round samples,
// the report every workload fills in, the timing adapter wrapper and the
// traced (layer-by-layer) submission path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/resource_manager.hpp"
#include "controller/script.hpp"
#include "core/platform.hpp"
#include "policy/expression.hpp"

namespace perfbench {

using namespace mdsm;
using SteadyTime = std::chrono::steady_clock::time_point;

inline SteadyTime now() { return std::chrono::steady_clock::now(); }
inline double ns_between(SteadyTime from, SteadyTime to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}
inline double us_between(SteadyTime from, SteadyTime to) {
  return ns_between(from, to) / 1e3;
}
inline double s_between(SteadyTime from, SteadyTime to) {
  return ns_between(from, to) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// One fixed-size batch of requests. A run repeats rounds until its
/// measuring time is spent, so every round sends the same number of
/// requests and per-request counts can be compared exactly.
struct Round {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<double> latency_us;  ///< OK requests only, send to outcome
  // Filled in by close(), which also releases latency_us so a run's
  // memory does not grow with the number of rounds it fits in.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double latency_sum_us = 0.0;
  std::size_t samples = 0;

  void close();
};

/// Everything one workload run reports back to main().
struct Report {
  /// Every set-up's time. A run sets its workload up once before its
  /// first round, then sets up a throwaway copy after every round, and
  /// reports the median. Spread over the whole run, the set-ups see the
  /// host's fast and slow spells in the same mix as the rounds do; set-ups
  /// taken back to back at the start all land in one spell.
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  std::uint64_t check_failures = 0;
  std::vector<std::string> failure_notes;  ///< first few, for stderr
  /// Per-layer metrics (traced runs) and noise diagnostics (every run).
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::pair<std::string, double>> diagnostics;

  void fail(std::string note) {
    ++check_failures;
    if (failure_notes.size() < 8) failure_notes.push_back(std::move(note));
  }
  void layer(std::string name, double value) {
    layers.emplace_back(std::move(name), value);
  }
  void diagnostic(std::string name, double value) {
    diagnostics.emplace_back(std::move(name), value);
  }
};

Report run_conference_edits(const Options& options);
Report run_adaptive_media(const Options& options);
Report run_session_lifecycle(const Options& options);

/// The comm services' signaling cost kernel (CommServiceConfig's FNV
/// loop, same iteration count): deterministic CPU work per command.
void signaling_work(std::size_t iterations);
inline constexpr std::size_t kSignalingWork = 13000;

/// Resource adapter that stands in for the comm services on the sharded
/// workload: thread-safe, no shared state, one signaling kernel per
/// command, always succeeds.
class WorkAdapter final : public broker::ResourceAdapter {
 public:
  WorkAdapter() : ResourceAdapter("comm") {}
  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override;
};

/// Wraps the real adapter and, when timing is on, adds the time spent
/// inside it to a counter: the broker.adapter_us floor. Resource events
/// the inner adapter raises are forwarded unchanged.
class TimedAdapter final : public broker::ResourceAdapter {
 public:
  explicit TimedAdapter(std::unique_ptr<broker::ResourceAdapter> inner);

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override;

  void set_timing(bool on) { timing_ = on; }
  [[nodiscard]] double busy_ns() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
  }

 private:
  std::unique_ptr<broker::ResourceAdapter> inner_;
  bool timing_ = false;
  std::atomic<std::int64_t> busy_ns_{0};
};

/// Time spent per layer over a set of traced requests.
struct LayerTotals {
  std::uint64_t requests = 0;
  double parse_ns = 0.0;       ///< model::parse_model, timed on its own
  double commit_ns = 0.0;      ///< "synthesis.submit" span outside
                               ///< "controller.script"
  double controller_ns = 0.0;  ///< "controller.script" spans (adapter
                               ///< time included)
  double adapter_ns = 0.0;     ///< inside the resource adapter
  double ui_ns = 0.0;          ///< "ui.submit" span outside
                               ///< "synthesis.submit"
  double request_ns = 0.0;     ///< the whole submit_model_text call
  double guard_ns = 0.0;       ///< one evaluation of every guard, summed
  std::uint64_t guard_evals = 0;
};

/// The untraced request: what a client of the in-process platform calls.
Result<controller::ControlScript> submit_plain(core::Platform& platform,
                                               const std::string& text);

/// Time one model::parse_model of `text`, the part of a request that runs
/// before its root span opens. Call it before the request, outside its
/// latency.
void time_parse(const core::Platform& platform, const std::string& text,
                LayerTotals& totals);

/// The traced request: the same submit_model_text call as submit_plain,
/// timed as a whole, with the layer split read from the request's span
/// tree. The platform must run on a real clock (spans are 0 on a
/// SimClock), and `adapter` must be its TimedAdapter with timing on.
Result<controller::ControlScript> submit_traced(core::Platform& platform,
                                                const TimedAdapter& adapter,
                                                const std::string& text,
                                                LayerTotals& totals);

/// Every guard expression the middleware model declares (ActionSpec and
/// ProcedureSpec `guard` attributes), parsed.
std::vector<policy::Expression> model_guards(const model::Model& middleware);

/// Evaluate each guard once against the platform context, timed.
void time_guards(const std::vector<policy::Expression>& guards,
                 const policy::ContextStore& context, LayerTotals& totals);

/// Report the in-process layer split (all the `*_us` layer times plus
/// core.unattributed_us and core.request_us) from `totals`, and, as a
/// diagnostic, how far the measured parts miss the measured whole.
void report_layer_split(const LayerTotals& totals, Report& report);

/// a / b, or 0 when b is 0 (a layer the workload does not exercise).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank quantile of `values`, q in [0, 1] (0 when empty).
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
