// Stage/Continuation layer of the event-driven core (PR 6). A request
// traversing the four layers is no longer a thread parked end-to-end:
// it is a small state object hopping between named stages, where each
// hop enqueues a one-shot Continuation on the shared Executor and
// releases the current worker.
//
// Stages are *logical* queues over one physical worker pool: every
// stage keeps its own depth gauge, high-water mark and enqueue→dequeue
// delay histogram ("stage.<name>.delay_us"), so overload shows *where*
// in the pipeline requests pile up — the per-stage visibility PR 5's
// single pipeline queue could not give. Capacity bounds and shed
// policies still live in the Executor, but they only apply to entry
// submissions: hops marked `continuation` bypass the bound, because
// refusing admitted work mid-pipeline would strand its completion (the
// admission decision was made once, at the door).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"

namespace mdsm::runtime {

/// A one-shot closure resumed exactly once on an executor worker.
using Continuation = std::function<void()>;

class StagePipeline {
 public:
  /// Each stage's delay histogram and counters are cells of `metrics`
  /// ("stage.<name>.*", resolved by add_stage()), which must outlive the
  /// pipeline.
  StagePipeline(Executor& executor, const Clock& clock,
                obs::MetricsRegistry& metrics);

  StagePipeline(const StagePipeline&) = delete;
  StagePipeline& operator=(const StagePipeline&) = delete;

  /// Register a stage; returns its index for submit(). Not synchronized
  /// against submit(): register every stage before traffic starts (the
  /// platform registers its fixed set at pipeline creation).
  std::size_t add_stage(std::string name);

  struct SubmitOptions {
    TaskLane lane = TaskLane::kNormal;
    /// Mid-pipeline hop of already-admitted work: bypasses the
    /// executor's capacity bound and can never be rejected or shed.
    bool continuation = false;
    /// Runs if the queued continuation is dropped by kShedOldest before
    /// it ever ran (entry submissions only).
    std::function<void()> on_shed;
  };

  /// Enqueue `fn` on `stage`. Depth/delay accounting wraps the run; the
  /// executor's overflow policy decides refusals for non-continuation
  /// submissions (a refusal leaves the stage's gauges untouched).
  Status submit(std::size_t stage, Continuation fn, SubmitOptions options);
  Status submit(std::size_t stage, Continuation fn) {
    return submit(stage, std::move(fn), SubmitOptions{});
  }

  struct StageStats {
    std::string name;
    std::size_t depth = 0;      ///< currently queued, not yet started
    std::size_t max_depth = 0;  ///< deepest the stage queue ever got
    std::uint64_t entered = 0;  ///< accepted submissions (".entered")
    std::uint64_t shed = 0;     ///< dropped by kShedOldest while queued
                                ///< (".shed")
  };
  [[nodiscard]] std::vector<StageStats> stats() const;
  [[nodiscard]] std::size_t stage_count() const noexcept {
    return stages_.size();
  }
  [[nodiscard]] std::size_t depth(std::size_t stage) const;

 private:
  struct Stage {
    std::string name;
    obs::Histogram& delay;  ///< "stage.<name>.delay_us"
    obs::Counter& entered;
    obs::Counter& shed;
    std::atomic<std::size_t> depth{0};
    std::atomic<std::size_t> max_depth{0};
  };

  Executor* executor_;
  const Clock* clock_;
  obs::MetricsRegistry& metrics_;
  /// unique_ptr for stable addresses: queued closures hold Stage*
  /// across add_stage() growth. Add-only.
  std::vector<std::unique_ptr<Stage>> stages_;
};

}  // namespace mdsm::runtime
