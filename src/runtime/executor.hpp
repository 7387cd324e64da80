// Fixed-size thread pool providing the concurrency model of the generic
// runtime environment ("it also provides threads ... to run the
// middleware components", paper §V-A). Platforms that need determinism
// run single-threaded and never touch the executor; the crowdsensing
// fleet and benches use it for genuine parallelism.
//
// Overload protection (PR 5): the queue may be bounded
// (ExecutorConfig::queue_capacity) with a pluggable overflow policy —
// kReject (fail the submit), kBlock (wait for space), kShedOldest (drop
// the oldest queued task to admit the newest). Two priority lanes
// (kHigh drains before kNormal) let control-plane traffic overtake bulk
// work. Every queued task is stamped at enqueue; the dequeue records the
// queue delay in the "runtime.queue_delay_us" histogram so admission
// control can see queue pressure building.
//
// Stages (PR 6's staged core) are logical queues over the one worker
// pool: a request traversing the four layers hops between named stages,
// each hop a one-shot task tagged with its stage's index, and releases
// the worker between hops. Every stage keeps its own depth, high-water
// mark and enqueue→dequeue delay histogram ("stage.<name>.delay_us"), so
// overload shows *where* in the pipeline requests pile up. The stage
// delay is the same measurement as runtime.queue_delay_us, taken once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"

namespace mdsm::runtime {

/// What a bounded executor does with a submit that finds the queue full.
enum class OverflowPolicy {
  kReject,     ///< fail the submit with kUnavailable
  kBlock,      ///< block the submitter until space frees up
  kShedOldest  ///< drop the oldest queued task (its on_shed runs), admit
};

/// Priority lane of a queued task. High-lane tasks are dequeued before
/// any normal-lane task, regardless of arrival order.
enum class TaskLane { kNormal = 0, kHigh = 1 };

struct ExecutorConfig {
  unsigned thread_count = std::thread::hardware_concurrency();
  /// Upper bound on queued (not yet running) tasks across both lanes;
  /// 0 = unbounded (the pre-PR-5 behaviour).
  std::size_t queue_capacity = 0;
  OverflowPolicy overflow_policy = OverflowPolicy::kReject;
};

class Executor {
 public:
  /// Counts and the queue-delay histogram go to `metrics` ("runtime.*"
  /// cells, resolved here), which must outlive the executor.
  Executor(unsigned thread_count, obs::MetricsRegistry& metrics);
  Executor(ExecutorConfig config, obs::MetricsRegistry& metrics);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Task::stage of a task accounted to no stage.
  static constexpr std::uint32_t kNoStage =
      std::numeric_limits<std::uint32_t>::max();

  /// Register a stage; returns its index for Task::stage. Resolves the
  /// stage's "stage.<name>.delay_us", ".entered" and ".shed" cells.
  std::uint32_t add_stage(std::string name);

  /// A submission with overload metadata. `on_shed` (optional) is invoked
  /// — outside the executor lock — if the task is dropped by kShedOldest
  /// before it ever ran, so callers can resolve completions exactly once.
  struct Task {
    std::function<void()> run;
    TaskLane lane = TaskLane::kNormal;
    std::function<void()> on_shed;
    /// Mid-pipeline continuation of already-admitted work (PR 6 staged
    /// pipeline): bypasses the capacity bound like a worker self-submit
    /// does — admission happened once at the door, and refusing a hop
    /// would strand the request's completion.
    bool continuation = false;
    /// add_stage() index whose gauges and delay histogram account the
    /// task while it is queued.
    std::uint32_t stage = kNoStage;
  };

  /// Enqueue a task. Safe from any thread, including worker threads.
  /// Returns Ok when the task was accepted, kUnavailable when it was
  /// refused — the queue is at capacity under kReject, or shutdown has
  /// begun (a task enqueued after shutdown would never run; refusing is
  /// the only honest answer). Refusals count in the
  /// "runtime.executor_rejections" cell. Tasks submitted from a worker
  /// thread of this executor bypass the capacity bound: blocking or
  /// rejecting a worker's own continuation could deadlock a full queue.
  /// A Task::stage that add_stage() never returned is kInvalidArgument.
  ///
  /// A task that throws does not kill the worker or the process: the
  /// exception is caught, counted in the
  /// "runtime.executor_task_failures" cell and logged; the pool keeps
  /// serving and drain() still returns.
  Status submit(std::function<void()> task);
  Status submit(Task task);

  /// Awaitable hop onto a stage (DESIGN.md §6e): the awaiting coroutine
  /// resumes as a never-shed continuation task on a worker, with
  /// `ambient` installed as its ambient request context. A hop with no
  /// executor, or a refused one (shutdown has begun), goes on on the
  /// awaiting thread.
  struct Hop {
    Executor* executor;
    std::uint32_t stage;
    TaskLane lane;
    obs::RequestContext* ambient;

    bool await_ready() const noexcept { return executor == nullptr; }
    bool await_suspend(std::coroutine_handle<> waiter) const {
      // Once submitted, a worker may resume the waiter (and end this
      // awaiter) before submit() returns: touch no member after it.
      return executor
          ->submit({.run = [waiter, ambient = ambient] {
                      obs::ContextScope scope(*ambient);
                      waiter.resume();
                    },
                    .lane = lane,
                    .continuation = true,
                    .stage = stage})
          .ok();
    }
    void await_resume() const noexcept {}
  };

  /// Block until the queue is empty, no submitter is blocked waiting for
  /// space, and every worker is idle.
  void drain();

  /// Begin shutdown and join all workers. Queued tasks still run;
  /// subsequent submits are rejected. Idempotent; the destructor calls it.
  void shutdown();

  /// Clock used to stamp enqueue→dequeue delay (default: process steady
  /// clock). Platforms inject theirs so queue delay shares request time.
  void set_clock(const Clock* clock) noexcept {
    if (clock != nullptr) clock_ = clock;
  }

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return config_.queue_capacity;
  }
  [[nodiscard]] std::size_t pending() const;
  /// High-water mark of pending(): the deepest the queue ever got,
  /// continuations included.
  [[nodiscard]] std::size_t max_pending() const noexcept {
    return max_pending_.load(std::memory_order_relaxed);
  }
  /// High-water mark of the bounded backlog: queued non-continuation
  /// tasks, the population queue_capacity actually governs. Continuation
  /// hops ride above this bound (their count is limited by admitted
  /// in-flight work, not by client arrival rate), so this — not
  /// max_pending() — is the gauge that proves the admission bound held.
  [[nodiscard]] std::size_t max_bounded_pending() const noexcept {
    return max_bounded_pending_.load(std::memory_order_relaxed);
  }

  struct StageStats {
    std::string name;
    std::size_t depth = 0;      ///< currently queued, not yet started
    std::size_t max_depth = 0;  ///< deepest the stage queue ever got
    std::uint64_t entered = 0;  ///< accepted submissions (".entered")
    std::uint64_t shed = 0;     ///< dropped by kShedOldest while queued
                                ///< (".shed")
  };
  /// One row per stage, in add_stage() order.
  [[nodiscard]] std::vector<StageStats> stage_stats() const;

 private:
  struct Queued {
    std::function<void()> run;
    std::function<void()> on_shed;
    TimePoint enqueued_at;
    bool continuation = false;
    std::uint32_t stage = kNoStage;
  };

  struct Stage {
    std::string name;
    obs::Histogram& delay;  ///< "stage.<name>.delay_us"
    obs::Counter& entered;
    obs::Counter& shed;
    std::size_t depth = 0;      ///< guarded by mutex_
    std::size_t max_depth = 0;  ///< guarded by mutex_
  };

  void worker_loop();
  Status reject(const char* why);
  [[nodiscard]] std::size_t queued_unlocked() const noexcept {
    return queues_[0].size() + queues_[1].size();
  }

  ExecutorConfig config_;
  const Clock* clock_;
  obs::MetricsRegistry& metrics_;
  obs::Counter& task_failures_;  ///< tasks that threw (contained)
  obs::Counter& rejections_;  ///< submits refused: full (kReject) or shut down
  obs::Counter& shed_;        ///< queued tasks dropped by kShedOldest
  obs::Histogram& queue_delay_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::condition_variable space_;  ///< kBlock submitters wait here
  std::deque<Queued> queues_[2];   ///< indexed by TaskLane
  std::vector<Stage> stages_;      ///< guarded by mutex_; add-only
  std::vector<std::thread> workers_;
  unsigned active_ = 0;
  unsigned blocked_submitters_ = 0;
  std::size_t bounded_pending_ = 0;  ///< queued non-continuation tasks
  bool shutting_down_ = false;
  bool joined_ = false;
  // Written under mutex_, read lock-free by the accessors.
  std::atomic<std::size_t> max_pending_{0};
  std::atomic<std::size_t> max_bounded_pending_{0};
};

}  // namespace mdsm::runtime
