#include "runtime/executor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.hpp"

namespace mdsm::runtime {

namespace {

/// Set while a worker of a given executor runs tasks: lets submit()
/// recognize self-submission and bypass the capacity bound (a worker
/// blocked — or rejected — on its own executor's full queue could never
/// make progress again).
thread_local const Executor* g_worker_of = nullptr;

const Clock& process_clock() noexcept {
  static const SteadyClock clock;
  return clock;
}

/// Raise a high-water mark whose writers all hold the executor mutex.
void raise_max(std::atomic<std::size_t>& mark, std::size_t candidate) {
  if (candidate > mark.load(std::memory_order_relaxed)) {
    mark.store(candidate, std::memory_order_relaxed);
  }
}

}  // namespace

Executor::Executor(unsigned thread_count, obs::MetricsRegistry& metrics)
    : Executor(ExecutorConfig{.thread_count = thread_count}, metrics) {}

Executor::Executor(ExecutorConfig config, obs::MetricsRegistry& metrics)
    : config_(config),
      clock_(&process_clock()),
      metrics_(metrics),
      task_failures_(metrics.counter("runtime.executor_task_failures")),
      rejections_(metrics.counter("runtime.executor_rejections")),
      shed_(metrics.counter("runtime.executor_shed")),
      queue_delay_(metrics.histogram("runtime.queue_delay_us")) {
  if (config_.thread_count == 0) config_.thread_count = 1;
  workers_.reserve(config_.thread_count);
  for (unsigned i = 0; i < config_.thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() { shutdown(); }

void Executor::shutdown() {
  bool join_here = false;
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
  }
  wake_.notify_all();
  space_.notify_all();  // blocked submitters resolve to rejection
  if (join_here) {
    for (auto& worker : workers_) worker.join();
  }
}

std::uint32_t Executor::add_stage(std::string name) {
  const std::string prefix = "stage." + name + ".";
  std::lock_guard lock(mutex_);
  stages_.push_back(Stage{.name = std::move(name),
                          .delay = metrics_.histogram(prefix + "delay_us"),
                          .entered = metrics_.counter(prefix + "entered"),
                          .shed = metrics_.counter(prefix + "shed")});
  return static_cast<std::uint32_t>(stages_.size() - 1);
}

std::vector<Executor::StageStats> Executor::stage_stats() const {
  std::vector<StageStats> out;
  std::lock_guard lock(mutex_);
  out.reserve(stages_.size());
  for (const Stage& stage : stages_) {
    out.push_back(StageStats{.name = stage.name,
                             .depth = stage.depth,
                             .max_depth = stage.max_depth,
                             .entered = stage.entered.value(),
                             .shed = stage.shed.value()});
  }
  return out;
}

Status Executor::reject(const char* why) {
  rejections_.add();
  return Unavailable(std::string("executor refused task: ") + why);
}

Status Executor::submit(std::function<void()> task) {
  return submit(Task{.run = std::move(task)});
}

Status Executor::submit(Task task) {
  Queued queued;
  queued.run = std::move(task.run);
  queued.on_shed = std::move(task.on_shed);
  std::function<void()> shed_victim;
  {
    std::unique_lock lock(mutex_);
    if (task.stage != kNoStage && task.stage >= stages_.size()) {
      return InvalidArgument("no stage " + std::to_string(task.stage));
    }
    if (shutting_down_) return reject("shutdown in progress");
    // The capacity bound governs the entry backlog only: continuation
    // hops carry already-admitted requests, so they neither count toward
    // the bound nor crowd fresh entries out of it.
    const bool bounded = config_.queue_capacity != 0 &&
                         g_worker_of != this && !task.continuation;
    if (bounded && bounded_pending_ >= config_.queue_capacity) {
      switch (config_.overflow_policy) {
        case OverflowPolicy::kReject:
          return reject("queue at capacity");
        case OverflowPolicy::kBlock: {
          ++blocked_submitters_;
          space_.wait(lock, [this] {
            return shutting_down_ ||
                   bounded_pending_ < config_.queue_capacity;
          });
          --blocked_submitters_;
          if (shutting_down_) {
            if (blocked_submitters_ == 0) idle_.notify_all();
            return reject("shutdown in progress");
          }
          break;
        }
        case OverflowPolicy::kShedOldest: {
          // Prefer shedding bulk work; only eat into the high lane when
          // no normal-lane entry is queued. Continuations are never
          // victims — shedding one would strand an admitted request
          // whose completion callback must still fire — and since
          // bounded_pending_ >= capacity >= 1, a sheddable entry is
          // guaranteed to exist.
          auto shed_from = [this, &shed_victim](std::deque<Queued>& lane) {
            for (auto it = lane.begin(); it != lane.end(); ++it) {
              if (it->continuation) continue;
              shed_victim = std::move(it->on_shed);
              if (it->stage != kNoStage) {
                --stages_[it->stage].depth;
                stages_[it->stage].shed.add();
              }
              lane.erase(it);
              --bounded_pending_;
              return true;
            }
            return false;
          };
          if (!shed_from(queues_[0])) shed_from(queues_[1]);
          shed_.add();
          break;
        }
      }
    }
    queued.enqueued_at = clock_->now();
    queued.continuation = task.continuation;
    queued.stage = task.stage;
    queues_[static_cast<int>(task.lane)].push_back(std::move(queued));
    raise_max(max_pending_, queued_unlocked());
    if (!task.continuation) {
      ++bounded_pending_;
      raise_max(max_bounded_pending_, bounded_pending_);
    }
    if (task.stage != kNoStage) {
      Stage& stage = stages_[task.stage];
      stage.max_depth = std::max(stage.max_depth, ++stage.depth);
      stage.entered.add();
    }
  }
  wake_.notify_one();
  if (shed_victim != nullptr) {
    try {
      shed_victim();
    } catch (const std::exception& e) {
      log_error("executor") << "on_shed threw: " << e.what();
    } catch (...) {
      log_error("executor") << "on_shed threw a non-std::exception";
    }
  }
  return Status::Ok();
}

void Executor::drain() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] {
    return queued_unlocked() == 0 && active_ == 0 &&
           blocked_submitters_ == 0;
  });
}

std::size_t Executor::pending() const {
  std::lock_guard lock(mutex_);
  return queued_unlocked();
}

void Executor::worker_loop() {
  g_worker_of = this;
  // Decrements active_ on scope exit — also when the task throws — so
  // drain() can never hang on a failed task.
  class ActiveGuard {
   public:
    explicit ActiveGuard(Executor& owner) noexcept : owner_(owner) {}
    ActiveGuard(const ActiveGuard&) = delete;
    ActiveGuard& operator=(const ActiveGuard&) = delete;
    ~ActiveGuard() {
      std::lock_guard lock(owner_.mutex_);
      --owner_.active_;
      if (owner_.queued_unlocked() == 0 && owner_.active_ == 0 &&
          owner_.blocked_submitters_ == 0) {
        owner_.idle_.notify_all();
      }
    }

   private:
    Executor& owner_;
  };

  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] {
        return shutting_down_ || queued_unlocked() != 0;
      });
      if (shutting_down_ && queued_unlocked() == 0) return;
      auto& lane = !queues_[1].empty() ? queues_[1] : queues_[0];
      Queued next = std::move(lane.front());
      lane.pop_front();
      if (!next.continuation) --bounded_pending_;
      ++active_;
      // One stamp and one clock read serve both delay histograms.
      const Duration waited = clock_->now() - next.enqueued_at;
      queue_delay_.record(waited);
      if (next.stage != kNoStage) {
        Stage& stage = stages_[next.stage];
        --stage.depth;
        stage.delay.record(waited);
      }
      task = std::move(next.run);
      space_.notify_one();
    }
    ActiveGuard guard(*this);
    try {
      task();
    } catch (const std::exception& e) {
      task_failures_.add();
      log_error("executor") << "task threw: " << e.what();
    } catch (...) {
      task_failures_.add();
      log_error("executor") << "task threw a non-std::exception";
    }
  }
}

}  // namespace mdsm::runtime
