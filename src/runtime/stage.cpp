#include "runtime/stage.hpp"

#include <utility>

namespace mdsm::runtime {

namespace {

/// Atomic running-max (CAS loop; concurrent writers never regress it).
template <typename T>
void raise_max(std::atomic<T>& cell, T candidate) {
  T seen = cell.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !cell.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

StagePipeline::StagePipeline(Executor& executor, const Clock& clock,
                             obs::MetricsRegistry& metrics)
    : executor_(&executor), clock_(&clock), metrics_(metrics) {}

std::size_t StagePipeline::add_stage(std::string name) {
  const std::string prefix = "stage." + name + ".";
  stages_.push_back(std::unique_ptr<Stage>(
      new Stage{.name = std::move(name),
                .delay = metrics_.histogram(prefix + "delay_us"),
                .entered = metrics_.counter(prefix + "entered"),
                .shed = metrics_.counter(prefix + "shed")}));
  return stages_.size() - 1;
}

Status StagePipeline::submit(std::size_t stage_index, Continuation fn,
                             SubmitOptions options) {
  if (stage_index >= stages_.size()) {
    return InvalidArgument("no stage " + std::to_string(stage_index));
  }
  Stage* stage = stages_[stage_index].get();
  const TimePoint enqueued = clock_->now();
  Executor::Task task;
  task.lane = options.lane;
  task.continuation = options.continuation;
  task.run = [this, stage, enqueued, fn = std::move(fn)] {
    stage->depth.fetch_sub(1, std::memory_order_relaxed);
    stage->delay.record(clock_->now() - enqueued);
    fn();
  };
  task.on_shed = [stage, on_shed = std::move(options.on_shed)] {
    stage->depth.fetch_sub(1, std::memory_order_relaxed);
    stage->shed.add();
    if (on_shed != nullptr) on_shed();
  };
  // Count the submission as queued before handing it to the executor:
  // a worker could start it (and decrement) before submit() returns.
  const std::size_t depth =
      stage->depth.fetch_add(1, std::memory_order_relaxed) + 1;
  raise_max(stage->max_depth, depth);
  Status accepted = executor_->submit(std::move(task));
  if (!accepted.ok()) {
    // Refused at the executor door (kReject / shutdown): the task never
    // queued, so undo the gauge.
    stage->depth.fetch_sub(1, std::memory_order_relaxed);
    return accepted;
  }
  stage->entered.add();
  return accepted;
}

std::vector<StagePipeline::StageStats> StagePipeline::stats() const {
  std::vector<StageStats> out;
  out.reserve(stages_.size());
  for (const auto& stage : stages_) {
    StageStats row;
    row.name = stage->name;
    row.depth = stage->depth.load(std::memory_order_relaxed);
    row.max_depth = stage->max_depth.load(std::memory_order_relaxed);
    row.entered = stage->entered.value();
    row.shed = stage->shed.value();
    out.push_back(std::move(row));
  }
  return out;
}

std::size_t StagePipeline::depth(std::size_t stage) const {
  if (stage >= stages_.size()) return 0;
  return stages_[stage]->depth.load(std::memory_order_relaxed);
}

}  // namespace mdsm::runtime
