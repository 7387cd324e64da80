#include "runtime/event_loop.hpp"

#include <utility>
#include <vector>

#include "common/log.hpp"

namespace mdsm::runtime {

namespace {

const Clock& process_steady_clock() noexcept {
  static const SteadyClock clock;
  return clock;
}

}  // namespace

EventLoop::EventLoop(EventLoopConfig config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &process_steady_clock()) {
  if (config_.threaded) {
    thread_ = std::thread([this] { run(); });
  }
}

EventLoop::~EventLoop() { stop(); }

void EventLoop::post(std::function<void()> fn) {
  if (fn == nullptr) return;
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    posted_.push_back(std::move(fn));
  }
  wake_.notify_one();
}

std::uint64_t EventLoop::schedule(Duration delay, std::function<void()> fn) {
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mutex_);
    if (stop_) return 0;
    id = next_timer_id_++;
    const TimePoint deadline = clock_->now() + delay;
    timers_.emplace(std::pair(deadline, id), std::move(fn));
    deadlines_.emplace(id, deadline);
  }
  // The new deadline may be nearer than what the loop thread is waiting
  // for; wake it to recompute.
  wake_.notify_one();
  return id;
}

bool EventLoop::cancel(std::uint64_t timer_id) {
  std::lock_guard lock(mutex_);
  auto deadline = deadlines_.find(timer_id);
  if (deadline == deadlines_.end()) return false;
  timers_.erase(std::pair(deadline->second, timer_id));
  deadlines_.erase(deadline);
  return true;
}

std::function<void()> EventLoop::retire(Timers::iterator timer) {
  std::function<void()> fn = std::move(timer->second);
  deadlines_.erase(timer->first.second);
  timers_.erase(timer);
  return fn;
}

void EventLoop::run_contained(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    log_error("event-loop") << "callback threw: " << e.what();
  } catch (...) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    log_error("event-loop") << "callback threw a non-std::exception";
  }
}

void EventLoop::run() {
  std::unique_lock lock(mutex_);
  while (true) {
    // Drain everything currently runnable. Posts before timers: a post
    // is "as soon as possible" work, a timer merely became eligible.
    bool ran = true;
    while (ran) {
      ran = false;
      if (!posted_.empty()) {
        std::function<void()> fn = std::move(posted_.front());
        posted_.pop_front();
        lock.unlock();
        run_contained(fn);
        lock.lock();
        ran = true;
        continue;
      }
      if (!timers_.empty() &&
          timers_.begin()->first.first <= clock_->now()) {
        std::function<void()> fn = retire(timers_.begin());
        lock.unlock();
        run_contained(fn);
        lock.lock();
        ran = true;
      }
    }
    if (stop_) return;
    if (!timers_.empty()) {
      Duration wait = timers_.begin()->first.first - clock_->now();
      if (config_.poll_cap.count() > 0 && wait > config_.poll_cap) {
        // Virtual clocks advance silently; re-check at the cap.
        wait = config_.poll_cap;
      }
      if (wait.count() > 0) wake_.wait_for(lock, wait);
    } else {
      // Nothing pending: only post()/schedule()/stop() can create work,
      // and all three notify.
      wake_.wait(lock, [this] {
        return stop_ || !posted_.empty() || !timers_.empty();
      });
    }
  }
}

std::size_t EventLoop::poll() {
  std::size_t ran = 0;
  std::unique_lock lock(mutex_);
  // Bound both drains by what existed at entry: work created by the
  // closures we run belongs to the next poll. Due timers are snapshotted
  // by id (a count would let a zero-delay timer scheduled by a callback
  // take the turn of a due one that callback cancelled).
  std::size_t post_budget = posted_.size();
  const TimePoint now = clock_->now();
  std::vector<std::uint64_t> due;
  for (auto it = timers_.begin();
       it != timers_.end() && it->first.first <= now; ++it) {
    due.push_back(it->first.second);
  }
  while (post_budget > 0 && !posted_.empty()) {
    --post_budget;
    std::function<void()> fn = std::move(posted_.front());
    posted_.pop_front();
    lock.unlock();
    run_contained(fn);
    lock.lock();
    ++ran;
  }
  for (std::uint64_t id : due) {
    auto deadline = deadlines_.find(id);
    if (deadline == deadlines_.end()) continue;  // cancelled mid-poll
    std::function<void()> fn =
        retire(timers_.find(std::pair(deadline->second, id)));
    lock.unlock();
    run_contained(fn);
    lock.lock();
    ++ran;
  }
  return ran;
}

std::size_t EventLoop::flush() {
  std::size_t ran = 0;
  std::unique_lock lock(mutex_);
  while (true) {
    if (!posted_.empty()) {
      std::function<void()> fn = std::move(posted_.front());
      posted_.pop_front();
      lock.unlock();
      run_contained(fn);
      lock.lock();
      ++ran;
      continue;
    }
    if (timers_.empty()) break;
    std::function<void()> fn = retire(timers_.begin());
    lock.unlock();
    run_contained(fn);
    lock.lock();
    ++ran;
  }
  return ran;
}

void EventLoop::stop() {
  {
    // Idempotent: a second caller still joins below, so it never
    // returns before the thread is gone.
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::size_t EventLoop::pending_timers() const {
  std::lock_guard lock(mutex_);
  return timers_.size();
}

std::size_t EventLoop::pending_posts() const {
  std::lock_guard lock(mutex_);
  return posted_.size();
}

std::uint64_t EventLoop::callback_failures() const {
  return failures_.load(std::memory_order_relaxed);
}

}  // namespace mdsm::runtime
