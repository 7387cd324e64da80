// The event-driven core of the request pipeline (PR 6). An EventLoop
// owns its deadline timers behind a mutex and runs posted closures and
// due timer callbacks — on its own thread in threaded mode, or whenever
// the owner pumps poll() in manual mode (deterministic tests and the
// crowdsensing devices drive a SimClock and poll after each advance;
// nothing ever fires from a hidden thread they didn't ask for).
//
// The loop is what lets a parked request consume *no* thread: retry
// backoff, attempt-timeout reclassification and deadline watchdogs are
// all schedule()d here, and their callbacks hand continuations back to
// the stage executor. Callbacks run outside the loop lock, so they may
// freely post(), schedule() and cancel() — including from other loop
// callbacks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/clock.hpp"
#include "obs/request_context.hpp"

namespace mdsm::runtime {

struct EventLoopConfig {
  /// Time source for timer deadlines (null = process steady clock).
  /// Injected SimClocks advance without notifying the loop, so pair a
  /// virtual clock with a poll_cap (threaded mode) or manual pumping.
  const Clock* clock = nullptr;
  /// true: a dedicated loop thread drains posts and timers as they come
  /// due. false: nothing runs until the owner calls poll()/flush().
  bool threaded = true;
  /// Threaded mode only: upper bound on how long the loop thread waits
  /// between deadline re-checks while timers are pending. Required when
  /// the injected clock is virtual (its advance is invisible to the
  /// condition variable); 0 = wait the full real-time delta.
  Duration poll_cap{0};
};

class EventLoop {
 public:
  explicit EventLoop(EventLoopConfig config = {});
  ~EventLoop();  // stop()s; pending timers and posts are dropped

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Run `fn` on the loop as soon as possible. Safe from any thread and
  /// from inside loop callbacks. After stop() the closure is silently
  /// dropped (shutdown-race posts have nowhere to run).
  void post(std::function<void()> fn);

  /// Run `fn` on the loop once `delay` has elapsed on the loop's clock.
  /// Returns a timer id for cancel(). Safe from any thread.
  std::uint64_t schedule(Duration delay, std::function<void()> fn);

  /// Awaitable park on a timer (DESIGN.md §6e): the awaiting coroutine
  /// resumes on the loop once `delay` has elapsed on the loop's clock,
  /// with `ambient` installed as its ambient request context. No thread
  /// holds it meanwhile. A stopped loop refuses the timer, and the
  /// coroutine goes on at once.
  struct Sleep {
    EventLoop* loop;
    Duration delay;
    obs::RequestContext* ambient;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> waiter) const {
      return loop->schedule(delay, [waiter, ambient = ambient] {
        obs::ContextScope scope(*ambient);
        waiter.resume();
      }) != 0;
    }
    void await_resume() const noexcept {}
  };

  /// Cancel a scheduled timer; false if it already fired or is unknown.
  bool cancel(std::uint64_t timer_id);

  /// Manual pump: run every post and every timer due *at entry* once, in
  /// deadline order, then return the number of closures run (a closure
  /// that throws counts: it ran). The due timers are snapshotted by id at
  /// entry: one that a callback cancels is skipped, and one a callback
  /// schedules — even with zero delay — defers to the next poll, so a
  /// SimClock test sees exactly one round of work per advance+poll and a
  /// self-rescheduling timer fires once per poll.
  std::size_t poll();

  /// Shutdown drain: run posts and fire every pending timer immediately,
  /// deadline or not, until the loop is quiescent. Parked continuations
  /// get to run out (and typically fail their deadline gates downstream)
  /// instead of leaking. Returns the number of closures run.
  std::size_t flush();

  /// Stop and join the loop thread (threaded mode). Closures still
  /// pending afterwards are dropped; call flush() first for an orderly
  /// drain. Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] bool threaded() const noexcept { return config_.threaded; }
  [[nodiscard]] const Clock& clock() const noexcept { return *clock_; }
  [[nodiscard]] std::size_t pending_timers() const;
  [[nodiscard]] std::size_t pending_posts() const;
  /// Closures whose exceptions the loop contained (counted, logged,
  /// never propagated — a bad callback must not kill the loop thread).
  [[nodiscard]] std::uint64_t callback_failures() const;

 private:
  /// Timers ordered by (deadline, id): ids grow, so equal deadlines fire
  /// in schedule order.
  using Timers = std::map<std::pair<TimePoint, std::uint64_t>,
                          std::function<void()>>;

  void run();  ///< threaded-mode loop body
  /// Run one closure outside the lock with exception containment.
  void run_contained(const std::function<void()>& fn);
  /// Remove a pending timer (caller holds mutex_); returns its callback.
  std::function<void()> retire(Timers::iterator timer);

  EventLoopConfig config_;
  const Clock* clock_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> posted_;
  // Guarded by mutex_; callbacks run unlocked.
  Timers timers_;
  std::unordered_map<std::uint64_t, TimePoint> deadlines_;  ///< id → key
  std::uint64_t next_timer_id_ = 1;
  std::atomic<std::uint64_t> failures_{0};
  bool stop_ = false;
  std::thread thread_;  ///< joined by stop()
};

}  // namespace mdsm::runtime
