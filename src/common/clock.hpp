// Time sources. The simulated network and domain plants run on a virtual
// clock so integration tests are deterministic and fast; benchmarks use the
// steady clock. Both implement the same interface so components are
// clock-agnostic (Core Guidelines I.25: prefer abstract classes to keep
// options open).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace mdsm {

using Duration = std::chrono::microseconds;
using TimePoint = std::chrono::time_point<std::chrono::steady_clock, Duration>;

/// Abstract time source.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual TimePoint now() const = 0;
};

/// Wall/steady time, for benchmarks and real runs.
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override {
    return std::chrono::time_point_cast<Duration>(
        std::chrono::steady_clock::now());
  }
};

/// Manually advanced virtual time, for deterministic tests. Lock-free:
/// readers on the request path never wait on a writer.
class SimClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override {
    return TimePoint(Duration(now_us_.load()));
  }

  /// Move virtual time forward (never backward).
  void advance(Duration delta) {
    if (delta.count() > 0) now_us_.fetch_add(delta.count());
  }

  /// Move virtual time to `t`, unless it is already later.
  void set(TimePoint t) {
    const std::int64_t target = t.time_since_epoch().count();
    std::int64_t current = now_us_.load();
    while (current < target &&
           !now_us_.compare_exchange_weak(current, target)) {
    }
  }

 private:
  std::atomic<std::int64_t> now_us_{0};
};

/// Stopwatch over any Clock; used by benches and adaptation timers.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock& clock) : clock_(&clock), start_(clock.now()) {}
  void reset() { start_ = clock_->now(); }
  [[nodiscard]] Duration elapsed() const { return clock_->now() - start_; }
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(elapsed()).count();
  }

 private:
  const Clock* clock_;
  TimePoint start_;
};

}  // namespace mdsm
