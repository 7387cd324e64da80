// Platform-wide metrics registry: monotonic counters, gauges and
// fixed-bucket latency histograms, recorded from every layer of the
// pipeline. The hot path is lock-cheap — counters, gauges and histogram
// buckets are relaxed atomics; the registry mutex is only taken to
// resolve a metric name to its (stable) cell. Components resolve their
// cells once, at construction, and each event bumps exactly one cell.
// Callers read a count by its cell name — a snapshot row or the
// query/metrics route — never from a typed copy; the few typed views
// left (DESIGN.md §6a) read those same cells.
//
// Snapshots are value copies so callers can diff them across a workload
// without racing the recorders (models@runtime discipline applied to the
// platform's own telemetry).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace mdsm::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Level that moves both ways (live sessions, queue depth). Written by
/// one owner under its own lock; readers see a relaxed snapshot.
class Gauge {
 public:
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Latency histogram over microseconds with fixed power-of-two buckets:
/// bucket 0 holds 0µs, bucket i holds [2^(i-1), 2^i) µs, and the last
/// bucket absorbs everything from 2^26 µs (~67 s) up.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 28;

  void record(Duration elapsed) noexcept {
    record_us(elapsed.count() <= 0
                  ? 0
                  : static_cast<std::uint64_t>(elapsed.count()));
  }
  void record_us(std::uint64_t us) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_us() const noexcept {
    return sum_us_.load(std::memory_order_relaxed);
  }
  /// Upper bound (µs, inclusive) of the bucket containing quantile `q`
  /// of the recorded samples; 0 when the histogram is empty.
  [[nodiscard]] std::uint64_t quantile_us(double q) const noexcept;
  [[nodiscard]] std::array<std::uint64_t, kBuckets> buckets() const noexcept;

  /// Inclusive upper bound (µs) of bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_bound_us(
      std::size_t index) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::uint64_t p50_us = 0;
    std::uint64_t p95_us = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };

  std::vector<CounterRow> counters;      ///< sorted by name
  std::vector<GaugeRow> gauges;          ///< sorted by name
  std::vector<HistogramRow> histograms;  ///< sorted by name

  [[nodiscard]] const CounterRow* counter(std::string_view name) const;
  [[nodiscard]] const HistogramRow* histogram(std::string_view name) const;
  /// Counter value by name; 0 when the counter was never touched.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  /// Gauge value by name; 0 when the gauge was never registered.
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const;
};

/// Name → metric cells. Cells are heap-allocated once and never move, so
/// references returned by counter()/histogram() stay valid for the
/// registry's lifetime and may be cached by recorders.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Human-readable dump (one metric per line), for CLIs and debugging.
  [[nodiscard]] std::string to_text() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace mdsm::obs
