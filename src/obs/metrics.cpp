#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

namespace mdsm::obs {

void Histogram::record_us(std::uint64_t us) noexcept {
  std::size_t index =
      us == 0 ? 0
              : std::min<std::size_t>(static_cast<std::size_t>(
                                          std::bit_width(us)),
                                      kBuckets - 1);
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_bound_us(std::size_t index) noexcept {
  if (index == 0) return 0;
  return (std::uint64_t{1} << index) - 1;
}

std::uint64_t Histogram::quantile_us(double q) const noexcept {
  std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (target == 0) target = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target) return bucket_bound_us(i);
  }
  return bucket_bound_us(kBuckets - 1);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets()
    const noexcept {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

const MetricsSnapshot::CounterRow* MetricsSnapshot::counter(
    std::string_view name) const {
  for (const CounterRow& row : counters) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramRow* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramRow& row : histograms) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const CounterRow* row = counter(name);
  return row == nullptr ? 0 : row->value;
}

std::int64_t MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const GaugeRow& row : gauges) {
    if (row.name == name) return row.value;
  }
  return 0;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    out.counters.push_back({name, cell->value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    out.gauges.push_back({name, cell->value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = cell->count();
    row.sum_us = cell->sum_us();
    row.p50_us = cell->quantile_us(0.5);
    row.p95_us = cell->quantile_us(0.95);
    row.buckets = cell->buckets();
    out.histograms.push_back(std::move(row));
  }
  return out;
}

std::string MetricsRegistry::to_text() const {
  MetricsSnapshot snap = snapshot();
  std::string out;
  for (const auto& row : snap.counters) {
    out += row.name + " " + std::to_string(row.value) + "\n";
  }
  for (const auto& row : snap.gauges) {
    out += row.name + " " + std::to_string(row.value) + "\n";
  }
  for (const auto& row : snap.histograms) {
    out += row.name + " count=" + std::to_string(row.count) +
           " sum_us=" + std::to_string(row.sum_us) +
           " p50_us<=" + std::to_string(row.p50_us) +
           " p95_us<=" + std::to_string(row.p95_us) + "\n";
  }
  return out;
}

}  // namespace mdsm::obs
