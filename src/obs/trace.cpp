#include "obs/trace.hpp"

#include <chrono>

#include "common/ids.hpp"

namespace mdsm::obs {

std::uint64_t Trace::open(std::string_view name, std::string_view detail) {
  Span span;
  span.id = next_id();
  if (!open_.empty()) {
    const Span& parent = spans_[open_.back()];
    span.parent = parent.id;
    span.depth = parent.depth + 1;
  }
  span.name.assign(name);
  span.detail.assign(detail);
  span.start = clock_->now();
  span.end = span.start;
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::close(std::uint64_t span_id) {
  if (span_id == 0) return;
  TimePoint now = clock_->now();
  while (!open_.empty()) {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end = now;
    span.closed = true;
    if (span.id == span_id) return;
  }
}

const Span* Trace::find(std::string_view name) const noexcept {
  for (const Span& span : spans_) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

const Span* Trace::find_id(std::uint64_t span_id) const noexcept {
  for (const Span& span : spans_) {
    if (span.id == span_id) return &span;
  }
  return nullptr;
}

std::size_t Trace::count(std::string_view name) const noexcept {
  std::size_t n = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ++n;
  }
  return n;
}

std::uint64_t Trace::current() const noexcept {
  return open_.empty() ? 0 : spans_[open_.back()].id;
}

std::string Trace::to_text() const {
  std::string out;
  for (const Span& span : spans_) {
    out.append(2 * span.depth, ' ');
    out += span.name;
    if (!span.detail.empty()) out += " [" + span.detail + "]";
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  span.elapsed())
                  .count();
    out += ' ';
    out += std::to_string(us);
    out += "us";
    if (!span.closed) out += " (open)";
    out += "\n";
  }
  return out;
}

}  // namespace mdsm::obs
