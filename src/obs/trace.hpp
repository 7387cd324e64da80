// Per-request span tree. Every crossing of a layer boundary — and the
// finer-grained units inside a layer (EU executions, broker actions,
// autonomic reactions) — opens a span; spans nest by open order, so the
// finished trace reads as the request's path through the four-layer
// pipeline. Traces are owned by a RequestContext and are single-writer:
// the (synchronous) execution path of one request.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"

namespace mdsm::obs {

struct SpanName;

struct Span {
  std::uint64_t id = 0;      ///< process-unique (common/ids)
  std::uint64_t parent = 0;  ///< enclosing span id; 0 = root
  std::uint32_t depth = 0;   ///< nesting level (root = 0)
  std::string name;          ///< taxonomy-constant, e.g. "broker.call"
  std::string detail;        ///< free text, e.g. the signal name
  TimePoint start{};
  TimePoint end{};
  bool closed = false;
  /// The component-held name it was opened through (RequestContext),
  /// whose resolved latency cell its close records into; null otherwise.
  const SpanName* kind = nullptr;

  [[nodiscard]] Duration elapsed() const noexcept { return end - start; }
};

class Trace {
 public:
  explicit Trace(const Clock& clock) : clock_(&clock) {}

  /// Open a span as a child of the innermost open span; returns its id.
  std::uint64_t open(std::string_view name, std::string_view detail = {},
                     const SpanName* kind = nullptr);

  /// Close `span_id`. Any spans opened inside it that are still open are
  /// closed too (error paths unwind without visiting every close).
  void close(std::uint64_t span_id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// First span with this name (nullptr if none). Pointers are
  /// invalidated by the next open() — inspect finished traces only.
  [[nodiscard]] const Span* find(std::string_view name) const noexcept;
  [[nodiscard]] const Span* find_id(std::uint64_t span_id) const noexcept;
  [[nodiscard]] std::size_t count(std::string_view name) const noexcept;
  /// Innermost open span id (0 when none are open).
  [[nodiscard]] std::uint64_t current() const noexcept;
  [[nodiscard]] bool all_closed() const noexcept { return open_.empty(); }

  /// Indented rendering of the tree, one span per line.
  [[nodiscard]] std::string to_text() const;

 private:
  const Clock* clock_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_, stack order
};

}  // namespace mdsm::obs
