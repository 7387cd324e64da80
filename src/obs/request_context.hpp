// The per-request identity threaded through all four layers (UI →
// Synthesis → Controller → Broker). A context is minted at the UI
// boundary (Platform::submit_model*) and carries:
//
//   - a process-unique request id ("req-<n>") that every EU execution,
//     broker action, bus event and autonomic reaction is correlated with;
//   - wall and steady timestamps taken from the platform's injected
//     clock, plus an optional deadline checked at layer crossings;
//   - the request's Trace (span tree) and a pointer to the platform's
//     MetricsRegistry — closing a span records its latency histogram.
//
// Legacy entry points that predate context threading run against the
// shared noop() context: span and metric operations become no-ops and
// observable behavior is unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mdsm::obs {

/// Process-wide steady clock, the default time source for contexts
/// minted outside a platform (and platforms with no injected clock).
const Clock& steady_clock() noexcept;

/// A span name held, next to its counters, by a component that opens the
/// span on every request. Its "latency.<name>" cell in `metrics` is
/// resolved at the first close, so later closes build no name and take no
/// registry lock; a context recording into another registry looks the
/// name up as usual.
struct SpanName {
  SpanName(MetricsRegistry& registry, std::string_view span)
      : name(span), metrics(&registry) {}
  const std::string name;
  MetricsRegistry* const metrics;  ///< must outlive the name
  mutable std::atomic<Histogram*> latency{nullptr};
};

class RequestContext {
 public:
  explicit RequestContext(const Clock& clock = steady_clock(),
                          MetricsRegistry* metrics = nullptr,
                          std::optional<Duration> deadline = {});

  RequestContext(RequestContext&&) = default;
  RequestContext& operator=(RequestContext&&) = delete;
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// The shared disabled context used by context-less entry points.
  /// Every operation on it is a thread-safe no-op.
  static RequestContext& noop() noexcept;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& tag() const noexcept { return tag_; }
  [[nodiscard]] const Clock& clock() const noexcept { return *clock_; }
  [[nodiscard]] MetricsRegistry* metrics() const noexcept { return metrics_; }
  [[nodiscard]] Duration elapsed() const noexcept {
    return clock_->now() - steady_start_;
  }

  [[nodiscard]] std::optional<TimePoint> deadline() const noexcept {
    return deadline_;
  }
  /// A request exactly at its deadline has no budget left: with a
  /// microsecond-granular SimClock, `now == deadline` means the whole
  /// allowance is spent, so the boundary counts as expired.
  [[nodiscard]] bool expired() const noexcept {
    return deadline_.has_value() && clock_->now() >= *deadline_;
  }
  /// Ok, or a Timeout status naming the layer that hit the deadline.
  [[nodiscard]] Status check_deadline(std::string_view layer) const;

  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Span management; see Trace. Closing records the span's latency in
  /// the metrics histogram "latency.<span name>" when metrics are
  /// attached. Both are no-ops on a disabled context.
  std::uint64_t open_span(std::string_view name, std::string_view detail = {});
  /// Same, through a component-held name: the close skips the lookup.
  std::uint64_t open_span(const SpanName& name, std::string_view detail = {});
  void close_span(std::uint64_t span_id);

  /// Free-form request attributes ("priority" = "high", tenant tags, …)
  /// set at the UI boundary and readable at any layer crossing. Requests
  /// carry a handful at most, so a flat vector beats a map. No-op /
  /// empty on a disabled context. Setting an existing key overwrites.
  void set_attribute(std::string key, std::string value);
  [[nodiscard]] std::string_view attribute(std::string_view key) const noexcept;
  /// True when the request is marked control-plane ("priority" = "high");
  /// the platform's async pipeline dequeues such requests first.
  [[nodiscard]] bool high_priority() const noexcept {
    return attribute("priority") == "high";
  }
  /// Cross-wire identity (PR 7): the attribute key under which a
  /// networked ingress stamps the *sender's* request id, so a span tree
  /// recorded on the platform side can be joined with the remote
  /// client's ledger. Empty for in-process requests.
  static constexpr std::string_view kRemoteIdAttribute =
      "ingress.request_id";
  [[nodiscard]] std::string_view remote_id() const noexcept {
    return attribute(kRemoteIdAttribute);
  }
  /// Session key: the attribute under which the ingress stamps the
  /// submit route's {session} capture. The synthesis engine keeps one
  /// runtime model per key; empty (in-process requests) selects the
  /// platform's default session.
  static constexpr std::string_view kSessionAttribute = "ingress.session";
  [[nodiscard]] std::string_view session() const noexcept {
    return attribute(kSessionAttribute);
  }

  /// Whether the request may park (DESIGN.md §6e). The door that creates
  /// the request records it once: the async door's requests may wait on
  /// loop timers and disown overrunning attempts, an inline request
  /// never leaves its caller's thread. Only the resource manager's leaf
  /// awaitables read it.
  void allow_parking() noexcept { may_park_ = true; }
  [[nodiscard]] bool may_park() const noexcept { return may_park_; }

 private:
  struct NoopTag {};
  explicit RequestContext(NoopTag) noexcept;

  bool enabled_ = true;
  bool may_park_ = false;
  std::uint64_t id_ = 0;
  std::string tag_;
  const Clock* clock_;
  MetricsRegistry* metrics_ = nullptr;
  TimePoint steady_start_{};
  std::optional<TimePoint> deadline_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  Trace trace_;
};

/// RAII span over a context ("one span per layer crossing").
class ScopedSpan {
 public:
  ScopedSpan(RequestContext& context, std::string_view name,
             std::string_view detail = {})
      : context_(&context), id_(context.open_span(name, detail)) {}
  ScopedSpan(RequestContext& context, const SpanName& name,
             std::string_view detail = {})
      : context_(&context), id_(context.open_span(name, detail)) {}
  ~ScopedSpan() { context_->close_span(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RequestContext* context_;
  std::uint64_t id_;
};

/// The ambient (thread-local) context of the request currently being
/// processed, or nullptr. Components reached without a context parameter
/// — bus subscribers, autonomic reactions — correlate through this.
[[nodiscard]] RequestContext* current() noexcept;

/// Installs `context` as the ambient one for the current scope. Disabled
/// contexts are not installed, so legacy (noop) entry points nested
/// inside a traced request never mask its ambient context.
class ContextScope {
 public:
  explicit ContextScope(RequestContext& context) noexcept;
  ~ContextScope();

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  RequestContext* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace mdsm::obs
