#include "obs/request_context.hpp"

#include "common/ids.hpp"

namespace mdsm::obs {

namespace {
thread_local RequestContext* g_current = nullptr;
}  // namespace

const Clock& steady_clock() noexcept {
  static const SteadyClock clock;
  return clock;
}

RequestContext::RequestContext(const Clock& clock, MetricsRegistry* metrics,
                               std::optional<Duration> deadline)
    : id_(next_id()),
      tag_("req-" + std::to_string(id_)),
      clock_(&clock),
      metrics_(metrics),
      steady_start_(clock.now()),
      trace_(clock) {
  if (deadline.has_value()) deadline_ = steady_start_ + *deadline;
}

RequestContext::RequestContext(NoopTag) noexcept
    : enabled_(false), clock_(&steady_clock()), trace_(steady_clock()) {}

RequestContext& RequestContext::noop() noexcept {
  static RequestContext context{NoopTag{}};
  return context;
}

Status RequestContext::check_deadline(std::string_view layer) const {
  if (!expired()) return Status::Ok();
  return Timeout(tag_ + " missed its deadline before the " +
                 std::string(layer) + " layer");
}

void RequestContext::set_attribute(std::string key, std::string value) {
  if (!enabled_) return;
  for (auto& [existing, current] : attributes_) {
    if (existing == key) {
      current = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(std::move(key), std::move(value));
}

std::string_view RequestContext::attribute(
    std::string_view key) const noexcept {
  for (const auto& [existing, value] : attributes_) {
    if (existing == key) return value;
  }
  return {};
}

std::uint64_t RequestContext::open_span(std::string_view name,
                                        std::string_view detail) {
  if (!enabled_) return 0;
  return trace_.open(name, detail);
}

std::uint64_t RequestContext::open_span(const SpanName& name,
                                        std::string_view detail) {
  if (!enabled_) return 0;
  return trace_.open(name.name, detail, &name);
}

void RequestContext::close_span(std::uint64_t span_id) {
  if (!enabled_ || span_id == 0) return;
  trace_.close(span_id);
  if (metrics_ == nullptr) return;
  const Span* span = trace_.find_id(span_id);
  if (span == nullptr) return;
  const SpanName* kind =
      span->kind != nullptr && span->kind->metrics == metrics_ ? span->kind
                                                               : nullptr;
  Histogram* latency =
      kind != nullptr ? kind->latency.load(std::memory_order_acquire) : nullptr;
  if (latency == nullptr) {
    latency = &metrics_->histogram("latency." + span->name);
    // Racing first closes resolve the same cell.
    if (kind != nullptr) kind->latency.store(latency, std::memory_order_release);
  }
  latency->record(span->elapsed());
}

RequestContext* current() noexcept { return g_current; }

ContextScope::ContextScope(RequestContext& context) noexcept {
  if (!context.enabled()) return;
  previous_ = g_current;
  g_current = &context;
  installed_ = true;
}

ContextScope::~ContextScope() {
  if (installed_) g_current = previous_;
}

}  // namespace mdsm::obs
