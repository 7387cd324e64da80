// Resource Manager: "to interface with the underlying resources"
// (paper §V-A). Domains plug in ResourceAdapters over their simulated
// resources (communication services, microgrid controllers, smart
// objects, sensing devices); the manager routes commands, records the
// command trace, and forwards resource events onto the layer's bus.
//
// The manager is also the platform's fault boundary to the outside
// world: per-resource InvocationPolicies add bounded retries (with
// decorrelated-jitter backoff that consumes the request's deadline
// budget), circuit breakers, and fallback adapters for graceful
// degradation. Resources without a policy keep exact fire-once
// semantics.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "broker/broker_types.hpp"
#include "broker/invocation_policy.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/executor.hpp"
#include "runtime/task.hpp"

namespace mdsm::broker {

/// SPI implemented per simulated resource (or family of resources).
class ResourceAdapter {
 public:
  using EventSink = std::function<void(const std::string& topic,
                                       model::Value payload)>;

  explicit ResourceAdapter(std::string name) : name_(std::move(name)) {}
  virtual ~ResourceAdapter() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Execute an atomic command against the resource.
  virtual Result<model::Value> execute(const std::string& command,
                                       const Args& args) = 0;

  /// Completion of an asynchronous execute_async(); must be invoked
  /// exactly once, from any thread.
  using Completion = std::function<void(Result<model::Value>)>;

  /// Asynchronous variant used by the staged pipeline (PR 6). The
  /// default wraps the synchronous execute() — existing adapters work
  /// unchanged, at the cost of occupying the calling worker for the
  /// duration. Adapters over genuinely asynchronous resources override
  /// this to return immediately and invoke `done` later (e.g. off an
  /// event-loop timer), which is what lets a slow resource suspend the
  /// request instead of a thread.
  virtual void execute_async(const std::string& command, const Args& args,
                             Completion done) {
    done(execute(command, args));
  }

  /// The manager installs a sink so the adapter can raise asynchronous
  /// resource events ("controller states", link failures, readings).
  void set_event_sink(EventSink sink) { sink_ = std::move(sink); }

 protected:
  void raise_event(const std::string& topic, model::Value payload = {}) {
    if (sink_) sink_(topic, std::move(payload));
  }

 private:
  std::string name_;
  EventSink sink_;
};

class ResourceManager {
 public:
  /// Resource events are republished on `bus` as "resource.<topic>";
  /// breaker trips/recoveries surface as "resource.breaker.open" /
  /// "resource.breaker.close" and degraded fallbacks as
  /// "resource.degraded", so autonomic symptoms can react to them.
  /// Counts go to `metrics` ("broker.*" cells, resolved here; see
  /// DESIGN.md §6a): every attempted resource command bumps
  /// "broker.commands"; contained adapter exceptions bump
  /// "broker.adapter_exceptions"; the fault-tolerance loop records
  /// "broker.retries" (attempts after the first), "broker.retry_exhausted"
  /// (policy-managed invokes that gave up — attempts or deadline budget
  /// spent), "broker.breaker_open" (fast-fail rejections while open),
  /// "broker.breaker_transitions" (state-machine edges) and
  /// "broker.fallbacks" (degraded invocations attempted). `metrics` must
  /// outlive the manager.
  ResourceManager(runtime::EventBus& bus, obs::MetricsRegistry& metrics);
  ~ResourceManager();
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  Status add_adapter(std::unique_ptr<ResourceAdapter> adapter);
  /// Unregisters immediately; in-flight invoke()s finish on the pinned
  /// adapter (shared ownership), new ones get NotFound.
  Status remove_adapter(const std::string& name);
  [[nodiscard]] bool has_adapter(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> adapter_names() const;

  /// Install (or replace) the invocation policy for `resource`. May be
  /// called before the adapter itself is registered (the assembler loads
  /// specs first). A breaker-enabled policy gets a fresh, closed breaker.
  Status set_policy(const std::string& resource, InvocationPolicy policy);
  /// The resource's policy, or the fire-once default when none is set.
  [[nodiscard]] InvocationPolicy policy(const std::string& resource) const;
  /// Breaker state for diagnostics/tests; kClosed when no breaker is set.
  [[nodiscard]] CircuitBreaker::State breaker_state(
      const std::string& resource) const;

  /// Replaces the real sleep used for retry backoff (simulated-clock
  /// tests advance their SimClock here instead of wall-blocking).
  /// Configure at assembly time, before steady-state traffic.
  void set_sleep_hook(std::function<void(Duration)> hook) {
    sleep_hook_ = std::move(hook);
  }

  /// Issue a command to a named resource under its invocation policy;
  /// each physical attempt records a trace entry *before* execution so
  /// failed commands still appear (they were issued), matching how a
  /// wire trace would look. Exceptions escaping the adapter are caught
  /// here and degraded to an ExecutionError status (counted in
  /// "broker.adapter_exceptions") — an adapter can never unwind the
  /// layers above it. Retries consume `context`'s deadline budget: the
  /// invocation never issues an attempt (or waits a backoff) past the
  /// request deadline. The default context is the shared noop one (no
  /// deadline, no spans).
  ///
  /// One coroutine serves both doors (DESIGN.md §6b/§6e). When
  /// `context` may park and an event loop is wired, attempts go through
  /// the adapter's execute_async(), a backoff parks the invocation on a
  /// loop timer, and an attempt that overruns policy.attempt_timeout is
  /// *disowned* by a timer (counted in "broker.attempt_overruns",
  /// recorded as a breaker failure, retried or degraded at once) while
  /// its late completion is discarded ("broker.late_completions").
  /// Otherwise attempts are the adapter's execute(), backoff waits
  /// through the sleep hook, and a failure that stalled past
  /// policy.attempt_timeout becomes a retryable kTimeout; the task then
  /// completes without parking.
  runtime::Task<Result<model::Value>> invoke(
      const std::string& resource, const std::string& command,
      const Args& args,
      obs::RequestContext& context = obs::RequestContext::noop());

  /// Wire the event-driven engine: retry backoff and
  /// attempt-timeout timers go to `loop`; a parked invocation resumes as
  /// a task on `executor`'s `stage` (the platform's broker stage), or on
  /// the loop when `executor` is null. Both must outlive steady-state
  /// traffic; configure at assembly time. Unwired, no invocation parks.
  void set_async_engine(
      runtime::EventLoop* loop, runtime::Executor* executor = nullptr,
      std::uint32_t stage = runtime::Executor::kNoStage) {
    loop_ = loop;
    executor_ = executor;
    stage_ = stage;
  }

  [[nodiscard]] const CommandTrace& trace() const noexcept { return trace_; }
  /// Reset the command trace (benchmarks between phases). The previous
  /// mutable trace() accessor is gone: concurrent invoke()s append under
  /// the trace's own lock, and handing out a mutable reference invited
  /// unsynchronized mutation around it.
  void clear_trace() { trace_.clear(); }

 private:
  /// Per-resource fault-tolerance state; immutable policy after set,
  /// breaker internally synchronized, chain counter seeds backoff jitter.
  struct PolicyState {
    InvocationPolicy policy;
    std::shared_ptr<CircuitBreaker> breaker;
    std::atomic<std::uint64_t> chains{0};
  };

  /// The attempt awaitable: execute() on the awaiting thread, or
  /// execute_async() raced against the overrun timer.
  struct Attempt;
  /// Count and log an exception the adapter let escape; the status it
  /// degrades to.
  Status contain(const std::string& resource, const std::string& command,
                 const char* what);
  void publish_transition(const std::string& resource,
                          CircuitBreaker::Transition transition);
  runtime::EventBus* bus_;
  obs::Counter& exceptions_counter_;
  obs::Counter& retries_counter_;
  obs::Counter& exhausted_counter_;
  obs::Counter& breaker_open_counter_;
  obs::Counter& breaker_transitions_counter_;
  obs::Counter& fallbacks_counter_;
  obs::Counter& overruns_counter_;
  /// "broker.late_completions", shared with every disowned attempt: an
  /// adapter may answer one from its own thread after the manager is
  /// gone, and then the answer finds the cell null and only drops.
  struct LateCompletions {
    obs::Counter* cell;  ///< guarded by mutex; null once the manager is gone
    std::mutex mutex;
  };
  std::shared_ptr<LateCompletions> late_completions_;
  obs::SpanName attempt_span_;
  obs::SpanName fallback_span_;
  std::function<void(Duration)> sleep_hook_;  ///< null = real sleep
  runtime::EventLoop* loop_ = nullptr;  ///< null = nothing parks
  runtime::Executor* executor_ = nullptr;  ///< null = resume on the loop
  std::uint32_t stage_ = runtime::Executor::kNoStage;
  /// Reader/writer lock over the adapter and policy maps only — never
  /// held across adapter execution (an adapter event can re-enter
  /// invoke() on the same thread via the bus and the autonomic manager,
  /// so holding the lock through execute() would self-deadlock).
  /// invoke() copies the shared_ptrs under the shared side and executes
  /// unlocked; concurrent commands to the same adapter overlap (adapters
  /// synchronize internally as needed).
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<ResourceAdapter>, std::less<>>
      adapters_;
  std::map<std::string, std::shared_ptr<PolicyState>, std::less<>> policies_;
  CommandTrace trace_;
};

}  // namespace mdsm::broker
