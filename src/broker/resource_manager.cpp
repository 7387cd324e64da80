#include <mutex>
#include <thread>

#include "broker/resource_manager.hpp"

#include "common/log.hpp"

namespace mdsm::broker {

ResourceManager::ResourceManager(runtime::EventBus& bus,
                                 obs::MetricsRegistry& metrics)
    : bus_(&bus),
      exceptions_counter_(metrics.counter("broker.adapter_exceptions")),
      retries_counter_(metrics.counter("broker.retries")),
      exhausted_counter_(metrics.counter("broker.retry_exhausted")),
      breaker_open_counter_(metrics.counter("broker.breaker_open")),
      breaker_transitions_counter_(
          metrics.counter("broker.breaker_transitions")),
      fallbacks_counter_(metrics.counter("broker.fallbacks")),
      overruns_counter_(metrics.counter("broker.attempt_overruns")),
      late_completions_counter_(metrics.counter("broker.late_completions")),
      attempt_span_(metrics, "broker.attempt"),
      fallback_span_(metrics, "broker.fallback"),
      trace_(metrics) {}

Status ResourceManager::add_adapter(std::unique_ptr<ResourceAdapter> adapter) {
  if (adapter == nullptr) return InvalidArgument("null resource adapter");
  const std::string name = adapter->name();
  std::unique_lock lock(mutex_);
  if (adapters_.contains(name)) {
    return AlreadyExists("resource adapter '" + name + "' already present");
  }
  // Resource events surface on the layer bus under the resource.* space.
  adapter->set_event_sink(
      [bus = bus_, name](const std::string& topic, model::Value payload) {
        bus->publish("resource." + topic, name, std::move(payload));
      });
  adapters_[name] = std::shared_ptr<ResourceAdapter>(std::move(adapter));
  return Status::Ok();
}

Status ResourceManager::remove_adapter(const std::string& name) {
  std::unique_lock lock(mutex_);
  if (adapters_.erase(name) == 0) {
    return NotFound("resource adapter '" + name + "' not present");
  }
  return Status::Ok();
}

bool ResourceManager::has_adapter(std::string_view name) const {
  std::shared_lock lock(mutex_);
  return adapters_.contains(name);
}

std::vector<std::string> ResourceManager::adapter_names() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(adapters_.size());
  for (const auto& [name, adapter] : adapters_) names.push_back(name);
  return names;
}

Status ResourceManager::set_policy(const std::string& resource,
                                   InvocationPolicy policy) {
  if (policy.max_attempts < 1) {
    return InvalidArgument("invocation policy for '" + resource +
                           "' needs max_attempts >= 1");
  }
  if (policy.breaker.enabled()) {
    if (policy.breaker.failure_threshold <= 0.0 ||
        policy.breaker.failure_threshold > 1.0) {
      return InvalidArgument("breaker failure_threshold for '" + resource +
                             "' must be in (0, 1]");
    }
    if (policy.breaker.half_open_probes < 1) {
      return InvalidArgument("breaker for '" + resource +
                             "' needs half_open_probes >= 1");
    }
  }
  if (policy.fallback_resource == resource) {
    return InvalidArgument("resource '" + resource +
                           "' cannot be its own fallback");
  }
  auto state = std::make_shared<PolicyState>();
  if (policy.breaker.enabled()) {
    state->breaker = std::make_shared<CircuitBreaker>(policy.breaker);
  }
  state->policy = std::move(policy);
  std::unique_lock lock(mutex_);
  policies_[resource] = std::move(state);
  return Status::Ok();
}

InvocationPolicy ResourceManager::policy(const std::string& resource) const {
  std::shared_lock lock(mutex_);
  auto it = policies_.find(resource);
  return it == policies_.end() ? InvocationPolicy{} : it->second->policy;
}

CircuitBreaker::State ResourceManager::breaker_state(
    const std::string& resource) const {
  std::shared_ptr<CircuitBreaker> breaker;
  {
    std::shared_lock lock(mutex_);
    auto it = policies_.find(resource);
    if (it != policies_.end()) breaker = it->second->breaker;
  }
  return breaker == nullptr ? CircuitBreaker::State::kClosed
                            : breaker->state();
}

// ---- the invocation state machine (inline or async; DESIGN.md §6b) ----
//
// In async mode the per-attempt timeout is a timer that *disowns* an
// overrunning attempt: each attempt carries a settle flag, and whoever
// flips it first (adapter completion or the overrun timer) owns the
// outcome, the breaker record and the span close; the loser only bumps
// a counter. That single-owner discipline is also what keeps the
// request's Trace single-writer even though attempts, timers and retries
// run on different threads.

struct ResourceManager::Invocation {
  std::shared_ptr<ResourceAdapter> adapter;
  std::shared_ptr<PolicyState> state;
  std::string resource;
  std::string command;
  Args args;
  obs::RequestContext* context = nullptr;
  bool inline_mode = false;
  InvokeCallback done;
  RetryBackoff backoff{Duration(0), Duration(0), 0};
  int attempt = 0;  ///< attempts issued so far
  /// Belt-and-braces: the state machine resolves exactly once by
  /// construction; the flag turns a logic bug into a dropped duplicate
  /// instead of a double completion.
  std::atomic<bool> resolved{false};

  void resolve(Result<model::Value> outcome) {
    if (resolved.exchange(true, std::memory_order_acq_rel)) return;
    done(std::move(outcome));
  }
};

void ResourceManager::set_async_engine(
    runtime::EventLoop* loop,
    std::function<void(std::function<void()>)> resume) {
  loop_ = loop;
  resume_ = std::move(resume);
}

void ResourceManager::resume_on_worker(std::function<void()> fn) {
  if (resume_ != nullptr) {
    resume_(std::move(fn));
  } else {
    loop_->post(std::move(fn));
  }
}

Result<model::Value> ResourceManager::invoke(const std::string& resource,
                                             const std::string& command,
                                             const Args& args,
                                             obs::RequestContext& context) {
  return run_inline<Result<model::Value>>([&](InvokeCallback done) {
    start_invocation(resource, command, args, context, true,
                     std::move(done));
  });
}

void ResourceManager::invoke_async(const std::string& resource,
                                   const std::string& command,
                                   const Args& args,
                                   obs::RequestContext& context,
                                   InvokeCallback done) {
  if (done == nullptr) done = [](Result<model::Value>) {};
  // No event engine wired (tests and split deployments that never built
  // a staged pipeline): run inline on the calling thread.
  start_invocation(resource, command, args, context, loop_ == nullptr,
                   std::move(done));
}

void ResourceManager::execute_attempt(ResourceAdapter& adapter,
                                      const std::string& resource,
                                      const std::string& command,
                                      const Args& args, bool inline_mode,
                                      ResourceAdapter::Completion done) {
  trace_.record(resource, command, args);
  MDSM_LOG_DEBUG("resource-manager")
      << resource << "." << format_invocation(command, args);
  // Adapters are plugin code over external resources; this is the fault
  // boundary. An escaping exception must degrade to a Status, not unwind
  // through the controller's EU stack (which would strand queued signals
  // for the next request to pick up). The completion runs outside the
  // try, so a throw from the layers above is never misattributed to the
  // adapter.
  std::optional<Result<model::Value>> outcome;
  try {
    if (!inline_mode) {
      // Settle at most once, even for the pathological adapter that
      // completes and then throws.
      auto once = std::make_shared<std::atomic<bool>>(false);
      done = [once, done = std::move(done)](Result<model::Value> settled) {
        if (!once->exchange(true, std::memory_order_acq_rel)) {
          done(std::move(settled));
        }
      };
      adapter.execute_async(command, args, done);
      return;
    }
    outcome.emplace(adapter.execute(command, args));
  } catch (const std::exception& e) {
    exceptions_counter_.add();
    log_error("resource-manager")
        << resource << "." << command << " threw: " << e.what();
    outcome.emplace(ExecutionError("resource adapter '" + resource +
                                   "' threw during '" + command +
                                   "': " + e.what()));
  } catch (...) {
    exceptions_counter_.add();
    log_error("resource-manager")
        << resource << "." << command << " threw a non-std::exception";
    outcome.emplace(ExecutionError("resource adapter '" + resource +
                                   "' threw a non-std::exception during '" +
                                   command + "'"));
  }
  done(std::move(*outcome));
}

void ResourceManager::start_invocation(const std::string& resource,
                                       const std::string& command,
                                       const Args& args,
                                       obs::RequestContext& context,
                                       bool inline_mode,
                                       InvokeCallback done) {
  // Pin the adapter (and its policy) under a brief shared lock, execute
  // unlocked: a concurrent remove_adapter() unregisters immediately while
  // this call finishes on the pinned instance, and an adapter that
  // re-enters invoke() through the bus (event → autonomic plan → kInvoke)
  // cannot self-deadlock on the map lock.
  std::shared_ptr<ResourceAdapter> adapter;
  std::shared_ptr<PolicyState> state;
  {
    std::shared_lock lock(mutex_);
    auto it = adapters_.find(resource);
    if (it == adapters_.end()) {
      lock.unlock();
      done(NotFound("no resource adapter '" + resource + "'"));
      return;
    }
    adapter = it->second;
    auto policy_it = policies_.find(resource);
    if (policy_it != policies_.end()) state = policy_it->second;
  }
  if (state == nullptr) {
    // Fire-once fast path (no policy): the deadline gate around the
    // resource call itself — a request with no budget left must not
    // issue the command at all — then a single attempt whose completion
    // is the resolution.
    if (Status gate = context.check_deadline("broker.invoke"); !gate.ok()) {
      done(gate);
      return;
    }
    execute_attempt(*adapter, resource, command, args, inline_mode,
                    std::move(done));
    return;
  }
  auto call = std::make_shared<Invocation>();
  call->adapter = std::move(adapter);
  call->state = state;
  call->resource = resource;
  call->command = command;
  call->args = args;
  call->context = &context;
  call->inline_mode = inline_mode;
  call->done = std::move(done);
  // One jitter chain per logical invoke; the per-chain seed keeps soak
  // runs repeatable without sharing RNG state across threads.
  call->backoff = RetryBackoff(
      state->policy.initial_backoff, state->policy.max_backoff,
      state->policy.jitter_seed +
          state->chains.fetch_add(1, std::memory_order_relaxed));
  start_attempt(std::move(call));
}

void ResourceManager::start_attempt(std::shared_ptr<Invocation> call) {
  const InvocationPolicy& policy = call->state->policy;
  obs::RequestContext& context = *call->context;
  const Clock& clock = context.clock();
  CircuitBreaker::AdmitResult admitted{};
  if (call->state->breaker != nullptr) {
    admitted = call->state->breaker->admit(clock.now());
    if (admitted.admission == CircuitBreaker::Admission::kReject) {
      breaker_open_counter_.add();
      MDSM_LOG_DEBUG("resource-manager")
          << call->resource << "." << call->command
          << " fast-failed: circuit open";
      degrade(call, Unavailable("circuit open for resource '" +
                                call->resource + "' ('" + call->command +
                                "' fast-failed)"));
      return;
    }
  }
  // The deadline budget gates every attempt, not just layer crossings:
  // a stalled previous attempt must not let this one start over budget.
  if (Status gate = context.check_deadline("broker.invoke"); !gate.ok()) {
    if (call->state->breaker != nullptr &&
        admitted.admission == CircuitBreaker::Admission::kProbe) {
      // The admitted probe never ran; retire its slot (as a failure, so
      // the breaker re-opens) rather than leaking it — a leaked probe
      // slot would reject every future probe and wedge the breaker
      // half-open forever. Closed-state admissions need no retiring and
      // must not record a synthetic outcome in the window.
      publish_transition(call->resource, call->state->breaker->on_result(
                                             admitted.admission, false,
                                             clock.now()));
    }
    exhausted_counter_.add();
    call->resolve(gate);
    return;
  }
  ++call->attempt;
  if (call->attempt > 1) retries_counter_.add();
  const std::uint64_t span = context.open_span(
      attempt_span_, call->resource + "." + call->command + "#" +
                         std::to_string(call->attempt));
  const TimePoint started = clock.now();
  auto settled = std::make_shared<std::atomic<bool>>(false);
  std::uint64_t overrun_timer = 0;
  if (!call->inline_mode && policy.attempt_timeout.count() > 0) {
    // The overrun timer makes the attempt timeout *preemptive*: when it
    // wins the settle race the attempt is disowned — failed against the
    // breaker, retried or degraded right away — while the adapter is
    // still grinding on some other thread.
    overrun_timer = loop_->schedule(
        policy.attempt_timeout,
        [this, call, settled, admission = admitted.admission, span,
         started] {
          if (settled->exchange(true, std::memory_order_acq_rel)) return;
          overruns_counter_.add();
          Status timed_out = Timeout(
              "resource '" + call->resource + "' attempt " +
              std::to_string(call->attempt) + " of '" + call->command +
              "' exceeded its " +
              std::to_string(
                  call->state->policy.attempt_timeout.count()) +
              "us budget (disowned)");
          // Settle on a worker, not the loop thread: the retry decision
          // may issue the next attempt inline.
          resume_on_worker([this, call, admission, span, started,
                            timed_out = std::move(timed_out)] {
            attempt_settled(call, admission, span, started, timed_out);
          });
        });
  }
  execute_attempt(
      *call->adapter, call->resource, call->command, call->args,
      call->inline_mode,
      [this, call, settled, overrun_timer, admission = admitted.admission,
       span, started](Result<model::Value> outcome) {
        if (settled->exchange(true, std::memory_order_acq_rel)) {
          // The overrun timer already disowned this attempt; its actual
          // outcome — success or not — arrives too late to matter.
          late_completions_counter_.add();
          return;
        }
        if (overrun_timer != 0) loop_->cancel(overrun_timer);
        attempt_settled(call, admission, span, started, std::move(outcome));
      });
}

void ResourceManager::attempt_settled(const std::shared_ptr<Invocation>& call,
                                      CircuitBreaker::Admission admission,
                                      std::uint64_t span, TimePoint started,
                                      Result<model::Value> outcome) {
  const InvocationPolicy& policy = call->state->policy;
  obs::RequestContext& context = *call->context;
  const Clock& clock = context.clock();
  const Duration took = clock.now() - started;
  context.close_span(span);
  const bool success = outcome.ok();
  if (call->state->breaker != nullptr) {
    publish_transition(call->resource, call->state->breaker->on_result(
                                           admission, success, clock.now()));
  }
  if (success) {
    call->resolve(std::move(outcome));
    return;
  }
  Status last_status = outcome.status();
  // Cooperative per-attempt timeout (inline mode): a synchronous adapter
  // cannot be preempted, but a failure that stalled past the attempt
  // budget is a timeout fault (retryable), whatever the adapter claimed.
  if (call->inline_mode && policy.attempt_timeout.count() > 0 &&
      took >= policy.attempt_timeout) {
    last_status = Timeout(
        "resource '" + call->resource + "' attempt " +
        std::to_string(call->attempt) + " of '" + call->command +
        "' exceeded its " + std::to_string(policy.attempt_timeout.count()) +
        "us budget (" + last_status.to_string() + ")");
  }
  if (!retryable(last_status.code())) {
    // Permanent fault (authoring/registry error): retrying or degrading
    // to a fallback would only mask it.
    call->resolve(std::move(last_status));
    return;
  }
  if (call->attempt >= policy.max_attempts) {
    exhausted_counter_.add();
    log_warn("resource-manager")
        << call->resource << "." << call->command << " failed after "
        << policy.max_attempts << " attempts: " << last_status.to_string();
    degrade(call, std::move(last_status));
    return;
  }
  Duration delay = call->backoff.next();
  if (std::optional<TimePoint> deadline = context.deadline()) {
    const Duration remaining = *deadline - clock.now();
    if (remaining.count() <= 0 || delay >= remaining) {
      // Waiting the backoff would only deliver a late failure; give up
      // with the budget intact rather than returning late.
      exhausted_counter_.add();
      degrade(call, Timeout("resource '" + call->resource +
                            "' retry budget exhausted after attempt " +
                            std::to_string(call->attempt) + " of '" +
                            call->command + "' (" + last_status.to_string() +
                            ")"));
      return;
    }
  }
  if (call->inline_mode) {
    // Recursion depth is bounded by policy.max_attempts.
    if (delay.count() > 0) {
      if (sleep_hook_ != nullptr) {
        sleep_hook_(delay);
      } else {
        std::this_thread::sleep_for(delay);
      }
    }
    start_attempt(call);
    return;
  }
  if (delay.count() <= 0) {
    // Degenerate zero backoff: hop through a worker to bound recursion.
    resume_on_worker([this, call] { start_attempt(call); });
    return;
  }
  // The park: no worker holds this request while the backoff elapses.
  loop_->schedule(delay, [this, call] {
    resume_on_worker([this, call] { start_attempt(call); });
  });
}

void ResourceManager::degrade(const std::shared_ptr<Invocation>& call,
                              Status primary_status) {
  const InvocationPolicy& policy = call->state->policy;
  if (policy.fallback_resource.empty()) {
    call->resolve(std::move(primary_status));
    return;
  }
  std::shared_ptr<ResourceAdapter> fallback;
  {
    std::shared_lock lock(mutex_);
    auto it = adapters_.find(policy.fallback_resource);
    if (it != adapters_.end()) fallback = it->second;
  }
  if (fallback == nullptr) {
    log_warn("resource-manager")
        << call->resource << " fallback '" << policy.fallback_resource
        << "' is not registered";
    call->resolve(std::move(primary_status));
    return;
  }
  fallbacks_counter_.add();
  bus_->publish("resource.degraded", call->resource,
                model::Value(model::ValueList{
                    model::Value(call->resource),
                    model::Value(policy.fallback_resource),
                    model::Value(call->command)}));
  std::uint64_t span = call->context->open_span(
      fallback_span_, call->resource + "->" + policy.fallback_resource);
  const bool tag_degraded = policy.tag_degraded;
  execute_attempt(
      *fallback, policy.fallback_resource, call->command, call->args,
      call->inline_mode,
      [call, span, tag_degraded, primary_status = std::move(primary_status)](
          Result<model::Value> outcome) {
        call->context->close_span(span);
        if (!outcome.ok()) {
          // The degraded path failed too; surface the primary fault.
          call->resolve(primary_status);
          return;
        }
        if (!tag_degraded) {
          call->resolve(std::move(outcome));
          return;
        }
        call->resolve(model::Value(model::ValueList{
            model::Value("degraded"), std::move(outcome.value())}));
      });
}

void ResourceManager::publish_transition(
    const std::string& resource, CircuitBreaker::Transition transition) {
  if (transition == CircuitBreaker::Transition::kNone) return;
  breaker_transitions_counter_.add();
  const bool opened = transition == CircuitBreaker::Transition::kOpened;
  log_warn("resource-manager")
      << "circuit for '" << resource << "' "
      << (opened ? "opened" : "closed");
  bus_->publish(opened ? "resource.breaker.open" : "resource.breaker.close",
                resource, model::Value(resource));
}

}  // namespace mdsm::broker
