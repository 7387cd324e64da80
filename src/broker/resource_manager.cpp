#include <mutex>
#include <optional>
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
      late_completions_(std::make_shared<LateCompletions>(
          &metrics.counter("broker.late_completions"))),
      attempt_span_(metrics, "broker.attempt"),
      fallback_span_(metrics, "broker.fallback"),
      trace_(metrics) {}

ResourceManager::~ResourceManager() {
  std::lock_guard lock(late_completions_->mutex);
  late_completions_->cell = nullptr;
}

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

// ---- the invocation coroutine (DESIGN.md §6b/§6e) ------------------
//
// An async attempt races the adapter's answer against the overrun timer:
// whoever flips `settled` first owns the outcome, and with it the breaker
// record and the span close once the invocation resumes; the loser only
// bumps a counter. `answered` holds the adapter itself to one answer, so
// one that completes and then throws settles once. An answer that
// arrives before execute_async() returns is taken on the awaiting stack
// (the `turn` race of runtime::Task); a later one resumes the invocation
// on the answering thread. A timer that wins does not wait for
// execute_async() to return: it resumes the invocation on a worker while
// the adapter is still grinding, so the race owns everything the adapter
// may still touch (the adapter itself, its arguments). That
// single-owner discipline is also what keeps the request's Trace
// single-writer.

struct ResourceManager::Attempt {
  /// What the adapter's answer and the overrun timer share; it outlives
  /// the awaiter, and the invocation, when the timer disowns the attempt.
  struct Race {
    std::coroutine_handle<> waiter;
    obs::RequestContext* context = nullptr;
    std::shared_ptr<ResourceAdapter> adapter;
    std::string resource;
    std::string command;
    Args args;
    Duration timeout{0};
    /// The manager's late-completion holder; set only when a timer is
    /// armed, the one way an answer can come late.
    std::shared_ptr<LateCompletions> late;
    int number = 0;
    std::uint64_t timer = 0;
    std::atomic<bool> answered{false};
    std::atomic<bool> settled{false};
    /// kRunning while execute_async() runs, then kParked; the settling
    /// answer sets kAnswered. A winning timer resumes the waiter as it is.
    std::atomic<int> turn{kRunning};
    std::optional<Result<model::Value>> outcome;
  };
  enum : int { kRunning, kParked, kAnswered };

  ResourceManager* manager;
  const std::shared_ptr<ResourceAdapter>* adapter;
  const std::string* resource;
  const std::string* command;
  const Args* args;
  obs::RequestContext* context;
  bool parks;        ///< false: execute() on the awaiting thread
  Duration timeout;  ///< overrun budget (0 = no timer)
  int number;        ///< attempt number, for the overrun message
  std::optional<Result<model::Value>> outcome;  ///< answered inline
  std::shared_ptr<Race> race;

  /// One physical attempt: the trace entry, recorded first so a failed
  /// command still appears (it was issued), the debug line, then `call`
  /// behind the fault boundary. Adapters are plugin code over external
  /// resources: an exception escaping them degrades to a Status handed
  /// to `answer`, never unwinds through the controller's EU stack (which
  /// would strand queued signals for the next request to pick up).
  template <typename Call, typename Answer>
  static void issue(ResourceManager& rm, const std::string& resource,
                    const std::string& command, const Args& args, Call call,
                    Answer& answer) {
    rm.trace_.record(resource, command, args);
    MDSM_LOG_DEBUG("resource-manager")
        << resource << "." << format_invocation(command, args);
    try {
      call();
    } catch (const std::exception& e) {
      answer(rm.contain(resource, command, e.what()));
    } catch (...) {
      answer(rm.contain(resource, command, nullptr));
    }
  }

  bool await_ready() {
    if (parks) return false;
    auto answer = [this](Result<model::Value> answered) {
      outcome.emplace(std::move(answered));
    };
    issue(
        *manager, *resource, *command, *args,
        [&] { answer((*adapter)->execute(*command, *args)); }, answer);
    return true;
  }
  bool await_suspend(std::coroutine_handle<> waiter);
  Result<model::Value> await_resume() {
    return outcome.has_value() ? std::move(*outcome)
                               : std::move(*race->outcome);
  }
};

bool ResourceManager::Attempt::await_suspend(std::coroutine_handle<> waiter) {
  // Once the timer is armed it may resume the waiter and end this awaiter
  // and the invocation: from there on only the race and `rm` are touched.
  auto race = std::make_shared<Race>();
  race->waiter = waiter;
  race->context = context;
  race->adapter = *adapter;
  race->resource = *resource;
  race->command = *command;
  race->args = *args;
  race->timeout = timeout;
  race->number = number;
  this->race = race;
  ResourceManager* rm = manager;
  if (timeout.count() > 0) race->late = rm->late_completions_;
  auto answer = [rm, race](Result<model::Value> settled) {
    if (race->answered.exchange(true, std::memory_order_acq_rel)) return;
    if (race->settled.exchange(true, std::memory_order_acq_rel)) {
      // The overrun timer already disowned this attempt; its actual
      // outcome, success or not, arrives too late to matter, perhaps
      // after the manager is gone: touch nothing of it but `late`.
      std::lock_guard lock(race->late->mutex);
      if (race->late->cell != nullptr) race->late->cell->add();
      return;
    }
    if (race->timer != 0) rm->loop_->cancel(race->timer);
    race->outcome.emplace(std::move(settled));
    if (race->turn.exchange(kAnswered, std::memory_order_acq_rel) ==
        kParked) {
      obs::ContextScope ambient(*race->context);
      race->waiter.resume();
    }
  };
  auto call = [rm, &race, &answer] {
    if (race->timeout.count() > 0) {
      race->timer = rm->loop_->schedule(race->timeout, [rm, race] {
        if (race->settled.exchange(true, std::memory_order_acq_rel)) return;
        rm->overruns_counter_.add();
        race->outcome.emplace(Timeout(
            "resource '" + race->resource + "' attempt " +
            std::to_string(race->number) + " of '" + race->command +
            "' exceeded its " + std::to_string(race->timeout.count()) +
            "us budget (disowned)"));
        // Resume on a worker, not the loop thread: the retry decision
        // may issue the next attempt at once.
        std::function<void()> resume = [race] {
          obs::ContextScope ambient(*race->context);
          race->waiter.resume();
        };
        if (rm->executor_ == nullptr ||
            !rm->executor_
                 ->submit({.run = resume,
                           .continuation = true,
                           .stage = rm->stage_})
                 .ok()) {
          rm->loop_->post(std::move(resume));
        }
      });
    }
    race->adapter->execute_async(race->command, race->args, answer);
  };
  issue(*rm, race->resource, race->command, race->args, call, answer);
  return race->turn.exchange(kParked, std::memory_order_acq_rel) !=
         kAnswered;
}

Status ResourceManager::contain(const std::string& resource,
                                const std::string& command,
                                const char* what) {
  exceptions_counter_.add();
  if (what == nullptr) {
    log_error("resource-manager")
        << resource << "." << command << " threw a non-std::exception";
    return ExecutionError("resource adapter '" + resource +
                          "' threw a non-std::exception during '" + command +
                          "'");
  }
  log_error("resource-manager")
      << resource << "." << command << " threw: " << what;
  return ExecutionError("resource adapter '" + resource + "' threw during '" +
                        command + "': " + what);
}

runtime::Task<Result<model::Value>> ResourceManager::invoke(
    const std::string& resource, const std::string& command,
    const Args& args, obs::RequestContext& context) {
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
    if (it != adapters_.end()) {
      adapter = it->second;
      auto policy_it = policies_.find(resource);
      if (policy_it != policies_.end()) state = policy_it->second;
    }
  }
  if (adapter == nullptr) {
    co_return NotFound("no resource adapter '" + resource + "'");
  }
  const bool parks = loop_ != nullptr && context.may_park();
  // Awaited as named locals: GCC 12 miscompiles some co_awaits of a
  // braced temporary awaiter with non-trivial members.
  auto attempt_on = [&](const std::shared_ptr<ResourceAdapter>& target,
                        const std::string& name, Duration timeout,
                        int number) {
    return Attempt{.manager = this,
                   .adapter = &target,
                   .resource = &name,
                   .command = &command,
                   .args = &args,
                   .context = &context,
                   .parks = parks,
                   .timeout = timeout,
                   .number = number};
  };
  if (state == nullptr) {
    // Fire-once (no policy): the deadline gate around the resource call
    // itself — a request with no budget left must not issue the command
    // at all — then a single attempt.
    if (Status gate = context.check_deadline("broker.invoke"); !gate.ok()) {
      co_return gate;
    }
    Attempt only = attempt_on(adapter, resource, Duration(0), 1);
    co_return co_await only;
  }
  const InvocationPolicy& policy = state->policy;
  const Clock& clock = context.clock();
  // One jitter chain per logical invoke; the per-chain seed keeps soak
  // runs repeatable without sharing RNG state across threads.
  RetryBackoff backoff(policy.initial_backoff, policy.max_backoff,
                       policy.jitter_seed + state->chains.fetch_add(
                                                1, std::memory_order_relaxed));
  Status fault;  ///< what the fallback stands in for
  for (int attempt = 1;; ++attempt) {
    CircuitBreaker::AdmitResult admitted{};
    if (state->breaker != nullptr) {
      admitted = state->breaker->admit(clock.now());
      if (admitted.admission == CircuitBreaker::Admission::kReject) {
        breaker_open_counter_.add();
        MDSM_LOG_DEBUG("resource-manager")
            << resource << "." << command << " fast-failed: circuit open";
        fault = Unavailable("circuit open for resource '" + resource +
                            "' ('" + command + "' fast-failed)");
        break;
      }
    }
    // The deadline budget gates every attempt, not just layer crossings:
    // a stalled previous attempt must not let this one start over budget.
    if (Status gate = context.check_deadline("broker.invoke"); !gate.ok()) {
      if (state->breaker != nullptr &&
          admitted.admission == CircuitBreaker::Admission::kProbe) {
        // The admitted probe never ran; retire its slot (as a failure, so
        // the breaker re-opens) rather than leaking it — a leaked probe
        // slot would reject every future probe and wedge the breaker
        // half-open forever. Closed-state admissions need no retiring and
        // must not record a synthetic outcome in the window.
        publish_transition(resource,
                           state->breaker->on_result(admitted.admission,
                                                     false, clock.now()));
      }
      exhausted_counter_.add();
      co_return gate;
    }
    if (attempt > 1) retries_counter_.add();
    const std::uint64_t span = context.open_span(
        attempt_span_,
        resource + "." + command + "#" + std::to_string(attempt));
    const TimePoint started = clock.now();
    Attempt issued =
        attempt_on(adapter, resource, policy.attempt_timeout, attempt);
    Result<model::Value> outcome = co_await issued;
    const Duration took = clock.now() - started;
    context.close_span(span);
    if (state->breaker != nullptr) {
      publish_transition(resource,
                         state->breaker->on_result(admitted.admission,
                                                   outcome.ok(), clock.now()));
    }
    if (outcome.ok()) co_return std::move(outcome);
    fault = outcome.status();
    // Cooperative per-attempt timeout (an attempt that could not park):
    // a synchronous adapter cannot be preempted, but a failure that
    // stalled past the attempt budget is a timeout fault (retryable),
    // whatever the adapter claimed.
    if (!parks && policy.attempt_timeout.count() > 0 &&
        took >= policy.attempt_timeout) {
      fault = Timeout("resource '" + resource + "' attempt " +
                      std::to_string(attempt) + " of '" + command +
                      "' exceeded its " +
                      std::to_string(policy.attempt_timeout.count()) +
                      "us budget (" + fault.to_string() + ")");
    }
    if (!retryable(fault.code())) {
      // Permanent fault (authoring/registry error): retrying or degrading
      // to a fallback would only mask it.
      co_return fault;
    }
    if (attempt >= policy.max_attempts) {
      exhausted_counter_.add();
      log_warn("resource-manager")
          << resource << "." << command << " failed after "
          << policy.max_attempts << " attempts: " << fault.to_string();
      break;
    }
    const Duration delay = backoff.next();
    if (std::optional<TimePoint> deadline = context.deadline()) {
      const Duration remaining = *deadline - clock.now();
      if (remaining.count() <= 0 || delay >= remaining) {
        // Waiting the backoff would only deliver a late failure; give up
        // with the budget intact rather than returning late.
        exhausted_counter_.add();
        fault = Timeout("resource '" + resource +
                        "' retry budget exhausted after attempt " +
                        std::to_string(attempt) + " of '" + command + "' (" +
                        fault.to_string() + ")");
        break;
      }
    }
    if (delay.count() <= 0) continue;
    if (parks) {
      // The park: no worker holds this request while the backoff
      // elapses. It resumes on the loop and hops to a worker.
      co_await runtime::EventLoop::Sleep{loop_, delay, &context};
      co_await runtime::Executor::Hop{executor_, stage_,
                                      runtime::TaskLane::kNormal, &context};
    } else if (sleep_hook_ != nullptr) {
      sleep_hook_(delay);
    } else {
      std::this_thread::sleep_for(delay);
    }
  }
  // Degraded path: fire-once on the fallback adapter; a success is tagged
  // ["degraded", value] when the policy asks for it, a failure surfaces
  // the primary fault (the more informative one).
  if (policy.fallback_resource.empty()) co_return fault;
  std::shared_ptr<ResourceAdapter> fallback;
  {
    std::shared_lock lock(mutex_);
    auto it = adapters_.find(policy.fallback_resource);
    if (it != adapters_.end()) fallback = it->second;
  }
  if (fallback == nullptr) {
    log_warn("resource-manager")
        << resource << " fallback '" << policy.fallback_resource
        << "' is not registered";
    co_return fault;
  }
  fallbacks_counter_.add();
  bus_->publish("resource.degraded", resource,
                model::Value(model::ValueList{
                    model::Value(resource),
                    model::Value(policy.fallback_resource),
                    model::Value(command)}));
  const std::uint64_t span = context.open_span(
      fallback_span_, resource + "->" + policy.fallback_resource);
  Attempt degraded =
      attempt_on(fallback, policy.fallback_resource, Duration(0), 1);
  Result<model::Value> outcome = co_await degraded;
  context.close_span(span);
  if (!outcome.ok()) co_return fault;
  if (!policy.tag_degraded) co_return std::move(outcome);
  co_return model::Value(model::ValueList{model::Value("degraded"),
                                          std::move(outcome.value())});
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
