// Vocabulary of the Broker layer (paper Fig. 6): calls arriving from the
// Controller layer, events rising from resources, and the trace of
// commands issued to the underlying resources.
//
// The command trace is the observable the paper's Exp-1 (behavioral
// equivalence) compares: "the sequence of commands that were generated
// for the underlying resources as a result of model interpretation".
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "model/value.hpp"
#include "obs/metrics.hpp"

namespace mdsm::broker {

using Args = std::map<std::string, model::Value, std::less<>>;

/// A call into the broker layer (from the Controller above).
struct Call {
  std::string name;  ///< operation, e.g. "session.open"
  Args args;
};

/// Render "name(k=v, k=v)" with sorted keys — canonical trace form.
std::string format_invocation(const std::string& name, const Args& args);

/// Checked argument lookup for instruction/step execution. A missing key
/// is an ExecutionError naming the operation — never a silently
/// default-inserted null (a present key whose value resolved to none is
/// fine; only absence is a model-authoring bug worth surfacing).
Result<model::Value> require_arg(const Args& args, std::string_view key,
                                 std::string_view op);

/// Record of the newest resource commands, used for equivalence checks
/// and performance accounting. A fixed-capacity ring: once kCapacity
/// entries are held, each record drops the oldest. Every record counts
/// in the "broker.commands" cell and every drop in
/// "broker.trace_dropped", so the totals survive the ring.
/// record()/size()/clear()/snapshot() are safe under concurrent
/// execution; entries() hands out the ring itself and is for quiescent
/// inspection (equivalence checks after the run).
class CommandTrace {
 public:
  static constexpr std::size_t kCapacity = 4096;

  /// `metrics` must outlive the trace.
  explicit CommandTrace(obs::MetricsRegistry& metrics)
      : recorded_(metrics.counter("broker.commands")),
        dropped_(metrics.counter("broker.trace_dropped")) {}

  void record(const std::string& resource, const std::string& command,
              const Args& args);

  /// The held entries, oldest first.
  [[nodiscard]] const std::deque<std::string>& entries() const noexcept {
    return entries_;
  }
  /// Locked point-in-time copy, safe while other threads still record.
  [[nodiscard]] std::vector<std::string> snapshot() const {
    std::lock_guard lock(mutex_);
    return {entries_.begin(), entries_.end()};
  }
  /// Entries held (at most kCapacity).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }
  void clear() {
    std::lock_guard lock(mutex_);
    entries_.clear();
  }

  /// Exact sequence equality — the paper's behavioral-equivalence test.
  friend bool operator==(const CommandTrace& a, const CommandTrace& b) {
    if (&a == &b) return true;
    std::scoped_lock lock(a.mutex_, b.mutex_);
    return a.entries_ == b.entries_;
  }

 private:
  obs::Counter& recorded_;
  obs::Counter& dropped_;
  mutable std::mutex mutex_;
  std::deque<std::string> entries_;
};

}  // namespace mdsm::broker
