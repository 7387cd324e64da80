// State Manager: "to store and manipulate the layer's runtime model"
// (paper §V-A). Implements the models@runtime principle [16]: the layer
// keeps a live Model reflecting the entities it manages, plus a scalar
// variable store for cheap bookkeeping.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "model/model.hpp"

namespace mdsm::broker {

/// Safe under concurrent execution. The runtime model is the committed,
/// immutable model the synthesis layer shares with this mirror; readers
/// get their own reference to it, so a later commit never pulls it out
/// from under them.
class StateManager {
 public:
  using ModelPtr = std::shared_ptr<const model::Model>;

  /// Install/replace the runtime model. Usually set by the platform
  /// assembler with an empty model of the application DSML metamodel;
  /// re-set on every commit by the synthesis model listener.
  void set_runtime_model(ModelPtr model) {
    {
      std::lock_guard lock(mutex_);
      runtime_model_.swap(model);
    }
    // The replaced model, if this held its last reference, is destroyed
    // here, outside the lock.
  }
  [[nodiscard]] bool has_runtime_model() const {
    std::lock_guard lock(mutex_);
    return runtime_model_ != nullptr;
  }
  /// The current runtime model (null before one is installed).
  [[nodiscard]] ModelPtr runtime_model() const {
    std::lock_guard lock(mutex_);
    return runtime_model_;
  }

  /// Scalar state variables (session counters, flags, ...).
  void set(const std::string& key, model::Value value) {
    std::lock_guard lock(mutex_);
    variables_[key] = std::move(value);
  }
  [[nodiscard]] model::Value get(std::string_view key) const {
    std::lock_guard lock(mutex_);
    auto it = variables_.find(key);
    return it == variables_.end() ? model::Value{} : it->second;
  }
  [[nodiscard]] bool has(std::string_view key) const {
    std::lock_guard lock(mutex_);
    return variables_.contains(key);
  }
  void erase(const std::string& key) {
    std::lock_guard lock(mutex_);
    variables_.erase(key);
  }
  [[nodiscard]] std::size_t variable_count() const {
    std::lock_guard lock(mutex_);
    return variables_.size();
  }
  /// Full copy of the scalar store — the broker half of a session
  /// checkpoint (Platform::export_session_state).
  [[nodiscard]] std::map<std::string, model::Value, std::less<>>
  variables_snapshot() const {
    std::lock_guard lock(mutex_);
    return variables_;
  }

 private:
  mutable std::mutex mutex_;
  ModelPtr runtime_model_;
  std::map<std::string, model::Value, std::less<>> variables_;
};

}  // namespace mdsm::broker
