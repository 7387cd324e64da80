// Context store: the named "context variables" that guide action
// selection, command classification and policy evaluation (paper §V-A:
// "the choice of action ... is based on policies and context variables
// defined in the middleware model").
#pragma once

#include <atomic>
#include <map>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "model/value.hpp"

namespace mdsm::policy {

class ContextStore {
 public:
  /// Set (or overwrite) a variable. Bumps the store version.
  void set(const std::string& name, model::Value value);

  /// Value of `name`, or none if unset.
  [[nodiscard]] model::Value get(std::string_view name) const;

  [[nodiscard]] bool has(std::string_view name) const;

  void erase(const std::string& name);

  /// Monotone counter incremented on every mutation — lets caches (e.g.
  /// the controller's IM cache) detect context drift cheaply.
  [[nodiscard]] std::uint64_t version() const noexcept;

  /// Sorted names, for diagnostics.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Point-in-time copy of all variables.
  [[nodiscard]] std::map<std::string, model::Value> snapshot() const;

 private:
  // Reader/writer lock: policy evaluation (get/has) dominates and runs
  // concurrently on every request thread; mutation is rare. The version
  // is atomic so cache probes (every cached IM lookup reads it) skip the
  // lock entirely.
  mutable std::shared_mutex mutex_;
  std::map<std::string, model::Value, std::less<>> variables_;
  std::atomic<std::uint64_t> version_{0};
};

/// Read-only evaluation view: a ContextStore with transient per-request
/// bindings layered on top (checked first). Lets concurrent evaluations
/// see request-scoped variables — e.g. the controller's "command.name"
/// during classification — without mutating the shared store (which
/// would both race and spuriously invalidate version-stamped caches).
class ContextOverlay {
 public:
  explicit ContextOverlay(const ContextStore& base) : base_(&base) {}

  /// Bind `name` to a Value built in place from `value`.
  template <typename V>
  void bind(std::string name, V&& value) {
    bindings_.emplace_back(std::move(name), std::forward<V>(value));
  }

  [[nodiscard]] model::Value get(std::string_view name) const {
    for (const auto& [key, value] : bindings_) {
      if (key == name) return value;
    }
    return base_->get(name);
  }

  [[nodiscard]] bool has(std::string_view name) const {
    for (const auto& [key, value] : bindings_) {
      if (key == name) return true;
    }
    return base_->has(name);
  }

 private:
  const ContextStore* base_;
  // Linear scan: overlays carry one or two bindings, never enough to
  // justify a map.
  std::vector<std::pair<std::string, model::Value>> bindings_;
};

}  // namespace mdsm::policy
