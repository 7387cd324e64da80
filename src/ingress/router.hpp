// Pattern-based request router for the ingress front-end (PR 7), in the
// style of WebFrame's route tables: a topic pattern is a '/'-separated
// sequence of literal segments and "{name}" captures, and routing a
// concrete topic binds each capture to its segment. The most literal
// match wins ("submit/cml/{session}" beats "submit/{dsml}/{session}"
// for "submit/cml/s1"), ties resolve to registration order.
//
// Thread-safety: routes are installed at attach time, before any traffic
// flows; route() is const and safe to call from the delivery thread
// concurrently with other route() calls. Mutating the table while
// routing is not supported (same discipline as Endpoint handlers).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "net/network.hpp"

namespace mdsm::ingress {

/// Capture bindings of a matched route ("dsml" → "cml"). A route holds a
/// handful of captures at most, so a flat vector beats a map.
class RouteParams {
 public:
  void add(std::string key, std::string value) {
    params_.emplace_back(std::move(key), std::move(value));
  }
  [[nodiscard]] std::string_view get(std::string_view key) const noexcept {
    for (const auto& [k, v] : params_) {
      if (k == key) return v;
    }
    return {};
  }

 private:
  std::vector<std::pair<std::string, std::string>> params_;
};

class Router {
 public:
  using Handler =
      std::function<void(const net::Message&, const RouteParams&)>;

  struct Match {
    const Handler* handler = nullptr;
    RouteParams params;
    std::string_view pattern;  ///< the winning pattern, for diagnostics
  };

  /// Register `pattern` → `handler`. Patterns must be non-empty, and a
  /// pattern registered twice is an error (ambiguous dispatch).
  Status add(std::string_view pattern, Handler handler);

  /// Match `topic` against the table; nullopt when no route fits.
  [[nodiscard]] std::optional<Match> route(std::string_view topic) const;


 private:
  struct Route {
    std::string pattern;
    std::vector<std::string> segments;  ///< literals and "{name}" captures
    std::size_t literals = 0;           ///< specificity score
    Handler handler;
  };

  static std::vector<std::string> split(std::string_view topic);
  /// True when `segments` fits `topic_segments`, filling `params`.
  static bool matches(const Route& route,
                      const std::vector<std::string>& topic_segments,
                      RouteParams& params);

  std::vector<Route> routes_;
};

}  // namespace mdsm::ingress
