// Ordered ingress middleware chain, after WebFrame's
// ViewMiddlewareChain: each middleware inspects/annotates the decoded
// request on its way to a door's terminal, and the first failure
// short-circuits the chain into a *typed* refusal reply. The chain a
// middleware model describes (trace, rate-limit, auth, deadline) is
// installed by WireDoor::install_chain (door.hpp). Admission control
// stays at the platform door inside submit_async; the chain hands off
// an annotated request.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "core/platform.hpp"
#include "ingress/router.hpp"
#include "ingress/wire.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace mdsm::ingress {

/// Everything a middleware may read or annotate while a request moves
/// from the wire to the platform door.
struct IngressContext {
  const net::Message* message = nullptr;  ///< raw wire message
  const RouteParams* params = nullptr;    ///< route captures (dsml, session)
  wire::Request request;                  ///< decoded body
  core::SubmitOptions options;            ///< accumulated submit options
  /// Refusal slug a refusing middleware pre-types ("unauthenticated");
  /// left empty, the server falls back to wire::classify_refusal.
  std::string refusal;
};

/// "<client>#<id>": the retry-stable identity of a request. A request a
/// front-end forwards keeps the original client's (forwarded_for), so
/// retries and failovers trace and dedup as one request at every hop.
[[nodiscard]] std::string request_identity(const IngressContext& context);

/// Returns Ok to pass the request on, any error Status to refuse it.
using Middleware = std::function<Status(IngressContext&)>;

class MiddlewareChain {
 public:
  /// Refusals count into `metrics`, which must outlive the chain.
  explicit MiddlewareChain(obs::MetricsRegistry& metrics)
      : metrics_(metrics) {}

  /// Append `fn` under `name`; its refusals count in the
  /// "ingress.middleware.<name>.refusals" cell, resolved here.
  void add(std::string name, Middleware fn);

  /// Run every middleware in registration order; the first non-Ok
  /// status stops the chain, counts as the refusing middleware's
  /// refusal and is returned.
  [[nodiscard]] Status run(IngressContext& context) const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  struct Entry {
    std::string name;
    Middleware fn;
    obs::Counter* refusals;
  };
  obs::MetricsRegistry& metrics_;
  std::vector<Entry> entries_;
};

/// Per-client token-bucket rate limiter backing the "rate-limit"
/// middleware (PR 8). Each client endpoint gets a bucket of `burst`
/// tokens refilled at `rate_per_second`; admit() takes one token or
/// reports the bucket dry. Buckets are lazily created and refilled on
/// the caller-supplied clock (the network's SimClock at the ingress), so
/// virtual-time tests are deterministic.
class RateLimiter {
 public:
  RateLimiter(double rate_per_second, double burst);

  /// Take one token for `client` at `now`; false when the bucket is dry.
  [[nodiscard]] bool admit(std::string_view client, TimePoint now);

  [[nodiscard]] std::size_t clients() const;

 private:
  struct Bucket {
    double tokens = 0;
    TimePoint refilled_at{};
  };

  double rate_;
  double burst_;
  mutable std::mutex mutex_;
  std::map<std::string, Bucket, std::less<>> buckets_;
};

}  // namespace mdsm::ingress
