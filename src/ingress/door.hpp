// The one wire door every networked server stands behind — the ingress
// server before a platform, the cluster front-end before a fleet, and a
// shard's internal routes. A WireDoor owns its endpoint end to end:
//
//   endpoint → route → decode → chain → terminal → reply / refuse
//
// It binds and unbinds the endpoint. It refuses an unknown topic as
// "no-route" and a payload that does not decode as "malformed" (or
// "bad-version" for a foreign wire major); the payload is decoded once,
// here. The MiddlewareChain runs on the public "submit/" and "query/"
// routes only: internal routes ("replicate/", "checkpoint/") are spoken
// by the front-end, a trusted hop. A route's terminal gets the decoded
// request and answers through reply() or refuse(), at once or later
// from another thread. The door counts received, malformed, unrouted,
// refused, refused.<slug>, replies and reply_failures under "ingress.".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "core/platform.hpp"
#include "ingress/middleware.hpp"
#include "ingress/router.hpp"
#include "ingress/wire.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace mdsm::ingress {

class WireDoor {
 public:
  /// The work behind a route. `context` holds the sender, the route
  /// captures, the decoded request and whatever the chain added.
  using Terminal = std::function<void(IngressContext& context)>;

  /// Counters resolve in `metrics`; it and `network` outlive the door.
  WireDoor(net::Network& network, obs::MetricsRegistry& metrics);
  /// Stops taking traffic, then unbinds the endpoint.
  ~WireDoor();
  WireDoor(const WireDoor&) = delete;
  WireDoor& operator=(const WireDoor&) = delete;

  /// Create the endpoint `name`. Traffic flows only after open().
  Status bind(std::string name);

  /// Provision the public door a middleware model describes: the chain
  /// (trace; rate-limit when the model sets ingress_rate_limit; auth
  /// when it sets ingress_auth; deadline), "submit/{dsml}/{session}"
  /// served by `submit`, and "query/{what}" and
  /// "query/{what}/{session}" served by `query`.
  Status provision(const core::IngressSettings& settings, Terminal submit,
                   Terminal query);

  /// Serve `pattern` with `terminal`. Call before open(): the route
  /// table is not guarded against concurrent delivery.
  Status route(std::string_view pattern, Terminal terminal);

  /// Start delivering messages (the last step of a server's attach) /
  /// stop delivering them (the first step of its teardown). The
  /// endpoint stays bound after close(), so replies still go out.
  void open();
  void close();
  /// Remove the endpoint: messages to it become undeliverable.
  void unbind();

  /// Send `reply` to `to` on the calling thread.
  void reply(const std::string& to, wire::Reply reply);
  /// Send a typed refusal for `status`; an empty `refusal` slug falls
  /// back to wire::classify_refusal.
  void refuse(const std::string& to, std::uint64_t request_id,
              const Status& status, std::string refusal = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  void on_message(const net::Message& message);
  /// Decode and answer one message; `terminal` is null for a topic no
  /// route matched.
  void serve(const net::Message& message, const RouteParams* params,
             const Terminal* terminal, bool chained);

  net::Network* network_;
  obs::MetricsRegistry* metrics_;
  std::shared_ptr<net::Endpoint> endpoint_;  ///< keepalive past removal
  std::string name_;
  Router router_;
  MiddlewareChain chain_;

  obs::Counter& received_;
  obs::Counter& malformed_;
  obs::Counter& unrouted_;
  obs::Counter& refused_;
  obs::Counter& replies_;
  obs::Counter& reply_failures_;
};

}  // namespace mdsm::ingress
