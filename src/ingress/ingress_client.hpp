// Client-side counterpart of the IngressServer (PR 7): a thin stub that
// encodes submissions onto the wire, correlates replies by request id,
// and surfaces every outcome — including the server's typed refusals —
// as a Status the caller can branch on. The refusal slug rides along, so
// a remote caller distinguishes "overload" backpressure from a spent
// "deadline" without parsing message strings.
//
// Message loss is a first-class outcome: the network may drop a request
// or its reply, so every pending submission carries an expiry on the
// network clock, and expire_overdue() resolves the overdue ones with
// kTimeout / "reply-lost". A callback therefore fires exactly once per
// accepted submit: on the reply, or on expiry, or at detach (client
// destruction) — never twice, never zero.
//
// The client counts submitted, resolved_ok, refused, expired,
// stray_replies and retried under "client." in a registry it owns.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "ingress/wire.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace mdsm::ingress {

struct IngressClientOptions {
  std::string endpoint = "client";  ///< this client's endpoint name
  std::string auth;                 ///< token stamped on every request
  /// Grace period past the request deadline (or from send, when no
  /// deadline is set) before a missing reply is written off as lost.
  Duration reply_timeout = std::chrono::seconds(5);
  /// Times an overdue request is re-sent (same request id — the server's
  /// dedup ledger makes the retry idempotent) before expire_overdue()
  /// writes it off as "reply-lost". 0 preserves fire-once behaviour.
  int retry_budget = 0;
};

/// What became of one remote submission.
struct RemoteOutcome {
  std::uint64_t request_id = 0;
  Status status;        ///< Ok, or the server's refusal re-typed locally
  std::string refusal;  ///< taxonomy slug ("" on success)
  std::int64_t commands = 0;  ///< commands the platform executed
  std::string payload;        ///< script id or query result text
};

/// Per-submission options mirrored onto the wire request.
struct RemoteSubmitOptions {
  std::optional<Duration> deadline;  ///< pipeline budget, sent on the wire
  bool high_priority = false;
  /// Original "<client>#<id>" identity when forwarding on another
  /// client's behalf (cluster front-end); "" = direct submission.
  std::string forwarded_for;
  /// When true (the default for end clients), the reply window is
  /// reply_timeout + deadline — the server may legally spend the whole
  /// deadline before the grace period starts. The cluster front-end sets
  /// it false: its hop detects losses on its own reply_timeout cadence
  /// so a failover still has deadline budget left to spend (PR 9).
  bool wait_includes_deadline = true;
};

class IngressClient {
 public:
  using Callback = std::function<void(const RemoteOutcome&)>;

  /// Bind a client endpoint on `network`, talking to `server_endpoint`.
  static Result<std::unique_ptr<IngressClient>> attach(
      net::Network& network, std::string server_endpoint,
      IngressClientOptions options = {});

  ~IngressClient();  // unresolved submissions resolve kUnavailable/"detached"
  IngressClient(const IngressClient&) = delete;
  IngressClient& operator=(const IngressClient&) = delete;

  /// Submit application-model text to the remote platform. Returns the
  /// assigned request id, or the network-layer error when even the send
  /// failed (then `callback` will never fire).
  Result<std::uint64_t> submit(std::string_view dsml, std::string_view session,
                               std::string text, Callback callback,
                               RemoteSubmitOptions options = {});

  /// Query the remote platform ("runtime-model", "metrics").
  Result<std::uint64_t> query(std::string_view what, Callback callback);

  /// Send `request` on an arbitrary topic (extension routes like the
  /// cluster's "replicate/model-diff"). The request id is assigned here;
  /// correlation, expiry and retries behave exactly like submit().
  Result<std::uint64_t> call(std::string topic, wire::Request request,
                             Callback callback,
                             std::optional<Duration> deadline = {});

  /// Drain semantics (PR 9): stop accepting NEW work — submit / query /
  /// call return kUnavailable with a "client closed" message — while
  /// everything already pending keeps resolving normally (replies
  /// correlate, expiries fire, retries of accepted work still re-send).
  /// The cluster front-end closes a leaving shard's client the moment
  /// the shard drops out of the ring, then retires it once pending()
  /// reaches zero. Idempotent.
  void close();

  /// Walk every pending submission whose expiry passed on the network
  /// clock: re-send it under the same request id while its retry budget
  /// lasts, then resolve it with kTimeout / "reply-lost"; returns how
  /// many were resolved. Simulation drivers call this after advancing
  /// virtual time.
  std::size_t expire_overdue();

  [[nodiscard]] const std::string& endpoint_name() const noexcept {
    return endpoint_name_;
  }
  [[nodiscard]] std::size_t pending() const;
  /// The client's "client.*" cells.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

 private:
  IngressClient(net::Network& network, std::string server_endpoint,
                IngressClientOptions options);

  void on_reply(const net::Message& message);
  Result<std::uint64_t> send_request(std::string topic, wire::Request request,
                                     std::optional<Duration> deadline,
                                     Callback callback);

  struct PendingCall {
    Callback callback;
    TimePoint expires_at;
    /// Retry state: the request is kept verbatim (same id) so an overdue
    /// entry can be re-sent while retries_left lasts.
    std::string topic;
    wire::Request request;
    Duration budget{0};  ///< expiry window to re-arm on each retry
    int retries_left = 0;
  };

  net::Network* network_;
  std::shared_ptr<net::Endpoint> endpoint_;  ///< keepalive past teardown
  std::string endpoint_name_;
  std::string server_endpoint_;
  IngressClientOptions options_;

  mutable std::mutex mutex_;  ///< guards pending_, next_id_, closed_
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_id_ = 1;
  bool closed_ = false;

  obs::MetricsRegistry metrics_;  ///< declared before the cells in it
  /// Requests that left the endpoint.
  obs::Counter& submitted_ = metrics_.counter("client.submitted");
  obs::Counter& resolved_ok_ = metrics_.counter("client.resolved_ok");
  /// Replies carrying a typed refusal.
  obs::Counter& refused_ = metrics_.counter("client.refused");
  /// Written off as "reply-lost" (on expiry or at detach).
  obs::Counter& expired_ = metrics_.counter("client.expired");
  /// Replies with no pending entry.
  obs::Counter& stray_replies_ = metrics_.counter("client.stray_replies");
  /// Overdue requests re-sent.
  obs::Counter& retried_ = metrics_.counter("client.retried");
};

}  // namespace mdsm::ingress
