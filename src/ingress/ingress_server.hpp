// The networked ingress front-end (PR 7): turns a Platform from a
// library into a server. An IngressServer binds an Endpoint on the
// simulated network, decodes submit/query wire messages, routes them
// through a pattern Router and an ordered MiddlewareChain, and hands
// admitted submissions to Platform::submit_async. Every outcome —
// including the PR-5/PR-6 overload refusals at the platform door — goes
// back to the sender as a typed refusal reply, so a remote client
// experiences exactly the backpressure contract an in-process caller
// does.
//
// Replies are posted through a dedicated runtime::EventLoop rather than
// sent from pipeline workers: completion callbacks hand the encoded
// reply to the loop and return, keeping network work off the request
// pipeline and parking no thread (manual mode lets deterministic tests
// pump the reply queue themselves).
//
// Lifecycle: attach() → traffic → destroy the server *before* the
// Network and Platform it fronts (destruction flushes pending replies,
// then unbinds the endpoint; the PR-7 net lifecycle fixes make a reply
// racing teardown fail soft with kUnavailable instead of crashing).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/platform.hpp"
#include "ingress/middleware.hpp"
#include "ingress/router.hpp"
#include "ingress/wire.hpp"
#include "net/network.hpp"
#include "runtime/event_loop.hpp"

namespace mdsm::ingress {

struct IngressServerOptions {
  /// Endpoint name override; "" takes the middleware model's
  /// ingress_endpoint attribute, then "<platform-name>.ingress".
  std::string endpoint;
  /// Create the reply loop in manual mode: replies queue until pump().
  /// Deterministic tests pair this with a SimClock network.
  bool manual_reply_loop = false;
  /// Completed outcomes the dedup ledger retains before the oldest are
  /// forgotten. Only COMPLETED entries count against (or are evicted
  /// for) this bound — an in-flight entry is pinned until it settles.
  std::size_t ledger_capacity = 1024;
};

class IngressServer {
 public:
  /// Bind the server to `network` and front `platform`. Auth token and
  /// default deadline come from the platform's model-decoded
  /// IngressSettings; the default router serves
  /// "submit/{dsml}/{session}", "query/{what}" and
  /// "query/{what}/{session}".
  static Result<std::unique_ptr<IngressServer>> attach(
      core::Platform& platform, net::Network& network,
      IngressServerOptions options = {});

  ~IngressServer();
  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  [[nodiscard]] const std::string& endpoint_name() const noexcept {
    return endpoint_name_;
  }
  /// Extend routing/middleware before traffic flows (not thread-safe
  /// against concurrent delivery, by design — same rule as set_handler).
  [[nodiscard]] Router& router() noexcept { return router_; }
  [[nodiscard]] MiddlewareChain& middleware() noexcept { return chain_; }

  /// Manual reply loop only: send queued replies; returns closures run.
  std::size_t pump();

  /// Dispatch hooks for extension routes registered on router() (the
  /// cluster's replicate/{what} handlers): send a reply / typed refusal
  /// through the server's reply loop, with the same accounting the
  /// built-in routes get.
  void post_reply(const std::string& to, wire::Reply reply);
  void post_refusal(const std::string& to, std::uint64_t request_id,
                    const Status& status, std::string refusal = {});

  /// View over the server's delivery counters: the "ingress.<field>"
  /// cells of the platform registry.
  struct Stats {
    std::uint64_t received = 0;     ///< wire messages seen
    std::uint64_t malformed = 0;    ///< undecodable payloads
    std::uint64_t unrouted = 0;     ///< no route matched the topic
    std::uint64_t refused = 0;      ///< typed refusals sent (door + chain)
    std::uint64_t accepted = 0;     ///< handed to submit_async, Ok at door
    std::uint64_t completed_ok = 0; ///< pipeline outcomes delivered Ok
    std::uint64_t completed_error = 0;
    std::uint64_t replies = 0;        ///< replies handed to the network
    std::uint64_t reply_failures = 0; ///< network refused the reply send
    std::uint64_t deduped = 0;        ///< retried submits answered/absorbed
                                      ///< by the ledger, not re-executed
    std::uint64_t dedup_expired = 0;  ///< completed entries dropped by TTL
                                      ///< (the retry re-executed as fresh)
  };
  [[nodiscard]] Stats stats() const;

 private:
  IngressServer(core::Platform& platform, net::Network& network);

  void install_default_chain(const core::IngressSettings& settings);
  Status install_default_routes();

  void on_message(const net::Message& message);
  void handle_submit(const net::Message& message, const RouteParams& params);
  void handle_query(const net::Message& message, const RouteParams& params);

  /// Type + send a refusal for `status` (slug from `refusal`, falling
  /// back to classify_refusal).
  void refuse(const std::string& to, std::uint64_t request_id,
              const Status& status, std::string refusal);
  /// Post the reply onto the reply loop (manual: until pump()).
  void send_reply(const std::string& to, wire::Reply reply);

  /// Dedup ledger (PR 8): answer to a retried "<client>#<id>" submit.
  enum class DedupVerdict {
    kFresh,      ///< never seen: execute it (now marked in flight)
    kInFlight,   ///< still executing: swallow, completion will reply
    kCompleted,  ///< finished: answer from the recorded reply
  };
  DedupVerdict check_dedup(const std::string& key, wire::Reply* recorded);
  /// Drop the in-flight mark without recording (refused before the door).
  void abandon_in_flight(const std::string& key);
  /// Record the terminal reply for `key` and clear its in-flight mark.
  void record_outcome(const std::string& key, const wire::Reply& reply);

  core::Platform* platform_;
  net::Network* network_;
  std::shared_ptr<net::Endpoint> endpoint_;  ///< keepalive past removal
  std::string endpoint_name_;
  Router router_;
  MiddlewareChain chain_;
  std::unique_ptr<runtime::EventLoop> reply_loop_;
  TimePoint attach_time_{};

  obs::Counter& received_;
  obs::Counter& malformed_;
  obs::Counter& unrouted_;
  obs::Counter& refused_;
  obs::Counter& accepted_;
  obs::Counter& completed_ok_;
  obs::Counter& completed_error_;
  obs::Counter& replies_;
  obs::Counter& reply_failures_;
  obs::Counter& deduped_;
  obs::Counter& dedup_expired_;
  obs::Histogram& service_us_;

  /// Dedup ledger (PR 8, restructured in PR 10): one entry per
  /// "<client>#<id>" identity, in flight from admission until its
  /// terminal reply is recorded. Retries are answered from a completed
  /// entry or absorbed by an in-flight one — never re-executed. Two
  /// bounds apply to COMPLETED entries only: a capacity FIFO and an
  /// optional clock TTL (model attr ingress_dedup_ttl_us; network
  /// clock, checked lazily on lookup). In-flight entries are pinned —
  /// neither bound may evict one, or a storm of fresh traffic could
  /// un-absorb a retry and double-execute the original.
  struct DedupEntry {
    bool completed = false;
    std::uint64_t seq = 0;  ///< admission stamp; pairs with ledger_order_
    wire::Reply reply;      ///< valid once completed
    TimePoint recorded_at{};  ///< completion time, for the TTL
  };
  mutable std::mutex dedup_mutex_;
  std::unordered_map<std::string, DedupEntry> ledger_;
  /// Eviction queue of (key, seq) for COMPLETED entries only. A pair
  /// whose seq no longer matches the live entry is skipped: the key was
  /// TTL-expired and re-admitted, and the successor entry must not be
  /// evicted in the old one's place.
  std::deque<std::pair<std::string, std::uint64_t>> ledger_order_;
  std::size_t ledger_completed_ = 0;  ///< completed entries in ledger_
  std::uint64_t ledger_seq_ = 0;
  std::size_t ledger_capacity_ = 1024;
  Duration dedup_ttl_{0};  ///< 0 = capacity bound only
};

}  // namespace mdsm::ingress
