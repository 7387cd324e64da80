// The networked ingress server: turns a Platform from a library into a
// server. It stands behind a WireDoor (door.hpp), which owns the
// endpoint, routing, decoding, the middleware chain, refusals and the
// door counters. The server's terminals check the DSML, consult the
// dedup ledger, hand submissions to Platform::submit_async and answer
// queries. Platform completions run on pipeline workers, so their
// replies are posted to a dedicated runtime::EventLoop (manual mode lets
// deterministic tests pump it); everything else is answered at once on
// the delivering thread.
//
// Lifecycle: attach() → traffic → destroy the server *before* the
// Network and Platform it fronts (the door closes, pending replies
// flush, the endpoint unbinds; a reply racing teardown fails soft).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/platform.hpp"
#include "ingress/door.hpp"
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
    return door_.name();
  }
  /// The server's door. Extension routes (a shard's replicate/{what})
  /// are added before traffic flows — the same rule as set_handler.
  [[nodiscard]] WireDoor& door() noexcept { return door_; }

  /// Manual reply loop only: send queued replies; returns closures run.
  std::size_t pump();

 private:
  IngressServer(core::Platform& platform, net::Network& network,
                const IngressServerOptions& options);

  void handle_submit(IngressContext& context);
  void handle_query(IngressContext& context);

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
  WireDoor door_;
  /// Declared after door_: destroyed (stopped) before the endpoint goes.
  std::unique_ptr<runtime::EventLoop> reply_loop_;

  obs::Counter& accepted_;
  obs::Counter& completed_ok_;
  obs::Counter& completed_error_;
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
