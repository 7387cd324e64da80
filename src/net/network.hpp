// Simulated network substrate.
//
// The paper's platforms run over real communication services, device
// links and cellular networks; none are available here, so this module
// provides the closest synthetic equivalent: named endpoints exchanging
// messages through a latency/jitter/loss-modeled bus with link failure
// injection and partitions. The broker layers and the split deployments
// (2SVM, CSVM, the PR-7 ingress front-end) run their remote interactions
// over it, exercising the same asynchronous code paths a real network
// would.
//
// Determinism: message delivery order is a function of (virtual) delivery
// time and a monotonically increasing sequence number; jitter and loss
// draw from a seeded RNG. Driving the same scenario twice yields the same
// trace (single-driver scenarios; concurrent senders race for sequence
// numbers, which is the point of using threads).
//
// Thread-safety: one internal mutex, taken once per send and once per
// delivery, guards the endpoint registry, queue, RNG and link state, so
// endpoints may send from any thread while another drives delivery; the
// counters are relaxed registry cells. Handlers run OUTSIDE the lock (a
// handler may reentrantly send) on a shared snapshot of the endpoint's
// handler, so set_handler() races safely with delivery.
//
// Endpoint lifecycle (PR 7): endpoints are shared-owned. The delivering
// thread pins the destination endpoint for the duration of its handler,
// so remove_endpoint() racing an in-flight delivery defers destruction
// until the delivery settles instead of running the handler against a
// destroyed Endpoint. Messages still queued for a removed endpoint count
// as `undeliverable` at their delivery time. endpoint_handle() hands out
// that shared ownership: a handle outlives removal and even the Network
// itself — the Network detaches every endpoint on destruction, and
// send() on a detached endpoint returns kUnavailable instead of
// dereferencing a dangling Network pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "model/value.hpp"
#include "obs/metrics.hpp"

namespace mdsm::net {

struct Message {
  std::uint64_t id = 0;
  std::string from;
  std::string to;
  std::string topic;
  model::Value payload;
};

/// Tuning knobs for the link model.
struct NetworkConfig {
  Duration base_latency = std::chrono::microseconds(500);
  Duration jitter = std::chrono::microseconds(100);  ///< uniform [0, jitter]
  double drop_rate = 0.0;       ///< probability a message is lost
  std::uint32_t seed = 42;      ///< RNG seed for jitter + loss
};

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       ///< lost to drop_rate
  std::uint64_t blocked = 0;       ///< lost to downed links/partitions
  std::uint64_t undeliverable = 0; ///< no destination/handler at delivery time
};

class Network;

/// A named attachment point. Endpoints are shared-owned by the Network;
/// user code may keep the raw pointer while the Network lives, or take an
/// endpoint_handle() to outlive removal/teardown (sends on a detached
/// endpoint fail with kUnavailable instead of crashing).
class Endpoint {
 public:
  using Handler = std::function<void(const Message&)>;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Install the message handler (replaces any previous one). Safe to
  /// call while the network is delivering, even from the handler itself:
  /// in-flight deliveries finish against the handler they snapshotted.
  void set_handler(Handler handler) {
    std::shared_ptr<const Handler> replaced;
    if (handler) replaced = std::make_shared<const Handler>(std::move(handler));
    std::lock_guard lock(mutex_);
    handler_.swap(replaced);  // the old handler is released after unlock
  }

  /// Send via the owning network. After the network detached this
  /// endpoint (remove_endpoint() or Network destruction), returns
  /// kUnavailable — the handle-holding caller learns the endpoint is
  /// gone instead of dereferencing a dangling pointer.
  Status send(const std::string& to, std::string topic,
              model::Value payload = {});

  /// True once the owning network dropped this endpoint.
  [[nodiscard]] bool detached() const noexcept {
    return network_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  friend class Network;
  Endpoint(std::string name, Network& network)
      : name_(std::move(name)), network_(&network) {}

  [[nodiscard]] std::shared_ptr<const Handler> handler_snapshot() const {
    std::lock_guard lock(mutex_);
    return handler_;
  }

  std::string name_;
  /// The owning network, nulled at detach. A send racing the *detach* is
  /// safe (it observes nullptr or a still-live network); a send racing
  /// actual Network destruction from another thread is a caller ordering
  /// bug, same as any use-after-free of the Network itself.
  std::atomic<Network*> network_;
  mutable std::mutex mutex_;  ///< guards handler_
  std::shared_ptr<const Handler> handler_;  ///< null until installed
};

/// The simulated message bus.
class Network {
 public:
  /// The clock is typically a SimClock the test advances; run_until_idle
  /// advances it automatically to each delivery time.
  Network(SimClock& clock, NetworkConfig config = {});
  /// Detaches every endpoint: surviving handles observe kUnavailable on
  /// send instead of touching the destroyed network.
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Result<Endpoint*> create_endpoint(const std::string& name);
  /// Unregister the endpoint. An in-flight delivery pins the endpoint, so
  /// destruction is deferred until the delivery (and any handle) settles;
  /// messages still queued to it count as undeliverable when due.
  Status remove_endpoint(const std::string& name);
  [[nodiscard]] Endpoint* find_endpoint(std::string_view name);
  /// Shared ownership of the endpoint: the handle stays valid after
  /// remove_endpoint() and Network destruction (sends then fail with
  /// kUnavailable). Null when the endpoint does not exist.
  [[nodiscard]] std::shared_ptr<Endpoint> endpoint_handle(
      std::string_view name);

  /// Queue a message for future delivery (applies latency/jitter/loss at
  /// send time, link state at delivery time).
  Status send(const std::string& from, const std::string& to,
              std::string topic, model::Value payload);

  /// Deliver every message due at or before the current virtual time.
  std::size_t deliver_due();

  /// Advance the clock through each pending delivery until no messages
  /// remain (or `max_messages` were delivered). Handlers that reentrantly
  /// send messages due at the current tick are drained in the same pass —
  /// never left behind as "idle" — and count against the cap, so a
  /// same-tick ping/pong loop terminates instead of spinning forever.
  /// Returns count delivered.
  std::size_t run_until_idle(std::size_t max_messages = 100000);

  /// Bidirectional link failure between two endpoints. The pair is
  /// normalized internally, so set_link_down(a, b, …) and
  /// set_link_down(b, a, …) address the same link.
  void set_link_down(const std::string& a, const std::string& b, bool down);

  /// Partition: endpoints in `group` can only reach each other.
  void set_partition(const std::set<std::string>& group);
  void clear_partition();

  /// The delivery counters, read from their registry cells.
  [[nodiscard]] NetworkStats stats() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] SimClock& clock() noexcept { return *clock_; }

 private:
  /// Heap entry, trivially copyable so sifting moves no message: the
  /// message waits in slots_[slot].
  struct Pending {
    TimePoint deliver_at;
    std::uint64_t seq;  ///< tie-break for equal delivery times
    std::size_t slot;
    friend bool operator>(const Pending& a, const Pending& b) {
      return std::tie(a.deliver_at, a.seq) > std::tie(b.deliver_at, b.seq);
    }
  };

  /// Delivers up to `budget` messages. With `advance`, the clock moves to
  /// each next delivery time (run_until_idle); without, delivery stops at
  /// the first message not yet due (deliver_due).
  std::size_t deliver(std::size_t budget, bool advance);

  /// Caller must hold mutex_.
  [[nodiscard]] bool link_up(const std::string& a,
                             const std::string& b) const;
  /// Canonical (ordered) form of an undirected link pair.
  [[nodiscard]] static std::pair<std::string, std::string> link_key(
      const std::string& a, const std::string& b) {
    return a <= b ? std::pair(a, b) : std::pair(b, a);
  }

  obs::MetricsRegistry metrics_;
  obs::Counter& sent_ = metrics_.counter("net.sent");
  obs::Counter& delivered_ = metrics_.counter("net.delivered");
  obs::Counter& dropped_ = metrics_.counter("net.dropped");
  obs::Counter& blocked_ = metrics_.counter("net.blocked");
  obs::Counter& undeliverable_ = metrics_.counter("net.undeliverable");

  /// Guards everything below (lock order: mutex_ before an endpoint's
  /// handler mutex; never the reverse).
  mutable std::mutex mutex_;
  SimClock* clock_;
  NetworkConfig config_;
  std::mt19937 rng_;
  std::map<std::string, std::shared_ptr<Endpoint>, std::less<>> endpoints_;
  std::vector<Pending> queue_;  ///< min-heap under std::greater<>
  std::vector<Message> slots_;  ///< queued messages, indexed by Pending::slot
  std::vector<std::size_t> free_slots_;  ///< slots_ entries not in queue_
  std::set<std::pair<std::string, std::string>> down_links_;
  std::optional<std::set<std::string>> partition_;
  std::uint64_t seq_ = 0;
};

}  // namespace mdsm::net
