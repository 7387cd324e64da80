#include "net/network.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/ids.hpp"
#include "common/log.hpp"

namespace mdsm::net {

void Endpoint::set_handler(Handler handler) {
  std::shared_ptr<const Handler> replaced;  // released after both locks
  if (handler) replaced = std::make_shared<const Handler>(std::move(handler));
  std::lock_guard lock(set_mutex_);
  // Attached, delivery reads the handler under the network's mutex;
  // detached, no delivery reads it any more.
  Network* network = network_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> network_lock;
  if (network != nullptr) network_lock = std::unique_lock(network->mutex_);
  handler_.swap(replaced);
}

Status Endpoint::send(const std::string& to, std::string_view topic,
                      model::Value payload) {
  // Pin the owner outside any lock: a concurrent detach flips the
  // pointer to null, and we either observe it (refuse) or the still-live
  // network (the detacher has not destroyed it yet at flip time).
  Network* network = network_.load(std::memory_order_acquire);
  if (network == nullptr) {
    return Unavailable("endpoint '" + name_ +
                       "' is detached from its network");
  }
  return network->send(name_, to, topic, std::move(payload));
}

Network::Network(SimClock& clock, NetworkConfig config)
    : clock_(&clock), config_(config), rng_(config.seed) {}

Network::~Network() {
  std::lock_guard lock(mutex_);
  for (auto& [name, endpoint] : endpoints_) {
    endpoint->network_.store(nullptr, std::memory_order_release);
  }
}

Result<Endpoint*> Network::create_endpoint(const std::string& name) {
  std::lock_guard lock(mutex_);
  if (endpoints_.contains(name)) {
    return AlreadyExists("endpoint '" + name + "' already exists");
  }
  auto endpoint = std::shared_ptr<Endpoint>(new Endpoint(name, *this));
  Endpoint* raw = endpoint.get();
  endpoints_[name] = std::move(endpoint);
  return raw;
}

Status Network::remove_endpoint(const std::string& name) {
  std::shared_ptr<Endpoint> removed;
  {
    std::lock_guard lock(mutex_);
    auto it = endpoints_.find(name);
    if (it == endpoints_.end()) {
      return NotFound("endpoint '" + name + "' does not exist");
    }
    removed = std::move(it->second);
    endpoints_.erase(it);
    removed->network_.store(nullptr, std::memory_order_release);
  }
  // `removed` drops its reference outside the lock; an in-flight delivery
  // (or a user handle) still pinning the endpoint defers the destruction
  // until it settles, so handlers never run against a destroyed Endpoint.
  return Status::Ok();
}

Endpoint* Network::find_endpoint(std::string_view name) {
  return endpoint_handle(name).get();  // the registry keeps it alive
}

std::shared_ptr<Endpoint> Network::endpoint_handle(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = endpoints_.find(name);
  return it == endpoints_.end() ? nullptr : it->second;
}

Status Network::send(const std::string& from, const std::string& to,
                     std::string_view topic, model::Value payload) {
  std::lock_guard lock(mutex_);
  if (!endpoints_.contains(from)) {
    return NotFound("sender endpoint '" + from + "' does not exist");
  }
  sent_.add();
  // Loss is decided at send time (models the message never making it out).
  if (config_.drop_rate > 0.0) {
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    if (uniform(rng_) < config_.drop_rate) {
      dropped_.add();
      return Status::Ok();  // silent loss, like a real datagram network
    }
  }
  Duration latency = config_.base_latency;
  if (config_.jitter.count() > 0) {
    std::uniform_int_distribution<std::int64_t> uniform(
        0, config_.jitter.count());
    latency += Duration(uniform(rng_));
  }
  if (free_slots_.empty()) {
    free_slots_.push_back(slots_.size());
    slots_.emplace_back();
  }
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  // Assigned in place: a reused slot's strings keep their capacity.
  Message& message = slots_[slot];
  message.id = next_id();
  message.from.assign(from);
  message.to.assign(to);
  message.topic.assign(topic);
  message.payload = std::move(payload);
  queue_.push_back(Pending{clock_->now() + latency, ++seq_, slot});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
  return Status::Ok();
}

bool Network::link_up(const std::string& a, const std::string& b) const {
  // No downed link and no partition, the usual case: no lookup at all.
  if (!down_links_.empty() && down_links_.contains(link_key(a, b))) {
    return false;
  }
  return !partition_ || partition_->contains(a) == partition_->contains(b);
}

std::size_t Network::deliver_due() {
  return deliver(std::numeric_limits<std::size_t>::max(), false);
}

std::size_t Network::run_until_idle(std::size_t max_messages) {
  return deliver(max_messages, true);
}

// Blocked and undeliverable messages are popped too, so the queue always
// drains, but only handled messages spend the budget. One lock per
// message frees the slot handled before, pops the next and reads its
// handler.
std::size_t Network::deliver(std::size_t budget, bool advance) {
  std::size_t delivered = 0;
  std::optional<std::size_t> handled;  // slot whose handler just returned
  for (;;) {
    // Pin the destination for the whole handler call: a concurrent
    // remove_endpoint() defers the Endpoint's destruction until this
    // delivery settles (the handler may reentrantly send through it).
    std::shared_ptr<Endpoint> target;
    std::shared_ptr<const Endpoint::Handler> handler;
    const Message* message = nullptr;
    {
      std::lock_guard lock(mutex_);
      if (handled) release(*std::exchange(handled, std::nullopt));
      if (delivered == budget || queue_.empty()) break;
      const TimePoint due = queue_.front().deliver_at;
      if (advance) clock_->set(due);  // monotonic: never moves time back
      if (due > clock_->now()) break;
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
      const std::size_t slot = queue_.back().slot;
      queue_.pop_back();
      const Message& queued = slots_[slot];
      // Link state is evaluated at delivery time: a link that went down
      // after send still swallows in-flight traffic.
      if (!link_up(queued.from, queued.to)) {
        blocked_.add();
        release(slot);
        continue;
      }
      auto it = endpoints_.find(queued.to);
      if (it != endpoints_.end()) {
        target = it->second;
        handler = target->handler_;
      }
      // A removed endpoint (or one that never installed a handler) makes
      // the queued message undeliverable — counted, not crashed into.
      if (handler == nullptr) {
        undeliverable_.add();
        release(slot);
        continue;
      }
      handled = slot;
      message = &queued;
    }
    delivered_.add();
    ++delivered;
    // Outside the lock: handlers may reentrantly send (ping/pong) or
    // inspect the network without self-deadlocking.
    (*handler)(*message);
  }
  return delivered;
}

void Network::set_link_down(const std::string& a, const std::string& b,
                            bool down) {
  std::lock_guard lock(mutex_);
  // Normalized storage: (a, b) and (b, a) are the same undirected link.
  if (down) {
    down_links_.insert(link_key(a, b));
  } else {
    down_links_.erase(link_key(a, b));
  }
}

void Network::set_partition(const std::set<std::string>& group) {
  std::lock_guard lock(mutex_);
  partition_ = group;
}

void Network::clear_partition() {
  std::lock_guard lock(mutex_);
  partition_.reset();
}

NetworkStats Network::stats() const {
  return NetworkStats{sent_.value(), delivered_.value(), dropped_.value(),
                      blocked_.value(), undeliverable_.value()};
}

std::size_t Network::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace mdsm::net
