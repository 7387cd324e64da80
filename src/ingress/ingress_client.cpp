#include "ingress/ingress_client.hpp"

#include <utility>
#include <vector>

namespace mdsm::ingress {

IngressClient::IngressClient(net::Network& network,
                             std::string server_endpoint,
                             IngressClientOptions options)
    : network_(&network),
      server_endpoint_(std::move(server_endpoint)),
      options_(std::move(options)) {}

Result<std::unique_ptr<IngressClient>> IngressClient::attach(
    net::Network& network, std::string server_endpoint,
    IngressClientOptions options) {
  std::string name = options.endpoint;
  Result<net::Endpoint*> created = network.create_endpoint(name);
  if (!created.ok()) return created.status();

  std::unique_ptr<IngressClient> client(new IngressClient(
      network, std::move(server_endpoint), std::move(options)));
  client->endpoint_ = network.endpoint_handle(name);
  client->endpoint_name_ = std::move(name);
  IngressClient* raw = client.get();
  client->endpoint_->set_handler(
      [raw](const net::Message& message) { raw->on_reply(message); });
  return client;
}

IngressClient::~IngressClient() {
  endpoint_->set_handler(nullptr);
  // Whatever is still pending will never resolve over the wire now;
  // honor exactly-once by resolving it here.
  std::vector<std::pair<std::uint64_t, Callback>> unresolved;
  {
    std::lock_guard lock(mutex_);
    unresolved.reserve(pending_.size());
    for (auto& [id, call] : pending_) {
      unresolved.emplace_back(id, std::move(call.callback));
    }
    pending_.clear();
  }
  expired_.add(unresolved.size());
  for (auto& [id, callback] : unresolved) {
    if (callback == nullptr) continue;
    RemoteOutcome outcome;
    outcome.request_id = id;
    outcome.status = Unavailable("ingress client detached before reply");
    outcome.refusal = "reply-lost";
    callback(outcome);
  }
  if (!endpoint_->detached()) network_->remove_endpoint(endpoint_name_);
}

Result<std::uint64_t> IngressClient::send_request(
    std::string topic, wire::Request request,
    std::optional<Duration> deadline, Callback callback) {
  request.auth = options_.auth;

  std::uint64_t id = 0;
  {
    std::lock_guard lock(mutex_);
    if (closed_) {
      return Unavailable("ingress client '" + endpoint_name_ +
                         "' closed (draining)");
    }
    id = next_id_++;
    request.request_id = id;
    // Expiry on the network clock: the budget the server may legally
    // spend, plus the reply's grace period.
    Duration budget = options_.reply_timeout;
    if (deadline.has_value()) budget += *deadline;
    // Registered before the send: a reply raced in by another delivery
    // thread must find its pending entry, or exactly-once breaks.
    PendingCall call;
    call.callback = std::move(callback);
    call.expires_at = network_->clock().now() + budget;
    call.budget = budget;
    call.retries_left = options_.retry_budget;
    if (options_.retry_budget > 0) {
      // Keep the request verbatim so expire_overdue can re-send it
      // under the same id (the server dedups on it).
      call.topic = topic;
      call.request = request;
    }
    pending_.emplace(id, std::move(call));
  }

  Status sent = endpoint_->send(server_endpoint_, topic,
                                wire::encode_request(request));
  if (!sent.ok()) {
    std::lock_guard lock(mutex_);
    pending_.erase(id);
    return sent;
  }
  submitted_.add();
  return id;
}

Result<std::uint64_t> IngressClient::submit(std::string_view dsml,
                                            std::string_view session,
                                            std::string text,
                                            Callback callback,
                                            RemoteSubmitOptions options) {
  if (dsml.empty() || session.empty()) {
    return InvalidArgument("submit needs a dsml and a session name");
  }
  wire::Request request;
  request.text = std::move(text);
  request.high_priority = options.high_priority;
  request.forwarded_for = std::move(options.forwarded_for);
  if (options.deadline.has_value()) {
    request.deadline_us =
        std::chrono::duration_cast<std::chrono::microseconds>(*options.deadline)
            .count();
  }
  return send_request(
      "submit/" + std::string(dsml) + "/" + std::string(session),
      std::move(request),
      options.wait_includes_deadline ? options.deadline : std::nullopt,
      std::move(callback));
}

Result<std::uint64_t> IngressClient::query(std::string_view what,
                                           Callback callback) {
  if (what.empty()) return InvalidArgument("query needs a subject");
  return call("query/" + std::string(what), {}, std::move(callback));
}

Result<std::uint64_t> IngressClient::call(std::string topic,
                                          wire::Request request,
                                          Callback callback,
                                          std::optional<Duration> deadline) {
  if (topic.empty()) return InvalidArgument("call needs a topic");
  return send_request(std::move(topic), std::move(request), deadline,
                      std::move(callback));
}

void IngressClient::on_reply(const net::Message& message) {
  Result<wire::Reply> decoded = wire::decode_reply(message.payload);
  if (!decoded.ok()) {
    stray_replies_.add();
    return;
  }
  const wire::Reply& reply = decoded.value();

  Callback callback;
  {
    std::lock_guard lock(mutex_);
    auto it = pending_.find(reply.request_id);
    if (it == pending_.end()) {
      // Late reply for an expired entry, or corruption: either way
      // the callback already fired, so only the ledger moves.
      stray_replies_.add();
      return;
    }
    callback = std::move(it->second.callback);
    pending_.erase(it);
  }
  (reply.code == ErrorCode::kOk ? resolved_ok_ : refused_).add();

  if (callback == nullptr) return;
  RemoteOutcome outcome;
  outcome.request_id = reply.request_id;
  outcome.status = reply.code == ErrorCode::kOk
                       ? Status::Ok()
                       : Status(reply.code, reply.message);
  outcome.refusal = reply.refusal;
  outcome.commands = reply.commands;
  outcome.payload = reply.message;
  callback(outcome);
}

std::size_t IngressClient::expire_overdue() {
  const TimePoint now = network_->clock().now();
  std::vector<std::pair<std::uint64_t, Callback>> overdue;
  std::vector<std::pair<std::string, wire::Request>> resends;
  {
    std::lock_guard lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.expires_at > now) {
        ++it;
        continue;
      }
      PendingCall& call = it->second;
      if (call.retries_left > 0) {
        // Re-send under the same id and re-arm the window; the server's
        // dedup ledger keeps the replay idempotent.
        --call.retries_left;
        call.expires_at = now + call.budget;
        resends.emplace_back(call.topic, call.request);
        retried_.add();
        ++it;
        continue;
      }
      overdue.emplace_back(it->first, std::move(call.callback));
      it = pending_.erase(it);
    }
  }
  expired_.add(overdue.size());
  // Sends and callbacks outside the lock: a reply may race in during
  // the resend (it finds the still-pending entry) and callbacks may
  // legally resubmit.
  for (auto& [topic, request] : resends) {
    // Failure is not terminal: the pending entry stays armed and either
    // a later retry or final expiry resolves it.
    (void)endpoint_->send(server_endpoint_, topic,
                          wire::encode_request(request));
  }
  for (auto& [id, callback] : overdue) {
    if (callback == nullptr) continue;
    RemoteOutcome outcome;
    outcome.request_id = id;
    outcome.status =
        Timeout("no reply for request " + std::to_string(id) +
                " within its window (request or reply lost)");
    outcome.refusal = "reply-lost";
    callback(outcome);
  }
  return overdue.size();
}

void IngressClient::close() {
  std::lock_guard lock(mutex_);
  closed_ = true;
}

std::size_t IngressClient::pending() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

}  // namespace mdsm::ingress
