#include "ingress/ingress_server.hpp"

#include <chrono>
#include <utility>

namespace mdsm::ingress {

namespace {

/// Reply-loop poll cap: with a virtual clock the loop thread cannot see
/// advances, so it re-checks at least this often (same rationale as the
/// platform's staged event loop).
constexpr Duration kReplyPollCap = std::chrono::milliseconds(1);

/// "<client>#<id>": the retry-stable identity of a submission. A
/// front-end forwarding on a client's behalf stamps forwarded_for with
/// the *original* identity so retries routed through a different
/// front-end instance still dedup.
std::string dedup_key(const net::Message& message,
                      const wire::Request& request) {
  if (!request.forwarded_for.empty()) return request.forwarded_for;
  return message.from + "#" + std::to_string(request.request_id);
}

}  // namespace

IngressServer::IngressServer(core::Platform& platform, net::Network& network)
    : platform_(&platform),
      network_(&network),
      chain_(platform.metrics()),
      received_(platform.metrics().counter("ingress.received")),
      malformed_(platform.metrics().counter("ingress.malformed")),
      unrouted_(platform.metrics().counter("ingress.unrouted")),
      refused_(platform.metrics().counter("ingress.refused")),
      accepted_(platform.metrics().counter("ingress.accepted")),
      completed_ok_(platform.metrics().counter("ingress.completed_ok")),
      completed_error_(platform.metrics().counter("ingress.completed_error")),
      replies_(platform.metrics().counter("ingress.replies")),
      reply_failures_(platform.metrics().counter("ingress.reply_failures")),
      deduped_(platform.metrics().counter("ingress.deduped")),
      dedup_expired_(platform.metrics().counter("ingress.dedup_expired")),
      service_us_(platform.metrics().histogram("ingress.service_us")) {}

Result<std::unique_ptr<IngressServer>> IngressServer::attach(
    core::Platform& platform, net::Network& network,
    IngressServerOptions options) {
  const core::IngressSettings& settings = platform.ingress_settings();
  std::string name = !options.endpoint.empty() ? options.endpoint
                     : !settings.endpoint.empty()
                         ? settings.endpoint
                         : platform.name() + ".ingress";

  Result<net::Endpoint*> created = network.create_endpoint(name);
  if (!created.ok()) return created.status();

  // Can't use make_unique: the constructor is private.
  std::unique_ptr<IngressServer> server(new IngressServer(platform, network));
  server->endpoint_ = network.endpoint_handle(name);
  server->endpoint_name_ = std::move(name);
  server->attach_time_ = platform.clock().now();
  server->ledger_capacity_ = options.ledger_capacity;
  server->dedup_ttl_ = settings.dedup_ttl;
  server->install_default_chain(settings);
  if (Status routes = server->install_default_routes(); !routes.ok()) {
    network.remove_endpoint(server->endpoint_name_);
    return routes;
  }

  runtime::EventLoopConfig loop_config;
  loop_config.clock = &platform.clock();
  loop_config.threaded = !options.manual_reply_loop;
  loop_config.poll_cap = kReplyPollCap;
  server->reply_loop_ = std::make_unique<runtime::EventLoop>(loop_config);

  // Last: no traffic may reach on_message before the server is whole.
  IngressServer* raw = server.get();
  server->endpoint_->set_handler(
      [raw](const net::Message& message) { raw->on_message(message); });
  return server;
}

IngressServer::~IngressServer() {
  // Quiesce inbound traffic first, then let queued replies drain while
  // the endpoint is still attached, then give the endpoint back.
  endpoint_->set_handler(nullptr);
  if (reply_loop_ != nullptr) {
    reply_loop_->flush();
    reply_loop_->stop();
  }
  if (!endpoint_->detached()) network_->remove_endpoint(endpoint_name_);
}

void IngressServer::install_default_chain(
    const core::IngressSettings& settings) {
  // trace: thread the sender-scoped request identity across the wire so
  // the platform's root span and bus events stay correlated with the
  // remote submission. A forwarded request (cluster front-end relaying
  // on a client's behalf) keeps the *original* client identity, so one
  // submission traces as one request no matter how many hops it took.
  chain_.add("trace", [](IngressContext& context) {
    std::string remote_id =
        !context.request.forwarded_for.empty()
            ? context.request.forwarded_for
            : context.message->from + "#" +
                  std::to_string(context.request.request_id);
    context.options.attributes.emplace_back(
        std::string(obs::RequestContext::kRemoteIdAttribute),
        std::move(remote_id));
    if (std::string_view session = context.params->get("session");
        !session.empty()) {
      context.options.attributes.emplace_back(
          std::string(obs::RequestContext::kSessionAttribute),
          std::string(session));
    }
    return Status::Ok();
  });

  // rate-limit: per-client token bucket on the network clock, enabled
  // when the model sets ingress_rate_limit > 0. Sits before auth so a
  // flooding client can't even buy auth-check cycles.
  if (settings.rate_limit > 0) {
    chain_.add("rate-limit",
               make_rate_limit_middleware(settings.rate_limit,
                                          settings.rate_burst,
                                          network_->clock()));
  }

  // auth: shared-secret stub. A model with no ingress_auth attribute
  // runs an open door; a configured token refuses mismatches with the
  // pre-typed "unauthenticated" slug.
  if (!settings.auth_token.empty()) {
    std::string token = settings.auth_token;
    chain_.add("auth", [token](IngressContext& context) {
      if (context.request.auth == token) return Status::Ok();
      context.refusal = "unauthenticated";
      return FailedPrecondition("ingress auth token mismatch");
    });
  }

  // deadline: the wire budget (or the model default) becomes the
  // pipeline deadline PR-5 admission enforces at the platform door.
  Duration default_deadline = settings.default_deadline;
  chain_.add("deadline", [default_deadline](IngressContext& context) {
    if (context.request.deadline_us < 0) {
      return InvalidArgument("negative deadline_us on the wire");
    }
    if (context.request.deadline_us > 0) {
      context.options.deadline =
          std::chrono::microseconds(context.request.deadline_us);
    } else if (default_deadline.count() > 0) {
      context.options.deadline = default_deadline;
    }
    context.options.high_priority = context.request.high_priority;
    return Status::Ok();
  });
}

Status IngressServer::install_default_routes() {
  Status submit_route = router_.add(
      wire::kSubmitPattern,
      [this](const net::Message& message, const RouteParams& params) {
        handle_submit(message, params);
      });
  if (!submit_route.ok()) return submit_route;
  for (std::string_view pattern :
       {wire::kQueryPattern, wire::kSessionQueryPattern}) {
    MDSM_RETURN_IF_ERROR(router_.add(
        pattern,
        [this](const net::Message& message, const RouteParams& params) {
          handle_query(message, params);
        }));
  }
  return Status::Ok();
}

void IngressServer::on_message(const net::Message& message) {
  received_.add();

  std::optional<Router::Match> match = router_.route(message.topic);
  if (!match.has_value()) {
    unrouted_.add();
    // Best-effort correlation: the body may still carry a request id.
    Result<wire::Request> decoded = wire::decode_request(message.payload);
    const std::uint64_t id = decoded.ok() ? decoded.value().request_id : 0;
    refuse(message.from, id,
           NotFound("no route for topic '" + message.topic + "'"),
           "no-route");
    return;
  }
  (*match->handler)(message, match->params);
}

void IngressServer::handle_submit(const net::Message& message,
                                  const RouteParams& params) {
  Result<wire::Request> decoded = wire::decode_request(message.payload);
  if (!decoded.ok()) {
    malformed_.add();
    refuse(message.from, 0, decoded.status(),
           wire::is_version_mismatch(decoded.status()) ? "bad-version"
                                                       : "malformed");
    return;
  }

  IngressContext context;
  context.message = &message;
  context.params = &params;
  context.request = std::move(decoded).value();
  const std::uint64_t id = context.request.request_id;

  // The route names the DSML it wants; this platform speaks exactly one.
  if (std::string_view dsml = params.get("dsml");
      dsml != platform_->dsml()->name()) {
    refuse(message.from, id,
           NotFound("platform speaks DSML '" + platform_->dsml()->name() +
                    "', not '" + std::string(dsml) + "'"),
           "wrong-dsml");
    return;
  }

  // Retry dedup: a client that lost the reply resends under the same
  // identity. Answer completed work from the ledger and absorb retries
  // of in-flight work — the submission must never execute twice.
  const std::string key = dedup_key(message, context.request);
  wire::Reply recorded;
  switch (check_dedup(key, &recorded)) {
    case DedupVerdict::kCompleted:
      recorded.request_id = id;
      send_reply(message.from, std::move(recorded));
      return;
    case DedupVerdict::kInFlight:
      return;  // the original's completion reply answers the retry too
    case DedupVerdict::kFresh:
      break;
  }

  if (Status chained = chain_.run(context); !chained.ok()) {
    abandon_in_flight(key);
    refuse(message.from, id, chained, std::move(context.refusal));
    return;
  }

  const std::string to = message.from;
  const TimePoint start = platform_->clock().now();
  Status door = platform_->submit_async(
      std::move(context.request.text),
      [this, to, id, key, start](Result<controller::ControlScript> outcome) {
        service_us_.record(platform_->clock().now() - start);
        wire::Reply reply;
        reply.request_id = id;
        if (outcome.ok()) {
          completed_ok_.add();
          reply.code = ErrorCode::kOk;
          reply.message = outcome.value().id;
          reply.commands =
              static_cast<std::int64_t>(outcome.value().commands.size());
          record_outcome(key, reply);
          send_reply(to, std::move(reply));
        } else {
          completed_error_.add();
          // Pipeline errors are terminal for this identity too: the
          // work was consumed, so a retry must see the same answer.
          reply.code = outcome.status().code();
          reply.refusal =
              std::string(wire::classify_refusal(outcome.status()));
          reply.message = outcome.status().message();
          record_outcome(key, reply);
          refuse(to, id, outcome.status(), {});
        }
      },
      std::move(context.options));
  if (!door.ok()) {
    // Refused at the platform door (not running / admission shed /
    // queue full): the PR-5 contract says no callback will fire, so the
    // typed refusal reply is the only signal the sender gets. Door
    // refusals are not ledgered — the condition is transient and a
    // retry deserves a fresh attempt.
    abandon_in_flight(key);
    refuse(to, id, door, std::move(context.refusal));
    return;
  }
  accepted_.add();
}

void IngressServer::handle_query(const net::Message& message,
                                 const RouteParams& params) {
  Result<wire::Request> decoded = wire::decode_request(message.payload);
  if (!decoded.ok()) {
    malformed_.add();
    refuse(message.from, 0, decoded.status(),
           wire::is_version_mismatch(decoded.status()) ? "bad-version"
                                                       : "malformed");
    return;
  }

  IngressContext context;
  context.message = &message;
  context.params = &params;
  context.request = std::move(decoded).value();
  const std::uint64_t id = context.request.request_id;

  if (Status chained = chain_.run(context); !chained.ok()) {
    refuse(message.from, id, chained, std::move(context.refusal));
    return;
  }

  const std::string_view what = params.get("what");
  wire::Reply reply;
  reply.request_id = id;
  if (what == "runtime-model") {
    reply.message = platform_->runtime_model_text(params.get("session"));
  } else if (what == "metrics") {
    reply.message = platform_->metrics().to_text();
  } else {
    refuse(message.from, id,
           NotFound("unknown query '" + std::string(what) + "'"), "no-route");
    return;
  }
  send_reply(message.from, std::move(reply));
}

void IngressServer::refuse(const std::string& to, std::uint64_t request_id,
                           const Status& status, std::string refusal) {
  if (refusal.empty()) refusal = std::string(wire::classify_refusal(status));
  refused_.add();
  platform_->metrics().counter("ingress.refused." + refusal).add();

  wire::Reply reply;
  reply.request_id = request_id;
  reply.code = status.code();
  reply.refusal = std::move(refusal);
  reply.message = status.message();
  send_reply(to, std::move(reply));
}

void IngressServer::send_reply(const std::string& to, wire::Reply reply) {
  // Hop onto the reply loop: completion callbacks run on pipeline
  // workers, and network sends don't belong there. The endpoint handle
  // is pinned into the closure, so a reply racing teardown fails soft
  // (kUnavailable) instead of touching a destroyed endpoint.
  std::shared_ptr<net::Endpoint> endpoint = endpoint_;
  model::Value payload = wire::encode_reply(reply);
  reply_loop_->post([this, endpoint = std::move(endpoint), to,
                     payload = std::move(payload)]() {
    Status sent =
        endpoint->send(to, std::string(wire::kReplyTopic), payload);
    if (sent.ok()) {
      replies_.add();
    } else {
      reply_failures_.add();
    }
  });
}

std::size_t IngressServer::pump() { return reply_loop_->poll(); }

void IngressServer::post_reply(const std::string& to, wire::Reply reply) {
  send_reply(to, std::move(reply));
}

void IngressServer::post_refusal(const std::string& to,
                                 std::uint64_t request_id,
                                 const Status& status, std::string refusal) {
  refuse(to, request_id, status, std::move(refusal));
}

IngressServer::DedupVerdict IngressServer::check_dedup(const std::string& key,
                                                       wire::Reply* recorded) {
  std::lock_guard lock(dedup_mutex_);
  auto it = ledger_.find(key);
  if (it != ledger_.end() && it->second.completed &&
      dedup_ttl_ > Duration(0) &&
      network_->clock().now() - it->second.recorded_at >= dedup_ttl_) {
    // TTL lapsed: the recorded outcome is too old to answer from, so
    // the retry re-executes as fresh work. The stale (key, seq) pair
    // left in ledger_order_ is skipped at eviction by its seq mismatch.
    dedup_expired_.add();
    --ledger_completed_;
    ledger_.erase(it);
    it = ledger_.end();
  }
  if (it != ledger_.end()) {
    deduped_.add();
    if (it->second.completed) {
      *recorded = it->second.reply;
      return DedupVerdict::kCompleted;
    }
    return DedupVerdict::kInFlight;
  }
  DedupEntry entry;
  entry.seq = ++ledger_seq_;
  ledger_.emplace(key, std::move(entry));
  return DedupVerdict::kFresh;
}

void IngressServer::abandon_in_flight(const std::string& key) {
  std::lock_guard lock(dedup_mutex_);
  auto it = ledger_.find(key);
  if (it != ledger_.end() && !it->second.completed) ledger_.erase(it);
}

void IngressServer::record_outcome(const std::string& key,
                                   const wire::Reply& reply) {
  std::lock_guard lock(dedup_mutex_);
  DedupEntry& entry = ledger_[key];
  if (entry.completed) return;  // already terminal for this identity
  if (entry.seq == 0) entry.seq = ++ledger_seq_;
  entry.completed = true;
  entry.reply = reply;
  entry.recorded_at = network_->clock().now();
  ledger_order_.emplace_back(key, entry.seq);
  ++ledger_completed_;
  while (ledger_completed_ > ledger_capacity_ && !ledger_order_.empty()) {
    const auto [victim, seq] = std::move(ledger_order_.front());
    ledger_order_.pop_front();
    auto it = ledger_.find(victim);
    // Evict only the exact completed entry this slot was queued for: an
    // in-flight entry (never queued) or a TTL-readmitted successor
    // (different seq) survives capacity pressure untouched.
    if (it != ledger_.end() && it->second.completed &&
        it->second.seq == seq) {
      ledger_.erase(it);
      --ledger_completed_;
    }
  }
}

IngressServer::Stats IngressServer::stats() const {
  return {.received = received_.value(),
          .malformed = malformed_.value(),
          .unrouted = unrouted_.value(),
          .refused = refused_.value(),
          .accepted = accepted_.value(),
          .completed_ok = completed_ok_.value(),
          .completed_error = completed_error_.value(),
          .replies = replies_.value(),
          .reply_failures = reply_failures_.value(),
          .deduped = deduped_.value(),
          .dedup_expired = dedup_expired_.value()};
}

}  // namespace mdsm::ingress
