#include "ingress/door.hpp"

#include <chrono>
#include <optional>
#include <utility>

namespace mdsm::ingress {

WireDoor::WireDoor(net::Network& network, obs::MetricsRegistry& metrics)
    : network_(&network),
      metrics_(&metrics),
      chain_(metrics),
      received_(metrics.counter("ingress.received")),
      malformed_(metrics.counter("ingress.malformed")),
      unrouted_(metrics.counter("ingress.unrouted")),
      refused_(metrics.counter("ingress.refused")),
      replies_(metrics.counter("ingress.replies")),
      reply_failures_(metrics.counter("ingress.reply_failures")) {}

WireDoor::~WireDoor() {
  close();
  unbind();
}

Status WireDoor::bind(std::string name) {
  Result<net::Endpoint*> created = network_->create_endpoint(name);
  if (!created.ok()) return created.status();
  endpoint_ = network_->endpoint_handle(name);
  name_ = std::move(name);
  return Status::Ok();
}

Status WireDoor::provision(const core::IngressSettings& settings,
                           Terminal submit, Terminal query) {
  // trace: thread the sender-scoped request identity across the wire so
  // the platform's root span and bus events stay correlated with the
  // remote submission. A forwarded request (cluster front-end relaying
  // on a client's behalf) keeps the *original* client identity, so one
  // submission traces as one request no matter how many hops it took.
  chain_.add("trace", [](IngressContext& context) {
    context.options.attributes.emplace_back(
        std::string(obs::RequestContext::kRemoteIdAttribute),
        request_identity(context));
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
  // flooding client can't even buy auth-check cycles. The chain copies
  // the function, so every copy shares one limiter.
  if (settings.rate_limit > 0) {
    auto limiter = std::make_shared<RateLimiter>(settings.rate_limit,
                                                 settings.rate_burst);
    chain_.add("rate-limit", [limiter, &clock = network_->clock()](
                                 IngressContext& context) {
      if (limiter->admit(context.message->from, clock.now())) {
        return Status::Ok();
      }
      context.refusal = "rate-limited";
      return Unavailable("client '" + context.message->from +
                         "' exceeded the ingress rate limit");
    });
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
  // pipeline deadline admission enforces at the platform door. The
  // decoder has already refused a negative budget as malformed.
  Duration default_deadline = settings.default_deadline;
  chain_.add("deadline", [default_deadline](IngressContext& context) {
    if (context.request.deadline_us > 0) {
      context.options.deadline =
          std::chrono::microseconds(context.request.deadline_us);
    } else if (default_deadline.count() > 0) {
      context.options.deadline = default_deadline;
    }
    context.options.high_priority = context.request.high_priority;
    return Status::Ok();
  });

  MDSM_RETURN_IF_ERROR(route(wire::kSubmitPattern, std::move(submit)));
  MDSM_RETURN_IF_ERROR(route(wire::kQueryPattern, query));
  return route(wire::kSessionQueryPattern, std::move(query));
}

Status WireDoor::route(std::string_view pattern, Terminal terminal) {
  const bool chained =
      pattern.starts_with("submit/") || pattern.starts_with("query/");
  return router_.add(
      pattern, [this, chained, terminal = std::move(terminal)](
                   const net::Message& message, const RouteParams& params) {
        serve(message, &params, &terminal, chained);
      });
}

void WireDoor::open() {
  endpoint_->set_handler(
      [this](const net::Message& message) { on_message(message); });
}

void WireDoor::close() {
  if (endpoint_ != nullptr) endpoint_->set_handler(nullptr);
}

void WireDoor::unbind() {
  if (endpoint_ != nullptr && !endpoint_->detached()) {
    network_->remove_endpoint(name_);
  }
}

void WireDoor::on_message(const net::Message& message) {
  received_.add();
  std::optional<Router::Match> match = router_.route(message.topic);
  if (match.has_value()) {
    (*match->handler)(message, match->params);
  } else {
    serve(message, nullptr, nullptr, false);
  }
}

void WireDoor::serve(const net::Message& message, const RouteParams* params,
                     const Terminal* terminal, bool chained) {
  Result<wire::Request> decoded = wire::decode_request(message.payload);
  if (terminal == nullptr) {
    unrouted_.add();
    // Best-effort correlation: the body may still carry a request id.
    refuse(message.from, decoded.ok() ? decoded.value().request_id : 0,
           NotFound("no route for topic '" + message.topic + "'"),
           "no-route");
    return;
  }
  if (!decoded.ok()) {
    malformed_.add();
    refuse(message.from, 0, decoded.status(),
           wire::is_version_mismatch(decoded.status()) ? "bad-version"
                                                       : "malformed");
    return;
  }
  IngressContext context;
  context.message = &message;
  context.params = params;
  context.request = std::move(decoded).value();
  if (chained) {
    if (Status status = chain_.run(context); !status.ok()) {
      refuse(message.from, context.request.request_id, status,
             std::move(context.refusal));
      return;
    }
  }
  (*terminal)(context);
}

void WireDoor::reply(const std::string& to, wire::Reply reply) {
  Status sent = endpoint_->send(to, wire::kReplyTopic,
                                wire::encode_reply(reply));
  if (sent.ok()) {
    replies_.add();
  } else {
    reply_failures_.add();
  }
}

void WireDoor::refuse(const std::string& to, std::uint64_t request_id,
                      const Status& status, std::string refusal) {
  if (refusal.empty()) refusal = std::string(wire::classify_refusal(status));
  refused_.add();
  metrics_->counter("ingress.refused." + refusal).add();
  wire::Reply out;
  out.request_id = request_id;
  out.code = status.code();
  out.refusal = std::move(refusal);
  out.message = status.message();
  reply(to, std::move(out));
}

}  // namespace mdsm::ingress
