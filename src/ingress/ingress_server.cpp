#include "ingress/ingress_server.hpp"

#include <chrono>
#include <utility>

namespace mdsm::ingress {

namespace {

/// Reply-loop poll cap: with a virtual clock the loop thread cannot see
/// advances, so it re-checks at least this often (same rationale as the
/// platform's staged event loop).
constexpr Duration kReplyPollCap = std::chrono::milliseconds(1);

}  // namespace

IngressServer::IngressServer(core::Platform& platform, net::Network& network,
                             const IngressServerOptions& options)
    : platform_(&platform),
      network_(&network),
      door_(network, platform.metrics()),
      accepted_(platform.metrics().counter("ingress.accepted")),
      completed_ok_(platform.metrics().counter("ingress.completed_ok")),
      completed_error_(platform.metrics().counter("ingress.completed_error")),
      deduped_(platform.metrics().counter("ingress.deduped")),
      dedup_expired_(platform.metrics().counter("ingress.dedup_expired")),
      service_us_(platform.metrics().histogram("ingress.service_us")),
      ledger_capacity_(options.ledger_capacity),
      dedup_ttl_(platform.ingress_settings().dedup_ttl) {
  runtime::EventLoopConfig loop_config;
  loop_config.clock = &platform.clock();
  loop_config.threaded = !options.manual_reply_loop;
  loop_config.poll_cap = kReplyPollCap;
  reply_loop_ = std::make_unique<runtime::EventLoop>(loop_config);
}

Result<std::unique_ptr<IngressServer>> IngressServer::attach(
    core::Platform& platform, net::Network& network,
    IngressServerOptions options) {
  const core::IngressSettings& settings = platform.ingress_settings();
  std::string name = !options.endpoint.empty() ? options.endpoint
                     : !settings.endpoint.empty()
                         ? settings.endpoint
                         : platform.name() + ".ingress";

  // Can't use make_unique: the constructor is private.
  std::unique_ptr<IngressServer> server(
      new IngressServer(platform, network, options));
  IngressServer* raw = server.get();
  MDSM_RETURN_IF_ERROR(server->door_.bind(std::move(name)));
  MDSM_RETURN_IF_ERROR(server->door_.provision(
      settings,
      [raw](IngressContext& context) { raw->handle_submit(context); },
      [raw](IngressContext& context) { raw->handle_query(context); }));
  // Last: no traffic may reach a terminal before the server is whole.
  server->door_.open();
  return server;
}

IngressServer::~IngressServer() {
  // Quiesce inbound traffic first, then let queued replies drain while
  // the endpoint is still attached; the door gives the endpoint back.
  door_.close();
  reply_loop_->flush();
  reply_loop_->stop();
}

void IngressServer::handle_submit(IngressContext& context) {
  const std::string& to = context.message->from;
  const std::uint64_t id = context.request.request_id;

  // The route names the DSML it wants; this platform speaks exactly one.
  if (std::string_view dsml = context.params->get("dsml");
      dsml != platform_->dsml()->name()) {
    door_.refuse(to, id,
                 NotFound("platform speaks DSML '" +
                          platform_->dsml()->name() + "', not '" +
                          std::string(dsml) + "'"),
                 "wrong-dsml");
    return;
  }

  // Retry dedup: a client that lost the reply resends under the same
  // identity. Answer completed work from the ledger and absorb retries
  // of in-flight work — the submission must never execute twice.
  const std::string key = request_identity(context);
  wire::Reply recorded;
  switch (check_dedup(key, &recorded)) {
    case DedupVerdict::kCompleted:
      recorded.request_id = id;
      door_.reply(to, std::move(recorded));
      return;
    case DedupVerdict::kInFlight:
      return;  // the original's completion reply answers the retry too
    case DedupVerdict::kFresh:
      break;
  }

  const TimePoint start = platform_->clock().now();
  Status queued = platform_->submit_async(
      std::move(context.request.text),
      [this, to, id, key, start](Result<controller::ControlScript> outcome) {
        service_us_.record(platform_->clock().now() - start);
        wire::Reply reply{.request_id = id};
        Status failure = outcome.status();
        if (outcome.ok()) {
          completed_ok_.add();
          reply.message = outcome.value().id;
          reply.commands =
              static_cast<std::int64_t>(outcome.value().commands.size());
        } else {
          completed_error_.add();
          reply.code = failure.code();
          reply.refusal = std::string(wire::classify_refusal(failure));
          reply.message = failure.message();
        }
        // Pipeline errors are terminal for this identity too: the work
        // was consumed, so a retry must see the same answer.
        record_outcome(key, reply);
        // Completions run on pipeline workers; the network send hops
        // onto the reply loop.
        reply_loop_->post([this, to, reply = std::move(reply),
                           failure = std::move(failure)]() mutable {
          if (failure.ok()) {
            door_.reply(to, std::move(reply));
          } else {
            door_.refuse(to, reply.request_id, failure);
          }
        });
      },
      std::move(context.options));
  if (!queued.ok()) {
    // Refused at the platform door (not running / admission shed /
    // queue full): no callback will fire, so the typed refusal reply is
    // the only signal the sender gets. Door refusals are not ledgered —
    // the condition is transient and a retry deserves a fresh attempt.
    abandon_in_flight(key);
    door_.refuse(to, id, queued);
    return;
  }
  accepted_.add();
}

void IngressServer::handle_query(IngressContext& context) {
  const std::string_view what = context.params->get("what");
  wire::Reply reply{.request_id = context.request.request_id};
  if (what == "runtime-model") {
    reply.message =
        platform_->runtime_model_text(context.params->get("session"));
  } else if (what == "metrics") {
    reply.message = platform_->metrics().to_text();
  } else {
    door_.refuse(context.message->from, reply.request_id,
                 NotFound("unknown query '" + std::string(what) + "'"),
                 "no-route");
    return;
  }
  door_.reply(context.message->from, std::move(reply));
}

std::size_t IngressServer::pump() { return reply_loop_->poll(); }

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

}  // namespace mdsm::ingress
