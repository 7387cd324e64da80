#include "cluster/cluster_front_end.hpp"

#include <algorithm>
#include <utility>

#include "model/diff.hpp"
#include "model/text_format.hpp"

namespace mdsm::cluster {

namespace wire = ingress::wire;

ClusterFrontEnd::ClusterFrontEnd(net::Network& network,
                                 model::Model authoritative)
    : network_(&network),
      door_(network, metrics_),
      authoritative_(std::move(authoritative)) {}

Result<std::unique_ptr<ClusterFrontEnd>> ClusterFrontEnd::attach(
    net::Network& network, const model::Model& authoritative_model,
    std::vector<std::string> shard_endpoints, ClusterConfig config) {
  if (shard_endpoints.empty()) {
    return InvalidArgument("a cluster needs at least one shard endpoint");
  }
  std::unique_ptr<ClusterFrontEnd> front(
      new ClusterFrontEnd(network, authoritative_model.clone()));
  MDSM_RETURN_IF_ERROR(front->door_.bind(config.endpoint));
  front->config_ = std::move(config);
  front->ring_ = ShardRing(shard_endpoints.size());

  // The front door is provisioned from the same MiddlewarePlatform root
  // as every shard's: one chain (auth, rate limit, deadline), one token.
  core::IngressSettings settings;
  auto platforms = authoritative_model.objects_of("MiddlewarePlatform");
  if (!platforms.empty()) {
    settings = core::decode_ingress_settings(*platforms[0]);
    // Checkpoint cadence is model-driven too: completed sequenced
    // requests per session between checkpoints.
    front->checkpoint_interval_ =
        platforms[0]->get_int("checkpoint_interval", 0);
  }
  front->auth_token_ = settings.auth_token;

  for (const std::string& endpoint : shard_endpoints) {
    // On failure the destructor unwinds the endpoints created so far.
    Result<std::unique_ptr<Shard>> shard =
        front->make_shard(endpoint, front->shards_.size());
    if (!shard.ok()) return shard.status();
    front->shards_.push_back(std::move(shard).value());
  }

  ClusterFrontEnd* raw = front.get();
  MDSM_RETURN_IF_ERROR(front->door_.provision(
      settings,
      [raw](ingress::IngressContext& context) { raw->handle_submit(context); },
      [raw](ingress::IngressContext& context) { raw->handle_query(context); }));
  // Last: traffic may arrive the moment the door opens.
  front->door_.open();
  return front;
}

ClusterFrontEnd::~ClusterFrontEnd() {
  shutting_down_.store(true, std::memory_order_release);
  // Downstream clients resolve their pending forwards on destruction
  // (settle_forward sees shutting_down_ and only replies, never fails
  // over); closing the door first means no new ones arrive. The door
  // unbinds the public endpoint after the body.
  door_.close();
  shards_.clear();
}

Result<std::unique_ptr<ClusterFrontEnd::Shard>> ClusterFrontEnd::make_shard(
    const std::string& endpoint, std::size_t index) {
  // One client per shard, each on its own endpoint so reply correlation
  // never crosses shards, carrying the model's auth token.
  ingress::IngressClientOptions options;
  options.endpoint = config_.endpoint + ".to." + std::to_string(index);
  options.auth = auth_token_;
  options.reply_timeout = config_.downstream_reply_timeout;
  Result<std::unique_ptr<ingress::IngressClient>> client =
      ingress::IngressClient::attach(*network_, endpoint, std::move(options));
  if (!client.ok()) return client.status();
  auto shard = std::make_unique<Shard>();
  shard->endpoint = endpoint;
  shard->client = std::move(client).value();
  shard->breaker = std::make_unique<broker::CircuitBreaker>(config_.health);
  return shard;
}

std::size_t ClusterFrontEnd::active_shard_count() const {
  std::shared_lock lock(topology_mutex_);
  return ring_.shards();
}

ClusterFrontEnd::ShardState ClusterFrontEnd::shard_state(
    std::size_t index) const {
  std::shared_lock lock(topology_mutex_);
  if (index >= shards_.size()) return ShardState::kRetired;
  return shards_[index]->state.load(std::memory_order_acquire);
}

std::size_t ClusterFrontEnd::shard_for(std::string_view session) const {
  std::shared_lock lock(topology_mutex_);
  const std::size_t primary = ring_.owner(session);
  // Peek, don't admit: state() alone — an admit() here would consume
  // half-open probe slots that belong to real traffic.
  if (shards_[primary]->breaker->state() ==
      broker::CircuitBreaker::State::kOpen) {
    return ring_.replica(session);
  }
  return primary;
}

void ClusterFrontEnd::handle_submit(ingress::IngressContext& context) {
  wire::Request& request = context.request;
  Forward state{.client = context.message->from,
                .id = request.request_id,
                .session = std::string(context.params->get("session")),
                .dsml = std::string(context.params->get("dsml")),
                .text = std::move(request.text),
                .high_priority = request.high_priority};
  if (request.deadline_us > 0) state.deadline = Duration(request.deadline_us);

  std::size_t target = 0;
  std::optional<Status> refusal;  // decided under the lock, sent outside
  {
    std::shared_lock lock(topology_mutex_);
    const std::size_t primary = ring_.owner(state.session);
    const std::size_t replica = ring_.replica(state.session);
    target = primary;
    if (replica != primary) state.fallback = replica;
    state.epoch = epoch_.load(std::memory_order_acquire);

    // Health gate: an open primary window reroutes the whole attempt to
    // the replica — through the REPLICA's own breaker, so a tripped
    // replica is never dogpiled and its window sees correct verdicts.
    broker::CircuitBreaker::AdmitResult admit =
        shards_[primary]->breaker->admit(network_->clock().now());
    if (admit.admission == broker::CircuitBreaker::Admission::kReject) {
      if (replica == primary) {
        refusal = Unavailable("shard " + std::to_string(primary) +
                              " is unhealthy and the ring has no replica");
      } else {
        broker::CircuitBreaker::AdmitResult replica_admit =
            shards_[replica]->breaker->admit(network_->clock().now());
        if (replica_admit.admission ==
            broker::CircuitBreaker::Admission::kReject) {
          refusal = Unavailable(
              "shards " + std::to_string(primary) + " and " +
              std::to_string(replica) +
              " are both unhealthy (primary and replica windows open)");
        } else {
          rerouted_.add();
          target = replica;
          state.fallback.reset();  // the replica is the last resort
          state.admission = replica_admit.admission;
        }
      }
    } else {
      state.admission = admit.admission;  // kAllow, or a half-open kProbe
    }
  }
  if (refusal.has_value()) {
    door_.refuse(state.client, state.id, *refusal, "shard-unavailable");
    return;
  }
  forward(std::move(state), target);
}

void ClusterFrontEnd::forward(Forward state, std::size_t shard_index) {
  // Shared ownership: the downstream callback needs the state to settle
  // the outcome, but a send failure drops that callback unfired and the
  // failure path still needs it for the failover/refusal.
  auto shared = std::make_shared<Forward>(std::move(state));
  // The one resume rule. Wherever the request lands — the owner, a
  // rerouted or failed-over replica, a shard that took the session's arc
  // by a join or leave — a target not known to hold the cached version
  // live imports it first, so sequenced work continues instead of
  // replaying the session cold.
  std::optional<std::pair<std::int64_t, std::string>> checkpoint;
  {
    std::lock_guard lock(checkpoint_mutex_);
    auto it = checkpoints_.find(shared->session);
    if (it != checkpoints_.end() && it->second.version > 0 &&
        !(it->second.resumed_shard == shard_index &&
          it->second.resumed_version >= it->second.version)) {
      checkpoint = {it->second.version, it->second.state_text};
    }
  }
  if (!checkpoint.has_value()) {
    send_forward(shared, shard_index);
    return;
  }
  resumes_shipped_.add();
  const std::int64_t version = checkpoint->first;
  ship_session_state(
      shared->session, version, checkpoint->second, shard_index,
      [this, shared, shard_index, version](bool acked) {
        if (acked) {
          resumes_completed_.add();
          std::lock_guard lock(checkpoint_mutex_);
          auto it = checkpoints_.find(shared->session);
          if (it != checkpoints_.end() &&
              (it->second.resumed_shard != shard_index ||
               it->second.resumed_version < version)) {
            it->second.resumed_shard = shard_index;
            it->second.resumed_version = version;
          }
        }
        // A lost ship still sends: the cold run is strictly better than
        // refusing, and the receiver's version gate makes a late
        // duplicate ship harmless.
        send_forward(shared, shard_index);
      });
}

void ClusterFrontEnd::send_forward(const std::shared_ptr<Forward>& shared,
                                   std::size_t shard_index) {
  std::shared_ptr<ingress::IngressClient> client = client_of(shard_index);

  ingress::RemoteSubmitOptions options;
  options.deadline = shared->deadline;
  options.high_priority = shared->high_priority;
  // Loss detection runs on the hop's own reply_timeout cadence, NOT
  // reply_timeout + deadline: a failover must happen while the client's
  // deadline still has budget left, or it could only ever refuse.
  options.wait_includes_deadline = false;
  // The retry-stable identity: shard-side tracing and the dedup ledger
  // key on the ORIGINAL client and id, not this hop's.
  options.forwarded_for =
      shared->client + "#" + std::to_string(shared->id);

  shared->sent_at = network_->clock().now();
  Result<std::uint64_t> sent =
      client == nullptr
          ? Result<std::uint64_t>(Unavailable(
                "shard " + std::to_string(shard_index) + " is retired"))
          : client->submit(
                shared->dsml, shared->session, shared->text,
                [this, shard_index, shared](
                    const ingress::RemoteOutcome& outcome) {
                  settle_forward(*shared, shard_index, outcome);
                },
                std::move(options));
  if (!sent.ok()) {
    // The downstream refused the send outright (shard endpoint gone
    // mid-teardown, or a draining client closed under us): the callback
    // will never fire, so settle here with a synthetic lost outcome —
    // same failover/refusal path.
    settle_forward(*shared, shard_index,
                   {.request_id = shared->id,
                    .status = sent.status(),
                    .refusal = "reply-lost"});
    return;
  }
  forwarded_.add();
}

void ClusterFrontEnd::settle_forward(Forward& state, std::size_t shard_index,
                                     const ingress::RemoteOutcome& outcome) {
  // A shard that answered — even with a refusal — is alive; only a lost
  // reply (or an unreachable endpoint) marks it unhealthy.
  const bool lost = outcome.refusal == "reply-lost";
  const bool shutting_down = shutting_down_.load(std::memory_order_acquire);
  if (!shutting_down) record_health(shard_index, state.admission, !lost);

  if (lost && !shutting_down) {
    const TimePoint now = network_->clock().now();

    // Pick the failover target against the CURRENT topology. A same-
    // epoch loss uses the precomputed ring replica; after a flip the
    // arcs may have moved or the fallback may be draining, so the
    // target is re-resolved from the live ring.
    std::optional<std::size_t> target;
    bool gated = false;  // a candidate exists but its window is open
    broker::CircuitBreaker::Admission admission =
        broker::CircuitBreaker::Admission::kAllow;
    std::uint64_t routed_epoch = state.epoch;
    {
      std::shared_lock lock(topology_mutex_);
      std::optional<std::size_t> candidate;
      const std::uint64_t current_epoch =
          epoch_.load(std::memory_order_acquire);
      if (state.epoch != current_epoch) {
        const std::size_t owner = ring_.owner(state.session);
        if (owner != shard_index) {
          candidate = owner;
        } else {
          const std::size_t replica = ring_.replica(state.session);
          if (replica != shard_index) candidate = replica;
        }
      } else if (state.fallback.has_value() &&
                 *state.fallback != shard_index) {
        candidate = *state.fallback;
      }
      if (candidate.has_value() &&
          shards_[*candidate]->state.load(std::memory_order_acquire) ==
              ShardState::kActive) {
        broker::CircuitBreaker::AdmitResult admit =
            shards_[*candidate]->breaker->admit(now);
        if (admit.admission == broker::CircuitBreaker::Admission::kReject) {
          gated = true;
        } else {
          target = candidate;
          admission = admit.admission;
          routed_epoch = current_epoch;
        }
      }
    }

    if (target.has_value() || gated) {
      // Deadline accounting: the wait on the lost reply
      // already spent part of the client's budget — the replica gets
      // only the remainder, and a spent budget is refused instead of
      // producing a reply the client can no longer use.
      std::optional<Duration> remaining = state.deadline;
      if (state.deadline.has_value()) {
        const Duration elapsed = now - state.sent_at;
        if (elapsed >= *state.deadline) {
          door_.refuse(state.client, state.id,
                       Timeout("deadline spent waiting on shard " +
                               std::to_string(shard_index) + "'s lost reply"),
                       "deadline");
          return;
        }
        remaining = *state.deadline - elapsed;
      }
      if (!target.has_value()) {  // gated: both windows are open
        door_.refuse(state.client, state.id,
                     Unavailable("shard " + std::to_string(shard_index) +
                                 " lost the reply and the failover shard's "
                                 "health window is open"),
                     "shard-unavailable");
        return;
      }
      failovers_.add();
      Forward retry = std::move(state);
      retry.fallback.reset();
      retry.admission = admission;
      retry.deadline = remaining;
      retry.epoch = routed_epoch;
      forward(std::move(retry), *target);
      return;
    }
    // No candidate at all (single-shard ring): fall through and report
    // the loss as-is.
  }
  door_.reply(state.client,
              {.request_id = state.id,
               .code = outcome.status.code(),
               .refusal = outcome.refusal,
               .message = outcome.status.ok() ? outcome.payload
                                              : outcome.status.message(),
               .commands = outcome.commands});
  // Checkpoint cadence: only COMPLETED requests advance a session's
  // counter (refusals and losses leave no new state worth capturing).
  if (!shutting_down && !lost && outcome.status.ok() &&
      checkpoint_interval_ > 0) {
    maybe_checkpoint(state.session, shard_index);
  }
}

void ClusterFrontEnd::maybe_checkpoint(const std::string& session,
                                       std::size_t owner) {
  bool capture = false;
  {
    const TimePoint now = network_->clock().now();
    std::lock_guard lock(checkpoint_mutex_);
    sweep_checkpoints(now);
    SessionCheckpoint& entry = checkpoints_[session];
    entry.last_used = now;
    ++entry.completed;
    if (entry.completed %
                static_cast<std::uint64_t>(checkpoint_interval_) ==
            0 &&
        !entry.capture_in_flight) {
      entry.capture_in_flight = true;
      capture = true;
    }
  }
  if (capture) checkpoint_session(session, owner);
}

void ClusterFrontEnd::checkpoint_session(const std::string& session,
                                         std::size_t owner) {
  std::shared_ptr<ingress::IngressClient> client = client_of(owner);
  auto abort_capture = [this, session] {
    checkpoint_failures_.add();
    std::lock_guard lock(checkpoint_mutex_);
    checkpoints_[session].capture_in_flight = false;
  };
  if (client == nullptr) {
    abort_capture();
    return;
  }
  wire::Request request;
  Result<std::uint64_t> sent = client->call(
      "checkpoint/" + session, std::move(request),
      [this, session, owner,
       abort_capture](const ingress::RemoteOutcome& outcome) {
        if (shutting_down_.load(std::memory_order_acquire)) return;
        if (!outcome.status.ok()) {
          abort_capture();
          return;
        }
        checkpoints_taken_.add();
        std::lock_guard lock(checkpoint_mutex_);
        if (outcome.commands == 0) {
          // The session ended on its owner: the checkpoint holds nothing
          // to resume, so neither it nor the entry is kept.
          checkpoints_.erase(session);
          return;
        }
        SessionCheckpoint& entry = checkpoints_[session];
        entry.state_text = outcome.payload;
        entry.version = ++checkpoint_versions_;
        entry.capture_in_flight = false;
        // The capture SOURCE holds this state live by construction — a
        // later forward to it ships nothing.
        entry.resumed_shard = owner;
        entry.resumed_version = entry.version;
      });
  if (!sent.ok()) abort_capture();
}

void ClusterFrontEnd::ship_session_state(const std::string& session,
                                         std::int64_t version,
                                         const std::string& state_text,
                                         std::size_t index,
                                         std::function<void(bool)> done) {
  std::shared_ptr<ingress::IngressClient> client = client_of(index);
  Result<model::Value> state = model::parse_value(state_text);
  if (client == nullptr || !state.ok()) {
    done(false);
    return;
  }
  model::ValueList envelope;
  envelope.push_back(model::make_entry("session", model::Value(session)));
  envelope.push_back(model::make_entry("version", model::Value(version)));
  envelope.push_back(model::make_entry("state", std::move(state).value()));
  wire::Request request;
  request.body = model::Value(std::move(envelope));
  Result<std::uint64_t> sent = client->call(
      "replicate/session-state", std::move(request),
      [this, done](const ingress::RemoteOutcome& outcome) {
        if (shutting_down_.load(std::memory_order_acquire)) return;
        done(outcome.status.ok());
      });
  if (!sent.ok()) done(false);
}

void ClusterFrontEnd::sweep_checkpoints(TimePoint now) {
  if (now < next_checkpoint_sweep_) return;
  next_checkpoint_sweep_ = now + kCheckpointIdleTtl / 2;
  std::erase_if(checkpoints_, [&](const auto& entry) {
    return !entry.second.capture_in_flight &&
           now - entry.second.last_used >= kCheckpointIdleTtl;
  });
}

std::size_t ClusterFrontEnd::checkpointed_sessions() const {
  std::lock_guard lock(checkpoint_mutex_);
  return checkpoints_.size();
}

std::int64_t ClusterFrontEnd::checkpoint_version(
    std::string_view session) const {
  std::lock_guard lock(checkpoint_mutex_);
  auto it = checkpoints_.find(session);
  return it == checkpoints_.end() ? 0 : it->second.version;
}

void ClusterFrontEnd::handle_query(ingress::IngressContext& context) {
  const std::string& to = context.message->from;
  const std::uint64_t id = context.request.request_id;
  std::string what(context.params->get("what"));
  if (std::ranges::find(wire::kQueryViews, what) ==
      std::ranges::end(wire::kQueryViews)) {
    // Refused here, as a lone server refuses it: no shard serves it.
    door_.refuse(to, id, NotFound("unknown query '" + what + "'"),
                 "no-route");
    return;
  }
  if (std::string_view session = context.params->get("session");
      !session.empty()) {
    what += "/";
    what += session;
  }
  query_fanouts_.add();

  // Fan out to every ACTIVE shard (joiners aren't serving yet, leavers
  // already left the ring) and merge: the join fires the client reply
  // when the last downstream outcome (success, refusal or loss) lands.
  std::vector<ShardView> targets = snapshot();
  std::erase_if(targets, [](const ShardView& view) {
    return view.state != ShardState::kActive || view.client == nullptr;
  });
  if (targets.empty()) {
    door_.refuse(to, id, Unavailable("no active shard to query"),
                 "shard-unavailable");
    return;
  }

  struct Join {
    std::mutex mutex;
    std::size_t remaining = 0;
    std::vector<std::string> sections;  ///< one per target, in shard order
  };
  auto join = std::make_shared<Join>();
  join->remaining = targets.size();
  join->sections.resize(targets.size());

  auto settle = [this, join, to, id](std::size_t slot, std::string section) {
    bool last = false;
    {
      std::lock_guard lock(join->mutex);
      join->sections[slot] = std::move(section);
      last = --join->remaining == 0;
    }
    if (!last) return;
    wire::Reply reply;
    reply.request_id = id;
    for (const std::string& section : join->sections) reply.message += section;
    door_.reply(to, std::move(reply));
  };

  for (std::size_t slot = 0; slot < targets.size(); ++slot) {
    std::string header =
        "=== shard " + std::to_string(targets[slot].index) + " ===\n";
    Result<std::uint64_t> sent = targets[slot].client->query(
        what, [settle, slot, header](const ingress::RemoteOutcome& outcome) {
          const std::string& slug =
              outcome.refusal.empty() ? "error" : outcome.refusal;
          settle(slot, header +
                           (outcome.status.ok() ? outcome.payload
                                                : "<" + slug + ">") +
                           "\n");
        });
    if (!sent.ok()) settle(slot, header + "<unreachable>\n");
  }
}

Status ClusterFrontEnd::update_model(const model::Model& next_model) {
  model::ChangeList changes;
  model::Value encoded;
  std::uint64_t version = 0;
  {
    std::lock_guard lock(model_mutex_);
    changes = model::diff(authoritative_, next_model);
    if (changes.empty()) return Status::Ok();
    encoded = model::encode_changes(changes);
    // The bytes a full-model push would have cost vs what the delta
    // actually costs — the savings BENCH_8 reports.
    full_bytes_.add(model::serialize_model(next_model).size());
    delta_bytes_.add(encoded.to_text().size());
    deltas_shipped_.add();
    authoritative_ = next_model.clone();
    version = model_version_.load(std::memory_order_relaxed) + 1;
    model_version_.store(version, std::memory_order_release);
  }

  Status first_failure = Status::Ok();
  for (const ShardView& t : snapshot()) {
    if (t.state == ShardState::kRetired || t.client == nullptr) continue;
    if (t.state == ShardState::kDraining) continue;  // retiring: no new state
    if (t.stale || t.state == ShardState::kJoining) {
      // A diverged (or still-warming) replica can't apply a delta that
      // assumes the previous baseline — the full-sync fallback fires
      // instead.
      kick_full_sync(t.index);
      continue;
    }
    wire::Request request;
    request.body = encoded;
    const std::size_t index = t.index;
    Result<std::uint64_t> sent = t.client->call(
        "replicate/model-diff", std::move(request),
        [this, index](const ingress::RemoteOutcome& outcome) {
          // Teardown stragglers must not touch shards_ mid-clear.
          if (shutting_down_.load(std::memory_order_acquire)) return;
          if (outcome.status.ok()) {
            replication_acks_.add();
          } else {
            // Send failed, nacked, or the reply was lost: the replica
            // may have missed this delta — stop shipping deltas it can
            // no longer apply and schedule a full-model repair.
            replication_failures_.add();
            mark_stale(index);
          }
        });
    if (!sent.ok()) {
      replication_failures_.add();
      mark_stale(index);
      if (first_failure.ok()) first_failure = sent.status();
    }
  }
  return first_failure;
}

void ClusterFrontEnd::kick_full_sync(std::size_t index) {
  std::shared_ptr<ingress::IngressClient> client;
  {
    std::shared_lock lock(topology_mutex_);
    Shard& shard = *shards_[index];
    const ShardState state = shard.state.load(std::memory_order_acquire);
    if (state == ShardState::kRetired || state == ShardState::kDraining ||
        shard.client == nullptr) {
      return;
    }
    // At most one full ship in flight per shard; the ack (or its loss)
    // re-arms the next attempt.
    if (shard.full_sync_in_flight.exchange(true)) return;
    client = shard.client;
  }

  wire::Request request;
  std::uint64_t version = 0;
  {
    // Serialize and stamp the version under the same lock so the text
    // and the version always agree.
    std::lock_guard lock(model_mutex_);
    request.text = model::serialize_model(authoritative_);
    version = model_version_.load(std::memory_order_relaxed);
  }

  full_syncs_shipped_.add();
  Result<std::uint64_t> sent = client->call(
      "replicate/model-full", std::move(request),
      [this, index, version](const ingress::RemoteOutcome& outcome) {
        if (shutting_down_.load(std::memory_order_acquire)) return;
        bool warmed = false;
        {
          std::shared_lock lock(topology_mutex_);
          Shard& shard = *shards_[index];
          shard.full_sync_in_flight.store(false, std::memory_order_release);
          if (outcome.status.ok()) {
            full_sync_acks_.add();
            // Only an ack at the CURRENT version clears staleness — a
            // late ack of an older ship must not mask a newer miss.
            if (version ==
                model_version_.load(std::memory_order_acquire)) {
              shard.stale.store(false, std::memory_order_release);
              if (shard.state.load(std::memory_order_acquire) ==
                  ShardState::kJoining) {
                warmed = true;
              }
            }
          } else {
            replication_failures_.add();
            // Stays stale; the next maintain() retries.
          }
        }
        if (warmed) complete_join(index);
      });
  if (!sent.ok()) {
    replication_failures_.add();
    std::shared_lock lock(topology_mutex_);
    shards_[index]->full_sync_in_flight.store(false,
                                              std::memory_order_release);
  }
}

Result<std::size_t> ClusterFrontEnd::join(const std::string& endpoint) {
  std::size_t index = 0;
  {
    std::unique_lock lock(topology_mutex_);
    for (const auto& shard : shards_) {
      if (shard->endpoint == endpoint &&
          shard->state.load(std::memory_order_acquire) !=
              ShardState::kRetired) {
        return InvalidArgument("endpoint '" + endpoint +
                               "' already serves shard traffic");
      }
    }
    index = shards_.size();
    Result<std::unique_ptr<Shard>> shard = make_shard(endpoint, index);
    if (!shard.ok()) return shard.status();
    (*shard)->state.store(ShardState::kJoining, std::memory_order_release);
    (*shard)->stale.store(true, std::memory_order_release);
    shards_.push_back(std::move(shard).value());
  }
  joins_started_.add();
  // Warm-up: the full-model ship; its ack completes the join.
  kick_full_sync(index);
  return index;
}

void ClusterFrontEnd::complete_join(std::size_t index) {
  double fraction = 0.0;
  {
    std::unique_lock lock(topology_mutex_);
    Shard& shard = *shards_[index];
    ShardState expected = ShardState::kJoining;
    if (!shard.state.compare_exchange_strong(expected, ShardState::kActive)) {
      return;  // lost a race with another completion (or a teardown)
    }
    const std::vector<ShardRing::Arc> arcs = ring_.add_shard(index);
    fraction = ShardRing::arcs_fraction(arcs);
    // The flip: from this epoch on, moved-arc sessions route to the new
    // shard; forwards stamped with older epochs re-resolve on failover.
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  last_rebalance_fraction_.store(fraction, std::memory_order_release);
  joins_completed_.add();
}

Status ClusterFrontEnd::leave(std::size_t index) {
  std::shared_ptr<ingress::IngressClient> client;
  double fraction = 0.0;
  {
    std::unique_lock lock(topology_mutex_);
    if (index >= shards_.size()) {
      return InvalidArgument("no shard " + std::to_string(index));
    }
    Shard& shard = *shards_[index];
    if (shard.state.load(std::memory_order_acquire) != ShardState::kActive) {
      return FailedPrecondition("shard " + std::to_string(index) +
                                " is not active");
    }
    if (ring_.shards() <= 1) {
      return FailedPrecondition(
          "cannot retire the last shard: every key needs an owner");
    }
    const std::vector<ShardRing::Arc> arcs = ring_.remove_shard(index);
    fraction = ShardRing::arcs_fraction(arcs);
    shard.state.store(ShardState::kDraining, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    client = shard.client;
  }
  last_rebalance_fraction_.store(fraction, std::memory_order_release);
  leaves_started_.add();
  // Close OUTSIDE the ring flip: new submits already route elsewhere;
  // closing refuses any straggler routed under the old epoch (it fails
  // over to the new owner), while pending forwards keep settling on the
  // old route.
  client->close();
  if (client->pending() == 0) retire(index);
  return Status::Ok();
}

void ClusterFrontEnd::retire(std::size_t index) {
  std::shared_ptr<ingress::IngressClient> client;
  {
    std::unique_lock lock(topology_mutex_);
    Shard& shard = *shards_[index];
    ShardState expected = ShardState::kDraining;
    if (!shard.state.compare_exchange_strong(expected,
                                             ShardState::kRetired)) {
      return;  // someone else retired it
    }
    client = std::move(shard.client);
    shard.client = nullptr;
  }
  leaves_completed_.add();
  // The client's destructor runs outside the lock (it unbinds its
  // endpoint and would resolve any stragglers — there are none, the
  // drain condition was pending() == 0).
  client.reset();
}

void ClusterFrontEnd::mark_stale(std::size_t index) {
  std::shared_lock lock(topology_mutex_);
  if (index >= shards_.size()) return;
  if (!shards_[index]->stale.exchange(true, std::memory_order_acq_rel)) {
    stale_marks_.add();
  }
}

std::size_t ClusterFrontEnd::maintain() {
  const std::vector<ShardView> shards = snapshot();
  std::size_t resolved = 0;
  // Expiry callbacks re-enter forward()/settle_forward(); no lock held.
  for (const ShardView& entry : shards) {
    if (entry.client != nullptr) resolved += entry.client->expire_overdue();
  }
  for (const ShardView& entry : shards) {
    if (entry.state == ShardState::kDraining && entry.client != nullptr &&
        entry.client->pending() == 0) {
      retire(entry.index);
    } else if ((entry.state == ShardState::kActive ||
                entry.state == ShardState::kJoining) &&
               entry.stale && !entry.syncing) {
      kick_full_sync(entry.index);
    }
  }
  const TimePoint now = network_->clock().now();
  std::lock_guard lock(checkpoint_mutex_);
  sweep_checkpoints(now);
  return resolved;
}

std::vector<ClusterFrontEnd::ShardView> ClusterFrontEnd::snapshot() const {
  std::shared_lock lock(topology_mutex_);
  std::vector<ShardView> views;
  views.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    views.push_back(
        ShardView{i, shard.client, shard.state.load(std::memory_order_acquire),
                  shard.stale.load(std::memory_order_acquire),
                  shard.full_sync_in_flight.load(std::memory_order_acquire)});
  }
  return views;
}

std::shared_ptr<ingress::IngressClient> ClusterFrontEnd::client_of(
    std::size_t index) const {
  std::shared_lock lock(topology_mutex_);
  return index < shards_.size() ? shards_[index]->client : nullptr;
}

void ClusterFrontEnd::record_health(
    std::size_t shard_index, broker::CircuitBreaker::Admission admission,
    bool success) {
  broker::CircuitBreaker::Transition transition;
  {
    std::shared_lock lock(topology_mutex_);
    transition = shards_[shard_index]->breaker->on_result(
        admission, success, network_->clock().now());
  }
  if (transition == broker::CircuitBreaker::Transition::kOpened) {
    breaker_trips_.add();
  }
}

}  // namespace mdsm::cluster
