#include "domains/comm/comm_services.hpp"

#include "common/log.hpp"

namespace mdsm::comm {

using model::Value;

CommSessionService::CommSessionService(net::Network& network,
                                       CommServiceConfig config)
    : network_(&network), config_(config) {}

void CommSessionService::negotiation_work() const {
  // Deterministic stand-in for SDP negotiation / (de)serialization /
  // codec setup cost; volatile sink defeats dead-code elimination.
  static volatile std::uint64_t sink = 0;
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < config_.signaling_work; ++i) {
    hash ^= i;
    hash *= 1099511628211ull;
  }
  sink = sink + hash;
}

Result<Session*> CommSessionService::session_for(
    const std::string& session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return NotFound("no session '" + session_id + "'");
  }
  return &it->second;
}

void CommSessionService::ensure_endpoint(const std::string& address) {
  if (network_->find_endpoint(address) == nullptr) {
    auto endpoint = network_->create_endpoint(address);
    if (endpoint.ok()) {
      // Participants answer every offer; the handshake counts replies.
      endpoint.value()->set_handler([this, address](const net::Message& m) {
        constexpr std::string_view kOffer = "offer.";
        if (m.topic.starts_with(kOffer)) {
          std::string answer = "answer.";
          answer.append(m.topic, kOffer.size());  // one allocation at most
          (void)network_->send(address, m.from, std::move(answer), m.payload);
        }
      });
    }
  }
}

Status CommSessionService::handshake(Session& session,
                                     const std::string& address,
                                     const std::string& topic) {
  // Offer/answer with every other party; the network simulation applies
  // latency per hop and the service waits for the exchanges to settle.
  // The offer topic is built once: each offer copies it, the last takes it.
  std::string offer = "offer." + topic;
  std::size_t offers = session.parties.size() - session.parties.count(address);
  for (const std::string& peer : session.parties) {
    if (peer == address) continue;
    MDSM_RETURN_IF_ERROR(network_->send(
        address, peer, --offers == 0 ? std::move(offer) : offer,
        Value(session.id)));
  }
  network_->run_until_idle();
  negotiation_work();
  ++handshakes_;
  return Status::Ok();
}

Status CommSessionService::create_session(const std::string& session_id) {
  if (sessions_.contains(session_id)) {
    return AlreadyExists("session '" + session_id + "' already exists");
  }
  Session session;
  session.id = session_id;
  session.active = true;
  sessions_[session_id] = std::move(session);
  negotiation_work();
  return Status::Ok();
}

Status CommSessionService::teardown_session(const std::string& session_id) {
  Result<Session*> session = session_for(session_id);
  if (!session.ok()) return session.status();
  // Close every stream first (signaling), then drop the session.
  for (auto& [stream_id, stream] : (*session)->streams) {
    if (stream.open) {
      for (const std::string& party : (*session)->parties) {
        (void)network_->send(party, party, "teardown." + stream_id, {});
      }
    }
  }
  network_->run_until_idle();
  negotiation_work();
  sessions_.erase(session_id);
  return Status::Ok();
}

Status CommSessionService::add_party(const std::string& session_id,
                                     const std::string& address) {
  Result<Session*> session = session_for(session_id);
  if (!session.ok()) return session.status();
  if ((*session)->parties.contains(address)) {
    return AlreadyExists("party '" + address + "' already in session");
  }
  ensure_endpoint(address);
  (*session)->parties.insert(address);
  MDSM_RETURN_IF_ERROR(handshake(**session, address, "join"));
  if (sink_) sink_("party.joined", Value(address));
  return Status::Ok();
}

Status CommSessionService::remove_party(const std::string& session_id,
                                        const std::string& address) {
  Result<Session*> session = session_for(session_id);
  if (!session.ok()) return session.status();
  if ((*session)->parties.erase(address) == 0) {
    return NotFound("party '" + address + "' not in session");
  }
  MDSM_RETURN_IF_ERROR(handshake(**session, address, "leave"));
  if (sink_) sink_("party.left", Value(address));
  return Status::Ok();
}

Status CommSessionService::open_stream(const std::string& session_id,
                                       const std::string& stream_id,
                                       const std::string& kind,
                                       const std::string& quality, bool live) {
  Result<Session*> session = session_for(session_id);
  if (!session.ok()) return session.status();
  if ((*session)->parties.size() < 2) {
    return FailedPrecondition("stream needs at least two parties");
  }
  auto [it, inserted] = (*session)->streams.emplace(
      stream_id, Stream{stream_id, kind, quality, live, true});
  if (!inserted) {
    return AlreadyExists("stream '" + stream_id + "' already open");
  }
  // Media setup: every party offers to every other (full mesh for
  // conferences, one round for p2p).
  for (const std::string& party : (*session)->parties) {
    MDSM_RETURN_IF_ERROR(handshake(**session, party, "media." + stream_id));
  }
  return Status::Ok();
}

Status CommSessionService::close_stream(const std::string& session_id,
                                        const std::string& stream_id) {
  Result<Session*> session = session_for(session_id);
  if (!session.ok()) return session.status();
  auto it = (*session)->streams.find(stream_id);
  if (it == (*session)->streams.end() || !it->second.open) {
    return NotFound("stream '" + stream_id + "' not open");
  }
  (*session)->streams.erase(it);
  network_->run_until_idle();
  negotiation_work();
  return Status::Ok();
}

Status CommSessionService::retune_stream(const std::string& session_id,
                                         const std::string& stream_id,
                                         const std::string& quality) {
  Result<Session*> session = session_for(session_id);
  if (!session.ok()) return session.status();
  auto it = (*session)->streams.find(stream_id);
  if (it == (*session)->streams.end()) {
    return NotFound("stream '" + stream_id + "' not open");
  }
  it->second.quality = quality;
  // Renegotiation: one offer/answer round.
  for (const std::string& party : (*session)->parties) {
    MDSM_RETURN_IF_ERROR(handshake(**session, party, "retune." + stream_id));
    break;  // initiating party only
  }
  return Status::Ok();
}

Status CommSessionService::reconnect_party(const std::string& session_id,
                                           const std::string& address) {
  Result<Session*> session = session_for(session_id);
  if (!session.ok()) return session.status();
  if (!(*session)->parties.contains(address)) {
    return NotFound("party '" + address + "' not in session");
  }
  // Restore links, then re-run the join handshake.
  for (const std::string& peer : (*session)->parties) {
    if (peer != address) network_->set_link_down(address, peer, false);
  }
  MDSM_RETURN_IF_ERROR(handshake(**session, address, "rejoin"));
  if (sink_) sink_("party.reconnected", Value(address));
  return Status::Ok();
}

void CommSessionService::inject_link_failure(const std::string& session_id,
                                             const std::string& address) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  for (const std::string& peer : it->second.parties) {
    if (peer != address) network_->set_link_down(address, peer, true);
  }
  if (sink_) sink_("link.lost", Value(address));
}

const Session* CommSessionService::find_session(std::string_view id) const {
  auto it = sessions_.find(std::string(id));
  return it == sessions_.end() ? nullptr : &it->second;
}

CommServiceAdapter::CommServiceAdapter(CommSessionService& service,
                                       std::string name)
    : ResourceAdapter(std::move(name)), service_(&service) {
  service_->set_event_sink(
      [this](const std::string& topic, Value payload) {
        raise_event(topic, std::move(payload));
      });
}

Result<Value> CommServiceAdapter::execute(const std::string& command,
                                          const broker::Args& args) {
  auto arg = [&args](std::string_view key) -> std::string {
    auto it = args.find(key);
    return it != args.end() && it->second.is_string() ? it->second.as_string()
                                                      : std::string{};
  };
  Status status;
  if (command == "session.create") {
    status = service_->create_session(arg("id"));
  } else if (command == "session.teardown") {
    status = service_->teardown_session(arg("id"));
  } else if (command == "party.add") {
    status = service_->add_party(arg("session"), arg("address"));
  } else if (command == "party.remove") {
    status = service_->remove_party(arg("session"), arg("address"));
  } else if (command == "media.open") {
    bool live = true;
    auto it = args.find("live");
    if (it != args.end() && it->second.is_bool()) live = it->second.as_bool();
    std::string quality = arg("quality");
    if (quality.empty()) quality = "standard";
    status = service_->open_stream(arg("session"), arg("id"), arg("kind"),
                                   quality, live);
  } else if (command == "media.close") {
    status = service_->close_stream(arg("session"), arg("id"));
  } else if (command == "media.retune") {
    status = service_->retune_stream(arg("session"), arg("id"),
                                     arg("quality"));
  } else if (command == "party.reconnect") {
    status = service_->reconnect_party(arg("session"), arg("address"));
  } else {
    return NotFound("comm service has no command '" + command + "'");
  }
  if (!status.ok()) return status;
  return Value(true);
}

}  // namespace mdsm::comm
