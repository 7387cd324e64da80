#include "cluster/shard_node.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "core/middleware_metamodel.hpp"
#include "core/spec_decode.hpp"
#include "ingress/wire.hpp"
#include "model/text_format.hpp"

namespace mdsm::cluster {

namespace {

/// The DscSpec/ProcedureSpec ancestor owning `id` in `model` (the
/// object itself counts), or null when the object sits outside the
/// controller vocabulary (platform attrs, broker specs, ...).
const model::ModelObject* owning_spec(const model::Model& model,
                                      std::string_view id) {
  const model::ModelObject* object = model.find(id);
  while (object != nullptr) {
    if (object->class_name() == "ProcedureSpec" ||
        object->class_name() == "DscSpec") {
      return object;
    }
    if (object->parent_id().empty()) return nullptr;
    object = model.find(object->parent_id());
  }
  return nullptr;
}

controller::Dsc decode_dsc(const model::ModelObject& dsc_spec) {
  controller::Dsc dsc;
  dsc.name = dsc_spec.get_string("name");
  dsc.kind = dsc_spec.get_string("kind", "operation") == "data"
                 ? controller::DscKind::kData
                 : controller::DscKind::kOperation;
  dsc.category = dsc_spec.get_string("category");
  dsc.description = dsc_spec.get_string("description");
  return dsc;
}

}  // namespace

Result<std::unique_ptr<ShardNode>> ShardNode::launch(
    const model::Model& middleware_model, net::Network& network,
    ShardNodeOptions options) {
  Result<std::unique_ptr<core::Platform>> platform =
      core::Platform::assemble(middleware_model,
                               std::move(options.platform_config));
  if (!platform.ok()) return platform.status();

  std::unique_ptr<ShardNode> node(
      new ShardNode(middleware_model.clone(), std::move(platform).value()));
  if (options.provision != nullptr) {
    MDSM_RETURN_IF_ERROR(options.provision(*node->platform_));
  }
  MDSM_RETURN_IF_ERROR(node->platform_->start());

  Result<std::unique_ptr<ingress::IngressServer>> server =
      ingress::IngressServer::attach(
          *node->platform_, network,
          {.endpoint = std::move(options.endpoint),
           .manual_reply_loop = options.manual_reply_loop});
  if (!server.ok()) {
    (void)node->platform_->stop();
    return server.status();
  }
  node->server_ = std::move(server).value();
  node->install_replication_route();
  return node;
}

ShardNode::ShardNode(model::Model replica_model,
                     std::unique_ptr<core::Platform> platform)
    : platform_(std::move(platform)),
      replica_model_(std::move(replica_model)),
      deltas_applied_(platform_->metrics().counter("shard.deltas_applied")),
      changes_applied_(platform_->metrics().counter("shard.changes_applied")),
      full_syncs_applied_(
          platform_->metrics().counter("shard.full_syncs_applied")),
      procedures_synced_(
          platform_->metrics().counter("shard.procedures_synced")),
      dscs_synced_(platform_->metrics().counter("shard.dscs_synced")),
      checkpoints_exported_(
          platform_->metrics().counter("shard.checkpoints_exported")),
      states_rejected_stale_(platform_->metrics().counter(
          "shard.session_states_rejected_stale")) {}

ShardNode::~ShardNode() {
  // Same ordering as kill(): unbind the endpoint so no new delivery
  // races the drain, stop the platform while the server is still alive
  // (in-flight submit callbacks capture it), then free the server.
  if (server_ != nullptr) server_->door().unbind();
  if (platform_ != nullptr && platform_->running()) (void)platform_->stop();
  server_.reset();
}

void ShardNode::install_replication_route() {
  // Registered before any traffic flows (launch returns the node only
  // after this), satisfying the router's no-concurrent-mutation rule.
  ingress::WireDoor& door = server_->door();
  (void)door.route("replicate/{what}",
                   [this](ingress::IngressContext& context) {
                     handle_replicate(context);
                   });
  (void)door.route("checkpoint/{session}",
                   [this](ingress::IngressContext& context) {
                     handle_checkpoint(context);
                   });
}

void ShardNode::handle_checkpoint(const ingress::IngressContext& context) {
  ingress::WireDoor& door = server_->door();
  const std::uint64_t id = context.request.request_id;
  const std::string session(context.params->get("session"));
  Result<model::Value> state = platform_->export_session_state(session);
  if (!state.ok()) {
    door.refuse(context.message->from, id, state.status());
    return;
  }
  checkpoints_exported_.add();
  // `commands` is 0 once the session has ended here (read after the
  // export, so one that ends meanwhile reads as ended): nothing to resume.
  door.reply(context.message->from,
             {.request_id = id,
              .message = state.value().to_text(),
              .commands = platform_->synthesis().is_live(session) ? 1 : 0});
}

void ShardNode::handle_session_state(const ingress::IngressContext& context) {
  ingress::WireDoor& door = server_->door();
  const std::string& from = context.message->from;
  const std::uint64_t id = context.request.request_id;
  // The envelope: [["session", s], ["version", v], ["state", tree]].
  const model::Value& body = context.request.body;
  auto field = [&body](std::string_view key) -> const model::Value* {
    return body.is_list() ? model::find_entry(body.as_list(), key) : nullptr;
  };
  const model::Value* session = field("session");
  const model::Value* version = field("version");
  const model::Value* state = field("state");
  if (session == nullptr || !session->is_string() || version == nullptr ||
      !version->is_int() || state == nullptr) {
    door.refuse(
        from, id,
        InvalidArgument("session-state envelope needs session/version/state"),
        "malformed");
    return;
  }
  const std::string& key = session->as_string();
  const std::int64_t shipped = version->as_int();
  const std::size_t hash = std::hash<std::string_view>{}(key);
  Status status = Status::Ok();
  std::string refusal;
  {
    // Held across the import, so two ships of one session never
    // interleave between the gate and the adoption.
    std::lock_guard lock(replica_mutex_);
    auto it = std::find_if(
        imported_versions_.begin(), imported_versions_.end(),
        [hash](const auto& entry) { return entry.first == hash; });
    if (it != imported_versions_.end() && shipped < it->second) {
      // Strictly older: a delayed ship must never roll a session back.
      states_rejected_stale_.add();
      status = FailedPrecondition(
          "checkpoint v" + std::to_string(shipped) + " for session '" + key +
          "' is older than imported v" + std::to_string(it->second));
      refusal = "stale-checkpoint";
    } else if (it == imported_versions_.end() || shipped > it->second) {
      // Adopt the checkpoint into the live platform before the front-end
      // forwards the request it ships for, so sequenced work continues
      // from the state the previous holder left. An equal version is a
      // retried ship of what this shard already holds: it only acks.
      status = platform_->import_session_state(*state);
      if (status.ok()) {
        if (it != imported_versions_.end()) {
          imported_versions_.erase(it);
        } else if (imported_versions_.size() == kCheckpointGateCapacity) {
          imported_versions_.erase(imported_versions_.begin());
        }
        imported_versions_.emplace_back(hash, shipped);
      }
    }
  }
  if (!status.ok()) {
    door.refuse(from, id, status, std::move(refusal));
    return;
  }
  door.reply(from, {.request_id = id,
                    .message = "session-state imported",
                    .commands = shipped});
}

void ShardNode::handle_replicate(const ingress::IngressContext& context) {
  const std::string_view what = context.params->get("what");
  if (what == "session-state") {
    handle_session_state(context);
    return;
  }
  // Both model routes end in one reply: the applied change count, or
  // the refusal of the first failing step.
  Status status = Status::Ok();
  std::string refusal;
  ingress::wire::Reply reply;
  reply.request_id = context.request.request_id;
  if (what == "model-full") {
    // Full-model ship: the warm-up / stale-repair path. The payload is
    // serialized model text; the node diffs it against its replica so
    // the apply machinery (and the vocabulary re-sync) is shared with
    // the delta path.
    Result<model::Model> full = model::parse_model(
        context.request.text, core::middleware_metamodel());
    if (!full.ok()) {
      status = full.status();
      refusal = "malformed";
    } else {
      status = apply_full_model(full.value());
      reply.message = "model-full applied";
    }
  } else if (what == "model-diff") {
    Result<model::ChangeList> changes =
        model::decode_changes(context.request.body);
    if (!changes.ok()) {
      status = changes.status();
      refusal = "malformed";
    } else {
      status = apply_changes(changes.value());
      reply.message = "model-diff applied";
      reply.commands = static_cast<std::int64_t>(changes.value().size());
    }
  } else {
    status =
        NotFound("unknown replication payload '" + std::string(what) + "'");
    refusal = "no-route";
  }
  ingress::WireDoor& door = server_->door();
  if (!status.ok()) {
    door.refuse(context.message->from, reply.request_id, status,
                std::move(refusal));
    return;
  }
  door.reply(context.message->from, std::move(reply));
}

Status ShardNode::apply_changes(const model::ChangeList& changes) {
  std::lock_guard lock(replica_mutex_);
  return apply_changes_locked(changes);
}

Status ShardNode::apply_full_model(const model::Model& full) {
  std::lock_guard lock(replica_mutex_);
  // The diff must be computed against the replica under the same lock
  // that apply uses, or a racing delta could wedge between the two.
  const model::ChangeList changes = model::diff(replica_model_, full);
  if (!changes.empty()) {
    MDSM_RETURN_IF_ERROR(apply_changes_locked(changes));
  }
  full_syncs_applied_.add();
  return Status::Ok();
}

Status ShardNode::apply_changes_locked(const model::ChangeList& changes) {
  // Pre-apply pass: removals must be resolved against the model that
  // still contains them — both the registry keys (`name` attributes) of
  // removed specs, and the owning spec of a removed *descendant* (a
  // step deleted from a surviving procedure re-syncs that procedure).
  std::vector<std::string> removed_procedures;
  std::vector<std::string> removed_dscs;
  std::set<std::string> touched_specs;
  for (const model::Change& change : changes) {
    if (change.kind == model::ChangeKind::kRemoveObject) {
      const model::ModelObject* object = replica_model_.find(change.object_id);
      if (object == nullptr) continue;
      if (object->class_name() == "ProcedureSpec") {
        removed_procedures.push_back(object->get_string("name"));
        continue;
      }
      if (object->class_name() == "DscSpec") {
        removed_dscs.push_back(object->get_string("name"));
        continue;
      }
      if (const model::ModelObject* spec =
              owning_spec(replica_model_, change.object_id);
          spec != nullptr) {
        touched_specs.insert(spec->id());
      }
    }
  }

  MDSM_RETURN_IF_ERROR(model::apply(changes, replica_model_));

  // Post-apply pass: additions and mutations resolve against the new
  // model state (an added object's ancestors exist only now).
  for (const model::Change& change : changes) {
    if (change.kind == model::ChangeKind::kRemoveObject) continue;
    if (const model::ModelObject* spec =
            owning_spec(replica_model_, change.object_id);
        spec != nullptr) {
      touched_specs.insert(spec->id());
    }
  }

  // Withdraw vocabulary first (a procedure and its classifier may leave
  // together), then upsert DSCs before the procedures that validate
  // against them.
  controller::ControllerLayer& controller = platform_->controller();
  for (const std::string& name : removed_procedures) {
    (void)controller.repository().remove(name);
  }
  for (const std::string& name : removed_dscs) {
    (void)controller.dscs().remove(name);
  }

  std::vector<const model::ModelObject*> touched_procedures;
  for (const std::string& spec_id : touched_specs) {
    const model::ModelObject* spec = replica_model_.find(spec_id);
    if (spec == nullptr) continue;  // removed later in the same delta
    if (spec->class_name() == "DscSpec") {
      controller::Dsc dsc = decode_dsc(*spec);
      (void)controller.dscs().remove(dsc.name);
      MDSM_RETURN_IF_ERROR(controller.dscs().add(std::move(dsc)));
      dscs_synced_.add();
    } else {
      touched_procedures.push_back(spec);
    }
  }
  for (const model::ModelObject* spec : touched_procedures) {
    Result<controller::Procedure> procedure =
        core::decode_procedure(replica_model_, *spec);
    if (!procedure.ok()) return procedure.status();
    (void)controller.repository().remove(procedure.value().name);
    MDSM_RETURN_IF_ERROR(
        controller.add_procedure(std::move(procedure.value())));
    procedures_synced_.add();
  }

  deltas_applied_.add();
  changes_applied_.add(changes.size());
  return Status::Ok();
}

std::size_t ShardNode::pump() {
  return server_ != nullptr ? server_->pump() : 0;
}

void ShardNode::kill() {
  if (killed_) return;
  killed_ = true;
  // Unbind first — traffic becomes undeliverable — but keep the server
  // object alive: pipeline workers still hold submit callbacks that
  // capture it. stop() drains those callbacks (their replies now fail
  // kUnavailable and are dropped); only then may the server be freed.
  server_->door().unbind();
  if (platform_ != nullptr && platform_->running()) (void)platform_->stop();
  server_.reset();
}

}  // namespace mdsm::cluster
