// One member of the sharded platform cluster: a full Platform behind
// its own IngressServer endpoint, and a replica of the cluster's
// authoritative middleware model. Runtime-model changes arrive as
// model::diff ChangeLists on the internal "replicate/{what}" route; the
// node applies the delta to its replica and re-decodes only the
// DscSpec/ProcedureSpec artifacts it touched. The registries' version
// stamps invalidate cached intent models, so in-flight traffic never
// executes against a stale vocabulary. The node counts its replication
// ledger under "shard." in its platform's registry, so a shard's
// query/metrics reports it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/platform.hpp"
#include "ingress/ingress_server.hpp"
#include "model/diff.hpp"
#include "model/model.hpp"
#include "net/network.hpp"

namespace mdsm::cluster {

struct ShardNodeOptions {
  /// Endpoint this shard's ingress binds ("" derives
  /// "<platform-name>.ingress" — pass explicit names, shards share one
  /// middleware model).
  std::string endpoint;
  /// Platform assembly knobs (DSML, clock, pipeline threads...).
  core::PlatformConfig platform_config;
  /// Manual reply loop for deterministic tests (see IngressServer).
  bool manual_reply_loop = false;
  /// Called between assemble() and start() to install the shard's
  /// resource adapters (each shard needs its own adapter instances).
  std::function<Status(core::Platform&)> provision;
};

class ShardNode {
 public:
  /// Assemble, provision and start a platform from `middleware_model`,
  /// bind its ingress on `network`, and install the replication route.
  static Result<std::unique_ptr<ShardNode>> launch(
      const model::Model& middleware_model, net::Network& network,
      ShardNodeOptions options);

  ~ShardNode();
  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  [[nodiscard]] const std::string& endpoint_name() const noexcept {
    return server_->endpoint_name();
  }
  [[nodiscard]] core::Platform& platform() noexcept { return *platform_; }

  /// Manual reply loop only: drain queued replies.
  std::size_t pump();

  /// Simulate a node death: unbind the endpoint and stop the platform.
  /// Subsequent messages to this shard become undeliverable, which is
  /// exactly what the front-end's health window observes.
  void kill();
  [[nodiscard]] bool alive() const noexcept { return !killed_; }

  /// Apply a replication delta to the replica model and re-sync the
  /// controller vocabulary it touched (exposed for tests; the wire path
  /// arrives via "replicate/model-diff").
  Status apply_changes(const model::ChangeList& changes);

  /// Full-model sync (PR 9): diff the authoritative `full` model against
  /// the local replica and apply the difference — the warm-up path for a
  /// freshly joined shard and the repair path for one that missed or
  /// nacked a delta. The wire path arrives via "replicate/model-full"
  /// carrying the serialized model text.
  Status apply_full_model(const model::Model& full);

  /// Sessions whose last imported checkpoint version the gate keeps:
  /// the newest this many (8 bytes of hash and 8 of version each).
  static constexpr std::size_t kCheckpointGateCapacity = 1024;

 private:
  ShardNode(model::Model replica_model,
            std::unique_ptr<core::Platform> platform);

  /// Register the internal routes on the server's door. They skip the
  /// middleware chain: only the front-end speaks them.
  void install_replication_route();
  void handle_replicate(const ingress::IngressContext& context);
  /// Serve "checkpoint/{session}": export this platform's session state
  /// and reply with its text encoding (the front-end's capture path);
  /// the reply's `commands` is 1 while the session is live, 0 once it
  /// has ended.
  void handle_checkpoint(const ingress::IngressContext& context);
  /// "replicate/session-state" payload: version-gate, then import into
  /// the live platform.
  void handle_session_state(const ingress::IngressContext& context);
  /// apply_changes with replica_mutex_ already held.
  Status apply_changes_locked(const model::ChangeList& changes);

  std::unique_ptr<core::Platform> platform_;
  std::unique_ptr<ingress::IngressServer> server_;
  bool killed_ = false;

  mutable std::mutex replica_mutex_;  ///< guards replica_model_, the gate
                                      ///< and each import
  model::Model replica_model_;

  // The replication ledger: "shard.<name>" cells of the platform registry.
  obs::Counter& deltas_applied_;   ///< replication payloads accepted
  obs::Counter& changes_applied_;  ///< individual changes in them
  obs::Counter& full_syncs_applied_;  ///< full-model ships accepted
  obs::Counter& procedures_synced_;
  obs::Counter& dscs_synced_;
  obs::Counter& checkpoints_exported_;  ///< "checkpoint/{session}" serves
  obs::Counter& states_rejected_stale_;  ///< version-gated session ships

  /// The checkpoint version gate: {hash of session key, last imported
  /// version}, oldest first, at most kCheckpointGateCapacity entries.
  /// Only integers: the state itself lives in the platform.
  std::vector<std::pair<std::size_t, std::int64_t>> imported_versions_;
};

}  // namespace mdsm::cluster
