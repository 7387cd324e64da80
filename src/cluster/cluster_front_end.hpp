// The cluster front-end: one well-known endpoint fanning a
// consistent-hash-sharded fleet of ShardNodes out behind it. DESIGN.md
// §6g–§6i give the full design; in short:
//
// - Door: the public endpoint is a WireDoor provisioned from the
//   authoritative middleware model, so clients meet the same chain
//   (auth, rate limit, deadline), refusal slugs and counters as at a
//   lone IngressServer. Its terminals are routing, not execution.
// - Routing: the submit route's {session} capture is the shard key. The
//   owner's IngressServer executes the request; the front-end forwards
//   it with the original "<client>#<id>" as forwarded_for, so traces
//   and the shard's dedup ledger see one request across hops.
// - Health/failover: a sliding-window breaker per shard. An open window
//   reroutes the session to its ring replica (through the replica's
//   own breaker); a lost reply fails the one request over, with the
//   wait deducted from its deadline. One terminal outcome per request.
// - Session resume: the last checkpoint pulled from each session's
//   holder is cached here, and forward() ships it ahead of a request to
//   any target not known to hold that version live.
// - Replication: update_model() ships model::diff ChangeLists; a shard
//   that misses one goes stale and gets the full model instead.
// - Elasticity: join() warms a newcomer before splicing it into the
//   ring; leave() drops a shard from the ring and retires it once its
//   pending forwards settle. Every routing decision is stamped with the
//   topology epoch, so no session ever has two live owners.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "broker/invocation_policy.hpp"
#include "cluster/shard_ring.hpp"
#include "common/status.hpp"
#include "ingress/door.hpp"
#include "ingress/ingress_client.hpp"
#include "ingress/wire.hpp"
#include "model/model.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "synthesis/synthesis_engine.hpp"

namespace mdsm::cluster {

struct ClusterConfig {
  std::string endpoint = "cluster";  ///< the fleet's public endpoint
  /// Per-shard health window (PR-4 machinery). The defaults trip after
  /// half of the last 16 forwards are lost, with min_samples guarding
  /// cold shards and a cooldown before half-open probes retest.
  broker::BreakerConfig health{.window = 16,
                               .min_samples = 4,
                               .failure_threshold = 0.5,
                               .cooldown = std::chrono::milliseconds(200),
                               .half_open_probes = 1};
  /// Reply budget per downstream hop before a forward counts as lost;
  /// a lost request is re-forwarded to the replica shard once.
  Duration downstream_reply_timeout = std::chrono::milliseconds(500);
};

class ClusterFrontEnd {
 public:
  /// A shard's place in the join → serve → drain → gone lifecycle.
  enum class ShardState {
    kJoining,   ///< warming via full-model ship; not in the ring yet
    kActive,    ///< in the ring, serving its key-arcs
    kDraining,  ///< out of the ring; pending forwards still settling
    kRetired,   ///< drained; client released, slot kept for index stability
  };

  /// Bind the front-end on `network`, forwarding to the shard ingress
  /// endpoints in `shard_endpoints` (index order = ring shard index).
  /// `authoritative_model` seeds the replication baseline — it must be
  /// the middleware model every shard was launched from.
  static Result<std::unique_ptr<ClusterFrontEnd>> attach(
      net::Network& network, const model::Model& authoritative_model,
      std::vector<std::string> shard_endpoints, ClusterConfig config = {});

  ~ClusterFrontEnd();
  ClusterFrontEnd(const ClusterFrontEnd&) = delete;
  ClusterFrontEnd& operator=(const ClusterFrontEnd&) = delete;

  [[nodiscard]] const std::string& endpoint_name() const noexcept {
    return door_.name();
  }
  /// The front-end's registry: its door's "ingress.*" cells and its own
  /// "cluster.*" ledger.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  /// The ring itself. NOT synchronized against concurrent join/leave —
  /// single-threaded introspection (tests, examples) only; concurrent
  /// callers should use shard_for().
  [[nodiscard]] const ShardRing& ring() const noexcept { return ring_; }
  /// Shards currently in the ring.
  [[nodiscard]] std::size_t active_shard_count() const;
  [[nodiscard]] ShardState shard_state(std::size_t index) const;
  /// Topology epoch: bumps on every ring change (join completion,
  /// leave). Forwards are stamped with it so stale failovers re-resolve.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Fraction of the keyspace the LAST topology change moved (the
  /// migration bound the bench asserts: ~1/N per single join/leave).
  [[nodiscard]] double last_rebalance_fraction() const noexcept {
    return last_rebalance_fraction_.load(std::memory_order_acquire);
  }
  /// The shard currently serving `session` (after health rerouting).
  [[nodiscard]] std::size_t shard_for(std::string_view session) const;

  /// Begin admitting a new shard serving `endpoint`: attach a
  /// downstream client, start the full-model warm-up, and splice it
  /// into the ring once the warm-up acks at the current model version.
  /// Returns the new shard's index immediately; completion is
  /// observable via shard_state() / the "cluster.joins_completed" cell.
  Result<std::size_t> join(const std::string& endpoint);

  /// Begin retiring shard `index`: remove it from the ring (new submits
  /// for its arcs route to the survivors at the bumped epoch), close
  /// its downstream client, and retire it once every pending forward
  /// has settled on the old route. Refuses to retire the last active
  /// shard. Completion is observable via shard_state() / the
  /// "cluster.leaves_completed" cell.
  Status leave(std::size_t index);

  /// Replace the authoritative middleware model: diff, ship the
  /// ChangeList to every current shard (stale shards get a full-model
  /// ship instead), adopt `next_model` as the new baseline. Returns the
  /// first immediate send failure (delivery outcomes arrive
  /// asynchronously and land in the "cluster.replication_*" cells).
  Status update_model(const model::Model& next_model);

  /// Housekeeping for simulation drivers: expire overdue downstream
  /// forwards (triggering retries/failover), retire drained leavers,
  /// re-ship the full model to stale shards, and drop idle checkpoint
  /// entries. Returns outcomes resolved.
  std::size_t maintain();

  /// Version of the last checkpoint captured for `session` (0 = none) —
  /// exposed for tests. Versions come from one front-end-wide sequence,
  /// so a session's versions keep rising even after its entry was
  /// dropped for idleness and re-created.
  [[nodiscard]] std::int64_t checkpoint_version(std::string_view session) const;
  /// Sessions with a checkpoint entry. An entry goes when a capture
  /// finds its session ended, or after kCheckpointIdleTtl of idleness.
  [[nodiscard]] std::size_t checkpointed_sessions() const;
  /// The idleness (network clock) after which an entry is dropped: the
  /// shards' own session idle TTL, past which the owner has released
  /// the session as well.
  static constexpr Duration kCheckpointIdleTtl =
      synthesis::SynthesisEngine::kSessionIdleTtl;

 private:
  /// Everything one forwarded submit needs to fail over and reply.
  struct Forward {
    std::string client;  ///< original sender endpoint
    std::uint64_t id = 0;  ///< original request id (reply correlation)
    std::string session;
    std::string dsml;
    std::string text;
    std::optional<Duration> deadline;  ///< REMAINING budget this attempt
    bool high_priority = false;
    std::optional<std::size_t> fallback;  ///< replica to try on loss
    /// Verdict the target shard's breaker issued for this attempt
    /// (probes must retire their probe slot on settle).
    broker::CircuitBreaker::Admission admission =
        broker::CircuitBreaker::Admission::kAllow;
    /// Topology epoch the routing decision was made under; a failover
    /// after a flip re-resolves its target against the current ring.
    std::uint64_t epoch = 0;
    /// When this attempt left the front-end (network clock), so a
    /// failover can deduct the wait already spent from the deadline.
    TimePoint sent_at{};
  };

  struct Shard {
    std::string endpoint;
    /// breaker declared BEFORE client: the client's destructor fires
    /// straggler callbacks that feed the health window, so the breaker
    /// must outlive it.
    std::unique_ptr<broker::CircuitBreaker> breaker;
    /// shared_ptr so in-flight forwards and maintenance snapshots keep
    /// the client alive across a concurrent retire; null once retired.
    std::shared_ptr<ingress::IngressClient> client;
    std::atomic<ShardState> state{ShardState::kActive};
    /// Replica diverged (missed/nacked a delta, or still warming):
    /// deltas are withheld; the full model re-ships until the current
    /// version acks.
    std::atomic<bool> stale{false};
    std::atomic<bool> full_sync_in_flight{false};
  };

  ClusterFrontEnd(net::Network& network, model::Model authoritative);

  /// Door terminals: route a submit through the ring and the health
  /// windows into forward(); fan a query out to every active shard.
  void handle_submit(ingress::IngressContext& context);
  void handle_query(ingress::IngressContext& context);
  /// Forward `state` to `shard_index`. When the session has a cached
  /// checkpoint that shard is not known to hold live, ship it there
  /// first and send the request once the ship settles.
  void forward(Forward state, std::size_t shard_index);
  /// The downstream submit of one forward attempt.
  void send_forward(const std::shared_ptr<Forward>& state,
                    std::size_t shard_index);
  /// Resolve one downstream outcome: fail over, or reply to the client.
  void settle_forward(Forward& state, std::size_t shard_index,
                      const ingress::RemoteOutcome& outcome);
  /// Ship the current full model to `index` (at most one in flight per
  /// shard). Clears staleness — and completes a pending join — when the
  /// ack matches the current model version.
  void kick_full_sync(std::size_t index);
  /// A fresh slot for `endpoint`: its downstream client (shard `index`)
  /// and its health window.
  Result<std::unique_ptr<Shard>> make_shard(const std::string& endpoint,
                                            std::size_t index);
  /// Splice a warmed joiner into the ring (unique topology lock).
  void complete_join(std::size_t index);
  /// Release a drained leaver's client and mark the slot retired.
  void retire(std::size_t index);
  void mark_stale(std::size_t index);
  /// Cadence hook (PR 10): count a completed sequenced request for
  /// `session` and, when the model-driven interval fires, pull a fresh
  /// checkpoint from the owning shard.
  void maybe_checkpoint(const std::string& session, std::size_t owner);
  /// Capture `session`'s state from shard `owner` ("checkpoint/{session}"),
  /// version-stamp it and cache it.
  void checkpoint_session(const std::string& session, std::size_t owner);
  /// Ship a cached checkpoint to shard `index` via
  /// "replicate/session-state"; the receiver imports it into its live
  /// platform. `done(acked)` fires once the ship settles (immediately on
  /// a send failure).
  void ship_session_state(const std::string& session, std::int64_t version,
                          const std::string& state_text, std::size_t index,
                          std::function<void(bool)> done);
  /// Drop checkpoint entries idle for kCheckpointIdleTtl (network
  /// clock), at most every half TTL; checkpoint_mutex_ held.
  void sweep_checkpoints(TimePoint now);
  /// One shard's state, read under the topology lock for work that
  /// runs outside it.
  struct ShardView {
    std::size_t index;
    std::shared_ptr<ingress::IngressClient> client;  ///< null once retired
    ShardState state;
    bool stale;
    bool syncing;  ///< a full-model ship is in flight
  };
  [[nodiscard]] std::vector<ShardView> snapshot() const;
  /// The shard's downstream client; null once retired.
  [[nodiscard]] std::shared_ptr<ingress::IngressClient> client_of(
      std::size_t index) const;
  /// Feed the shard's health window; counts breaker trips.
  void record_health(std::size_t shard_index,
                     broker::CircuitBreaker::Admission admission,
                     bool success);

  net::Network* network_;
  obs::MetricsRegistry metrics_;  ///< declared before the door counting in it
  ingress::WireDoor door_;
  ClusterConfig config_;
  /// The model's ingress_auth token, stamped on every downstream request
  /// so the shards' own auth middleware passes the forwarded hop.
  std::string auth_token_;

  /// Guards the SHAPE of shards_ (append on join, client release on
  /// retire) and every ring_ read/write. Routing paths take it shared
  /// for the decision only — never across a downstream send, so a
  /// reentrant settle can re-acquire it safely.
  mutable std::shared_mutex topology_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardRing ring_{1};
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<double> last_rebalance_fraction_{0.0};

  mutable std::mutex model_mutex_;  ///< guards authoritative_; serializes
                                    ///< model_version_ writes
  model::Model authoritative_;
  /// Atomic so ack callbacks can compare versions without nesting
  /// model_mutex_ inside topology_mutex_ (the lock order is
  /// model → nothing, topology → nothing — never one inside the other).
  std::atomic<std::uint64_t> model_version_{1};
  /// Teardown latch: straggler outcomes fired by destructing downstream
  /// clients must not fail over or touch breakers mid-destruction.
  std::atomic<bool> shutting_down_{false};

  /// Session-state replication. Decoded from the authoritative model's
  /// `checkpoint_interval` attr: pull a checkpoint after every N
  /// completed sequenced requests per session (0 disables).
  std::int64_t checkpoint_interval_ = 0;
  struct SessionCheckpoint {
    std::int64_t version = 0;    ///< stamp of the cached state_text
    TimePoint last_used{};       ///< last completed request
    std::string state_text;      ///< last captured checkpoint (text codec)
    std::uint64_t completed = 0;  ///< completed requests since attach
    bool capture_in_flight = false;  ///< at most one pull per session
    /// Highest version known to be LIVE at resumed_shard — captures mark
    /// their source shard current; acked ships mark their target. A
    /// forward to that shard ships nothing.
    std::int64_t resumed_version = 0;
    std::size_t resumed_shard = static_cast<std::size_t>(-1);
  };
  mutable std::mutex checkpoint_mutex_;  ///< guards checkpoints_ only;
                                         ///< never held across a send
  std::map<std::string, SessionCheckpoint, std::less<>> checkpoints_;
  std::int64_t checkpoint_versions_ = 0;  ///< last version stamped
  TimePoint next_checkpoint_sweep_{};

  // The front-end's own ledger: "cluster.<field>" cells of metrics_.
  obs::Counter& forwarded_ = metrics_.counter("cluster.forwarded");
  obs::Counter& rerouted_ = metrics_.counter("cluster.rerouted");
  obs::Counter& failovers_ = metrics_.counter("cluster.failovers");
  obs::Counter& query_fanouts_ = metrics_.counter("cluster.query_fanouts");
  obs::Counter& breaker_trips_ = metrics_.counter("cluster.breaker_trips");
  obs::Counter& deltas_shipped_ = metrics_.counter("cluster.deltas_shipped");
  obs::Counter& delta_bytes_ = metrics_.counter("cluster.delta_bytes");
  obs::Counter& full_bytes_ = metrics_.counter("cluster.full_bytes");
  obs::Counter& replication_acks_ =
      metrics_.counter("cluster.replication_acks");
  obs::Counter& replication_failures_ =
      metrics_.counter("cluster.replication_failures");
  obs::Counter& stale_marks_ = metrics_.counter("cluster.stale_marks");
  obs::Counter& full_syncs_shipped_ =
      metrics_.counter("cluster.full_syncs_shipped");
  obs::Counter& full_sync_acks_ = metrics_.counter("cluster.full_sync_acks");
  obs::Counter& joins_started_ = metrics_.counter("cluster.joins_started");
  obs::Counter& joins_completed_ = metrics_.counter("cluster.joins_completed");
  obs::Counter& leaves_started_ = metrics_.counter("cluster.leaves_started");
  obs::Counter& leaves_completed_ =
      metrics_.counter("cluster.leaves_completed");
  obs::Counter& checkpoints_taken_ =
      metrics_.counter("cluster.checkpoints_taken");
  obs::Counter& checkpoint_failures_ =
      metrics_.counter("cluster.checkpoint_failures");
  obs::Counter& resumes_shipped_ = metrics_.counter("cluster.resumes_shipped");
  obs::Counter& resumes_completed_ =
      metrics_.counter("cluster.resumes_completed");
};

}  // namespace mdsm::cluster
