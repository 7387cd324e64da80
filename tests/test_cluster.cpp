// Sharded platform cluster (PR 8): consistent-hash ring units, and
// end-to-end fixtures running N ShardNodes behind a ClusterFrontEnd on
// one simulated network — session-sticky routing, query fan-out,
// diff-based model replication, and the failover exactly-once ledger.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_front_end.hpp"
#include "cluster/shard_node.hpp"
#include "cluster/shard_ring.hpp"
#include "common/strings.hpp"
#include "core/middleware_metamodel.hpp"
#include "core/platform.hpp"
#include "ingress/ingress_client.hpp"
#include "model/diff.hpp"
#include "model/text_format.hpp"
#include "net/network.hpp"
#include "soak_fixtures.hpp"

namespace mdsm {
namespace {

// ---- consistent-hash ring -------------------------------------------------

TEST(ShardRing, FnvIsTheReferenceFunction) {
  // FNV-1a offset basis: hashing nothing yields it verbatim.
  static_assert(cluster::fnv1a("") == 1469598103934665603ull);
  EXPECT_NE(cluster::fnv1a("a"), cluster::fnv1a("b"));
  EXPECT_EQ(cluster::fnv1a("session-1"), cluster::fnv1a("session-1"));
}

TEST(ShardRing, CoversEveryShardWithRoughBalance) {
  const cluster::ShardRing ring(4, 64);
  EXPECT_EQ(ring.shards(), 4u);
  EXPECT_EQ(ring.points(), 256u);
  std::vector<int> owned(4, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = numbered("k", i);
    const std::size_t owner = ring.owner(key);
    ASSERT_LT(owner, 4u);
    EXPECT_EQ(ring.owner(key), owner);  // deterministic
    ++owned[owner];
  }
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GT(owned[shard], 0) << "shard " << shard << " owns nothing";
    // 64 virtual nodes keep the spread within ~2.4x of the 250 mean.
    EXPECT_LT(owned[shard], 600) << "shard " << shard << " owns too much";
  }
}

TEST(ShardRing, ReplicaIsAlwaysADistinctShard) {
  const cluster::ShardRing ring(3, 32);
  for (int i = 0; i < 200; ++i) {
    const std::string key = numbered("s", i);
    EXPECT_NE(ring.replica(key), ring.owner(key)) << key;
  }
  // Degenerate single-shard ring: the only candidate is the owner.
  const cluster::ShardRing solo(1);
  EXPECT_EQ(solo.replica("anything"), solo.owner("anything"));
}

TEST(ShardRing, GrowingTheRingMovesOnlyAMinorityOfKeys) {
  const cluster::ShardRing four(4, 64);
  const cluster::ShardRing five(5, 64);
  int moved = 0;
  constexpr int kKeys = 1000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = numbered("k", i);
    if (four.owner(key) != five.owner(key)) ++moved;
  }
  // Consistent hashing's whole point: ~1/5 of keys move, not ~4/5 as
  // with hash % N. Allow slack either side of the ideal 200.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys / 2);
}

// The elasticity property (PR 9): splicing shard n into an n-member
// ring moves at most ~1/(n+1) of 10k sampled keys, every moved key goes
// TO the newcomer, the returned arcs describe the move set exactly, and
// the grown ring is point-for-point the fresh (n+1)-ring.
TEST(ShardRing, AddShardMovesBoundedArcsToTheNewcomerOnly) {
  constexpr int kKeys = 10000;
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const cluster::ShardRing before(n, 64);
    cluster::ShardRing ring(n, 64);
    const std::vector<cluster::ShardRing::Arc> arcs = ring.add_shard(n);
    ASSERT_FALSE(arcs.empty());
    for (const cluster::ShardRing::Arc& arc : arcs) {
      EXPECT_EQ(arc.to, n) << "arc moved to a shard other than the newcomer";
    }
    const cluster::ShardRing fresh(n + 1, 64);
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = numbered("k", i);
      ASSERT_EQ(ring.owner(key), fresh.owner(key)) << key;
      if (before.owner(key) != ring.owner(key)) {
        ++moved;
        EXPECT_EQ(ring.owner(key), n) << key << " moved to a survivor";
        EXPECT_TRUE(cluster::ShardRing::arcs_contain(arcs, key)) << key;
      } else {
        EXPECT_FALSE(cluster::ShardRing::arcs_contain(arcs, key)) << key;
      }
    }
    EXPECT_GT(moved, 0) << "n=" << n;
    EXPECT_LE(moved, static_cast<int>(kKeys * 1.5 / (n + 1))) << "n=" << n;
    const double fraction = cluster::ShardRing::arcs_fraction(arcs);
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.5 / static_cast<double>(n + 1));
    // Re-adding a member is inert.
    EXPECT_TRUE(ring.add_shard(n).empty());
  }
}

TEST(ShardRing, RemoveShardHandsArcsToSurvivorsOthersStayPut) {
  constexpr int kKeys = 10000;
  const cluster::ShardRing before(5, 64);
  cluster::ShardRing ring(5, 64);
  const std::vector<cluster::ShardRing::Arc> arcs = ring.remove_shard(2);
  ASSERT_FALSE(arcs.empty());
  EXPECT_FALSE(ring.contains(2));
  EXPECT_EQ(ring.shards(), 4u);
  for (const cluster::ShardRing::Arc& arc : arcs) EXPECT_EQ(arc.from, 2u);
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = numbered("k", i);
    if (before.owner(key) == 2) {
      ++moved;
      EXPECT_NE(ring.owner(key), 2u) << key;
      EXPECT_TRUE(cluster::ShardRing::arcs_contain(arcs, key)) << key;
    } else {
      // Keys the leaver never owned keep their owner verbatim.
      EXPECT_EQ(ring.owner(key), before.owner(key)) << key;
      EXPECT_FALSE(cluster::ShardRing::arcs_contain(arcs, key)) << key;
    }
  }
  EXPECT_GT(moved, 0);
  // Splicing the leaver back restores the original placement exactly.
  ASSERT_FALSE(ring.add_shard(2).empty());
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = numbered("k", i);
    ASSERT_EQ(ring.owner(key), before.owner(key)) << key;
  }
}

TEST(ShardRing, ResizeRefusalsAreInert) {
  cluster::ShardRing ring(2, 16);
  EXPECT_TRUE(ring.add_shard(0).empty());     // already a member
  EXPECT_TRUE(ring.remove_shard(7).empty());  // never was one
  ASSERT_FALSE(ring.remove_shard(1).empty());
  EXPECT_TRUE(ring.remove_shard(0).empty());  // the last member must stay
  EXPECT_EQ(ring.shards(), 1u);
  EXPECT_TRUE(ring.contains(0));
  const std::vector<std::size_t> members = ring.members();
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], 0u);
  EXPECT_EQ(ring.owner("any-key"), 0u);
}

// ---- cluster end-to-end fixture -------------------------------------------

net::NetworkConfig quiet_network() {
  net::NetworkConfig config;
  config.base_latency = std::chrono::microseconds(100);
  config.jitter = std::chrono::microseconds(0);
  config.drop_rate = 0.0;
  return config;
}

/// N ShardNodes + a ClusterFrontEnd + one client on a shared simulated
/// network. Shards run their real staged pipelines; the network runs on
/// a SimClock the drive loop advances when a test needs timeouts.
struct ClusterDeployment {
  model::MetamodelPtr dsml;
  SimClock clock;
  std::unique_ptr<net::Network> network;
  std::optional<model::Model> middleware;  ///< the authoritative model
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  std::vector<soak::CountingAdapter*> adapters;  ///< owned by the nodes
  std::unique_ptr<cluster::ClusterFrontEnd> frontend;
  std::unique_ptr<ingress::IngressClient> client;

  /// Deliver, pump every shard's replies, run the front-end's expiry
  /// housekeeping, repeat until `done`. `advance` > 0 moves the SimClock
  /// each lap so reply timeouts (and therefore failover) can fire.
  bool drive_until(const std::function<bool()>& done,
                   Duration advance = Duration{0}) {
    const auto wall_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < wall_deadline) {
      network->run_until_idle();
      for (auto& node : nodes) node->pump();
      network->run_until_idle();
      frontend->maintain();
      client->expire_overdue();
      network->run_until_idle();
      if (done()) return true;
      if (advance.count() > 0) clock.advance(advance);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  }

  void shutdown() {
    client.reset();
    frontend.reset();
    nodes.clear();  // each node stops its platform
    network.reset();
  }
};

/// Launch one more ShardNode on `endpoint` from the deployment's
/// ORIGINAL baseline model, with the standard provision recipe. Used by
/// make_cluster for the initial fleet and by elasticity tests to stand
/// up a spare before frontend->join() — a joiner deliberately starts on
/// the stale launch baseline so the warm-up has something to ship.
bool launch_spare(ClusterDeployment& out, const std::string& endpoint) {
  cluster::ShardNodeOptions options;
  options.endpoint = endpoint;
  options.platform_config.dsml = out.dsml;
  options.platform_config.pipeline_threads = 2;
  options.manual_reply_loop = true;  // tests pump() deterministically
  options.provision = [o = &out](core::Platform& platform) {
    auto svc = std::make_unique<soak::CountingAdapter>("svc");
    o->adapters.push_back(svc.get());
    return platform.add_resource_adapter(std::move(svc));
  };
  auto node =
      cluster::ShardNode::launch(*out.middleware, *out.network,
                                 std::move(options));
  if (!node.ok()) return false;
  out.nodes.push_back(std::move(node.value()));
  return true;
}

std::unique_ptr<ClusterDeployment> make_cluster(
    std::size_t shards, cluster::ClusterConfig config = {},
    ingress::IngressClientOptions client_options = {},
    std::string_view extra_attrs = "") {
  auto out = std::make_unique<ClusterDeployment>();
  out->dsml = model::testing::make_test_metamodel();
  std::string text(soak::kSoakMiddlewareModel);
  if (!extra_attrs.empty()) {
    // Splice platform attrs (checkpoint_interval, ...) after the domain
    // line, same trick the ingress fixtures use.
    const std::string anchor = "domain = \"testing\"";
    text.insert(text.find(anchor) + anchor.size(),
                "\n  " + std::string(extra_attrs));
  }
  auto parsed = model::parse_model(text, core::middleware_metamodel());
  if (!parsed.ok()) return nullptr;
  out->middleware.emplace(std::move(parsed.value()));
  out->network = std::make_unique<net::Network>(out->clock, quiet_network());

  std::vector<std::string> endpoints;
  for (std::size_t i = 0; i < shards; ++i) {
    if (!launch_spare(*out, numbered("shard-", i))) return nullptr;
    endpoints.push_back(out->nodes.back()->endpoint_name());
  }

  auto frontend = cluster::ClusterFrontEnd::attach(
      *out->network, *out->middleware, std::move(endpoints),
      std::move(config));
  if (!frontend.ok()) return nullptr;
  out->frontend = std::move(frontend.value());

  // Generous local budget: failover tests advance virtual time by
  // seconds, and the client must not write its requests off first.
  if (client_options.reply_timeout == std::chrono::seconds(5)) {
    client_options.reply_timeout = std::chrono::minutes(5);
  }
  auto client = ingress::IngressClient::attach(
      *out->network, out->frontend->endpoint_name(),
      std::move(client_options));
  if (!client.ok()) return nullptr;
  out->client = std::move(client.value());
  return out;
}

/// Exactly-once callback ledger (same shape as the ingress tests').
struct Ledger {
  std::mutex mutex;
  std::map<std::uint64_t, int> fired;
  std::map<std::string, int> refusals;

  ingress::IngressClient::Callback recorder() {
    return [this](const ingress::RemoteOutcome& outcome) {
      std::lock_guard lock(mutex);
      ++fired[outcome.request_id];
      ++refusals[outcome.refusal];
    };
  }
  int total() {
    std::lock_guard lock(mutex);
    int sum = 0;
    for (auto& [id, count] : fired) sum += count;
    return sum;
  }
};

TEST(ClusterE2E, SessionStickyRoutingMatchesTheRing) {
  auto cluster = make_cluster(4);
  ASSERT_NE(cluster, nullptr);

  constexpr int kSessions = 40;
  Ledger ledger;
  std::vector<std::uint64_t> expected_executions(4, 0);
  for (int i = 0; i < kSessions; ++i) {
    const std::string session = numbered("s", i);
    // Each soak submission costs two svc invocations on its owner.
    expected_executions[cluster->frontend->ring().owner(session)] += 2;
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             ledger.recorder())
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until([&] { return ledger.total() == kSessions; }));

  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], kSessions);  // every submission succeeded
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }
  // The ring's placement is exactly where the work landed.
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(cluster->adapters[shard]->executed(),
              expected_executions[shard])
        << "shard " << shard;
  }
  const cluster::ClusterFrontEnd::Stats stats = cluster->frontend->stats();
  EXPECT_EQ(stats.forwarded, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(stats.replies, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.rerouted, 0u);

  // Stickiness: resubmitting a session lands on the same shard.
  const std::string session = "s0";
  const std::size_t owner = cluster->frontend->ring().owner(session);
  const std::uint64_t before = cluster->adapters[owner]->executed();
  Ledger again;
  ASSERT_TRUE(cluster->client
                  ->submit("testlang", session, soak::open_session_text("x0"),
                           again.recorder())
                  .ok());
  ASSERT_TRUE(cluster->drive_until([&] { return again.total() == 1; }));
  EXPECT_EQ(cluster->adapters[owner]->executed(), before + 2);
  cluster->shutdown();
}

TEST(ClusterE2E, QueryFansOutAndMergesEveryShard) {
  auto cluster = make_cluster(3);
  ASSERT_NE(cluster, nullptr);

  std::mutex mutex;
  std::optional<ingress::RemoteOutcome> merged;
  ASSERT_TRUE(cluster->client
                  ->query("metrics",
                          [&](const ingress::RemoteOutcome& outcome) {
                            std::lock_guard lock(mutex);
                            merged = outcome;
                          })
                  .ok());
  ASSERT_TRUE(cluster->drive_until([&] {
    std::lock_guard lock(mutex);
    return merged.has_value();
  }));

  ASSERT_TRUE(merged->status.ok()) << merged->status.to_string();
  for (int shard = 0; shard < 3; ++shard) {
    EXPECT_NE(merged->payload.find(numbered("=== shard ", shard) +
                                   " ==="),
              std::string::npos)
        << merged->payload;
  }
  EXPECT_EQ(cluster->frontend->stats().query_fanouts, 1u);
  cluster->shutdown();
}

/// The baseline middleware model grown by one cheaper media.path
/// procedure ("path-cheap") — the canonical "next model" replication
/// and elasticity tests ship.
std::string grown_model_text() {
  std::string next_text(soak::kSoakMiddlewareModel);
  const std::string anchor = "child actions ActionSpec ca1";
  next_text.insert(next_text.find(anchor),
                   "child procedures ProcedureSpec pr3 {\n"
                   "      name = \"path-cheap\"\n"
                   "      classifier = \"media.path\"\n"
                   "      cost = 0.5\n"
                   "      child units EuSpec eu3 {\n"
                   "        child steps StepSpec t9 {\n"
                   "          op = broker-call\n"
                   "          a = \"svc.open\"\n"
                   "          child args ArgSpec b3a { key = \"id\" value = "
                   "\"$id\" }\n"
                   "        }\n"
                   "      }\n"
                   "    }\n    ");
  return next_text;
}

TEST(ClusterE2E, ModelDiffReplicationSyncsEveryShard) {
  auto cluster = make_cluster(2);
  ASSERT_NE(cluster, nullptr);

  // Grow the vocabulary: a cheaper media.path procedure. The next model
  // differs from the baseline by exactly this subtree.
  auto next =
      model::parse_model(grown_model_text(), core::middleware_metamodel());
  ASSERT_TRUE(next.ok()) << next.status().to_string();

  ASSERT_TRUE(cluster->frontend->update_model(next.value()).ok());
  ASSERT_TRUE(cluster->drive_until(
      [&] { return cluster->frontend->stats().replication_acks == 2; }));

  const cluster::ClusterFrontEnd::Stats stats = cluster->frontend->stats();
  EXPECT_EQ(stats.deltas_shipped, 1u);
  EXPECT_EQ(stats.replication_failures, 0u);
  // The headline economy: the delta is a fraction of a full-model push.
  EXPECT_GT(stats.delta_bytes, 0u);
  EXPECT_LT(stats.delta_bytes, stats.full_bytes / 4);

  for (auto& node : cluster->nodes) {
    const cluster::ShardNode::Stats replication = node->replication_stats();
    EXPECT_EQ(replication.deltas_applied, 1u);
    EXPECT_GE(replication.procedures_synced, 1u);
    // The new procedure is live in the shard's controller.
    const controller::Procedure* synced =
        node->platform().controller().repository().find("path-cheap");
    ASSERT_NE(synced, nullptr);
    EXPECT_EQ(synced->classifier, "media.path");
  }

  // Re-shipping an identical model is a no-op, not an empty broadcast.
  ASSERT_TRUE(cluster->frontend->update_model(next.value()).ok());
  EXPECT_EQ(cluster->frontend->stats().deltas_shipped, 1u);

  // And the replicated vocabulary actually serves traffic.
  Ledger ledger;
  ASSERT_TRUE(cluster->client
                  ->submit("testlang", "post-sync",
                           soak::open_session_text("ps1"), ledger.recorder())
                  .ok());
  ASSERT_TRUE(cluster->drive_until([&] { return ledger.total() == 1; }));
  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], 1);
  }
  cluster->shutdown();
}

// The tentpole guarantee: killing a shard mid-run loses no callbacks.
// Requests bound for the dead shard time out downstream, fail over to
// the ring-designated replica, and resolve exactly once at the client;
// once the health window trips, later requests reroute at admission.
TEST(ClusterE2E, FailoverResolvesEveryRequestExactlyOnce) {
  cluster::ClusterConfig config;
  config.downstream_reply_timeout = std::chrono::milliseconds(200);
  auto cluster = make_cluster(4, config);
  ASSERT_NE(cluster, nullptr);

  // Sessions the ring places on the victim shard.
  const std::size_t victim = 0;
  std::vector<std::string> victim_sessions;
  for (int i = 0; victim_sessions.size() < 12; ++i) {
    const std::string session = numbered("s", i);
    if (cluster->frontend->ring().owner(session) == victim) {
      victim_sessions.push_back(session);
    }
  }
  cluster->nodes[victim]->kill();
  EXPECT_FALSE(cluster->nodes[victim]->alive());

  Ledger ledger;
  for (const std::string& session : victim_sessions) {
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             ledger.recorder())
                    .ok());
  }
  // Advance virtual time so the downstream windows expire and failover
  // fires; every request must still resolve OK on the replica.
  ASSERT_TRUE(cluster->drive_until(
      [&] { return ledger.total() == static_cast<int>(victim_sessions.size()); },
      std::chrono::milliseconds(20)));

  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], static_cast<int>(victim_sessions.size()));
    EXPECT_EQ(ledger.refusals["reply-lost"], 0);
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;  // zero lost, zero duplicated
    }
  }
  cluster::ClusterFrontEnd::Stats stats = cluster->frontend->stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.breaker_trips, 1u);

  // Exactly-once execution: the dead shard ran nothing, the survivors
  // ran each failed-over session exactly once.
  EXPECT_EQ(cluster->adapters[victim]->executed(), 0u);
  std::uint64_t executed = 0;
  for (int shard = 0; shard < 4; ++shard) {
    executed += cluster->adapters[shard]->executed();
  }
  EXPECT_EQ(executed, 2 * victim_sessions.size());

  // With the victim's window open, admission reroutes to the replica.
  // All shard_for peeks happen before any submit: the first admit after
  // the cooldown turns the window half-open (one probe retries the dead
  // primary; it fails over like any lost forward).
  Ledger second_wave;
  std::vector<std::string> more;
  for (int i = 1000; more.size() < 4; ++i) {
    const std::string session = numbered("s", i);
    if (cluster->frontend->ring().owner(session) == victim) {
      more.push_back(session);
      EXPECT_EQ(cluster->frontend->shard_for(session),
                cluster->frontend->ring().replica(session));
    }
  }
  for (const std::string& session : more) {
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             second_wave.recorder())
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until(
      [&] { return second_wave.total() == static_cast<int>(more.size()); },
      std::chrono::milliseconds(20)));
  {
    std::lock_guard lock(second_wave.mutex);
    EXPECT_EQ(second_wave.refusals[""], static_cast<int>(more.size()));
  }
  stats = cluster->frontend->stats();
  EXPECT_GE(stats.rerouted + stats.failovers, victim_sessions.size() + 1);
  cluster->shutdown();
}

// Single-shard degenerate cluster: no replica exists, so when the only
// shard dies its requests surface as typed reply-lost refusals — the
// client still hears exactly once about each.
TEST(ClusterE2E, SingleShardDeathYieldsTypedLossNotSilence) {
  cluster::ClusterConfig config;
  config.downstream_reply_timeout = std::chrono::milliseconds(200);
  auto cluster = make_cluster(1, config);
  ASSERT_NE(cluster, nullptr);
  cluster->nodes[0]->kill();

  Ledger ledger;
  constexpr int kSubmissions = 3;
  for (int i = 0; i < kSubmissions; ++i) {
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", numbered("s", i),
                             soak::open_session_text(numbered("s", i)),
                             ledger.recorder())
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until(
      [&] { return ledger.total() == kSubmissions; },
      std::chrono::milliseconds(20)));
  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals["reply-lost"], kSubmissions);
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }
  cluster->shutdown();
}

// PR 9 bugfix regression: a shard that nacks a delta (its replica
// diverged and the delta no longer applies) must be marked stale and
// repaired by a full-model ship — the old code only bumped
// replication_failures_ and the shard diverged permanently.
TEST(ClusterE2E, StaleShardIsRepairedByFullModelSync) {
  auto cluster = make_cluster(2);
  ASSERT_NE(cluster, nullptr);

  // Diverge shard 1 behind the front-end's back: remove pr2
  // ("path-direct") from its replica, as if a previous delta never
  // arrived there.
  model::ChangeList divergence;
  model::Change removal;
  removal.kind = model::ChangeKind::kRemoveObject;
  removal.object_id = "pr2";
  removal.class_name = "ProcedureSpec";
  divergence.push_back(removal);
  ASSERT_TRUE(cluster->nodes[1]->apply_changes(divergence).ok());
  EXPECT_EQ(cluster->nodes[1]->platform().controller().repository().find(
                "path-direct"),
            nullptr);

  // Ship a delta that touches pr2 (cost 1.0 -> 2.0): shard 0 applies it,
  // shard 1 cannot (the object is gone) and nacks.
  std::string repriced(soak::kSoakMiddlewareModel);
  const std::string old_cost = "cost = 1.0";
  repriced.replace(repriced.find(old_cost), old_cost.size(), "cost = 2.0");
  auto next = model::parse_model(repriced, core::middleware_metamodel());
  ASSERT_TRUE(next.ok()) << next.status().to_string();
  ASSERT_TRUE(cluster->frontend->update_model(next.value()).ok());

  // maintain() notices the staleness and re-ships the FULL model; the
  // version-matched ack clears it and the shard converges.
  ASSERT_TRUE(cluster->drive_until([&] {
    return cluster->frontend->stats().full_sync_acks >= 1;
  }));

  cluster::ClusterFrontEnd::Stats stats = cluster->frontend->stats();
  EXPECT_GE(stats.replication_failures, 1u);
  EXPECT_EQ(stats.stale_marks, 1u);
  EXPECT_GE(stats.full_syncs_shipped, 1u);

  const cluster::ShardNode::Stats repaired =
      cluster->nodes[1]->replication_stats();
  EXPECT_GE(repaired.full_syncs_applied, 1u);
  const controller::Procedure* restored =
      cluster->nodes[1]->platform().controller().repository().find(
          "path-direct");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->classifier, "media.path");

  // Staleness cleared: the NEXT update ships shard 1 a plain delta
  // again, and it acks.
  const std::uint64_t acks_before = stats.replication_acks;
  auto grown =
      model::parse_model(grown_model_text(), core::middleware_metamodel());
  ASSERT_TRUE(grown.ok());
  // Re-apply the repricing on top so the diff against the adopted
  // baseline is just the pr3 addition.
  std::string grown_repriced = grown_model_text();
  grown_repriced.replace(grown_repriced.find(old_cost), old_cost.size(),
                         "cost = 2.0");
  auto third =
      model::parse_model(grown_repriced, core::middleware_metamodel());
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(cluster->frontend->update_model(third.value()).ok());
  ASSERT_TRUE(cluster->drive_until([&] {
    return cluster->frontend->stats().replication_acks >= acks_before + 2;
  }));
  EXPECT_NE(cluster->nodes[1]->platform().controller().repository().find(
                "path-cheap"),
            nullptr);
  cluster->shutdown();
}

// PR 9 bugfix regression: failover and admission-time reroute must
// consult the REPLICA's breaker. When the fallback shard's window is
// open the request refuses "shard-unavailable" — it is not dogpiled
// onto a shard already known to be sick.
TEST(ClusterE2E, FailoverConsultsTheReplicaBreaker) {
  cluster::ClusterConfig config;
  config.downstream_reply_timeout = std::chrono::milliseconds(200);
  // Keep tripped windows open for the whole test: no half-open probes.
  config.health.cooldown = std::chrono::minutes(5);
  auto cluster = make_cluster(3, config);
  ASSERT_NE(cluster, nullptr);

  // Phase 1: kill shard 1 and burn its window with sessions it owns —
  // their failovers land on live replicas and succeed.
  cluster->nodes[1]->kill();
  std::vector<std::string> owned_by_1;
  for (int i = 0; owned_by_1.size() < 8; ++i) {
    const std::string session = numbered("a", i);
    if (cluster->frontend->ring().owner(session) == 1) {
      owned_by_1.push_back(session);
    }
  }
  Ledger first;
  for (const std::string& session : owned_by_1) {
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             first.recorder())
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until(
      [&] { return first.total() == static_cast<int>(owned_by_1.size()); },
      std::chrono::milliseconds(20)));
  {
    std::lock_guard lock(first.mutex);
    EXPECT_EQ(first.refusals[""], static_cast<int>(owned_by_1.size()));
  }
  EXPECT_GE(cluster->frontend->stats().breaker_trips, 1u);

  // Phase 2: kill shard 2. Sessions owned by 2 whose ring replica is
  // the already-tripped shard 1 lose their reply, and the failover hop
  // finds the replica's window open: typed "shard-unavailable", not a
  // forward into a known-sick shard.
  cluster->nodes[2]->kill();
  std::vector<std::string> doomed;
  for (int i = 0; doomed.size() < 4; ++i) {
    const std::string session = numbered("b", i);
    if (cluster->frontend->ring().owner(session) == 2 &&
        cluster->frontend->ring().replica(session) == 1) {
      doomed.push_back(session);
    }
  }
  Ledger second;
  for (const std::string& session : doomed) {
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             second.recorder())
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until(
      [&] { return second.total() == static_cast<int>(doomed.size()); },
      std::chrono::milliseconds(20)));
  {
    std::lock_guard lock(second.mutex);
    EXPECT_EQ(second.refusals["shard-unavailable"],
              static_cast<int>(doomed.size()));
    for (const auto& [id, count] : second.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }

  // Phase 3: with shard 2's window now open too, the same placement is
  // refused at ADMISSION — both windows open, nothing is forwarded.
  const std::uint64_t forwarded_before =
      cluster->frontend->stats().forwarded;
  Ledger third;
  std::vector<std::string> more;
  for (int i = 1000; more.size() < 3; ++i) {
    const std::string session = numbered("b", i);
    if (cluster->frontend->ring().owner(session) == 2 &&
        cluster->frontend->ring().replica(session) == 1) {
      more.push_back(session);
    }
  }
  for (const std::string& session : more) {
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             third.recorder())
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until(
      [&] { return third.total() == static_cast<int>(more.size()); }));
  {
    std::lock_guard lock(third.mutex);
    EXPECT_EQ(third.refusals["shard-unavailable"],
              static_cast<int>(more.size()));
  }
  EXPECT_EQ(cluster->frontend->stats().forwarded, forwarded_before);
  cluster->shutdown();
}

// PR 9 bugfix regression: a failover must deduct the wait already spent
// on the lost reply from the client's deadline. A deadline shorter than
// the downstream reply window can never survive a failover — it refuses
// "deadline" — while a roomy one fails over with the remainder.
TEST(ClusterE2E, FailoverDeductsTheDeadlineAlreadySpent) {
  cluster::ClusterConfig config;
  config.downstream_reply_timeout = std::chrono::milliseconds(200);
  auto cluster = make_cluster(4, config);
  ASSERT_NE(cluster, nullptr);

  const std::size_t victim = 0;
  cluster->nodes[victim]->kill();
  std::vector<std::string> sessions;
  for (int i = 0; sessions.size() < 6; ++i) {
    const std::string session = numbered("d", i);
    if (cluster->frontend->ring().owner(session) == victim) {
      sessions.push_back(session);
    }
  }

  // Tight deadlines: 150ms is already spent by the time the 200ms reply
  // window writes the forward off as lost. The old code re-granted the
  // replica the full 150ms and the client got a reply after its
  // deadline had passed.
  Ledger tight;
  for (std::size_t i = 0; i < 3; ++i) {
    ingress::RemoteSubmitOptions options;
    options.deadline = std::chrono::milliseconds(150);
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", sessions[i],
                             soak::open_session_text(sessions[i]),
                             tight.recorder(), std::move(options))
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until([&] { return tight.total() == 3; },
                                   std::chrono::milliseconds(20)));
  {
    std::lock_guard lock(tight.mutex);
    EXPECT_EQ(tight.refusals["deadline"], 3);
    for (const auto& [id, count] : tight.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }

  // Roomy deadlines: 10s minus the 200ms wait leaves plenty — the
  // failover succeeds on the replica.
  Ledger roomy;
  for (std::size_t i = 3; i < 6; ++i) {
    ingress::RemoteSubmitOptions options;
    options.deadline = std::chrono::seconds(10);
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", sessions[i],
                             soak::open_session_text(sessions[i]),
                             roomy.recorder(), std::move(options))
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until([&] { return roomy.total() == 3; },
                                   std::chrono::milliseconds(20)));
  {
    std::lock_guard lock(roomy.mutex);
    EXPECT_EQ(roomy.refusals[""], 3);
  }
  EXPECT_GE(cluster->frontend->stats().failovers, 3u);
  cluster->shutdown();
}

// The tentpole, join half: a 5th shard joins a live 4-shard cluster
// whose model has moved past the joiner's launch baseline. The warm-up
// full-sync brings it to the current model BEFORE it enters the ring;
// the flip moves a bounded slice of sessions onto it; traffic there
// resolves exactly once.
TEST(ClusterE2E, JoinWarmsTheNewcomerThenServesMovedSessions) {
  auto cluster = make_cluster(4);
  ASSERT_NE(cluster, nullptr);

  // Move the cluster's model past the launch baseline first.
  auto next =
      model::parse_model(grown_model_text(), core::middleware_metamodel());
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(cluster->frontend->update_model(next.value()).ok());
  ASSERT_TRUE(cluster->drive_until(
      [&] { return cluster->frontend->stats().replication_acks >= 4; }));

  // Stand up the spare (on the stale baseline) and admit it.
  ASSERT_TRUE(launch_spare(*cluster, "shard-4"));
  const std::uint64_t epoch_before = cluster->frontend->epoch();
  auto joined = cluster->frontend->join("shard-4");
  ASSERT_TRUE(joined.ok()) << joined.status().to_string();
  EXPECT_EQ(joined.value(), 4u);
  EXPECT_EQ(cluster->frontend->shard_state(4),
            cluster::ClusterFrontEnd::ShardState::kJoining);
  EXPECT_EQ(cluster->frontend->active_shard_count(), 4u);  // not in ring yet
  // A second join on a serving endpoint is refused.
  EXPECT_FALSE(cluster->frontend->join("shard-0").ok());

  ASSERT_TRUE(cluster->drive_until(
      [&] { return cluster->frontend->stats().joins_completed == 1; }));
  EXPECT_EQ(cluster->frontend->shard_state(4),
            cluster::ClusterFrontEnd::ShardState::kActive);
  EXPECT_EQ(cluster->frontend->active_shard_count(), 5u);
  EXPECT_EQ(cluster->frontend->epoch(), epoch_before + 1);
  // The migration bound: one join moves ~1/5 of the keyspace, not more.
  EXPECT_GT(cluster->frontend->last_rebalance_fraction(), 0.0);
  EXPECT_LE(cluster->frontend->last_rebalance_fraction(), 1.5 / 5.0);
  // The warm-up shipped the CURRENT model, not the launch baseline.
  EXPECT_GE(cluster->nodes[4]->replication_stats().full_syncs_applied, 1u);
  EXPECT_NE(cluster->nodes[4]->platform().controller().repository().find(
                "path-cheap"),
            nullptr);

  // Traffic: placement follows the grown ring, the newcomer serves its
  // arcs, and every callback fires exactly once.
  constexpr int kSessions = 60;
  Ledger ledger;
  std::vector<std::uint64_t> expected(5, 0);
  for (int i = 0; i < kSessions; ++i) {
    const std::string session = numbered("j", i);
    expected[cluster->frontend->ring().owner(session)] += 2;
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             ledger.recorder())
                    .ok());
  }
  ASSERT_TRUE(
      cluster->drive_until([&] { return ledger.total() == kSessions; }));
  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], kSessions);
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }
  EXPECT_GT(expected[4], 0u) << "no sampled session moved to the newcomer";
  for (int shard = 0; shard < 5; ++shard) {
    EXPECT_EQ(cluster->adapters[shard]->executed(), expected[shard])
        << "shard " << shard;
  }
  cluster->shutdown();
}

// The tentpole, leave half: retiring a shard flips its arcs to the
// survivors immediately, lets every in-flight forward settle on the OLD
// route, and only then releases the shard. No callback is lost or
// duplicated across the drain.
TEST(ClusterE2E, LeaveDrainsInFlightForwardsThenRetires) {
  auto cluster = make_cluster(3);
  ASSERT_NE(cluster, nullptr);
  const std::size_t victim = 1;

  std::vector<std::string> sessions;
  for (int i = 0; sessions.size() < 8; ++i) {
    const std::string session = numbered("l", i);
    if (cluster->frontend->ring().owner(session) == victim) {
      sessions.push_back(session);
    }
  }
  Ledger ledger;
  for (const std::string& session : sessions) {
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             ledger.recorder())
                    .ok());
  }
  // Deliver the submits and the forwards, but DON'T pump shard replies:
  // the victim now holds 8 in-flight forwards.
  cluster->network->run_until_idle();

  const std::uint64_t epoch_before = cluster->frontend->epoch();
  ASSERT_TRUE(cluster->frontend->leave(victim).ok());
  EXPECT_EQ(cluster->frontend->shard_state(victim),
            cluster::ClusterFrontEnd::ShardState::kDraining);
  EXPECT_EQ(cluster->frontend->active_shard_count(), 2u);
  EXPECT_EQ(cluster->frontend->epoch(), epoch_before + 1);
  EXPECT_GT(cluster->frontend->last_rebalance_fraction(), 0.0);
  // Leaving twice is refused; so is retiring a shard mid-drain.
  EXPECT_FALSE(cluster->frontend->leave(victim).ok());

  // The drain: pending forwards settle on the old route, then the shard
  // retires.
  ASSERT_TRUE(cluster->drive_until([&] {
    return ledger.total() == static_cast<int>(sessions.size()) &&
           cluster->frontend->stats().leaves_completed == 1;
  }));
  EXPECT_EQ(cluster->frontend->shard_state(victim),
            cluster::ClusterFrontEnd::ShardState::kRetired);
  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], static_cast<int>(sessions.size()));
    EXPECT_EQ(ledger.refusals["reply-lost"], 0);
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }
  // The drained work executed on the LEAVING shard (old route settled).
  EXPECT_EQ(cluster->adapters[victim]->executed(), 2 * sessions.size());

  // The same sessions now route to survivors; the leaver stays cold.
  Ledger second;
  for (const std::string& session : sessions) {
    EXPECT_NE(cluster->frontend->ring().owner(session), victim) << session;
    ASSERT_TRUE(cluster->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             second.recorder())
                    .ok());
  }
  ASSERT_TRUE(cluster->drive_until(
      [&] { return second.total() == static_cast<int>(sessions.size()); }));
  {
    std::lock_guard lock(second.mutex);
    EXPECT_EQ(second.refusals[""], static_cast<int>(sessions.size()));
  }
  EXPECT_EQ(cluster->adapters[victim]->executed(), 2 * sessions.size());

  // The ring floor: the last active shard may never leave.
  ASSERT_TRUE(cluster->frontend->leave(0).ok());
  ASSERT_TRUE(cluster->drive_until(
      [&] { return cluster->frontend->stats().leaves_completed == 2; }));
  EXPECT_FALSE(cluster->frontend->leave(2).ok());
  cluster->shutdown();
}

// Drain invariants under sustained load: submissions keep flowing while
// a shard joins AND another leaves; every callback fires exactly once,
// nothing is lost, and total executions match total submissions.
TEST(ClusterE2E, ElasticResizeUnderLoadKeepsCallbacksExactlyOnce) {
  auto cluster = make_cluster(4);
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(launch_spare(*cluster, "shard-4"));

  Ledger ledger;
  int submitted = 0;
  auto blast = [&](int count) {
    for (int i = 0; i < count; ++i, ++submitted) {
      const std::string session = numbered("load-", submitted);
      ASSERT_TRUE(cluster->client
                      ->submit("testlang", session,
                               soak::open_session_text(session),
                               ledger.recorder())
                      .ok());
    }
  };

  blast(20);
  ASSERT_TRUE(cluster->frontend->join("shard-4").ok());
  blast(20);  // races the warm-up; routed on the pre-join ring
  ASSERT_TRUE(cluster->drive_until(
      [&] { return cluster->frontend->stats().joins_completed == 1; }));
  blast(20);  // routed on the grown ring
  ASSERT_TRUE(cluster->frontend->leave(0).ok());
  blast(20);  // routed on the shrunk ring while shard 0 drains
  ASSERT_TRUE(cluster->drive_until([&] {
    return ledger.total() == submitted &&
           cluster->frontend->stats().leaves_completed == 1;
  }));

  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], submitted);
    EXPECT_EQ(ledger.refusals["reply-lost"], 0);
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }
  std::uint64_t executed = 0;
  for (soak::CountingAdapter* adapter : cluster->adapters) {
    executed += adapter->executed();
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(2 * submitted));
  EXPECT_EQ(cluster->frontend->stats().failovers, 0u);
  cluster->shutdown();
}

// The PR 10 tentpole: with a model-driven checkpoint cadence
// (checkpoint_interval = 1), every completed request captures the
// session's runtime state from its owner and stages it on the ring
// replica. When the owner dies, the failover ships the cached
// checkpoint resume=true and the replica IMPORTS it before the retried
// request forwards — so the retry is a pure continuation (one step),
// not the cold whole-lifecycle replay (three steps, see
// test_snapshot.cpp), and the client still hears exactly once.
TEST(ClusterE2E, FailoverResumesSessionFromReplicatedCheckpoint) {
  cluster::ClusterConfig config;
  config.downstream_reply_timeout = std::chrono::milliseconds(200);
  auto cluster =
      make_cluster(2, config, {}, "checkpoint_interval = 1");
  ASSERT_NE(cluster, nullptr);

  // A session shard 0 owns; in a two-member ring its replica is 1.
  std::string session;
  for (int i = 0; session.empty(); ++i) {
    const std::string candidate = numbered("r", i);
    if (cluster->frontend->ring().owner(candidate) == 0) session = candidate;
  }
  const std::size_t owner = 0;
  const std::size_t replica = 1;
  ASSERT_EQ(cluster->frontend->ring().replica(session), replica);

  // Open the session; the completion triggers capture (owner exports),
  // then the stage ship to the replica, version-stamped 1.
  Ledger ledger;
  ASSERT_TRUE(cluster->client
                  ->submit("testlang", session,
                           soak::open_session_text(session),
                           ledger.recorder())
                  .ok());
  ASSERT_TRUE(cluster->drive_until([&] {
    return ledger.total() == 1 &&
           cluster->frontend->stats().checkpoint_acks >= 1;
  }));
  EXPECT_EQ(cluster->frontend->checkpoint_version(session), 1);
  ASSERT_TRUE(cluster->nodes[replica]
                  ->staged_checkpoint_version(session)
                  .has_value());
  EXPECT_EQ(*cluster->nodes[replica]->staged_checkpoint_version(session), 1);
  EXPECT_GE(cluster->nodes[owner]->replication_stats().checkpoints_exported,
            1u);
  EXPECT_EQ(cluster->adapters[owner]->executed(), 2u);  // create + open
  EXPECT_EQ(cluster->adapters[replica]->executed(), 0u);
  // Staged is not applied: the replica's own runtime stays untouched
  // until a failover actually needs it.
  EXPECT_EQ(cluster->nodes[replica]->replication_stats()
                .session_states_imported,
            0u);

  // Kill the owner and close the session. The forward times out, the
  // failover ships the cached checkpoint resume=true, the replica
  // imports it, and ONLY THEN does the retry forward: one svc.close,
  // not the cold three-step replay.
  cluster->nodes[owner]->kill();
  Ledger close_ledger;
  ASSERT_TRUE(cluster->client
                  ->submit("testlang", session,
                           soak::close_session_text(session),
                           close_ledger.recorder())
                  .ok());
  ASSERT_TRUE(cluster->drive_until(
      [&] { return close_ledger.total() == 1; },
      std::chrono::milliseconds(20)));
  {
    std::lock_guard lock(close_ledger.mutex);
    EXPECT_EQ(close_ledger.refusals[""], 1);
    for (const auto& [id, count] : close_ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
  }
  EXPECT_EQ(cluster->adapters[replica]->executed(), 1u)
      << "the resumed close must re-execute zero prior steps";

  const cluster::ClusterFrontEnd::Stats stats = cluster->frontend->stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.checkpoints_taken, 1u);
  EXPECT_GE(stats.resumes_shipped, 1u);
  EXPECT_GE(stats.resumes_completed, 1u);
  const cluster::ShardNode::Stats replica_stats =
      cluster->nodes[replica]->replication_stats();
  EXPECT_GE(replica_stats.session_states_staged, 1u);
  EXPECT_EQ(replica_stats.session_states_imported, 1u);
  EXPECT_EQ(replica_stats.session_states_rejected_stale, 0u);
  cluster->shutdown();
}

// Version gating on the session-state route: a checkpoint older than
// what the replica already staged is refused "stale-checkpoint" and
// never overwrites the newer state; re-shipping the SAME version is an
// idempotent retry and is accepted.
TEST(ClusterE2E, StaleCheckpointNeverAppliesOverNewer) {
  auto cluster = make_cluster(1);
  ASSERT_NE(cluster, nullptr);

  // Talk to the shard's replication route directly, as the front-end
  // would. The staged payload is a REAL export so the test mirrors the
  // production envelope byte-for-byte.
  ingress::IngressClientOptions raw_options;
  raw_options.endpoint = "raw-shipper";  // "client" is taken
  auto raw = ingress::IngressClient::attach(
      *cluster->network, cluster->nodes[0]->endpoint_name(),
      std::move(raw_options));
  ASSERT_TRUE(raw.ok());
  Result<model::Value> state =
      cluster->nodes[0]->platform().export_session_state("gate");
  ASSERT_TRUE(state.ok()) << state.status().to_string();

  auto pair = [](std::string key, model::Value value) {
    model::ValueList entry;
    entry.push_back(model::Value(std::move(key)));
    entry.push_back(std::move(value));
    return model::Value(std::move(entry));
  };
  auto ship = [&](std::int64_t version) {
    model::ValueList envelope;
    envelope.push_back(pair("session", model::Value(std::string("gate"))));
    envelope.push_back(pair("version", model::Value(version)));
    envelope.push_back(pair("resume", model::Value(false)));
    envelope.push_back(pair("state", state.value()));
    ingress::wire::Request request;
    request.body = model::Value(std::move(envelope));
    auto outcome = std::make_shared<std::optional<ingress::RemoteOutcome>>();
    EXPECT_TRUE(raw.value()
                    ->call("replicate/session-state", std::move(request),
                           [outcome](const ingress::RemoteOutcome& got) {
                             *outcome = got;
                           })
                    .ok());
    EXPECT_TRUE(
        cluster->drive_until([&] { return outcome->has_value(); }));
    return **outcome;
  };

  // Version 2 stages.
  ingress::RemoteOutcome first = ship(2);
  EXPECT_TRUE(first.status.ok()) << first.status.to_string();
  ASSERT_TRUE(
      cluster->nodes[0]->staged_checkpoint_version("gate").has_value());
  EXPECT_EQ(*cluster->nodes[0]->staged_checkpoint_version("gate"), 2);

  // Version 1 arrives late (reordered ship): refused, nothing replaced.
  ingress::RemoteOutcome stale = ship(1);
  EXPECT_FALSE(stale.status.ok());
  EXPECT_EQ(stale.refusal, "stale-checkpoint");
  EXPECT_EQ(*cluster->nodes[0]->staged_checkpoint_version("gate"), 2);

  // Re-shipping version 2 is an idempotent retry, not a stale ship.
  ingress::RemoteOutcome again = ship(2);
  EXPECT_TRUE(again.status.ok()) << again.status.to_string();
  EXPECT_EQ(*cluster->nodes[0]->staged_checkpoint_version("gate"), 2);

  const cluster::ShardNode::Stats stats =
      cluster->nodes[0]->replication_stats();
  EXPECT_EQ(stats.session_states_staged, 2u);
  EXPECT_EQ(stats.session_states_rejected_stale, 1u);
  EXPECT_EQ(stats.session_states_imported, 0u);  // stage-only ships
  raw.value().reset();
  cluster->shutdown();
}

// PR 10 satellite regression: the query fan-out targets only ACTIVE
// shards. A joiner still warming up must not receive (or corrupt) a
// fan-out — its section appears in merged replies only after the join
// completes.
TEST(ClusterE2E, QueryFanOutSkipsAJoiningShard) {
  auto cluster = make_cluster(2);
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(launch_spare(*cluster, "shard-2"));
  ASSERT_TRUE(cluster->frontend->join("shard-2").ok());
  EXPECT_EQ(cluster->frontend->shard_state(2),
            cluster::ClusterFrontEnd::ShardState::kJoining);

  // Query while the warm-up full-sync is still in flight: the frontend
  // snapshots its targets before the joiner's ack can be pumped, so the
  // merge covers exactly the two founding shards.
  auto outcome = std::make_shared<std::optional<ingress::RemoteOutcome>>();
  ASSERT_TRUE(cluster->client
                  ->query("metrics",
                          [outcome](const ingress::RemoteOutcome& got) {
                            *outcome = got;
                          })
                  .ok());
  ASSERT_TRUE(cluster->drive_until([&] { return outcome->has_value(); }));
  ASSERT_TRUE((*outcome)->status.ok()) << (*outcome)->status.to_string();
  EXPECT_NE((*outcome)->payload.find("=== shard 0 ==="), std::string::npos);
  EXPECT_NE((*outcome)->payload.find("=== shard 1 ==="), std::string::npos);
  EXPECT_EQ((*outcome)->payload.find("=== shard 2 ==="), std::string::npos)
      << "a joining shard leaked into the fan-out";

  // Once the join completes the newcomer serves queries like anyone.
  ASSERT_TRUE(cluster->drive_until(
      [&] { return cluster->frontend->stats().joins_completed == 1; }));
  auto second = std::make_shared<std::optional<ingress::RemoteOutcome>>();
  ASSERT_TRUE(cluster->client
                  ->query("metrics",
                          [second](const ingress::RemoteOutcome& got) {
                            *second = got;
                          })
                  .ok());
  ASSERT_TRUE(cluster->drive_until([&] { return second->has_value(); }));
  EXPECT_NE((*second)->payload.find("=== shard 2 ==="), std::string::npos);
  cluster->shutdown();
}

}  // namespace
}  // namespace mdsm
