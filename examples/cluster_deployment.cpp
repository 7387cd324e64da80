// Sharded cluster deployment: the CVM platform scaled out behind a
// consistent-hash front-end (PR 8).
//
// Three full platforms (ShardNodes), each with its own ingress
// endpoint, sit behind one ClusterFrontEnd. The client speaks the same
// PR-7 wire protocol to ONE endpoint; the {session} route capture is
// the shard key:
//
//   client ──submit/cml/<session>──► ClusterFrontEnd ──► shard-<ring(session)>
//            ◄──mdsm.reply────────── (forwarded_for = "<client>#<id>")
//
// The walkthrough shows: sessions sticking to their ring owner, a
// query fanning out and merging every shard, a runtime-model change
// shipped as a model::diff delta (73 bytes instead of ~19 KB), the
// fleet resizing live (PR 9: a fourth shard joins — warmed by a
// full-model sync before it serves — then a shard leaves and drains),
// and a shard dying mid-conversation — the breaker trips, traffic
// fails over to the ring replica, and every submission still resolves
// exactly once.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster_front_end.hpp"
#include "cluster/shard_node.hpp"
#include "core/middleware_metamodel.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "ingress/ingress_client.hpp"
#include "model/text_format.hpp"
#include "net/network.hpp"

using namespace mdsm;

namespace {

/// Stand-in for the conferencing services each shard drives.
class QuietCommService final : public broker::ResourceAdapter {
 public:
  QuietCommService() : ResourceAdapter("comm") {}
  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)command;
    (void)args;
    return model::Value(true);
  }
};

std::string connection_text(const std::string& id) {
  return "model app_" + id + " conforms cml\nobject Connection " + id +
         " { state = pending }\n";
}

}  // namespace

int main() {
  // 1. One authoritative middleware model, parsed once: every shard is
  //    assembled from it, and it seeds the front-end's replication
  //    baseline.
  auto middleware = model::parse_model(comm::cvm_middleware_model_text(),
                                       core::middleware_metamodel());
  if (!middleware.ok()) {
    std::printf("parse failed: %s\n", middleware.status().to_string().c_str());
    return 1;
  }

  SimClock clock;
  net::NetworkConfig net_config;
  net_config.base_latency = std::chrono::microseconds(200);
  net::Network network(clock, net_config);

  // 2. Three shards, each a full platform with its own ingress.
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  std::vector<std::string> endpoints;
  auto launch_node = [&](const std::string& endpoint) -> bool {
    cluster::ShardNodeOptions options;
    options.endpoint = endpoint;
    options.platform_config.dsml = comm::cml_metamodel();
    options.platform_config.pipeline_threads = 1;
    options.manual_reply_loop = true;  // this example pumps explicitly
    options.provision = [](core::Platform& platform) {
      return platform.add_resource_adapter(
          std::make_unique<QuietCommService>());
    };
    auto node = cluster::ShardNode::launch(middleware.value(), network,
                                           std::move(options));
    if (!node.ok()) {
      std::printf("launch failed: %s\n", node.status().to_string().c_str());
      return false;
    }
    nodes.push_back(std::move(node.value()));
    return true;
  };
  for (int i = 0; i < 3; ++i) {
    const std::string endpoint = "shard-" + std::to_string(i);
    if (!launch_node(endpoint)) return 1;
    endpoints.push_back(endpoint);
  }

  auto frontend = cluster::ClusterFrontEnd::attach(
      network, middleware.value(), endpoints);
  if (!frontend.ok()) return 1;
  auto client = ingress::IngressClient::attach(
      network, frontend.value()->endpoint_name());
  if (!client.ok()) return 1;

  // Deliver requests, pump each shard's reply loop, run the front-end's
  // forward-expiry housekeeping — until `done` or a wall timeout.
  auto drive = [&](const std::function<bool()>& done,
                   Duration advance = Duration{0}) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      network.run_until_idle();
      for (auto& node : nodes) node->pump();
      network.run_until_idle();
      frontend.value()->maintain();
      client.value()->expire_overdue();
      network.run_until_idle();
      if (done()) return true;
      if (advance.count() > 0) clock.advance(advance);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };

  // 3. Nine sessions through one endpoint; the ring spreads them.
  std::printf("-- 9 sessions through '%s' --\n",
              frontend.value()->endpoint_name().c_str());
  int resolved = 0;
  for (int i = 0; i < 9; ++i) {
    const std::string session = "session-" + std::to_string(i);
    std::printf("  %-10s -> shard %zu\n", session.c_str(),
                frontend.value()->ring().owner(session));
    (void)client.value()->submit(
        "cml", session, connection_text("c" + std::to_string(i)),
        [&](const ingress::RemoteOutcome&) { ++resolved; });
  }
  drive([&] { return resolved == 9; });
  std::printf("  all %d resolved\n", resolved);

  // 4. Query fan-out: one question, every shard's answer, merged.
  std::optional<ingress::RemoteOutcome> metrics;
  (void)client.value()->query("metrics",
                              [&](const ingress::RemoteOutcome& result) {
                                metrics = result;
                              });
  drive([&] { return metrics.has_value(); });
  std::printf("\n-- query fan-out: metrics from every shard --\n%.120s...\n",
              metrics.has_value() ? metrics->payload.c_str() : "(lost)");

  // 5. Replication: tune a knob on the authoritative model; the
  //    front-end ships the diff, never the full text.
  model::Model next = middleware.value().clone();
  (void)next.set_attribute("cvm", "name", model::Value(std::string("cvm-v2")));
  (void)frontend.value()->update_model(next);
  // The front-end counts in its own registry; read a cell by name.
  auto cell = [&](std::string_view name) {
    return static_cast<unsigned long long>(
        frontend.value()->metrics().snapshot().counter_value(name));
  };
  drive([&] { return cell("cluster.replication_acks") >= 3; });
  std::printf("\n-- replication: %llu delta bytes (full model: %llu) --\n",
              cell("cluster.delta_bytes"), cell("cluster.full_bytes"));

  // 6. Elasticity (PR 9): a fourth shard joins live. join() warms it
  //    with a full-model sync first and only then splices the ring —
  //    the moved keyspace is ~1/4, everything else stays put.
  std::printf("\n-- joining shard-3 (warm, then splice) --\n");
  if (!launch_node("shard-3")) return 1;
  if (auto joined = frontend.value()->join("shard-3"); !joined.ok()) {
    std::printf("join refused: %s\n", joined.status().to_string().c_str());
    return 1;
  }
  drive([&] { return cell("cluster.joins_completed") == 1; });
  std::printf("  active shards: %zu  epoch: %llu  moved keyspace: %.2f\n",
              frontend.value()->active_shard_count(),
              static_cast<unsigned long long>(frontend.value()->epoch()),
              frontend.value()->last_rebalance_fraction());
  int rebalanced = 0;
  for (int i = 0; i < 9; ++i) {
    const std::string session = "session-" + std::to_string(i);
    std::printf("  %-10s -> shard %zu\n", session.c_str(),
                frontend.value()->ring().owner(session));
    (void)client.value()->submit(
        "cml", session, connection_text("j" + std::to_string(i)),
        [&](const ingress::RemoteOutcome&) { ++rebalanced; });
  }
  drive([&] { return rebalanced == 9; });
  std::printf("  all %d resolved on the grown ring\n", rebalanced);

  // 7. And shard 1 leaves: unspliced from the ring at once (new work
  //    routes to survivors), drained of in-flight forwards, retired.
  std::printf("\n-- shard 1 leaving (drain, then retire) --\n");
  if (Status left = frontend.value()->leave(1); !left.ok()) {
    std::printf("leave refused: %s\n", left.to_string().c_str());
    return 1;
  }
  drive([&] { return cell("cluster.leaves_completed") == 1; });
  std::printf("  active shards: %zu  epoch: %llu  retired: %s\n",
              frontend.value()->active_shard_count(),
              static_cast<unsigned long long>(frontend.value()->epoch()),
              frontend.value()->shard_state(1) ==
                      cluster::ClusterFrontEnd::ShardState::kRetired
                  ? "yes"
                  : "no");

  // 8. Kill a shard mid-conversation. Its sessions fail over to their
  //    ring replica; the callback ledger stays exactly-once.
  std::printf("\n-- killing shard 0 --\n");
  nodes[0]->kill();
  std::map<std::string, int> tally;
  int settled = 0;
  for (int i = 0; i < 9; ++i) {
    (void)client.value()->submit(
        "cml", "session-" + std::to_string(i),
        connection_text("k" + std::to_string(i)),
        [&](const ingress::RemoteOutcome& result) {
          ++settled;
          ++tally[result.status.ok() ? "ok" : result.refusal];
        });
  }
  // Virtual-time advances let the front-end's downstream reply timer
  // expire so lost forwards fail over.
  drive([&] { return settled == 9; }, std::chrono::milliseconds(20));
  for (const auto& [slug, count] : tally) {
    std::printf("  %-10s %d\n", slug.c_str(), count);
  }
  std::printf("front-end: forwarded=%llu failovers=%llu rerouted=%llu "
              "breaker_trips=%llu\n",
              cell("cluster.forwarded"), cell("cluster.failovers"),
              cell("cluster.rerouted"), cell("cluster.breaker_trips"));

  // 9. Orderly teardown: client, front-end, shards, network.
  client.value().reset();
  frontend.value().reset();
  nodes.clear();
  return 0;
}
