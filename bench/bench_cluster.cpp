// Cluster bench (PR 8): does the consistent-hash sharded fleet actually
// scale, and does failover keep the client-facing contract?
//
// Scaling rows: the same CVM platform is deployed as 1/2/4/8 ShardNodes
// behind one ClusterFrontEnd; a feeder offers 1.5x the fleet's nominal
// capacity through a single IngressClient, each request under its own
// session key so the ring spreads the load. Per row we record goodput,
// typed refusals (shard-side admission shedding the overload) and
// p50/p99 of the successful requests. Pass criterion: goodput at 4
// shards >= `--min-scaling` (default 3.0) times goodput at 1 shard.
//
// Failover row: 4 shards at 0.9x capacity; halfway through the feed,
// shard 0 is killed. The front-end's health window trips, admission
// reroutes the victim's sessions to their ring replicas, and each
// in-flight loss fails over once. The per-request ledger then proves
// exactly-once: every submission resolves with one terminal callback —
// no duplicates, no silence.
//
// Replication row: a 2-shard fleet ships a runtime-model tune-up as a
// model::diff ChangeList; we record delta bytes vs the full-model bytes
// a naive re-ship would have cost.
//
// Rebalance row (PR 9): 4 shards at 0.8x capacity with a warm spare
// standing by; at 40% of the feed the spare JOINS (full-model warm-up,
// then the ring flip moves ~1/5 of the keyspace onto it), at 70% shard
// 0 LEAVES (immediate ring flip, drain, retire). Completions are
// timestamped so the row compares the post-resize goodput plateau to
// the pre-join one — the gate demands recovery >= 0.9x — and the
// exactly-once ledger must stay clean across both flips. The moved
// fraction reported by the join is asserted <= ~1/N.
//
// Resume row (PR 10): a 2-shard fleet with checkpoint_interval=1 opens
// probe sessions on shard 0, waits for their checkpoints to land on the
// replica, feeds background load at 0.4x capacity, and kills shard 0 at
// 50%. Each probe close then resumes on the survivor from its
// replicated checkpoint — the gate demands exactly ONE re-executed step
// per session (the teardown; a cold re-run would double it) and a
// post-failover goodput plateau >= 0.9x the pre-kill one.
//
// A driver thread slaves the network's SimClock to real time (as in
// bench_ingress) and doubles as the front-end's housekeeping loop:
// deliver_due() + frontend->maintain() + client->expire_overdue().
//
// Output: human summary on stderr, one JSON document on stdout so
// run_benches.sh can record the rows in BENCH_8.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_front_end.hpp"
#include "cluster/shard_node.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/middleware_metamodel.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "ingress/ingress_client.hpp"
#include "model/text_format.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mdsm;

/// Thread-safe stand-in for the comm services: each invocation sleeps
/// for the configured service latency. Executions whose object id
/// carries the resume row's "probe" prefix are counted separately —
/// that count is the row's re-execution evidence (a resumed close is
/// ONE teardown; a cold close re-runs the create first).
class SimulatedCommService final : public broker::ResourceAdapter {
 public:
  SimulatedCommService(std::string name, std::chrono::microseconds delay)
      : ResourceAdapter(std::move(name)), delay_(delay) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)command;
    auto it = args.find("id");
    if (it != args.end() && it->second.is_string() &&
        it->second.as_string().rfind("probe", 0) == 0) {
      probe_executions_.fetch_add(1, std::memory_order_relaxed);
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return model::Value(true);
  }

  [[nodiscard]] std::uint64_t probe_executions() const {
    return probe_executions_.load(std::memory_order_relaxed);
  }

 private:
  std::chrono::microseconds delay_;
  std::atomic<std::uint64_t> probe_executions_{0};
};

struct BenchConfig {
  int pipeline_threads_per_shard = 2;
  int queue_capacity = 64;
  int service_delay_us = 1500;
  int deadline_ms = 100;
  int wire_latency_us = 100;
  double multiplier = 1.5;        ///< offered load vs fleet capacity
  double seconds_per_step = 1.0;
  double min_scaling = 3.0;       ///< goodput(4 shards) / goodput(1 shard)
  int checkpoint_interval = 0;    ///< session-state cadence attr (0: off)
  bool json_only = false;
};

/// The CVM middleware model with the PR-5 overload attributes spliced
/// into its MiddlewarePlatform root, so overloaded shards shed with
/// typed refusals instead of collapsing.
std::string cluster_cvm_text(const BenchConfig& config) {
  std::string text(comm::cvm_middleware_model_text());
  const std::string anchor = "domain = \"communication\"";
  std::string attrs = "\n  queue_capacity = " +
                      std::to_string(config.queue_capacity) +
                      "\n  overflow_policy = reject"
                      "\n  admission = true";
  if (config.checkpoint_interval > 0) {
    attrs += "\n  checkpoint_interval = " +
             std::to_string(config.checkpoint_interval);
  }
  text.insert(text.find(anchor) + anchor.size(), attrs);
  return text;
}

std::string scenario_text(int rep) {
  std::string id = numbered("c", rep);
  return "model app_" + id + " conforms cml\nobject Connection " + id +
         " { state = pending }\n";
}

struct Row {
  std::size_t shards = 0;
  double offered_rps = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t refused = 0;  ///< typed refusal replies (shed overload)
  std::uint64_t lost = 0;     ///< client-side reply-lost expiries
  double goodput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  // Failover-row extras (zero on plain scaling rows).
  std::uint64_t duplicate_callbacks = 0;
  std::uint64_t unresolved = 0;
  std::uint64_t failovers = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t breaker_trips = 0;
};

/// One assembled fleet: N ShardNodes behind a ClusterFrontEnd, plus the
/// driver thread slaving the SimClock to real time.
struct Fleet {
  SimClock sim;
  std::unique_ptr<net::Network> network;
  std::optional<model::Model> middleware;
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  /// Per-shard adapter, launch order (owned by the shard's platform).
  std::vector<SimulatedCommService*> adapters;
  std::unique_ptr<cluster::ClusterFrontEnd> frontend;
  std::unique_ptr<ingress::IngressClient> client;

  std::thread driver;
  std::atomic<bool> stop{false};
  std::atomic<int> kill_shard{-1};  ///< set by the feeder; driver executes
  // Rebalance triggers (PR 9), same pattern: the feeder flags them, the
  // driver performs them between delivery batches.
  std::atomic<bool> join_spare{false};
  std::atomic<int> leave_shard{-1};
  std::string spare_endpoint;  ///< pre-launched node outside the ring

  ~Fleet() {
    if (driver.joinable()) {
      stop.store(true, std::memory_order_release);
      driver.join();
    }
    client.reset();
    frontend.reset();
    nodes.clear();
    network.reset();
  }
};

Result<std::unique_ptr<Fleet>> make_fleet(
    const BenchConfig& config, std::size_t shards,
    cluster::ClusterConfig cluster_config = {},
    std::size_t spare_nodes = 0) {
  auto fleet = std::make_unique<Fleet>();
  auto parsed = model::parse_model(cluster_cvm_text(config),
                                   core::middleware_metamodel());
  if (!parsed.ok()) return parsed.status();
  fleet->middleware.emplace(std::move(parsed.value()));

  net::NetworkConfig network_config;
  network_config.base_latency =
      std::chrono::microseconds(config.wire_latency_us);
  network_config.jitter = Duration(0);
  network_config.drop_rate = 0.0;
  fleet->network = std::make_unique<net::Network>(fleet->sim, network_config);

  std::vector<std::string> endpoints;
  for (std::size_t i = 0; i < shards + spare_nodes; ++i) {
    cluster::ShardNodeOptions options;
    options.endpoint = numbered("shard-", i);
    options.platform_config.dsml = comm::cml_metamodel();
    options.platform_config.pipeline_threads =
        static_cast<unsigned>(config.pipeline_threads_per_shard);
    options.provision = [&config, f = fleet.get()](core::Platform& platform) {
      auto adapter = std::make_unique<SimulatedCommService>(
          "comm", std::chrono::microseconds(config.service_delay_us));
      f->adapters.push_back(adapter.get());
      return platform.add_resource_adapter(std::move(adapter));
    };
    auto node = cluster::ShardNode::launch(*fleet->middleware, *fleet->network,
                                           std::move(options));
    if (!node.ok()) return node.status();
    // Spares run but stay OUT of the front-end's initial ring; a later
    // frontend->join() admits them.
    if (i < shards) {
      endpoints.push_back(node.value()->endpoint_name());
    } else if (fleet->spare_endpoint.empty()) {
      fleet->spare_endpoint = node.value()->endpoint_name();
    }
    fleet->nodes.push_back(std::move(node.value()));
  }

  auto frontend = cluster::ClusterFrontEnd::attach(
      *fleet->network, *fleet->middleware, std::move(endpoints),
      std::move(cluster_config));
  if (!frontend.ok()) return frontend.status();
  fleet->frontend = std::move(frontend.value());

  ingress::IngressClientOptions client_options;
  client_options.endpoint = "bench-client";
  client_options.reply_timeout = std::chrono::seconds(10);
  auto client = ingress::IngressClient::attach(
      *fleet->network, fleet->frontend->endpoint_name(), client_options);
  if (!client.ok()) return client.status();
  fleet->client = std::move(client.value());

  // The driver slaves the SimClock to real time, pumps deliveries, runs
  // the front-end's forward-expiry housekeeping and the client's, and
  // executes a requested shard kill between delivery batches (so the
  // endpoint unbind never races a delivery).
  fleet->driver = std::thread([f = fleet.get()] {
    const auto origin = std::chrono::steady_clock::now();
    Duration advanced{0};
    while (!f->stop.load(std::memory_order_acquire)) {
      const auto target = std::chrono::duration_cast<Duration>(
          std::chrono::steady_clock::now() - origin);
      if (target > advanced) {
        f->sim.advance(target - advanced);
        advanced = target;
      }
      f->network->deliver_due();
      const int victim = f->kill_shard.exchange(-1, std::memory_order_acq_rel);
      if (victim >= 0) f->nodes[static_cast<std::size_t>(victim)]->kill();
      if (f->join_spare.exchange(false, std::memory_order_acq_rel) &&
          !f->spare_endpoint.empty()) {
        (void)f->frontend->join(f->spare_endpoint);
      }
      const int leaver =
          f->leave_shard.exchange(-1, std::memory_order_acq_rel);
      if (leaver >= 0) {
        (void)f->frontend->leave(static_cast<std::size_t>(leaver));
      }
      f->frontend->maintain();
      f->client->expire_overdue();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // Final drain: let every in-flight message and reply land.
    f->sim.advance(std::chrono::seconds(2));
    f->network->run_until_idle();
    f->frontend->maintain();
    f->client->expire_overdue();
  });
  return fleet;
}

/// Per-step ledger: outcome counts, latency percentiles, and the
/// per-request fire counter that proves exactly-once callbacks.
struct Ledger {
  explicit Ledger(std::size_t total) : fires(total) {}

  std::mutex mutex;
  std::uint64_t completed_ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t lost = 0;
  std::vector<double> ok_latencies_us;
  std::vector<std::atomic<std::uint32_t>> fires;
  std::atomic<int> outstanding{0};

  void resolve(std::size_t index, const ingress::RemoteOutcome& outcome,
               double latency_us) {
    if (fires[index].fetch_add(1, std::memory_order_relaxed) == 0) {
      outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
    std::lock_guard lock(mutex);
    if (outcome.status.ok()) {
      ++completed_ok;
      ok_latencies_us.push_back(latency_us);
    } else if (outcome.refusal == "reply-lost") {
      ++lost;
    } else {
      ++refused;
    }
  }

  void finalize(Row& row, double elapsed_s) {
    row.completed_ok = completed_ok;
    row.refused = refused;
    row.lost = lost;
    row.goodput_rps =
        elapsed_s > 0.0 ? static_cast<double>(completed_ok) / elapsed_s : 0.0;
    std::sort(ok_latencies_us.begin(), ok_latencies_us.end());
    if (!ok_latencies_us.empty()) {
      row.p50_us = ok_latencies_us[ok_latencies_us.size() / 2];
      row.p99_us = ok_latencies_us[std::min(
          ok_latencies_us.size() - 1, ok_latencies_us.size() * 99 / 100)];
    }
    for (const auto& count : fires) {
      const std::uint32_t fired = count.load(std::memory_order_relaxed);
      if (fired == 0) ++row.unresolved;
      if (fired > 1) ++row.duplicate_callbacks;
    }
  }
};

/// Offer `multiplier` x fleet capacity for one step; optionally kill
/// `kill_shard` halfway through the feed.
Result<Row> run_step(const BenchConfig& config, std::size_t shards,
                     double multiplier, double shard_capacity_rps,
                     int kill_shard = -1) {
  cluster::ClusterConfig cluster_config;
  if (kill_shard >= 0) {
    // The health window only learns about the dead shard when a lost
    // forward expires; a tight downstream budget lets the breaker trip
    // while the feed is still running, so admission-time rerouting (not
    // just per-request failover) shows up in the row. Alive shards
    // answer well inside 150ms at this load, so no false trips.
    cluster_config.downstream_reply_timeout = std::chrono::milliseconds(150);
  }
  auto fleet = make_fleet(config, shards, std::move(cluster_config));
  if (!fleet.ok()) return fleet.status();

  const double offered_rps =
      multiplier * shard_capacity_rps * static_cast<double>(shards);
  const auto interval =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / offered_rps));
  const int total = static_cast<int>(offered_rps * config.seconds_per_step);

  Row row;
  row.shards = shards;
  row.offered_rps = offered_rps;
  Ledger ledger(static_cast<std::size_t>(total));
  ledger.ok_latencies_us.reserve(static_cast<std::size_t>(total));
  ingress::RemoteSubmitOptions options;
  options.deadline = std::chrono::milliseconds(config.deadline_ms);

  const auto start = std::chrono::steady_clock::now();
  auto next_at = start;
  for (int r = 0; r < total; ++r) {
    std::this_thread::sleep_until(next_at);
    next_at += interval;
    if (kill_shard >= 0 && r == total / 2) {
      fleet.value()->kill_shard.store(kill_shard, std::memory_order_release);
    }
    const auto enqueued = std::chrono::steady_clock::now();
    ++row.submitted;
    ledger.outstanding.fetch_add(1, std::memory_order_relaxed);
    const std::size_t index = static_cast<std::size_t>(r);
    auto submitted = fleet.value()->client->submit(
        "cml", numbered("s", r), scenario_text(r),
        [&ledger, index, enqueued](const ingress::RemoteOutcome& outcome) {
          ledger.resolve(index, outcome,
                         std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - enqueued)
                             .count());
        },
        options);
    if (!submitted.ok()) {
      ingress::RemoteOutcome failed;
      failed.status = submitted.status();
      ledger.resolve(index, failed, 0.0);
    }
  }
  // Every request resolves: success reply, typed refusal reply, or (only
  // after a shard death) a failover re-run or reply-lost expiry.
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ledger.outstanding.load(std::memory_order_relaxed) != 0 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const obs::MetricsSnapshot frontend_cells =
      fleet.value()->frontend->metrics().snapshot();
  row.failovers = frontend_cells.counter_value("cluster.failovers");
  row.rerouted = frontend_cells.counter_value("cluster.rerouted");
  row.breaker_trips = frontend_cells.counter_value("cluster.breaker_trips");
  fleet.value().reset();  // joins the driver; detach resolves stragglers
  ledger.finalize(row, elapsed_s);
  return row;
}

struct ReplicationRow {
  std::size_t shards = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t full_bytes = 0;
  std::uint64_t acks = 0;
};

struct RebalanceRow {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicate_callbacks = 0;
  std::uint64_t unresolved = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t leaves_completed = 0;
  std::uint64_t full_sync_acks = 0;
  double moved_fraction = 0.0;  ///< keyspace slice the JOIN migrated
  double pre_join_goodput_rps = 0.0;
  double post_resize_goodput_rps = 0.0;
  double recovery_ratio = 0.0;  ///< post / pre (the >= 0.9 gate)
};

/// OK-completions inside [begin_s, end_s), as a rate.
double window_goodput(const std::vector<double>& ok_times_s, double begin_s,
                      double end_s) {
  if (end_s <= begin_s) return 0.0;
  std::size_t count = 0;
  for (const double t : ok_times_s) {
    if (t >= begin_s && t < end_s) ++count;
  }
  return static_cast<double>(count) / (end_s - begin_s);
}

/// Feed a 4-shard fleet at 0.8x capacity; join the spare at 40% of the
/// feed, retire shard 0 at 70%. Goodput is compared between the
/// pre-join plateau and the post-resize tail.
Result<RebalanceRow> run_rebalance_step(const BenchConfig& config,
                                        double shard_capacity_rps) {
  constexpr std::size_t kShards = 4;
  auto fleet = make_fleet(config, kShards, {}, /*spare_nodes=*/1);
  if (!fleet.ok()) return fleet.status();

  const double offered_rps =
      0.8 * shard_capacity_rps * static_cast<double>(kShards);
  const auto interval =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / offered_rps));
  // Twice the per-step budget: the row needs a plateau on each side of
  // the two topology flips.
  const int total =
      static_cast<int>(offered_rps * config.seconds_per_step * 2.0);
  const double feed_s = static_cast<double>(total) * 1e-9 *
                        static_cast<double>(interval.count());
  const int join_at = (total * 2) / 5;
  const int leave_at = (total * 7) / 10;

  RebalanceRow row;
  Ledger ledger(static_cast<std::size_t>(total));
  std::mutex times_mutex;
  std::vector<double> ok_times_s;
  ok_times_s.reserve(static_cast<std::size_t>(total));
  ingress::RemoteSubmitOptions options;
  options.deadline = std::chrono::milliseconds(config.deadline_ms);

  const auto start = std::chrono::steady_clock::now();
  auto next_at = start;
  for (int r = 0; r < total; ++r) {
    std::this_thread::sleep_until(next_at);
    next_at += interval;
    if (r == join_at) {
      fleet.value()->join_spare.store(true, std::memory_order_release);
    }
    if (r == leave_at) {
      // The join's migration bound, read before the leave overwrites it.
      row.moved_fraction =
          fleet.value()->frontend->last_rebalance_fraction();
      fleet.value()->leave_shard.store(0, std::memory_order_release);
    }
    ++row.submitted;
    ledger.outstanding.fetch_add(1, std::memory_order_relaxed);
    const std::size_t index = static_cast<std::size_t>(r);
    auto submitted = fleet.value()->client->submit(
        "cml", numbered("s", r), scenario_text(r),
        [&ledger, &times_mutex, &ok_times_s, index,
         start](const ingress::RemoteOutcome& outcome) {
          const double at_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          ledger.resolve(index, outcome, 0.0);
          if (outcome.status.ok()) {
            std::lock_guard lock(times_mutex);
            ok_times_s.push_back(at_s);
          }
        },
        options);
    if (!submitted.ok()) {
      ingress::RemoteOutcome failed;
      failed.status = submitted.status();
      ledger.resolve(index, failed, 0.0);
    }
  }
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ledger.outstanding.load(std::memory_order_relaxed) != 0 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const obs::MetricsSnapshot cells =
      fleet.value()->frontend->metrics().snapshot();
  row.joins_completed = cells.counter_value("cluster.joins_completed");
  row.leaves_completed = cells.counter_value("cluster.leaves_completed");
  row.full_sync_acks = cells.counter_value("cluster.full_sync_acks");
  fleet.value().reset();  // joins the driver; detach resolves stragglers

  Row scratch;
  ledger.finalize(scratch, feed_s);
  row.completed_ok = scratch.completed_ok;
  row.refused = scratch.refused;
  row.lost = scratch.lost;
  row.duplicate_callbacks = scratch.duplicate_callbacks;
  row.unresolved = scratch.unresolved;

  // Plateaus: [10%, 40%) of the feed is untouched by either flip; the
  // tail after 80% has both behind it (the leave flip at 70% is
  // instantaneous — only the drain settles afterwards).
  {
    std::lock_guard lock(times_mutex);
    row.pre_join_goodput_rps =
        window_goodput(ok_times_s, 0.10 * feed_s, 0.40 * feed_s);
    row.post_resize_goodput_rps =
        window_goodput(ok_times_s, 0.80 * feed_s, feed_s);
  }
  row.recovery_ratio =
      row.pre_join_goodput_rps > 0.0
          ? row.post_resize_goodput_rps / row.pre_join_goodput_rps
          : 0.0;
  return row;
}

struct ResumeRow {
  std::uint64_t submitted = 0;  ///< background feed only
  std::uint64_t completed_ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicate_callbacks = 0;
  std::uint64_t unresolved = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t resumes_shipped = 0;
  std::uint64_t resumes_completed = 0;
  std::uint64_t failovers = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t messages = 0;  ///< network messages sent over the whole row
  std::uint64_t probe_sessions = 0;  ///< victim-owned, checkpointed pre-kill
  std::uint64_t probe_ok = 0;        ///< closes that completed after the kill
  /// Survivor-side adapter executions attributable to the probes. Every
  /// close that resumed from its checkpoint is exactly ONE teardown; a
  /// cold re-run doubles it (create + teardown) — so == probe_sessions
  /// is the "re-execute <= 1 step per session" gate.
  std::uint64_t survivor_probe_executions = 0;
  double pre_kill_goodput_rps = 0.0;
  double post_kill_goodput_rps = 0.0;
  double recovery_ratio = 0.0;  ///< post / pre (the >= 0.9 gate)
};

std::string probe_text(int id, const char* state) {
  const std::string name = numbered("probe", id);
  return "model app_" + name + " conforms cml\nobject Connection " + name +
         " { state = " + state + " }\n";
}

/// Session-resume row (PR 10): a 2-shard fleet with checkpoint_interval=1
/// opens a handful of probe sessions owned by shard 0 and waits for each
/// checkpoint to be captured into the front-end's cache BEFORE any other
/// traffic (so the capture races nothing). A background feed then runs at 0.4x fleet
/// capacity — low enough that the survivor can absorb the whole load —
/// and shard 0 is killed halfway through. After the feed drains, the
/// probe sessions are CLOSED one at a time: each close reroutes/fails
/// over to the survivor, which the front-end ships the cached checkpoint
/// to first, so the close executes exactly one teardown instead of
/// re-running the session lifecycle cold.
Result<ResumeRow> run_resume_step(const BenchConfig& base,
                                  double shard_capacity_rps) {
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kProbes = 6;
  BenchConfig config = base;
  config.checkpoint_interval = 1;  // checkpoint every completed request
  cluster::ClusterConfig cluster_config;
  // Same rationale as the failover row: tight loss detection so the
  // breaker trips (and rerouting starts) while the feed still runs.
  cluster_config.downstream_reply_timeout = std::chrono::milliseconds(150);
  auto fleet = make_fleet(config, kShards, std::move(cluster_config));
  if (!fleet.ok()) return fleet.status();
  cluster::ClusterFrontEnd& frontend = *fleet.value()->frontend;

  ResumeRow row;
  // Probe ids whose session key hashes onto the shard we will kill.
  std::vector<int> probe_ids;
  for (int id = 0; probe_ids.size() < kProbes && id < 4096; ++id) {
    if (frontend.ring().owner(numbered("probe-", id)) == 0) {
      probe_ids.push_back(id);
    }
  }
  row.probe_sessions = probe_ids.size();

  // One synchronous submit: the resume row's probe traffic is strictly
  // sequential, so a polled flag is all the coordination it needs.
  auto submit_and_wait = [&fleet](const std::string& session,
                                  const std::string& text, bool& ok) {
    std::atomic<int> done{0};  // 0 pending, 1 ok, -1 failed
    ingress::RemoteSubmitOptions options;
    options.deadline = std::chrono::seconds(2);
    auto sent = fleet.value()->client->submit(
        "cml", session, text,
        [&done](const ingress::RemoteOutcome& outcome) {
          done.store(outcome.status.ok() ? 1 : -1,
                     std::memory_order_release);
        },
        options);
    if (!sent.ok()) {
      ok = false;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ok = done.load(std::memory_order_acquire) == 1;
  };

  // Open every probe and wait until its checkpoint is captured.
  for (const int id : probe_ids) {
    const std::string session = numbered("probe-", id);
    bool ok = false;
    submit_and_wait(session, probe_text(id, "pending"), ok);
    if (!ok) return Internal("probe open did not complete: " + session);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (frontend.checkpoint_version(session) < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (frontend.checkpoint_version(session) < 1) {
      return Internal("checkpoint never captured for " + session);
    }
  }

  // Background feed at 0.4x fleet capacity (0.8x of the one survivor),
  // shard 0 killed halfway. Long enough that the post-kill plateau is
  // clear of the breaker-trip transient even in --smoke runs.
  const double offered_rps =
      0.4 * shard_capacity_rps * static_cast<double>(kShards);
  const double feed_s = std::max(2.0, config.seconds_per_step);
  const auto interval =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / offered_rps));
  const int total = static_cast<int>(offered_rps * feed_s);
  Ledger ledger(static_cast<std::size_t>(total));
  std::mutex times_mutex;
  std::vector<double> ok_times_s;
  ok_times_s.reserve(static_cast<std::size_t>(total));
  ingress::RemoteSubmitOptions options;
  options.deadline = std::chrono::milliseconds(config.deadline_ms);

  const auto start = std::chrono::steady_clock::now();
  auto next_at = start;
  for (int r = 0; r < total; ++r) {
    std::this_thread::sleep_until(next_at);
    next_at += interval;
    if (r == total / 2) {
      fleet.value()->kill_shard.store(0, std::memory_order_release);
    }
    ++row.submitted;
    ledger.outstanding.fetch_add(1, std::memory_order_relaxed);
    const std::size_t index = static_cast<std::size_t>(r);
    auto submitted = fleet.value()->client->submit(
        "cml", numbered("s", r), scenario_text(r),
        [&ledger, &times_mutex, &ok_times_s, index,
         start](const ingress::RemoteOutcome& outcome) {
          const double at_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          ledger.resolve(index, outcome, 0.0);
          if (outcome.status.ok()) {
            std::lock_guard lock(times_mutex);
            ok_times_s.push_back(at_s);
          }
        },
        options);
    if (!submitted.ok()) {
      ingress::RemoteOutcome failed;
      failed.status = submitted.status();
      ledger.resolve(index, failed, 0.0);
    }
  }
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ledger.outstanding.load(std::memory_order_relaxed) != 0 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The victim is dead and its breaker open: close the probes one at a
  // time. Sequential on purpose — a resume import wholesale-replaces
  // the survivor's runtime model, so concurrent probe closes would wipe
  // each other's just-imported state.
  for (const int id : probe_ids) {
    bool ok = false;
    submit_and_wait(numbered("probe-", id), probe_text(id, "closed"),
                    ok);
    if (ok) ++row.probe_ok;
  }
  row.survivor_probe_executions =
      fleet.value()->adapters[1]->probe_executions();

  const obs::MetricsSnapshot cells = frontend.metrics().snapshot();
  row.checkpoints_taken = cells.counter_value("cluster.checkpoints_taken");
  row.resumes_shipped = cells.counter_value("cluster.resumes_shipped");
  row.resumes_completed = cells.counter_value("cluster.resumes_completed");
  row.failovers = cells.counter_value("cluster.failovers");
  row.rerouted = cells.counter_value("cluster.rerouted");
  row.messages = fleet.value()->network->stats().sent;
  fleet.value().reset();  // joins the driver; detach resolves stragglers

  Row scratch;
  ledger.finalize(scratch, feed_s);
  row.completed_ok = scratch.completed_ok;
  row.refused = scratch.refused;
  row.lost = scratch.lost;
  row.duplicate_callbacks = scratch.duplicate_callbacks;
  row.unresolved = scratch.unresolved;

  // Plateaus around the 50% kill: [10%, 45%) is untouched; by 70% the
  // breaker has tripped and every victim-arc submit reroutes.
  {
    std::lock_guard lock(times_mutex);
    row.pre_kill_goodput_rps =
        window_goodput(ok_times_s, 0.10 * feed_s, 0.45 * feed_s);
    row.post_kill_goodput_rps =
        window_goodput(ok_times_s, 0.70 * feed_s, feed_s);
  }
  row.recovery_ratio = row.pre_kill_goodput_rps > 0.0
                           ? row.post_kill_goodput_rps /
                                 row.pre_kill_goodput_rps
                           : 0.0;
  return row;
}

/// Ship a runtime-model tune-up (admission knob change) to a 2-shard
/// fleet as a diff and record the bytes a full-model re-ship would have
/// cost instead.
Result<ReplicationRow> measure_replication(const BenchConfig& config) {
  auto fleet = make_fleet(config, 2);
  if (!fleet.ok()) return fleet.status();

  model::Model next = fleet.value()->middleware->clone();
  MDSM_RETURN_IF_ERROR(next.set_attribute(
      "cvm", "queue_capacity",
      model::Value(static_cast<std::int64_t>(config.queue_capacity * 2))));
  MDSM_RETURN_IF_ERROR(
      fleet.value()->frontend->update_model(next));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const obs::MetricsRegistry& metrics = fleet.value()->frontend->metrics();
  while (metrics.snapshot().counter_value("cluster.replication_acks") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const obs::MetricsSnapshot cells = metrics.snapshot();
  ReplicationRow row;
  row.shards = 2;
  row.delta_bytes = cells.counter_value("cluster.delta_bytes");
  row.full_bytes = cells.counter_value("cluster.full_bytes");
  row.acks = cells.counter_value("cluster.replication_acks");
  return row;
}

void print_row_json(const char* kind, const Row& row, bool last) {
  std::printf(
      "    {\"kind\": \"%s\", \"shards\": %zu, \"offered_rps\": %.0f, "
      "\"submitted\": %llu, \"completed_ok\": %llu, \"refused\": %llu, "
      "\"lost\": %llu, \"goodput_rps\": %.1f, \"p50_us\": %.1f, "
      "\"p99_us\": %.1f, \"duplicate_callbacks\": %llu, "
      "\"unresolved\": %llu, \"failovers\": %llu, \"rerouted\": %llu, "
      "\"breaker_trips\": %llu}%s\n",
      kind, row.shards, row.offered_rps,
      static_cast<unsigned long long>(row.submitted),
      static_cast<unsigned long long>(row.completed_ok),
      static_cast<unsigned long long>(row.refused),
      static_cast<unsigned long long>(row.lost), row.goodput_rps, row.p50_us,
      row.p99_us, static_cast<unsigned long long>(row.duplicate_callbacks),
      static_cast<unsigned long long>(row.unresolved),
      static_cast<unsigned long long>(row.failovers),
      static_cast<unsigned long long>(row.rerouted),
      static_cast<unsigned long long>(row.breaker_trips), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.seconds_per_step = 0.25;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      config.seconds_per_step = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--service-delay-us") == 0 &&
               i + 1 < argc) {
      config.service_delay_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--wire-latency-us") == 0 &&
               i + 1 < argc) {
      config.wire_latency_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-scaling") == 0 && i + 1 < argc) {
      config.min_scaling = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seconds S] [--service-delay-us D] "
                   "[--wire-latency-us L] [--min-scaling X] [--json]\n",
                   argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kOff);

  // Nominal per-shard capacity: the CVM session-create action behind
  // each Connection scenario costs one comm invocation on one pipeline
  // worker, so a shard sustains threads/delay requests per second. At
  // 1.5x that, every shard is genuinely saturated and sheds the excess
  // as typed refusals — the scaling ratio compares real capacity, not
  // offered load.
  const double request_cost_s = config.service_delay_us * 1e-6;
  const double shard_capacity_rps =
      static_cast<double>(config.pipeline_threads_per_shard) / request_cost_s;

  std::vector<Row> rows;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    auto row =
        run_step(config, shards, config.multiplier, shard_capacity_rps);
    if (!row.ok()) {
      std::fprintf(stderr, "bench step failed (%zu shards): %s\n", shards,
                   row.status().to_string().c_str());
      return 1;
    }
    rows.push_back(std::move(row.value()));
  }
  // Failover: 4 shards comfortably under capacity (so the ledger story
  // is about the dead shard, not shedding), shard 0 dies halfway.
  auto failover = run_step(config, 4, 0.6, shard_capacity_rps, 0);
  if (!failover.ok()) {
    std::fprintf(stderr, "failover step failed: %s\n",
                 failover.status().to_string().c_str());
    return 1;
  }
  auto replication = measure_replication(config);
  if (!replication.ok()) {
    std::fprintf(stderr, "replication step failed: %s\n",
                 replication.status().to_string().c_str());
    return 1;
  }
  auto rebalance = run_rebalance_step(config, shard_capacity_rps);
  if (!rebalance.ok()) {
    std::fprintf(stderr, "rebalance step failed: %s\n",
                 rebalance.status().to_string().c_str());
    return 1;
  }
  auto resume = run_resume_step(config, shard_capacity_rps);
  if (!resume.ok()) {
    std::fprintf(stderr, "resume step failed: %s\n",
                 resume.status().to_string().c_str());
    return 1;
  }

  double goodput_1 = 0.0;
  double goodput_4 = 0.0;
  if (!config.json_only) {
    std::fprintf(stderr, "%6s %12s %10s %10s %9s %7s %10s %10s\n", "shards",
                 "offered/s", "goodput/s", "ok", "refused", "lost", "p50 us",
                 "p99 us");
  }
  for (const Row& row : rows) {
    if (row.shards == 1) goodput_1 = row.goodput_rps;
    if (row.shards == 4) goodput_4 = row.goodput_rps;
    if (!config.json_only) {
      std::fprintf(stderr, "%6zu %12.0f %10.1f %10llu %9llu %7llu %10.1f %10.1f\n",
                   row.shards, row.offered_rps, row.goodput_rps,
                   static_cast<unsigned long long>(row.completed_ok),
                   static_cast<unsigned long long>(row.refused),
                   static_cast<unsigned long long>(row.lost), row.p50_us,
                   row.p99_us);
    }
  }
  const double scaling = goodput_1 > 0.0 ? goodput_4 / goodput_1 : 0.0;
  const Row& fo = failover.value();
  const ReplicationRow& repl = replication.value();
  const RebalanceRow& reb = rebalance.value();
  const bool exactly_once =
      fo.duplicate_callbacks == 0 && fo.unresolved == 0;
  const bool delta_saves = repl.delta_bytes < repl.full_bytes;
  // Elasticity gates (PR 9): both resizes completed mid-feed, callbacks
  // stayed exactly-once, the join moved no more than ~1/5 of the
  // keyspace, and goodput recovered to >= 0.9x the pre-join plateau.
  const bool rebalance_exactly_once =
      reb.duplicate_callbacks == 0 && reb.unresolved == 0;
  const bool rebalance_ok =
      reb.joins_completed == 1 && reb.leaves_completed == 1 &&
      rebalance_exactly_once && reb.moved_fraction <= 1.5 / 5.0 &&
      reb.recovery_ratio >= 0.9;
  const ResumeRow& res = resume.value();
  // Session-resume gates (PR 10): every probe close completed on the
  // survivor with exactly one re-executed step (the teardown — cold
  // re-runs would double the count), the feed's callbacks stayed
  // exactly-once, and post-failover goodput recovered to >= 0.9x the
  // pre-kill plateau.
  const bool resume_exactly_once =
      res.duplicate_callbacks == 0 && res.unresolved == 0;
  const bool resume_ok =
      res.probe_sessions > 0 && res.probe_ok == res.probe_sessions &&
      res.survivor_probe_executions == res.probe_sessions &&
      res.resumes_completed >= res.probe_sessions && resume_exactly_once &&
      res.recovery_ratio >= 0.9;
  const bool pass = scaling >= config.min_scaling && exactly_once &&
                    delta_saves && rebalance_ok && resume_ok;
  if (!config.json_only) {
    std::fprintf(stderr,
                 "\nfailover: ok=%llu refused=%llu lost=%llu dupes=%llu "
                 "unresolved=%llu failovers=%llu rerouted=%llu trips=%llu\n",
                 static_cast<unsigned long long>(fo.completed_ok),
                 static_cast<unsigned long long>(fo.refused),
                 static_cast<unsigned long long>(fo.lost),
                 static_cast<unsigned long long>(fo.duplicate_callbacks),
                 static_cast<unsigned long long>(fo.unresolved),
                 static_cast<unsigned long long>(fo.failovers),
                 static_cast<unsigned long long>(fo.rerouted),
                 static_cast<unsigned long long>(fo.breaker_trips));
    std::fprintf(stderr,
                 "replication: delta=%llu bytes vs full=%llu bytes\n",
                 static_cast<unsigned long long>(repl.delta_bytes),
                 static_cast<unsigned long long>(repl.full_bytes));
    std::fprintf(stderr,
                 "rebalance: pre=%.1f/s post=%.1f/s recovery=%.2fx "
                 "moved=%.3f joins=%llu leaves=%llu dupes=%llu "
                 "unresolved=%llu lost=%llu\n",
                 reb.pre_join_goodput_rps, reb.post_resize_goodput_rps,
                 reb.recovery_ratio, reb.moved_fraction,
                 static_cast<unsigned long long>(reb.joins_completed),
                 static_cast<unsigned long long>(reb.leaves_completed),
                 static_cast<unsigned long long>(reb.duplicate_callbacks),
                 static_cast<unsigned long long>(reb.unresolved),
                 static_cast<unsigned long long>(reb.lost));
    std::fprintf(stderr,
                 "resume: probes=%llu ok=%llu survivor_execs=%llu "
                 "resumed=%llu/%llu ckpts=%llu msgs=%llu pre=%.1f/s "
                 "post=%.1f/s recovery=%.2fx dupes=%llu unresolved=%llu\n",
                 static_cast<unsigned long long>(res.probe_sessions),
                 static_cast<unsigned long long>(res.probe_ok),
                 static_cast<unsigned long long>(
                     res.survivor_probe_executions),
                 static_cast<unsigned long long>(res.resumes_completed),
                 static_cast<unsigned long long>(res.resumes_shipped),
                 static_cast<unsigned long long>(res.checkpoints_taken),
                 static_cast<unsigned long long>(res.messages),
                 res.pre_kill_goodput_rps, res.post_kill_goodput_rps,
                 res.recovery_ratio,
                 static_cast<unsigned long long>(res.duplicate_callbacks),
                 static_cast<unsigned long long>(res.unresolved));
    std::fprintf(stderr, "scaling 1->4 shards: %.2fx (target >= %.2fx)\n",
                 scaling, config.min_scaling);
  }

  std::printf("{\n  \"bench\": \"cluster\", \"scenario\": \"cvm_sharded\", "
              "\"pipeline_threads_per_shard\": %d, \"queue_capacity\": %d, "
              "\"service_delay_us\": %d, \"deadline_ms\": %d, "
              "\"wire_latency_us\": %d, \"shard_capacity_rps\": %.0f, "
              "\"multiplier\": %.1f,\n  \"rows\": [\n",
              config.pipeline_threads_per_shard, config.queue_capacity,
              config.service_delay_us, config.deadline_ms,
              config.wire_latency_us, shard_capacity_rps, config.multiplier);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    print_row_json("scaling", rows[i], false);
  }
  print_row_json("failover", fo, true);
  std::printf("  ],\n  \"replication\": {\"shards\": %zu, "
              "\"delta_bytes\": %llu, \"full_bytes\": %llu, "
              "\"acks\": %llu},\n",
              repl.shards, static_cast<unsigned long long>(repl.delta_bytes),
              static_cast<unsigned long long>(repl.full_bytes),
              static_cast<unsigned long long>(repl.acks));
  std::printf(
      "  \"rebalance\": {\"shards\": 4, \"spares\": 1, \"submitted\": %llu, "
      "\"completed_ok\": %llu, \"refused\": %llu, \"lost\": %llu, "
      "\"duplicate_callbacks\": %llu, \"unresolved\": %llu, "
      "\"joins_completed\": %llu, \"leaves_completed\": %llu, "
      "\"full_sync_acks\": %llu, \"moved_fraction\": %.4f, "
      "\"pre_join_goodput_rps\": %.1f, \"post_resize_goodput_rps\": %.1f, "
      "\"recovery_ratio\": %.3f},\n",
      static_cast<unsigned long long>(reb.submitted),
      static_cast<unsigned long long>(reb.completed_ok),
      static_cast<unsigned long long>(reb.refused),
      static_cast<unsigned long long>(reb.lost),
      static_cast<unsigned long long>(reb.duplicate_callbacks),
      static_cast<unsigned long long>(reb.unresolved),
      static_cast<unsigned long long>(reb.joins_completed),
      static_cast<unsigned long long>(reb.leaves_completed),
      static_cast<unsigned long long>(reb.full_sync_acks),
      reb.moved_fraction, reb.pre_join_goodput_rps,
      reb.post_resize_goodput_rps, reb.recovery_ratio);
  std::printf(
      "  \"resume\": {\"shards\": 2, \"checkpoint_interval\": 1, "
      "\"probe_sessions\": %llu, \"probe_ok\": %llu, "
      "\"survivor_probe_executions\": %llu, \"submitted\": %llu, "
      "\"completed_ok\": %llu, \"refused\": %llu, \"lost\": %llu, "
      "\"duplicate_callbacks\": %llu, \"unresolved\": %llu, "
      "\"checkpoints_taken\": %llu, \"messages\": %llu, "
      "\"resumes_shipped\": %llu, \"resumes_completed\": %llu, "
      "\"failovers\": %llu, \"rerouted\": %llu, "
      "\"pre_kill_goodput_rps\": %.1f, \"post_kill_goodput_rps\": %.1f, "
      "\"recovery_ratio\": %.3f},\n",
      static_cast<unsigned long long>(res.probe_sessions),
      static_cast<unsigned long long>(res.probe_ok),
      static_cast<unsigned long long>(res.survivor_probe_executions),
      static_cast<unsigned long long>(res.submitted),
      static_cast<unsigned long long>(res.completed_ok),
      static_cast<unsigned long long>(res.refused),
      static_cast<unsigned long long>(res.lost),
      static_cast<unsigned long long>(res.duplicate_callbacks),
      static_cast<unsigned long long>(res.unresolved),
      static_cast<unsigned long long>(res.checkpoints_taken),
      static_cast<unsigned long long>(res.messages),
      static_cast<unsigned long long>(res.resumes_shipped),
      static_cast<unsigned long long>(res.resumes_completed),
      static_cast<unsigned long long>(res.failovers),
      static_cast<unsigned long long>(res.rerouted),
      res.pre_kill_goodput_rps, res.post_kill_goodput_rps,
      res.recovery_ratio);
  std::printf("  \"scaling_1_to_4\": %.3f, \"min_scaling\": %.2f, "
              "\"failover_exactly_once\": %s, "
              "\"rebalance_exactly_once\": %s, \"rebalance_pass\": %s, "
              "\"resume_pass\": %s, \"pass\": %s\n}\n",
              scaling, config.min_scaling, exactly_once ? "true" : "false",
              rebalance_exactly_once ? "true" : "false",
              rebalance_ok ? "true" : "false", resume_ok ? "true" : "false",
              pass ? "true" : "false");
  return pass ? 0 : 1;
}
