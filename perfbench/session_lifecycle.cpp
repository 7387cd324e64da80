// session_lifecycle: one IngressClient in front of a ClusterFrontEnd over
// two ShardNodes (one pipeline worker each). The client keeps one session
// in flight, closed loop; each session is opened (pending), activated
// (two participants and an audio medium) and closed, then a new session
// takes its place.
//
// One session, not four: with four in flight the seeded shard placement
// (4-0, 3-1 or 2-2) queues sessions behind each other on one worker, and
// that queue turns every host stall into a burst of slow requests, so
// goodput and p99 followed host steal from run to run.
//
// The whole fleet runs on one vCPU (see pin_to_current_cpu): with one
// session in flight the work is serial anyway, and on a VM, waking a
// worker parked on another, idle vCPU waits for the host to schedule that
// vCPU, a delay that follows the host's load rather than the program.
//
// There is no pumping thread: the generator (this thread) advances the
// network's SimClock, drains the shards' reply queues (manual reply
// loops), pumps Network::deliver_due() and yields when nothing was due.
// Links have zero latency, so no request waits on virtual time, and
// nothing on the request path sleeps. The only thread hand-off per
// request is to the shard's pipeline worker and back.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <thread>

#include "bench.hpp"
#include "cluster/cluster_front_end.hpp"
#include "cluster/shard_node.hpp"
#include "core/middleware_metamodel.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "ingress/ingress_client.hpp"
#include "ingress/wire.hpp"
#include "model/text_format.hpp"
#include "net/network.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kSessionsPerRound = 400;
constexpr std::size_t kWarmupSessions = 50;
constexpr int kSteps = 3;  ///< open, activate, close
/// Round watchdog: a round that has not finished by then has stalled.
constexpr auto kRoundLimit = std::chrono::seconds(60);

std::string session_text(const std::string& session, int step) {
  std::string out = "model app_" + session +
                    " conforms cml\nobject Connection " + session +
                    " {\n  state = ";
  if (step == 0) return out + "pending\n}\n";
  out += step == 1 ? "active\n" : "closed\n";
  out += "  child participants Participant " + session + "_a { address = \"" +
         session + "_a\" role = initiator }\n";
  out += "  child participants Participant " + session + "_b { address = \"" +
         session + "_b\" }\n";
  out += "  child media Medium " + session + "_v { kind = audio }\n}\n";
  return out;
}

/// The sharded deployment. Member order is teardown order in reverse:
/// the client and front-end go before the shards, the network last.
struct Fleet {
  SimClock sim;
  std::unique_ptr<net::Network> network;
  std::optional<model::Model> middleware;
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  std::unique_ptr<cluster::ClusterFrontEnd> frontend;
  std::unique_ptr<ingress::IngressClient> client;
  SteadyTime origin = now();
  Duration advanced{0};

  ~Fleet() {
    client.reset();
    frontend.reset();
    nodes.clear();
    network.reset();
  }

  /// Move virtual time up to real time, send the shards' queued replies,
  /// then deliver what is due.
  std::size_t pump() {
    const auto target = std::chrono::duration_cast<Duration>(now() - origin);
    if (target > advanced) {
      sim.advance(target - advanced);
      advanced = target;
    }
    std::size_t moved = 0;
    for (auto& node : nodes) moved += node->pump();
    return moved + network->deliver_due();
  }
};

Result<std::unique_ptr<Fleet>> make_fleet() {
  auto fleet = std::make_unique<Fleet>();
  Result<model::Model> parsed = model::parse_model(
      comm::cvm_middleware_model_text(), core::middleware_metamodel());
  if (!parsed.ok()) return parsed.status();
  fleet->middleware.emplace(std::move(parsed.value()));
  net::NetworkConfig network_config;
  network_config.base_latency = Duration(0);
  network_config.jitter = Duration(0);
  fleet->network = std::make_unique<net::Network>(fleet->sim, network_config);

  std::vector<std::string> endpoints;
  for (std::size_t i = 0; i < kShards; ++i) {
    cluster::ShardNodeOptions options;
    options.endpoint = "shard-" + std::to_string(i);
    options.platform_config.dsml = comm::cml_metamodel();
    options.platform_config.pipeline_threads = 1;
    options.manual_reply_loop = true;
    options.provision = [](core::Platform& platform) {
      return platform.add_resource_adapter(std::make_unique<WorkAdapter>());
    };
    auto node = cluster::ShardNode::launch(*fleet->middleware, *fleet->network,
                                           std::move(options));
    if (!node.ok()) return node.status();
    endpoints.push_back(node.value()->endpoint_name());
    fleet->nodes.push_back(std::move(node.value()));
  }
  // Budgets far beyond any request: a host stall must not turn into a
  // failover or a reply-lost outcome.
  cluster::ClusterConfig cluster_config;
  cluster_config.downstream_reply_timeout = std::chrono::seconds(120);
  auto frontend = cluster::ClusterFrontEnd::attach(
      *fleet->network, *fleet->middleware, std::move(endpoints),
      std::move(cluster_config));
  if (!frontend.ok()) return frontend.status();
  fleet->frontend = std::move(frontend.value());
  ingress::IngressClientOptions client_options;
  client_options.endpoint = "bench-client";
  client_options.reply_timeout = std::chrono::seconds(120);
  auto client = ingress::IngressClient::attach(
      *fleet->network, fleet->frontend->endpoint_name(), client_options);
  if (!client.ok()) return client.status();
  fleet->client = std::move(client.value());
  return fleet;
}

/// CPU time the calling thread has used, in ns.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// One sent request, kept for the traced run's replays.
struct Sent {
  std::string session;
  std::string text;
  std::int64_t commands = 0;
};

/// Drives sessions through the fleet, closed loop: one request in
/// flight, the next one sent when its reply is in.
class Generator {
 public:
  Generator(Fleet& fleet, std::uint64_t seed, bool trace)
      : fleet_(fleet), rng_(seed), trace_(trace) {}

  /// Run `sessions` complete sessions. Returns false after a stall; the
  /// client is then detached, so every pending callback has fired while
  /// this generator is still alive.
  bool run(std::size_t sessions, Round& round, Report& report) {
    sent_.clear();
    const std::uint64_t fires_before = fires_;
    const SteadyTime limit = now() + kRoundLimit;
    for (std::size_t i = 0; i < sessions; ++i) {
      char id[32];
      std::snprintf(id, sizeof id, "s%08llx_%llu",
                    static_cast<unsigned long long>(rng_() & 0xffffffffu),
                    static_cast<unsigned long long>(session_counter_++));
      const std::string session = id;
      if (trace_) ++shard_sessions_[fleet_.frontend->shard_for(session)];
      for (int step = 0; step < kSteps; ++step) {
        if (!request(session, step, limit, round, report)) {
          report.fail("round stalled with a request in flight");
          fleet_.client.reset();
          return false;
        }
      }
    }
    // Every request was waited for until its first reply, so any fire
    // beyond one per request is a request that resolved more than once.
    const std::uint64_t extra = fires_ - fires_before - round.attempted;
    if (extra != 0) {
      report.fail(std::to_string(extra) + " extra request resolutions");
      const std::uint64_t dropped = std::min(round.ok, extra);
      round.ok -= dropped;
      round.latency_us.resize(round.latency_us.size() - dropped);
    }
    return true;
  }

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }
  [[nodiscard]] const std::vector<std::size_t>& shard_sessions() const {
    return shard_sessions_;
  }
  [[nodiscard]] std::uint64_t commands() const { return commands_; }
  [[nodiscard]] double pump_ns() const { return pump_ns_; }
  [[nodiscard]] std::uint64_t yields() const { return yields_; }
  [[nodiscard]] double lateness_max_us() const { return lateness_max_us_; }

 private:
  /// Send one step and pump until its reply is in. False on a stall.
  bool request(const std::string& session, int step, SteadyTime limit,
               Round& round, Report& report) {
    std::string text = session_text(session, step);
    if (trace_) sent_.push_back(Sent{session, text});
    ++round.attempted;
    const std::uint64_t current = ++request_counter_;
    reply_ = Reply{};
    const SteadyTime sent = now();
    auto submitted = fleet_.client->submit(
        "cml", session, std::move(text),
        [this, current](const ingress::RemoteOutcome& outcome) {
          ++fires_;
          if (current != request_counter_ || reply_.done) return;
          reply_.done = true;
          reply_.at = now();
          reply_.ok = outcome.status.ok();
          reply_.commands = outcome.commands;
          if (!reply_.ok) reply_.error = outcome.status.to_string();
        });
    if (!submitted.ok()) {
      ++fires_;
      report.fail("session " + session + " step " + std::to_string(step) +
                  ": " + submitted.status().to_string());
      return true;
    }
    while (!reply_.done) {
      if (pump() == 0) {
        ++yields_;
        std::this_thread::yield();
      }
      if (now() > limit) return false;
    }
    lateness_max_us_ = std::max(lateness_max_us_, us_between(reply_.at, now()));
    if (!reply_.ok) {
      report.fail("session " + session + " step " + std::to_string(step) +
                  ": " + reply_.error);
      return true;
    }
    ++round.ok;
    round.latency_us.push_back(us_between(sent, reply_.at));
    commands_ += static_cast<std::uint64_t>(reply_.commands);
    if (trace_) sent_.back().commands = reply_.commands;
    return true;
  }

  std::size_t pump() {
    if (!trace_) return fleet_.pump();
    // CPU time, not wall time: on the shared vCPU a woken shard worker
    // may preempt the generator inside a pump.
    const double cpu_start = thread_cpu_ns();
    const std::size_t delivered = fleet_.pump();
    if (delivered != 0) pump_ns_ += thread_cpu_ns() - cpu_start;
    return delivered;
  }

  struct Reply {
    bool done = false;
    bool ok = false;
    std::int64_t commands = 0;
    std::string error;
    SteadyTime at;
  };

  Fleet& fleet_;
  std::mt19937_64 rng_;
  bool trace_;
  Reply reply_;
  std::uint64_t request_counter_ = 0;
  std::uint64_t fires_ = 0;
  std::vector<Sent> sent_;
  std::vector<std::size_t> shard_sessions_ =
      std::vector<std::size_t>(kShards, 0);
  std::uint64_t session_counter_ = 0;
  std::uint64_t commands_ = 0;
  double pump_ns_ = 0.0;
  std::uint64_t yields_ = 0;
  double lateness_max_us_ = 0.0;
};

/// Shard-side counters summed over the fleet; the run reports deltas.
struct ShardCounters {
  double broker_calls = 0.0;
  double im_hits = 0.0;
  double im_misses = 0.0;
  double stage_wait_us = 0.0;
  double delivered = 0.0;
  double controller_errors = 0.0;
};

ShardCounters read_counters(Fleet& fleet) {
  ShardCounters counters;
  for (auto& node : fleet.nodes) {
    core::Platform& platform = node->platform();
    obs::MetricsRegistry& metrics = platform.metrics();
    const controller::GeneratorStats im =
        platform.controller().generator().stats();
    counters.broker_calls += metrics.counter("broker.calls").value();
    counters.controller_errors += platform.controller().stats().errors;
    counters.im_hits += im.cache_hits;
    counters.im_misses += im.cache_misses;
    for (const auto& stage : platform.stage_stats()) {
      counters.stage_wait_us +=
          metrics.histogram("stage." + stage.name + ".delay_us").sum_us();
    }
  }
  counters.delivered = fleet.network->stats().delivered;
  return counters;
}

ShardCounters since(const ShardCounters& before, const ShardCounters& after) {
  return ShardCounters{after.broker_calls - before.broker_calls,
                       after.im_hits - before.im_hits,
                       after.im_misses - before.im_misses,
                       after.stage_wait_us - before.stage_wait_us,
                       after.delivered - before.delivered,
                       after.controller_errors - before.controller_errors};
}

/// Replay each shard's share of the last round, in the order the shard
/// received it, on a fresh in-process platform through the traced path:
/// the in-shard layer split, timed call by call.
void replay_on_shards(Fleet& fleet, const std::vector<Sent>& sent,
                      Report& report) {
  LayerTotals totals;
  std::vector<double> assemble_us;
  const std::vector<policy::Expression> guards =
      model_guards(*fleet.middleware);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    core::PlatformConfig config;
    config.dsml = comm::cml_metamodel();
    const SteadyTime start = now();
    auto platform = core::Platform::assemble(*fleet.middleware, config);
    assemble_us.push_back(us_between(start, now()));
    if (!platform.ok()) {
      report.fail("replay assembly: " + platform.status().to_string());
      return;
    }
    auto adapter =
        std::make_unique<TimedAdapter>(std::make_unique<WorkAdapter>());
    adapter->set_timing(true);
    const TimedAdapter& timed = *adapter;
    if (!platform.value()->add_resource_adapter(std::move(adapter)).ok() ||
        !platform.value()->start().ok()) {
      report.fail("replay platform did not start");
      return;
    }
    for (const Sent& request : sent) {
      if (fleet.frontend->shard_for(request.session) != shard) continue;
      time_guards(guards, platform.value()->context(), totals);
      time_parse(*platform.value(), request.text, totals);
      Result<controller::ControlScript> script =
          submit_traced(*platform.value(), timed, request.text, totals);
      if (!script.ok()) report.fail("replay: " + script.status().to_string());
    }
  }
  report_layer_split(totals, report);
  report.layer("core.assemble_us", median(assemble_us));
}

/// Wire cost of the recorded requests and replies: each crosses two hops
/// (client → front-end → shard, and back), each hop encodes and decodes.
void time_codec(const std::vector<Sent>& sent, Report& report) {
  constexpr double kHops = 2.0;
  double codec_ns = 0.0;
  double bytes = 0.0;
  std::uint64_t id = 1;
  for (const Sent& request : sent) {
    ingress::wire::Request wire_request;
    wire_request.request_id = id;
    wire_request.text = request.text;
    ingress::wire::Reply wire_reply;
    wire_reply.request_id = id++;
    wire_reply.message = "script-" + std::to_string(id);
    wire_reply.commands = request.commands;
    const SteadyTime start = now();
    const model::Value encoded_request =
        ingress::wire::encode_request(wire_request);
    auto decoded_request = ingress::wire::decode_request(encoded_request);
    const model::Value encoded_reply = ingress::wire::encode_reply(wire_reply);
    auto decoded_reply = ingress::wire::decode_reply(encoded_reply);
    codec_ns += ns_between(start, now());
    if (!decoded_request.ok() || !decoded_reply.ok()) {
      report.fail("wire codec round trip failed");
    }
    bytes += static_cast<double>(encoded_request.to_text().size() +
                                 encoded_reply.to_text().size());
  }
  const double n = std::max<double>(1.0, static_cast<double>(sent.size()));
  report.layer("ingress.codec_us", kHops * codec_ns / n / 1e3);
  report.layer("ingress.bytes_per_req", kHops * bytes / n);
}

/// Mean cost of one front-end routing decision over the recorded keys.
void time_routing(Fleet& fleet, const std::vector<Sent>& sent, Report& report) {
  constexpr int kRepeats = 20;
  static volatile std::size_t sink = 0;
  const SteadyTime start = now();
  for (int r = 0; r < kRepeats; ++r) {
    for (const Sent& request : sent) {
      sink = sink + fleet.frontend->shard_for(request.session);
    }
  }
  report.layer("cluster.route_ns",
               ratio(ns_between(start, now()),
                     kRepeats * static_cast<double>(sent.size())));
}

/// Restrict this thread, and so every thread the fleet creates after it,
/// to the vCPU it is running on. Returns that vCPU, or -1 when the
/// affinity could not be set (the run then proceeds unpinned).
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Build the fleet and push the warm-up sessions through it.
std::unique_ptr<Fleet> set_up(std::uint64_t seed, Report& report) {
  auto fleet = make_fleet();
  if (!fleet.ok()) {
    report.fail("fleet launch: " + fleet.status().to_string());
    return nullptr;
  }
  Generator warmup(*fleet.value(), seed ^ 0x5eedull, false);
  Round round;
  if (!warmup.run(kWarmupSessions, round, report) ||
      round.ok != round.attempted) {
    report.fail("warm-up sessions failed");
    return nullptr;
  }
  for (auto& node : fleet.value()->nodes) {
    node->platform().broker().resources().clear_trace();
  }
  return std::move(fleet.value());
}

}  // namespace

Report run_session_lifecycle(const Options& options) {
  Report report;
  report.diagnostic("pinned_cpu", pin_to_current_cpu());
  // One timed set-up from the seed (see Report::setup_s).
  auto timed_set_up = [&] {
    const SteadyTime start = now();
    std::unique_ptr<Fleet> fleet = set_up(options.seed, report);
    if (fleet != nullptr) report.setup_s.push_back(s_between(start, now()));
    return fleet;
  };
  std::unique_ptr<Fleet> fleet = timed_set_up();
  if (fleet == nullptr) return report;
  Generator generator(*fleet, options.seed, options.trace);
  const ShardCounters before = read_counters(*fleet);
  std::size_t max_trace_entries = 0;
  std::uint64_t requests = 0;
  const SteadyTime stop_at =
      now() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  do {
    Round round;
    round.latency_us.reserve(kSessionsPerRound * kSteps);
    const double errors_before = read_counters(*fleet).controller_errors;
    const SteadyTime round_start = now();
    const bool finished = generator.run(kSessionsPerRound, round, report);
    round.wall_s = s_between(round_start, now());
    // The controller contains command errors instead of returning them.
    if (const double errors =
            read_counters(*fleet).controller_errors - errors_before;
        errors != 0.0 && round.ok > 0) {
      report.fail(std::to_string(errors) +
                  " contained controller errors on the shards");
      --round.ok;
      round.latency_us.pop_back();
    }
    requests += round.attempted;
    round.close();
    report.rounds.push_back(std::move(round));
    if (!finished) break;
    std::size_t entries = 0;
    for (auto& node : fleet->nodes) {
      entries += node->platform().trace().size();
      node->platform().broker().resources().clear_trace();
    }
    max_trace_entries = std::max(max_trace_entries, entries);
    fleet->frontend->maintain();
    fleet->client->expire_overdue();
    // A throwaway set-up after every round (see Report::setup_s).
    if (timed_set_up() == nullptr) break;
  } while (now() < stop_at);

  const ShardCounters delta = since(before, read_counters(*fleet));
  const double n = static_cast<double>(std::max<std::uint64_t>(requests, 1));
  const double commands = static_cast<double>(generator.commands());
  report.diagnostic("commands_per_req", commands / n);
  report.diagnostic("im_misses_per_req", delta.im_misses / n);
  report.diagnostic("generator_yields",
                    static_cast<double>(generator.yields()));
  report.diagnostic("generator_lateness_max_us", generator.lateness_max_us());
  if (options.trace) {
    replay_on_shards(*fleet, generator.sent(), report);
    report.layer("synthesis.commands_per_req", commands / n);
    report.layer("controller.im_misses_per_req", delta.im_misses / n);
    report.layer("controller.im_hit_ratio",
                 ratio(delta.im_hits, delta.im_hits + delta.im_misses));
    report.layer("broker.calls_per_req", delta.broker_calls / n);
    report.layer("broker.trace_entries",
                 static_cast<double>(max_trace_entries));
    report.layer("runtime.stage_wait_us", delta.stage_wait_us / n);
    time_codec(generator.sent(), report);
    report.layer("net.pump_us_per_req", generator.pump_ns() / n / 1e3);
    report.layer("net.messages_per_req", delta.delivered / n);
    time_routing(*fleet, generator.sent(), report);
    const std::vector<std::size_t>& sessions = generator.shard_sessions();
    double total = 0.0;
    for (std::size_t count : sessions) total += static_cast<double>(count);
    report.layer("cluster.shard_share_max",
                 ratio(static_cast<double>(*std::max_element(
                           sessions.begin(), sessions.end())),
                       total));
  }
  return report;
}

}  // namespace perfbench
