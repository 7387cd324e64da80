// The two in-process, synchronous workloads. One client thread submits
// whole CML models to a CVM platform and waits for each script:
//
//   conference_edits — a 24-participant conference re-submitted with one
//     medium retuned; every 8th request also slides the membership window.
//   adaptive_media   — a 4-participant call whose context (bandwidth,
//     relay availability) flips before three requests in four, which then
//     replace the video medium: intent-model generation runs on those
//     three, and the fourth, with the context unchanged, reads the cache.
#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <random>

#include "bench.hpp"
#include "core/middleware_metamodel.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/comm_services.hpp"
#include "domains/comm/cvm.hpp"
#include "model/text_format.hpp"
#include "net/network.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kRoundSize = 2000;
constexpr std::size_t kWarmup = 400;
constexpr std::array<const char*, 3> kQualities = {"low", "standard", "high"};

/// A CVM assembled the way comm::make_cvm() assembles it, except that the
/// comm adapter sits inside a TimedAdapter, the middleware-model parse
/// and Platform::assemble are timed on their own, and a traced run gives
/// the platform the real clock so its spans measure time.
struct CvmBench {
  SimClock clock;
  net::Network network;
  comm::CommSessionService service;
  std::optional<model::Model> middleware;
  std::unique_ptr<core::Platform> platform;
  TimedAdapter* adapter = nullptr;
  double assemble_us = 0.0;

  CvmBench() : network(clock), service(network) {}
};

Result<std::unique_ptr<CvmBench>> make_cvm_bench(bool trace) {
  auto bench = std::make_unique<CvmBench>();
  Result<model::Model> parsed = model::parse_model(
      comm::cvm_middleware_model_text(), core::middleware_metamodel());
  if (!parsed.ok()) return parsed.status();
  bench->middleware.emplace(std::move(parsed.value()));
  core::PlatformConfig config;
  config.dsml = comm::cml_metamodel();
  if (!trace) config.clock = &bench->clock;
  const SteadyTime start = now();
  auto platform = core::Platform::assemble(*bench->middleware, config);
  bench->assemble_us = us_between(start, now());
  if (!platform.ok()) return platform.status();
  bench->platform = std::move(platform.value());
  auto adapter = std::make_unique<TimedAdapter>(
      std::make_unique<comm::CommServiceAdapter>(bench->service, "comm"));
  bench->adapter = adapter.get();
  MDSM_RETURN_IF_ERROR(
      bench->platform->add_resource_adapter(std::move(adapter)));
  MDSM_RETURN_IF_ERROR(bench->platform->start());
  return bench;
}

/// One generated request and what its outcome must look like.
struct Request {
  std::string text;
  std::vector<std::string> expected_commands;  ///< sorted command names
  bool flip = false;         ///< adaptive_media: set the context below first
  double bandwidth = 0.0;    ///< adaptive_media: context for the request
  bool relay = false;
  std::string video_id;      ///< adaptive_media: the medium it opens
  std::string video_quality;
};

/// Generates a workload's seeded requests and checks their outcomes.
class Workload {
 public:
  virtual ~Workload() = default;
  /// The submission that sets the scene, and its command count.
  virtual std::string establish() = 0;
  virtual std::size_t establish_commands() const = 0;
  virtual Request next() = 0;
  /// Runs just before the request is sent (outside its latency).
  virtual void prepare(CvmBench& bench, const Request& request) {
    (void)bench;
    (void)request;
  }
  /// Checks beyond the command list; "" when the outcome is right.
  virtual std::string check(CvmBench& bench, const Request& request) {
    (void)bench;
    (void)request;
    return "";
  }
  /// End-of-round checks over platform state and the round's
  /// intent-model lookups; "" when right.
  virtual std::string check_round(CvmBench& bench, const Request& last,
                                  std::size_t requests,
                                  const controller::GeneratorStats& im) = 0;
};

std::string im_mismatch(const controller::GeneratorStats& im,
                        std::uint64_t hits, std::uint64_t misses) {
  if (im.cache_hits == hits && im.cache_misses == misses) return "";
  return "expected " + std::to_string(hits) + " intent-model hits and " +
         std::to_string(misses) + " misses in the round, got " +
         std::to_string(im.cache_hits) + " and " +
         std::to_string(im.cache_misses);
}

class ConferenceEdits final : public Workload {
 public:
  static constexpr int kPool = 32;    ///< participant addresses in rotation
  static constexpr int kWindow = 24;  ///< participants in the conference
  static constexpr std::uint64_t kShiftEvery = 8;

  explicit ConferenceEdits(std::uint64_t seed) : rng_(seed) {}

  std::string establish() override { return text(); }
  std::size_t establish_commands() const override { return 1 + kWindow + 2; }

  Request next() override {
    Request request;
    const int medium = static_cast<int>(rng_() % 2);
    const int step = 1 + static_cast<int>(rng_() % 2);  // never unchanged
    quality_[medium] = (quality_[medium] + step) % 3;
    request.expected_commands = {"ncb.media.retune"};
    if (index_ % kShiftEvery == kShiftEvery - 1) {
      base_ = (base_ + 1) % kPool;
      request.expected_commands.push_back("ncb.party.add");
      request.expected_commands.push_back("ncb.party.remove");
    }
    ++index_;
    std::sort(request.expected_commands.begin(),
              request.expected_commands.end());
    request.text = text();
    return request;
  }

  std::string check_round(CvmBench& bench, const Request& last,
                          std::size_t requests,
                          const controller::GeneratorStats& im) override {
    (void)requests;
    // No request here opens a medium, so nothing consults the IM cache.
    if (std::string problem = im_mismatch(im, 0, 0); !problem.empty()) {
      return problem;
    }
    Result<model::Model> expected =
        model::parse_model(last.text, comm::cml_metamodel());
    if (!expected.ok()) return "last request does not parse";
    if (bench.platform->runtime_model_text() !=
        model::serialize_model(expected.value())) {
      return "runtime model differs from the last submitted model";
    }
    return "";
  }

 private:
  std::string text() const {
    std::string out =
        "model conf conforms cml\nobject Connection conf {\n"
        "  state = active\n  topology = conference\n";
    for (int i = 0; i < kWindow; ++i) {
      char id[8];
      std::snprintf(id, sizeof id, "p%02d", (base_ + i) % kPool);
      out += "  child participants Participant ";
      out += id;
      out += " { address = \"";
      out += id;
      out += "\" }\n";
    }
    out += "  child media Medium voice { kind = audio quality = ";
    out += kQualities[static_cast<std::size_t>(quality_[0])];
    out += " }\n  child media Medium cam { kind = video quality = ";
    out += kQualities[static_cast<std::size_t>(quality_[1])];
    out += " }\n}\n";
    return out;
  }

  std::mt19937_64 rng_;
  std::uint64_t index_ = 0;
  int base_ = 0;
  std::array<int, 2> quality_{1, 1};
};

class AdaptiveMedia final : public Workload {
 public:
  /// Every 4th request keeps the context, so its media.open is an
  /// intent-model cache hit; the others flip it and miss.
  static constexpr std::uint64_t kKeepEvery = 4;

  explicit AdaptiveMedia(std::uint64_t seed) : rng_(seed) {}

  std::string establish() override { return text(video_); }
  std::size_t establish_commands() const override { return 1 + 4 + 2; }

  Request next() override {
    static constexpr std::array<double, 3> kBandwidth = {0.3, 1.0, 3.0};
    Request request;
    request.flip = index_ % kKeepEvery != kKeepEvery - 1;
    if (request.flip) {
      bandwidth_ = kBandwidth[rng_() % kBandwidth.size()];
      relay_ = !relay_;
    }
    request.bandwidth = bandwidth_;
    request.relay = relay_;
    video_ = video_ == "camA" ? "camB" : "camA";
    request.video_id = video_;
    request.video_quality = request.bandwidth >= 2.0   ? "high"
                            : request.bandwidth < 0.5 ? "low"
                                                      : "standard";
    request.expected_commands = {"ncb.media.close", "ncb.media.open"};
    request.text = text(video_);
    ++index_;
    return request;
  }

  void prepare(CvmBench& bench, const Request& request) override {
    if (!request.flip) return;
    policy::ContextStore& context = bench.platform->context();
    context.set("bandwidth", model::Value(request.bandwidth));
    if (request.relay) {
      context.set("relay.available", model::Value(true));
    } else {
      context.erase("relay.available");
    }
  }

  std::string check(CvmBench& bench, const Request& request) override {
    const comm::Session* session = bench.service.find_session("live");
    if (session == nullptr) return "session 'live' is gone";
    auto it = session->streams.find(request.video_id);
    if (it == session->streams.end() || !it->second.open) {
      return "video medium " + request.video_id + " is not open";
    }
    if (it->second.quality != request.video_quality) {
      return "video opened at " + it->second.quality + ", guard selects " +
             request.video_quality;
    }
    return "";
  }

  std::string check_round(CvmBench& bench, const Request& last,
                          std::size_t requests,
                          const controller::GeneratorStats& im) override {
    (void)bench;
    (void)last;
    // Rounds start on a multiple of kKeepEvery, so the split is exact.
    const std::uint64_t hits = requests / kKeepEvery;
    return im_mismatch(im, hits, requests - hits);
  }

 private:
  static std::string text(const std::string& video) {
    return "model adapt conforms cml\nobject Connection live {\n"
           "  state = active\n"
           "  child participants Participant m1 { address = \"m1\" role = "
           "initiator }\n"
           "  child participants Participant m2 { address = \"m2\" }\n"
           "  child participants Participant m3 { address = \"m3\" }\n"
           "  child participants Participant m4 { address = \"m4\" }\n"
           "  child media Medium voice { kind = audio }\n"
           "  child media Medium " +
           video + " { kind = video }\n}\n";
  }

  std::mt19937_64 rng_;
  std::uint64_t index_ = 0;
  double bandwidth_ = 1.0;
  bool relay_ = false;
  std::string video_ = "camA";
};

std::vector<std::string> command_names(
    const controller::ControlScript& script) {
  std::vector<std::string> names;
  names.reserve(script.commands.size());
  for (const controller::Command& command : script.commands) {
    names.push_back(command.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

controller::GeneratorStats im_delta(const controller::GeneratorStats& after,
                                    const controller::GeneratorStats& before) {
  controller::GeneratorStats delta;
  delta.cache_hits = after.cache_hits - before.cache_hits;
  delta.cache_misses = after.cache_misses - before.cache_misses;
  return delta;
}

/// Build the platform, establish the scene and run the warm-up requests.
/// Returns the bench, or null after recording why in `report`.
std::unique_ptr<CvmBench> set_up(Workload& workload, bool trace,
                                 Report& report) {
  auto bench = make_cvm_bench(trace);
  if (!bench.ok()) {
    report.fail("platform assembly: " + bench.status().to_string());
    return nullptr;
  }
  Result<controller::ControlScript> established =
      submit_plain(*bench.value()->platform, workload.establish());
  if (!established.ok() ||
      established->commands.size() != workload.establish_commands()) {
    report.fail("establishing submission: " +
                (established.ok()
                     ? std::to_string(established->commands.size()) +
                           " commands"
                     : established.status().to_string()));
    return nullptr;
  }
  for (std::size_t i = 0; i < kWarmup; ++i) {
    const Request request = workload.next();
    workload.prepare(*bench.value(), request);
    Result<controller::ControlScript> script =
        submit_plain(*bench.value()->platform, request.text);
    if (!script.ok()) {
      report.fail("warm-up: " + script.status().to_string());
      return nullptr;
    }
  }
  bench.value()->platform->broker().resources().clear_trace();
  return std::move(bench.value());
}

template <typename W>
Report run_in_process(const Options& options) {
  Report report;
  std::vector<double> assemble_us;
  // One timed set-up from the seed (see Report::setup_s).
  auto timed_set_up = [&](std::unique_ptr<W>& workload) {
    workload = std::make_unique<W>(options.seed);
    const SteadyTime start = now();
    std::unique_ptr<CvmBench> bench = set_up(*workload, options.trace, report);
    if (bench != nullptr) {
      report.setup_s.push_back(s_between(start, now()));
      assemble_us.push_back(bench->assemble_us);
    }
    return bench;
  };
  std::unique_ptr<W> workload;
  std::unique_ptr<CvmBench> bench = timed_set_up(workload);
  if (bench == nullptr) return report;
  core::Platform& platform = *bench->platform;
  bench->adapter->set_timing(options.trace);
  const std::vector<policy::Expression> guards =
      model_guards(*bench->middleware);

  LayerTotals totals;
  std::size_t max_trace_entries = 0;
  controller::IntentModelGenerator& generator =
      platform.controller().generator();
  obs::Counter& broker_calls = platform.metrics().counter("broker.calls");
  const controller::GeneratorStats im_start = generator.stats();
  const std::uint64_t calls_start = broker_calls.value();
  const std::uint64_t messages_start = bench->network.stats().delivered;
  std::uint64_t requests = 0;
  std::uint64_t commands = 0;

  const SteadyTime stop_at =
      now() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<Request> batch(kRoundSize);
  do {
    for (Request& request : batch) request = workload->next();
    const controller::GeneratorStats im_before = generator.stats();
    const std::uint64_t errors_before = platform.controller().stats().errors;
    Round round;
    round.latency_us.reserve(kRoundSize);
    const SteadyTime round_start = now();
    for (const Request& request : batch) {
      workload->prepare(*bench, request);
      if (options.trace) {
        time_guards(guards, platform.context(), totals);
        time_parse(platform, request.text, totals);
      }
      const SteadyTime sent = now();
      Result<controller::ControlScript> script =
          options.trace
              ? submit_traced(platform, *bench->adapter, request.text, totals)
              : submit_plain(platform, request.text);
      const SteadyTime answered = now();
      ++round.attempted;
      std::string problem;
      if (!script.ok()) {
        problem = script.status().to_string();
      } else if (command_names(*script) != request.expected_commands) {
        problem = "request produced " +
                  std::to_string(script->commands.size()) +
                  " commands, expected " +
                  std::to_string(request.expected_commands.size());
      } else {
        problem = workload->check(*bench, request);
      }
      if (script.ok()) commands += script->commands.size();
      if (!problem.empty()) {
        report.fail(problem);
        continue;
      }
      ++round.ok;
      round.latency_us.push_back(us_between(sent, answered));
    }
    round.wall_s = s_between(round_start, now());
    std::string problem = workload->check_round(
        *bench, batch.back(), batch.size(),
        im_delta(generator.stats(), im_before));
    // The controller contains command errors instead of returning them.
    if (const std::uint64_t errors =
            platform.controller().stats().errors - errors_before;
        errors != 0) {
      problem += std::to_string(errors) + " contained controller errors";
    }
    if (!problem.empty() && round.ok > 0) {
      report.fail(problem);
      --round.ok;
      round.latency_us.pop_back();
    }
    requests += round.attempted;
    max_trace_entries = std::max(max_trace_entries, platform.trace().size());
    platform.broker().resources().clear_trace();
    round.close();
    report.rounds.push_back(std::move(round));
    // A throwaway set-up after every round (see Report::setup_s).
    std::unique_ptr<W> spare_workload;
    if (timed_set_up(spare_workload) == nullptr) break;
  } while (now() < stop_at);

  const double n = static_cast<double>(std::max<std::uint64_t>(requests, 1));
  const controller::GeneratorStats im = im_delta(generator.stats(), im_start);
  const double misses = static_cast<double>(im.cache_misses);
  const double hits = static_cast<double>(im.cache_hits);
  report.diagnostic("commands_per_req", static_cast<double>(commands) / n);
  report.diagnostic("im_misses_per_req", misses / n);
  report.diagnostic("im_hits_per_req", hits / n);
  report.diagnostic("generator_yields", 0.0);
  report.diagnostic("generator_lateness_max_us", 0.0);
  if (options.trace) {
    report_layer_split(totals, report);
    report.layer("synthesis.commands_per_req",
                 static_cast<double>(commands) / n);
    report.layer("controller.im_misses_per_req", misses / n);
    report.layer("controller.im_hit_ratio", ratio(hits, hits + misses));
    report.layer("broker.calls_per_req",
                 static_cast<double>(broker_calls.value() - calls_start) / n);
    report.layer("broker.trace_entries",
                 static_cast<double>(max_trace_entries));
    report.layer("core.assemble_us", median(assemble_us));
    // The synchronous path has no stage queues, wire, generator pump or
    // cluster: those layers report 0.
    report.layer("runtime.stage_wait_us", 0.0);
    report.layer("ingress.codec_us", 0.0);
    report.layer("ingress.bytes_per_req", 0.0);
    report.layer("net.pump_us_per_req", 0.0);
    report.layer("net.messages_per_req",
                 static_cast<double>(bench->network.stats().delivered -
                                     messages_start) / n);
    report.layer("cluster.route_ns", 0.0);
    report.layer("cluster.shard_share_max", 0.0);
  }
  return report;
}

}  // namespace

Report run_conference_edits(const Options& options) {
  return run_in_process<ConferenceEdits>(options);
}

Report run_adaptive_media(const Options& options) {
  return run_in_process<AdaptiveMedia>(options);
}

}  // namespace perfbench
