// Split deployment: the CVM communication platform behind a networked
// ingress front-end (PR 7).
//
// Everything before this PR ran the platform as a library — callers
// linked it and called submit_async() in-process. Here the platform
// sits behind an IngressServer on the simulated network, and a remote
// IngressClient submits application models over the wire:
//
//   client ──submit/cml/<session>──► IngressServer
//            ◄──mdsm.reply────────── router → middleware chain
//                                      → Platform::submit_async
//
// The second half deliberately overloads the platform (bounded queue of
// 2, one worker, a burst of 20) to show the PR-5 backpressure contract
// crossing the network: door refusals come back as *typed* refusal
// replies ("overload"), not silence, and every submission resolves
// exactly once.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "common/strings.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "ingress/ingress_client.hpp"
#include "ingress/ingress_server.hpp"
#include "net/network.hpp"

using namespace mdsm;

namespace {

/// Stand-in for the conferencing services the CVM drives.
class ConsoleCommService final : public broker::ResourceAdapter {
 public:
  ConsoleCommService() : ResourceAdapter("comm") {}
  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)args;
    std::printf("    [comm resource] %s\n", command.c_str());
    return model::Value(true);
  }
};

/// Deliver requests, pump the server's reply loop, deliver replies —
/// until `done` or a wall-clock timeout (the pipeline runs in real
/// time even though the network runs on virtual time).
bool drive(net::Network& network, ingress::IngressServer& server,
           const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    network.run_until_idle();
    server.pump();
    network.run_until_idle();
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

}  // namespace

int main() {
  // 1. The platform side: the CVM with a deliberately tiny pipeline so
  //    the overload demo below actually overloads, plus an ingress
  //    endpoint name and auth token configured *in the model*.
  std::string cvm_text(comm::cvm_middleware_model_text());
  const std::string anchor = "domain = \"communication\"";
  cvm_text.insert(cvm_text.find(anchor) + anchor.size(),
                  "\n  queue_capacity = 2"
                  "\n  overflow_policy = reject"
                  "\n  ingress_endpoint = \"cvm.front\""
                  "\n  ingress_auth = \"letmein\"");

  core::PlatformConfig config;
  config.dsml = comm::cml_metamodel();
  config.pipeline_threads = 1;
  auto platform = core::Platform::assemble_from_text(cvm_text, config);
  if (!platform.ok()) {
    std::printf("assemble failed: %s\n", platform.status().to_string().c_str());
    return 1;
  }
  (void)platform.value()->add_resource_adapter(
      std::make_unique<ConsoleCommService>());
  if (Status started = platform.value()->start(); !started.ok()) {
    std::printf("start failed: %s\n", started.to_string().c_str());
    return 1;
  }

  // 2. The network between the two halves: virtual time, 200us one-way.
  SimClock clock;
  net::NetworkConfig net_config;
  net_config.base_latency = std::chrono::microseconds(200);
  net_config.jitter = std::chrono::microseconds(50);
  net::Network network(clock, net_config);

  ingress::IngressServerOptions server_options;
  server_options.manual_reply_loop = true;  // this example pumps explicitly
  auto server = ingress::IngressServer::attach(*platform.value(), network,
                                               server_options);
  if (!server.ok()) {
    std::printf("attach failed: %s\n", server.status().to_string().c_str());
    return 1;
  }
  std::printf("ingress bound at '%s' (from the middleware model)\n",
              server.value()->endpoint_name().c_str());

  ingress::IngressClientOptions client_options;
  client_options.auth = "letmein";  // matches the model's ingress_auth
  auto client = ingress::IngressClient::attach(
      network, server.value()->endpoint_name(), client_options);
  if (!client.ok()) return 1;

  // 3. One connection over the wire.
  std::printf("\n-- remote submit: one CML connection --\n");
  std::optional<ingress::RemoteOutcome> outcome;
  (void)client.value()->submit(
      "cml", "demo",
      "model app_c1 conforms cml\nobject Connection c1 { state = pending }\n",
      [&](const ingress::RemoteOutcome& result) { outcome = result; });
  drive(network, *server.value(), [&] { return outcome.has_value(); });
  if (outcome.has_value() && outcome->status.ok()) {
    std::printf("  reply: ok, script '%s', %lld commands executed\n",
                outcome->payload.c_str(),
                static_cast<long long>(outcome->commands));
  } else if (outcome.has_value()) {
    std::printf("  reply: refused (%s): %s\n", outcome->refusal.c_str(),
                outcome->status.to_string().c_str());
  }

  // 4. Round-trip engineering, remotely: query the runtime model.
  std::optional<ingress::RemoteOutcome> runtime_model;
  (void)client.value()->query("runtime-model",
                              [&](const ingress::RemoteOutcome& result) {
                                runtime_model = result;
                              });
  drive(network, *server.value(), [&] { return runtime_model.has_value(); });
  if (runtime_model.has_value() && runtime_model->status.ok()) {
    std::printf("\n-- remote query: runtime model --\n%s\n",
                runtime_model->payload.c_str());
  }

  // 5. Overload: a burst of 20 against a queue of 2 and one worker.
  //    Refusals come back as typed replies; nothing is silently lost.
  std::printf("-- remote burst: 20 submissions, queue capacity 2 --\n");
  std::map<std::string, int> tally;
  int resolved = 0;
  for (int i = 0; i < 20; ++i) {
    std::string id = numbered("b", i);
    (void)client.value()->submit(
        "cml", "burst",
        "model app_" + id + " conforms cml\nobject Connection " + id +
            " { state = pending }\n",
        [&](const ingress::RemoteOutcome& result) {
          ++resolved;
          ++tally[result.status.ok() ? "ok" : result.refusal];
        });
  }
  drive(network, *server.value(), [&] { return resolved == 20; });
  for (const auto& [slug, count] : tally) {
    std::printf("  %-10s %d\n", slug.c_str(), count);
  }

  const ingress::IngressServer::Stats stats = server.value()->stats();
  std::printf("\nserver ledger: received=%llu accepted=%llu refused=%llu "
              "replies=%llu\n",
              static_cast<unsigned long long>(stats.received),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.refused),
              static_cast<unsigned long long>(stats.replies));

  // 6. Orderly teardown: platform first (drains the pipeline), then the
  //    ingress pair, then the network.
  (void)platform.value()->stop();
  client.value().reset();
  server.value().reset();
  return 0;
}
