// Networked ingress front-end (PR 7): wire codec, pattern router and
// middleware chain units, plus end-to-end split deployments — a client
// endpoint submitting application models to an IngressServer over the
// simulated network, with the PR-5 overload contract propagating across
// the wire as typed refusal replies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "core/platform.hpp"
#include "ingress/ingress_client.hpp"
#include "ingress/ingress_server.hpp"
#include "ingress/middleware.hpp"
#include "ingress/router.hpp"
#include "ingress/wire.hpp"
#include "net/network.hpp"
#include "metrics_fixtures.hpp"
#include "soak_fixtures.hpp"

namespace mdsm {
namespace {

// ---- wire codec -----------------------------------------------------------

TEST(Wire, RequestRoundTrip) {
  ingress::wire::Request request;
  request.request_id = 42;
  request.text = "model m conforms testlang\n";
  request.auth = "secret";
  request.deadline_us = 1500;
  request.high_priority = true;
  auto decoded = ingress::wire::decode_request(
      ingress::wire::encode_request(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().request_id, 42u);
  EXPECT_EQ(decoded.value().text, request.text);
  EXPECT_EQ(decoded.value().auth, "secret");
  EXPECT_EQ(decoded.value().deadline_us, 1500);
  EXPECT_TRUE(decoded.value().high_priority);
}

TEST(Wire, ReplyRoundTrip) {
  ingress::wire::Reply reply;
  reply.request_id = 7;
  reply.code = ErrorCode::kUnavailable;
  reply.refusal = "overload";
  reply.message = "queue full";
  reply.commands = 3;
  auto decoded =
      ingress::wire::decode_reply(ingress::wire::encode_reply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().request_id, 7u);
  EXPECT_EQ(decoded.value().code, ErrorCode::kUnavailable);
  EXPECT_EQ(decoded.value().refusal, "overload");
  EXPECT_EQ(decoded.value().message, "queue full");
  EXPECT_EQ(decoded.value().commands, 3);
}

TEST(Wire, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(ingress::wire::decode_request(model::Value("garbage")).ok());
  EXPECT_FALSE(ingress::wire::decode_reply(model::Value(7.0)).ok());
  EXPECT_FALSE(ingress::wire::decode_request(model::Value()).ok());
}

TEST(Wire, RefusalTaxonomyIsStable) {
  using ingress::wire::classify_refusal;
  EXPECT_EQ(classify_refusal(Timeout("x")), "deadline");
  EXPECT_EQ(classify_refusal(Unavailable("x")), "overload");
  EXPECT_EQ(classify_refusal(FailedPrecondition("x")), "not-running");
  EXPECT_EQ(classify_refusal(InvalidArgument("x")), "malformed");
  EXPECT_EQ(classify_refusal(ParseError("x")), "malformed");
  EXPECT_EQ(classify_refusal(ConformanceError("x")), "conformance");
  EXPECT_EQ(classify_refusal(NotFound("x")), "no-route");
  EXPECT_EQ(classify_refusal(ExecutionError("x")), "execution");
  EXPECT_EQ(classify_refusal(Internal("x")), "error");
}

// ---- router ---------------------------------------------------------------

TEST(Router, BindsCapturesAndPrefersLiterals) {
  ingress::Router router;
  std::string hit;
  auto handler = [&hit](std::string name) {
    return [&hit, name](const net::Message&, const ingress::RouteParams&) {
      hit = name;
    };
  };
  ASSERT_TRUE(router.add("submit/{dsml}/{session}", handler("generic")).ok());
  ASSERT_TRUE(router.add("submit/cml/{session}", handler("cml")).ok());

  auto generic = router.route("submit/testlang/s1");
  ASSERT_TRUE(generic.has_value());
  EXPECT_EQ(generic->pattern, "submit/{dsml}/{session}");
  EXPECT_EQ(generic->params.get("dsml"), "testlang");
  EXPECT_EQ(generic->params.get("session"), "s1");

  // The more literal pattern wins for its own prefix.
  auto specific = router.route("submit/cml/s2");
  ASSERT_TRUE(specific.has_value());
  EXPECT_EQ(specific->pattern, "submit/cml/{session}");
  EXPECT_EQ(specific->params.get("session"), "s2");

  EXPECT_FALSE(router.route("submit/testlang").has_value());
  EXPECT_FALSE(router.route("other/testlang/s1").has_value());
  // An empty segment cannot bind a capture.
  EXPECT_FALSE(router.route("submit//s1").has_value());
}

TEST(Router, RejectsDuplicateAndUnnamedPatterns) {
  ingress::Router router;
  auto noop = [](const net::Message&, const ingress::RouteParams&) {};
  ASSERT_TRUE(router.add("a/{x}", noop).ok());
  EXPECT_EQ(router.add("a/{x}", noop).code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(router.add("a/{}", noop).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(router.add("", noop).code(), ErrorCode::kInvalidArgument);
}

// ---- middleware chain -----------------------------------------------------

TEST(MiddlewareChain, RunsInOrderAndShortCircuits) {
  obs::MetricsRegistry metrics;
  ingress::MiddlewareChain chain(metrics);
  std::vector<std::string> ran;
  chain.add("first", [&ran](ingress::IngressContext&) {
    ran.push_back("first");
    return Status::Ok();
  });
  chain.add("second", [&ran](ingress::IngressContext& context) {
    ran.push_back("second");
    context.refusal = "unauthenticated";
    return FailedPrecondition("nope");
  });
  chain.add("third", [&ran](ingress::IngressContext&) {
    ran.push_back("third");
    return Status::Ok();
  });

  ingress::IngressContext context;
  Status status = chain.run(context);
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(context.refusal, "unauthenticated");
  EXPECT_EQ(ran, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(chain.names(),
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(MiddlewareChain, FillsRefusalSlugFromStatusWhenUntyped) {
  obs::MetricsRegistry metrics;
  ingress::MiddlewareChain chain(metrics);
  chain.add("gate",
            [](ingress::IngressContext&) { return Unavailable("busy"); });
  ingress::IngressContext context;
  EXPECT_EQ(chain.run(context).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(context.refusal, "overload");
}

// ---- split deployment over the simulated network --------------------------

net::NetworkConfig quiet_network() {
  net::NetworkConfig config;
  config.base_latency = std::chrono::microseconds(100);
  config.jitter = std::chrono::microseconds(0);
  config.drop_rate = 0.0;
  return config;
}

/// A full split deployment: platform + network + server + client. The
/// platform runs its real-time staged pipeline; the network runs on its
/// own SimClock that run_until_idle advances.
struct SplitDeployment {
  model::MetamodelPtr dsml;
  SimClock clock;
  std::unique_ptr<core::Platform> platform;
  soak::CountingAdapter* svc = nullptr;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<ingress::IngressServer> server;
  std::unique_ptr<ingress::IngressClient> client;

  /// Deliver requests, pump replies, deliver replies, repeat until
  /// `done` (or ~10s of wall time — the pipeline runs in real time).
  bool drive_until(const std::function<bool()>& done) {
    const auto wall_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < wall_deadline) {
      network->run_until_idle();
      server->pump();
      network->run_until_idle();
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  }

  /// Orderly teardown: drain the platform first so no completion
  /// callback can reach a destroyed server, then unwind outside-in.
  void shutdown() {
    if (platform != nullptr) {
      EXPECT_TRUE(platform->stop().ok());
    }
    client.reset();
    server.reset();
    network.reset();
    platform.reset();
  }
};

/// A CountingAdapter that can additionally PARK executions: each
/// execution while `holds` is positive blocks inside execute() until
/// release(). Lets a test hold a request in flight deterministically
/// (give the pipeline a second worker so other traffic still flows).
class GateAdapter final : public broker::ResourceAdapter {
 public:
  GateAdapter() : ResourceAdapter("svc") {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)args;
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (holds_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      std::unique_lock lock(mutex_);
      released_cv_.wait(lock, [this] { return released_; });
    }
    return model::Value("done:" + command);
  }

  void hold_next(int executions) {
    holds_.store(executions, std::memory_order_release);
  }
  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    released_cv_.notify_all();
  }
  [[nodiscard]] std::uint64_t executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<int> holds_{0};
  std::mutex mutex_;
  std::condition_variable released_cv_;
  bool released_ = false;
};

std::unique_ptr<SplitDeployment> make_split_deployment(
    std::string_view extra_attrs = "", unsigned pipeline_threads = 2,
    net::NetworkConfig network_config = quiet_network(),
    ingress::IngressClientOptions client_options = {},
    ingress::IngressServerOptions server_options = {},
    std::unique_ptr<broker::ResourceAdapter> adapter = nullptr) {
  auto out = std::make_unique<SplitDeployment>();
  out->dsml = model::testing::make_test_metamodel();

  std::string text(soak::kSoakMiddlewareModel);
  const std::string anchor = "domain = \"testing\"";
  text.insert(text.find(anchor) + anchor.size(),
              "\n  " + std::string(extra_attrs));

  core::PlatformConfig config;
  config.dsml = out->dsml;
  config.pipeline_threads = pipeline_threads;
  auto assembled = core::Platform::assemble_from_text(text, config);
  if (!assembled.ok()) return nullptr;
  out->platform = std::move(assembled.value());
  if (adapter == nullptr) {
    auto svc = std::make_unique<soak::CountingAdapter>("svc");
    out->svc = svc.get();
    adapter = std::move(svc);
  }
  if (!out->platform->add_resource_adapter(std::move(adapter)).ok()) {
    return nullptr;
  }
  if (!out->platform->start().ok()) return nullptr;

  out->network = std::make_unique<net::Network>(out->clock, network_config);
  server_options.manual_reply_loop = true;  // tests pump() deterministically
  auto server = ingress::IngressServer::attach(*out->platform, *out->network,
                                               server_options);
  if (!server.ok()) return nullptr;
  out->server = std::move(server.value());
  auto client = ingress::IngressClient::attach(
      *out->network, out->server->endpoint_name(), std::move(client_options));
  if (!client.ok()) return nullptr;
  out->client = std::move(client.value());
  return out;
}

/// Exactly-once callback ledger shared by the load tests.
struct Ledger {
  std::mutex mutex;
  std::map<std::uint64_t, int> fired;  ///< request id → callback count
  std::map<std::string, int> refusals; ///< slug → count ("" = success)

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

TEST(IngressE2E, SubmitCompletesOverTheWire) {
  auto deployment = make_split_deployment();
  ASSERT_NE(deployment, nullptr);

  std::optional<ingress::RemoteOutcome> outcome;
  auto submitted = deployment->client->submit(
      "testlang", "s1", soak::open_session_text("s1"),
      [&outcome](const ingress::RemoteOutcome& result) { outcome = result; });
  ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
  EXPECT_EQ(submitted.value(), 1u);

  ASSERT_TRUE(deployment->drive_until([&] { return outcome.has_value(); }));
  EXPECT_TRUE(outcome->status.ok()) << outcome->status.to_string();
  EXPECT_EQ(outcome->refusal, "");
  EXPECT_GT(outcome->commands, 0);
  EXPECT_GE(deployment->svc->executed(), 1u);

  // The cross-wire identity landed on the request context: the platform
  // correlates its span tree with the remote sender's request id.
  auto context = deployment->platform->last_async_context();
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->remote_id(), "client#1");
  EXPECT_EQ(context->attribute("ingress.session"), "s1");

  const obs::MetricsSnapshot server =
      deployment->platform->metrics().snapshot();
  EXPECT_EQ(cell_value(server, "ingress.received"), 1u);
  EXPECT_EQ(cell_value(server, "ingress.accepted"), 1u);
  EXPECT_EQ(cell_value(server, "ingress.completed_ok"), 1u);
  EXPECT_EQ(cell_value(server, "ingress.replies"), 1u);
  EXPECT_EQ(cell_value(deployment->client->metrics(), "client.resolved_ok"),
            1u);
  deployment->shutdown();
}

TEST(IngressE2E, WrongDsmlAndUnknownQueryAreTypedRefusals) {
  auto deployment = make_split_deployment();
  ASSERT_NE(deployment, nullptr);

  std::optional<ingress::RemoteOutcome> wrong_dsml;
  ASSERT_TRUE(deployment->client
                  ->submit("otherlang", "s1", "model x conforms otherlang\n",
                           [&](const ingress::RemoteOutcome& r) {
                             wrong_dsml = r;
                           })
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return wrong_dsml.has_value(); }));
  EXPECT_EQ(wrong_dsml->status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(wrong_dsml->refusal, "wrong-dsml");

  std::optional<ingress::RemoteOutcome> unknown;
  ASSERT_TRUE(deployment->client
                  ->query("bogus",
                          [&](const ingress::RemoteOutcome& r) { unknown = r; })
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return unknown.has_value(); }));
  EXPECT_EQ(unknown->status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(unknown->refusal, "no-route");
  deployment->shutdown();
}

TEST(IngressE2E, MalformedAndUnroutedMessagesAreRefusedNotDropped) {
  auto deployment = make_split_deployment();
  ASSERT_NE(deployment, nullptr);

  auto raw = deployment->network->create_endpoint("raw");
  ASSERT_TRUE(raw.ok());
  std::vector<ingress::wire::Reply> replies;
  raw.value()->set_handler([&](const net::Message& message) {
    auto reply = ingress::wire::decode_reply(message.payload);
    ASSERT_TRUE(reply.ok());
    replies.push_back(reply.value());
  });

  // Garbage payload on a valid submit topic → "malformed".
  raw.value()->send(deployment->server->endpoint_name(),
                    "submit/testlang/s1", model::Value("garbage"));
  // Valid payload on a topic no route matches → "no-route", with the
  // request id recovered best-effort for correlation.
  ingress::wire::Request request;
  request.request_id = 99;
  raw.value()->send(deployment->server->endpoint_name(), "weird/topic",
                    ingress::wire::encode_request(request));
  ASSERT_TRUE(deployment->drive_until([&] { return replies.size() == 2; }));

  EXPECT_EQ(replies[0].refusal, "malformed");
  EXPECT_EQ(replies[0].code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(replies[1].refusal, "no-route");
  EXPECT_EQ(replies[1].request_id, 99u);

  const obs::MetricsSnapshot server =
      deployment->platform->metrics().snapshot();
  EXPECT_EQ(cell_value(server, "ingress.malformed"), 1u);
  EXPECT_EQ(cell_value(server, "ingress.unrouted"), 1u);
  deployment->shutdown();
}

TEST(IngressE2E, AuthTokenFromModelGatesSubmissions) {
  auto deployment = make_split_deployment("ingress_auth = \"sesame\"");
  ASSERT_NE(deployment, nullptr);
  // The client is attached without a token: refused.
  std::optional<ingress::RemoteOutcome> denied;
  ASSERT_TRUE(deployment->client
                  ->submit("testlang", "s1", soak::open_session_text("s1"),
                           [&](const ingress::RemoteOutcome& r) { denied = r; })
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return denied.has_value(); }));
  EXPECT_EQ(denied->status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(denied->refusal, "unauthenticated");

  // A second client carrying the model's token gets through.
  ingress::IngressClientOptions options;
  options.endpoint = "trusted";
  options.auth = "sesame";
  auto trusted = ingress::IngressClient::attach(
      *deployment->network, deployment->server->endpoint_name(), options);
  ASSERT_TRUE(trusted.ok());
  std::optional<ingress::RemoteOutcome> accepted;
  ASSERT_TRUE(trusted.value()
                  ->submit("testlang", "s2", soak::open_session_text("s2"),
                           [&](const ingress::RemoteOutcome& r) {
                             accepted = r;
                           })
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return accepted.has_value(); }));
  EXPECT_TRUE(accepted->status.ok()) << accepted->status.to_string();
  trusted.value().reset();
  deployment->shutdown();
}

TEST(IngressE2E, QueryReturnsRuntimeModelAndMetrics) {
  auto deployment = make_split_deployment();
  ASSERT_NE(deployment, nullptr);

  std::optional<ingress::RemoteOutcome> submitted;
  ASSERT_TRUE(deployment->client
                  ->submit("testlang", "s1", soak::open_session_text("s1"),
                           [&](const ingress::RemoteOutcome& r) {
                             submitted = r;
                           })
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return submitted.has_value(); }));

  auto query = [&](std::string_view what) {
    std::optional<ingress::RemoteOutcome> outcome;
    EXPECT_TRUE(deployment->client
                    ->query(what,
                            [&](const ingress::RemoteOutcome& r) {
                              outcome = r;
                            })
                    .ok());
    EXPECT_TRUE(deployment->drive_until([&] { return outcome.has_value(); }));
    return outcome.value_or(ingress::RemoteOutcome{});
  };
  // The session the submit created is visible in its own round-tripped
  // runtime model...
  const ingress::RemoteOutcome session_model = query("runtime-model/s1");
  EXPECT_TRUE(session_model.status.ok());
  EXPECT_NE(session_model.payload.find("s1"), std::string::npos);
  // ...and not in the default session's, which the unnamed query reads.
  const ingress::RemoteOutcome default_model = query("runtime-model");
  EXPECT_TRUE(default_model.status.ok());
  EXPECT_EQ(default_model.payload.find("s1"), std::string::npos);

  std::optional<ingress::RemoteOutcome> metrics;
  ASSERT_TRUE(deployment->client
                  ->query("metrics",
                          [&](const ingress::RemoteOutcome& r) { metrics = r; })
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return metrics.has_value(); }));
  EXPECT_TRUE(metrics->status.ok());
  EXPECT_NE(metrics->payload.find("ingress.received"), std::string::npos);
  // s1 is open, so it is the one live session.
  EXPECT_NE(metrics->payload.find("synthesis.sessions_live 1\n"),
            std::string::npos);
  EXPECT_NE(metrics->payload.find("synthesis.sessions_released 0\n"),
            std::string::npos);
  deployment->shutdown();
}

// Satellite 4: the overload contract crosses the wire. 10x the pipeline's
// capacity is thrown at a tightly bounded platform; every submission
// resolves exactly once at the client — success or typed refusal — and
// the door refusals surface as "overload".
TEST(IngressE2E, OverloadRefusalsPropagateAsTypedRepliesUnderLoad) {
  auto deployment = make_split_deployment(
      "queue_capacity = 2\n  overflow_policy = reject",
      /*pipeline_threads=*/1);
  ASSERT_NE(deployment, nullptr);

  Ledger ledger;
  constexpr int kSubmissions = 100;
  for (int i = 0; i < kSubmissions; ++i) {
    auto submitted = deployment->client->submit(
        "testlang", numbered("s", i),
        soak::open_session_text(numbered("s", i)), ledger.recorder());
    ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
  }

  ASSERT_TRUE(
      deployment->drive_until([&] { return ledger.total() == kSubmissions; }));

  // Exactly-once: every request id fired its callback exactly one time.
  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.fired.size(), static_cast<std::size_t>(kSubmissions));
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
    // The bounded queue + single worker cannot swallow 100 instant
    // arrivals: some were refused at the door, some completed.
    EXPECT_GT(ledger.refusals["overload"], 0);
    EXPECT_GT(ledger.refusals[""], 0);
  }

  const obs::MetricsSnapshot server =
      deployment->platform->metrics().snapshot();
  const std::uint64_t refused = cell_value(server, "ingress.refused");
  EXPECT_EQ(cell_value(server, "ingress.received"),
            static_cast<std::uint64_t>(kSubmissions));
  EXPECT_EQ(cell_value(server, "ingress.accepted") + refused,
            static_cast<std::uint64_t>(kSubmissions));
  EXPECT_GT(refused, 0u);
  const obs::MetricsSnapshot client =
      deployment->client->metrics().snapshot();
  EXPECT_EQ(cell_value(client, "client.resolved_ok") +
                cell_value(client, "client.refused"),
            static_cast<std::uint64_t>(kSubmissions));
  EXPECT_EQ(server.counter_value("ingress.refused.overload"), refused);
  deployment->shutdown();
}

// Satellite 4, lossy half: with drop_rate > 0 requests and replies
// vanish, and the client's expiry ledger turns every loss into a
// "reply-lost" outcome — still exactly once per submission.
TEST(IngressE2E, LostRepliesExpireExactlyOnceUnderDropRate) {
  net::NetworkConfig lossy = quiet_network();
  lossy.drop_rate = 0.3;
  lossy.seed = 17;
  ingress::IngressClientOptions client_options;
  client_options.reply_timeout = std::chrono::seconds(1);
  auto deployment = make_split_deployment("", /*pipeline_threads=*/2, lossy,
                                          client_options);
  ASSERT_NE(deployment, nullptr);

  Ledger ledger;
  constexpr int kSubmissions = 60;
  for (int i = 0; i < kSubmissions; ++i) {
    ASSERT_TRUE(deployment->client
                    ->submit("testlang", numbered("s", i),
                             soak::open_session_text(numbered("s", i)),
                             ledger.recorder())
                    .ok());
  }

  // Drain everything the network did deliver: the pipeline settles when
  // each accepted submission has completed, then the replies flush.
  ASSERT_TRUE(deployment->drive_until([&] {
    const obs::MetricsSnapshot server =
        deployment->platform->metrics().snapshot();
    return cell_value(server, "ingress.accepted") ==
               cell_value(server, "ingress.completed_ok") +
                   cell_value(server, "ingress.completed_error") &&
           deployment->server->pump() == 0 &&
           deployment->network->pending() == 0;
  }));

  // Whatever is still unresolved at the client was lost on the wire.
  deployment->clock.advance(std::chrono::seconds(5));
  deployment->client->expire_overdue();

  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.fired.size(), static_cast<std::size_t>(kSubmissions));
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
    // With p=0.3 over ~120 crossings, losses are a statistical
    // certainty; each shows up as the typed "reply-lost" outcome.
    EXPECT_GT(ledger.refusals["reply-lost"], 0);
  }
  const obs::MetricsSnapshot client =
      deployment->client->metrics().snapshot();
  const std::uint64_t expired = cell_value(client, "client.expired");
  EXPECT_EQ(cell_value(client, "client.resolved_ok") +
                cell_value(client, "client.refused") + expired,
            static_cast<std::uint64_t>(kSubmissions));
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(deployment->client->pending(), 0u);
  deployment->shutdown();
}

// ---- model-driven ingress configuration -----------------------------------

TEST(IngressConfig, SettingsDecodedFromMiddlewareModel) {
  auto deployment = make_split_deployment(
      "ingress_endpoint = \"front-door\"\n"
      "  ingress_auth = \"token\"\n"
      "  ingress_default_deadline_us = 250000");
  ASSERT_NE(deployment, nullptr);
  const core::IngressSettings& settings =
      deployment->platform->ingress_settings();
  EXPECT_EQ(settings.endpoint, "front-door");
  EXPECT_EQ(settings.auth_token, "token");
  EXPECT_EQ(settings.default_deadline, std::chrono::microseconds(250000));
  // The server picked the model-configured endpoint name up.
  EXPECT_EQ(deployment->server->endpoint_name(), "front-door");
  deployment->shutdown();
}

TEST(IngressConfig, EndpointNameDerivedFromPlatformName) {
  auto deployment = make_split_deployment();
  ASSERT_NE(deployment, nullptr);
  EXPECT_EQ(deployment->server->endpoint_name(), "soak-platform.ingress");
  deployment->shutdown();
}

// ---- wire schema versioning (PR 8) ----------------------------------------

/// Rewrite the payload's wire_version stamp in place (encode always
/// emits one); returns false if no stamp was found.
bool stamp_version(model::Value& payload, model::Value stamp) {
  for (model::Value& field : payload.as_list()) {
    if (!field.is_list() || field.as_list().size() != 2) continue;
    if (field.as_list()[0].is_string() &&
        field.as_list()[0].as_string() == "wire_version") {
      field.as_list()[1] = std::move(stamp);
      return true;
    }
  }
  return false;
}

TEST(Wire, VersionStampGatesForeignMajorsOnly) {
  ingress::wire::Request request;
  request.request_id = 1;
  request.text = "model m conforms testlang\n";

  // A foreign major is refused, and typed as a version mismatch.
  model::Value foreign = ingress::wire::encode_request(request);
  ASSERT_TRUE(stamp_version(
      foreign, model::Value(model::ValueList{
                   model::Value(std::int64_t{ingress::wire::kWireMajor + 1}),
                   model::Value(std::int64_t{0})})));
  auto refused = ingress::wire::decode_request(foreign);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(ingress::wire::is_version_mismatch(refused.status()));
  EXPECT_FALSE(ingress::wire::is_version_mismatch(InvalidArgument("other")));

  // A newer minor of our major is within-major compatible.
  model::Value newer_minor = ingress::wire::encode_request(request);
  ASSERT_TRUE(stamp_version(
      newer_minor,
      model::Value(model::ValueList{
          model::Value(std::int64_t{ingress::wire::kWireMajor}),
          model::Value(std::int64_t{ingress::wire::kWireMinor + 7})})));
  EXPECT_TRUE(ingress::wire::decode_request(newer_minor).ok());

  // An absent stamp is a pre-versioning peer: accepted as major 1.
  model::Value bare = ingress::wire::encode_request(request);
  model::ValueList& fields = bare.as_list();
  std::erase_if(fields, [](const model::Value& field) {
    return field.is_list() && field.as_list().size() == 2 &&
           field.as_list()[0].is_string() &&
           field.as_list()[0].as_string() == "wire_version";
  });
  EXPECT_TRUE(ingress::wire::decode_request(bare).ok());

  // An unreadable stamp is malformed, not a version mismatch.
  model::Value garbled = ingress::wire::encode_request(request);
  ASSERT_TRUE(stamp_version(garbled, model::Value("one.two")));
  auto malformed = ingress::wire::decode_request(garbled);
  ASSERT_FALSE(malformed.ok());
  EXPECT_FALSE(ingress::wire::is_version_mismatch(malformed.status()));

  // Replies run through the same gate.
  ingress::wire::Reply reply;
  reply.request_id = 1;
  model::Value reply_payload = ingress::wire::encode_reply(reply);
  ASSERT_TRUE(stamp_version(
      reply_payload, model::Value(model::ValueList{
                         model::Value(std::int64_t{99}),
                         model::Value(std::int64_t{0})})));
  auto reply_refused = ingress::wire::decode_reply(reply_payload);
  ASSERT_FALSE(reply_refused.ok());
  EXPECT_TRUE(ingress::wire::is_version_mismatch(reply_refused.status()));
}

/// Property test: any Value tree survives the wire verbatim as a
/// request body, whatever its shape — the codec round-trips structure
/// it has no schema for.
TEST(Wire, RandomValueTreeBodiesRoundTrip) {
  std::mt19937 rng(20260808);
  std::function<model::Value(int)> make_tree = [&](int depth) -> model::Value {
    std::uniform_int_distribution<int> kind(0, depth > 0 ? 5 : 4);
    switch (kind(rng)) {
      case 0:
        return model::Value();
      case 1:
        return model::Value(rng() % 2 == 0);
      case 2:
        return model::Value(static_cast<std::int64_t>(rng()) -
                            static_cast<std::int64_t>(rng()));
      case 3:
        return model::Value(static_cast<double>(rng() % 10000) / 16.0);
      case 4:
        return model::Value("s" + std::to_string(rng() % 100000));
      default: {
        std::uniform_int_distribution<int> width(0, 4);
        model::ValueList children;
        const int n = width(rng);
        children.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) children.push_back(make_tree(depth - 1));
        return model::Value(std::move(children));
      }
    }
  };

  for (int round = 0; round < 100; ++round) {
    ingress::wire::Request request;
    request.request_id = static_cast<std::uint64_t>(round) + 1;
    request.text = "payload";
    request.body = make_tree(4);
    auto decoded =
        ingress::wire::decode_request(ingress::wire::encode_request(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().body, request.body) << "round " << round;
    EXPECT_EQ(decoded.value().request_id, request.request_id);
  }
}

TEST(Wire, ForwardedForRidesTheWire) {
  ingress::wire::Request request;
  request.request_id = 9;
  request.text = "t";
  request.forwarded_for = "edge-client#41";
  auto decoded =
      ingress::wire::decode_request(ingress::wire::encode_request(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().forwarded_for, "edge-client#41");
}

// ---- router specificity edge cases ----------------------------------------

TEST(Router, LiteralCountTiesKeepEarliestRegistration) {
  ingress::Router router;
  std::string hit;
  auto handler = [&hit](std::string name) {
    return [&hit, name](const net::Message&, const ingress::RouteParams&) {
      hit = name;
    };
  };
  // Both match "a/b/c" with two literals; the first added must win.
  ASSERT_TRUE(router.add("a/{x}/c", handler("first")).ok());
  ASSERT_TRUE(router.add("a/b/{y}", handler("second")).ok());
  auto tie = router.route("a/b/c");
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(tie->pattern, "a/{x}/c");
  EXPECT_EQ(tie->params.get("x"), "b");

  // A fully literal pattern outranks both, regardless of order.
  ASSERT_TRUE(router.add("a/b/c", handler("exact")).ok());
  auto exact = router.route("a/b/c");
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->pattern, "a/b/c");
  EXPECT_TRUE(exact->params.get("x").empty());

  // The capture routes still serve their own topics.
  EXPECT_EQ(router.route("a/q/c")->pattern, "a/{x}/c");
  EXPECT_EQ(router.route("a/b/q")->pattern, "a/b/{y}");
}

TEST(Router, TrailingSlashIsADistinctUnmatchedTopic) {
  ingress::Router router;
  auto noop = [](const net::Message&, const ingress::RouteParams&) {};
  ASSERT_TRUE(router.add("a/b", noop).ok());
  ASSERT_TRUE(router.add("a/b/{y}", noop).ok());
  // "a/b/" splits into three segments with an empty tail: too long for
  // the literal route, an unbindable capture for the other.
  EXPECT_FALSE(router.route("a/b/").has_value());
  EXPECT_TRUE(router.route("a/b").has_value());
}

TEST(Router, AdjacentCapturesBindIndependently) {
  ingress::Router router;
  ingress::RouteParams seen;
  ASSERT_TRUE(router
                  .add("x/{p}/{q}",
                       [](const net::Message&, const ingress::RouteParams&) {})
                  .ok());
  auto match = router.route("x/1/2");
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->params.get("p"), "1");
  EXPECT_EQ(match->params.get("q"), "2");
  EXPECT_FALSE(router.route("x/1").has_value());
  EXPECT_FALSE(router.route("x/1/2/3").has_value());
}

// ---- per-client rate limiting (PR 8) ---------------------------------------

TEST(RateLimiter, TokenBucketRefillsPerClient) {
  ingress::RateLimiter limiter(2.0, 2.0);
  const TimePoint t0{};
  // A fresh client starts with a full burst...
  EXPECT_TRUE(limiter.admit("alice", t0));
  EXPECT_TRUE(limiter.admit("alice", t0));
  // ...and is refused once it is spent.
  EXPECT_FALSE(limiter.admit("alice", t0));
  // Buckets are per client: bob is unaffected by alice's burst.
  EXPECT_TRUE(limiter.admit("bob", t0));
  EXPECT_EQ(limiter.clients(), 2u);

  // 500ms at 2 tokens/s refills one token — exactly one more admit.
  const TimePoint t1 = t0 + std::chrono::milliseconds(500);
  EXPECT_TRUE(limiter.admit("alice", t1));
  EXPECT_FALSE(limiter.admit("alice", t1));

  // Refill caps at the burst: a long idle spell is not a credit line.
  const TimePoint t2 = t1 + std::chrono::hours(1);
  EXPECT_TRUE(limiter.admit("alice", t2));
  EXPECT_TRUE(limiter.admit("alice", t2));
  EXPECT_FALSE(limiter.admit("alice", t2));
}

TEST(IngressE2E, ModelDrivenRateLimitRefusesTheBurstOverflow) {
  auto deployment = make_split_deployment(
      "ingress_rate_limit = 1.0\n"
      "  ingress_rate_burst = 2.0");
  ASSERT_NE(deployment, nullptr);
  EXPECT_EQ(deployment->platform->ingress_settings().rate_limit, 1.0);
  EXPECT_EQ(deployment->platform->ingress_settings().rate_burst, 2.0);

  Ledger ledger;
  for (int i = 0; i < 4; ++i) {
    const std::string session = numbered("rl", i);
    ASSERT_TRUE(deployment->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             ledger.recorder())
                    .ok());
  }
  ASSERT_TRUE(deployment->drive_until([&] { return ledger.total() == 4; }));
  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], 2);
    EXPECT_EQ(ledger.refusals["rate-limited"], 2);
  }

  // Tokens accrue on the network clock: after 3 virtual seconds the
  // same client is welcome again.
  deployment->clock.advance(std::chrono::seconds(3));
  ASSERT_TRUE(deployment->client
                  ->submit("testlang", "rl9", soak::open_session_text("rl9"),
                           ledger.recorder())
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return ledger.total() == 5; }));
  {
    std::lock_guard lock(ledger.mutex);
    EXPECT_EQ(ledger.refusals[""], 3);
    EXPECT_EQ(ledger.refusals["rate-limited"], 2);
  }
  deployment->shutdown();
}

// ---- wire versioning over the wire -----------------------------------------

TEST(IngressE2E, ForeignMajorIsRefusedWithBadVersionSlug) {
  auto deployment = make_split_deployment();
  ASSERT_NE(deployment, nullptr);

  std::mutex mutex;
  std::vector<ingress::wire::Reply> replies;
  auto probe = deployment->network->create_endpoint("probe");
  ASSERT_TRUE(probe.ok());
  probe.value()->set_handler([&](const net::Message& message) {
    auto reply = ingress::wire::decode_reply(message.payload);
    if (reply.ok()) {
      std::lock_guard lock(mutex);
      replies.push_back(std::move(reply.value()));
    }
  });

  ingress::wire::Request request;
  request.request_id = 5;
  request.text = soak::open_session_text("v1");
  model::Value payload = ingress::wire::encode_request(request);
  ASSERT_TRUE(stamp_version(
      payload,
      model::Value(model::ValueList{model::Value(std::int64_t{2}),
                                    model::Value(std::int64_t{0})})));
  ASSERT_TRUE(probe.value()
                  ->send(deployment->server->endpoint_name(),
                         "submit/testlang/v1", std::move(payload))
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] {
    std::lock_guard lock(mutex);
    return !replies.empty();
  }));
  {
    std::lock_guard lock(mutex);
    EXPECT_EQ(replies[0].refusal, "bad-version");
    EXPECT_EQ(replies[0].code, ErrorCode::kInvalidArgument);
  }
  // The mismatched speaker consumed no platform work.
  EXPECT_EQ(deployment->svc->executed(), 0u);
  deployment->shutdown();
}

// ---- dedup ledger + retry budget (PR 8) ------------------------------------

// Satellite 3, deterministic half: replaying a completed request id is
// answered from the server's outcome ledger — same reply, no second
// execution.
TEST(IngressE2E, DuplicateSubmitIsServedFromTheLedgerNotReExecuted) {
  auto deployment = make_split_deployment();
  ASSERT_NE(deployment, nullptr);

  std::mutex mutex;
  std::vector<ingress::wire::Reply> replies;
  auto probe = deployment->network->create_endpoint("probe");
  ASSERT_TRUE(probe.ok());
  probe.value()->set_handler([&](const net::Message& message) {
    auto reply = ingress::wire::decode_reply(message.payload);
    if (reply.ok()) {
      std::lock_guard lock(mutex);
      replies.push_back(std::move(reply.value()));
    }
  });

  ingress::wire::Request request;
  request.request_id = 77;
  request.text = soak::open_session_text("dup1");
  const model::Value payload = ingress::wire::encode_request(request);

  ASSERT_TRUE(probe.value()
                  ->send(deployment->server->endpoint_name(),
                         "submit/testlang/dup1", payload)
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] {
    std::lock_guard lock(mutex);
    return replies.size() == 1;
  }));
  const std::uint64_t executed_once = deployment->svc->executed();
  EXPECT_EQ(executed_once, 2u);  // create + open ran exactly once

  // The retry (same id, same payload) is answered without re-execution.
  ASSERT_TRUE(probe.value()
                  ->send(deployment->server->endpoint_name(),
                         "submit/testlang/dup1", payload)
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] {
    std::lock_guard lock(mutex);
    return replies.size() == 2;
  }));
  EXPECT_EQ(deployment->svc->executed(), executed_once);
  {
    std::lock_guard lock(mutex);
    EXPECT_EQ(replies[1].request_id, 77u);
    EXPECT_EQ(replies[1].code, replies[0].code);
    EXPECT_EQ(replies[1].commands, replies[0].commands);
  }
  EXPECT_EQ(cell_value(deployment->platform->metrics(), "ingress.deduped"),
            1u);
  deployment->shutdown();
}

// Satellite 3, lossy half: a client with a retry budget re-sends overdue
// requests under the same id; the dedup ledger keeps the replays
// idempotent, so losses heal instead of surfacing as reply-lost — and
// still exactly one callback per submission.
TEST(IngressE2E, RetryBudgetHealsLossesWithoutDoubleExecution) {
  net::NetworkConfig lossy = quiet_network();
  lossy.drop_rate = 0.3;
  lossy.seed = 17;
  ingress::IngressClientOptions client_options;
  client_options.reply_timeout = std::chrono::seconds(1);
  client_options.retry_budget = 3;
  auto deployment = make_split_deployment("", /*pipeline_threads=*/2, lossy,
                                          client_options);
  ASSERT_NE(deployment, nullptr);

  Ledger ledger;
  constexpr int kSubmissions = 60;
  for (int i = 0; i < kSubmissions; ++i) {
    const std::string session = numbered("r", i);
    ASSERT_TRUE(deployment->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             ledger.recorder())
                    .ok());
  }
  // Drive with virtual time moving so reply timeouts fire retries.
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < wall_deadline &&
         ledger.total() < kSubmissions) {
    deployment->network->run_until_idle();
    deployment->server->pump();
    deployment->network->run_until_idle();
    deployment->clock.advance(std::chrono::milliseconds(250));
    deployment->client->expire_overdue();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  {
    std::lock_guard lock(ledger.mutex);
    ASSERT_EQ(ledger.fired.size(), static_cast<std::size_t>(kSubmissions));
    for (const auto& [id, count] : ledger.fired) {
      EXPECT_EQ(count, 1) << "request " << id;
    }
    // With up to 4 attempts per request, nearly everything heals: the
    // all-attempts-lost probability is well under 10%.
    EXPECT_GE(ledger.refusals[""], kSubmissions * 3 / 4);
  }
  EXPECT_GT(cell_value(deployment->client->metrics(), "client.retried"), 0u);
  // The dedup ledger absorbed replays of already-executed requests: the
  // adapter never ran a session twice.
  EXPECT_LE(deployment->svc->executed(),
            static_cast<std::uint64_t>(2 * kSubmissions));
  EXPECT_GT(cell_value(deployment->platform->metrics(), "ingress.deduped"),
            0u);
  deployment->shutdown();
}

// PR 10 bugfix regression: the dedup ledger's capacity bound applies to
// COMPLETED entries only. Under the old size-based eviction, a storm of
// fresh traffic could push an IN-FLIGHT entry out of the ledger; the
// sender's retry then looked fresh and the request executed twice. Here
// a parked request outlives a flood 2x the ledger's capacity, its retry
// is absorbed (not re-executed), and after release the original
// completes with exactly one reply.
TEST(IngressE2E, InFlightDedupEntrySurvivesCapacityPressure) {
  auto gate_owner = std::make_unique<GateAdapter>();
  GateAdapter* gate = gate_owner.get();
  ingress::IngressServerOptions server_options;
  server_options.ledger_capacity = 2;
  auto deployment = make_split_deployment(
      "", /*pipeline_threads=*/3, quiet_network(), {}, server_options,
      std::move(gate_owner));
  ASSERT_NE(deployment, nullptr);

  std::mutex mutex;
  std::vector<ingress::wire::Reply> replies;
  auto probe = deployment->network->create_endpoint("probe");
  ASSERT_TRUE(probe.ok());
  probe.value()->set_handler([&](const net::Message& message) {
    auto reply = ingress::wire::decode_reply(message.payload);
    if (reply.ok()) {
      std::lock_guard lock(mutex);
      replies.push_back(std::move(reply.value()));
    }
  });
  ingress::wire::Request request;
  request.request_id = 77;
  request.text = soak::open_session_text("pin");
  const model::Value payload = ingress::wire::encode_request(request);

  // Park the pinned request inside its FIRST adapter execution.
  gate->hold_next(1);
  ASSERT_TRUE(probe.value()
                  ->send(deployment->server->endpoint_name(),
                         "submit/testlang/pin", payload)
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] { return gate->executed() >= 1; }));

  // Flood twice the ledger capacity in completed traffic on the other
  // pipeline workers.
  Ledger ledger;
  constexpr int kFlood = 4;
  for (int i = 0; i < kFlood; ++i) {
    const std::string session = numbered("flood", i);
    ASSERT_TRUE(deployment->client
                    ->submit("testlang", session,
                             soak::open_session_text(session),
                             ledger.recorder())
                    .ok());
  }
  ASSERT_TRUE(deployment->drive_until([&] { return ledger.total() == kFlood; }));
  EXPECT_EQ(gate->executed(), 1u + 2u * kFlood);  // pin still parked

  // The retry of the parked request must be ABSORBED by its pinned
  // in-flight entry — were it evicted, this send would execute the
  // session a second time.
  ASSERT_TRUE(probe.value()
                  ->send(deployment->server->endpoint_name(),
                         "submit/testlang/pin", payload)
                  .ok());
  ASSERT_TRUE(deployment->drive_until(
      [&] {
        return cell_value(deployment->platform->metrics(),
                          "ingress.deduped") >= 1;
      }));
  {
    std::lock_guard lock(mutex);
    EXPECT_TRUE(replies.empty()) << "absorbed retry must not reply early";
  }
  EXPECT_EQ(gate->executed(), 1u + 2u * kFlood);

  // Release: the original completes, exactly one reply reaches the
  // probe, and a THIRD send replays from the now-completed entry.
  gate->release();
  ASSERT_TRUE(deployment->drive_until([&] {
    std::lock_guard lock(mutex);
    return replies.size() == 1;
  }));
  EXPECT_EQ(gate->executed(), 2u + 2u * kFlood);
  ASSERT_TRUE(probe.value()
                  ->send(deployment->server->endpoint_name(),
                         "submit/testlang/pin", payload)
                  .ok());
  ASSERT_TRUE(deployment->drive_until([&] {
    std::lock_guard lock(mutex);
    return replies.size() == 2;
  }));
  {
    std::lock_guard lock(mutex);
    EXPECT_EQ(replies[0].code, ErrorCode::kOk);
    EXPECT_EQ(replies[1].code, replies[0].code);
    EXPECT_EQ(replies[1].commands, replies[0].commands);
  }
  EXPECT_EQ(gate->executed(), 2u + 2u * kFlood);  // never re-executed
  const obs::MetricsSnapshot server =
      deployment->platform->metrics().snapshot();
  EXPECT_EQ(cell_value(server, "ingress.accepted"), 1u + kFlood);
  EXPECT_EQ(cell_value(server, "ingress.deduped"), 2u);
  deployment->shutdown();
}

// PR 10 satellite: the model-driven dedup TTL (ingress_dedup_ttl_us).
// Within the TTL a replay is answered from the ledger; once the network
// clock moves past it the entry is lazily dropped and the retry is
// re-admitted as fresh — bounded memory traded against a documented
// at-least-once window for very late retries.
TEST(IngressE2E, DedupLedgerExpiresCompletedEntriesByTtl) {
  auto deployment = make_split_deployment("ingress_dedup_ttl_us = 1000000");
  ASSERT_NE(deployment, nullptr);

  std::mutex mutex;
  std::vector<ingress::wire::Reply> replies;
  auto probe = deployment->network->create_endpoint("probe");
  ASSERT_TRUE(probe.ok());
  probe.value()->set_handler([&](const net::Message& message) {
    auto reply = ingress::wire::decode_reply(message.payload);
    if (reply.ok()) {
      std::lock_guard lock(mutex);
      replies.push_back(std::move(reply.value()));
    }
  });
  ingress::wire::Request request;
  request.request_id = 88;
  request.text = soak::open_session_text("ttl1");
  const model::Value payload = ingress::wire::encode_request(request);
  auto resend = [&] {
    ASSERT_TRUE(probe.value()
                    ->send(deployment->server->endpoint_name(),
                           "submit/testlang/ttl1", payload)
                    .ok());
  };
  auto replies_seen = [&] {
    std::lock_guard lock(mutex);
    return replies.size();
  };

  resend();
  ASSERT_TRUE(deployment->drive_until([&] { return replies_seen() == 1; }));
  EXPECT_EQ(deployment->svc->executed(), 2u);

  // Within the TTL: a ledger replay, not an execution.
  resend();
  ASSERT_TRUE(deployment->drive_until([&] { return replies_seen() == 2; }));
  const obs::MetricsSnapshot within_ttl =
      deployment->platform->metrics().snapshot();
  EXPECT_EQ(cell_value(within_ttl, "ingress.deduped"), 1u);
  EXPECT_EQ(cell_value(within_ttl, "ingress.accepted"), 1u);
  EXPECT_EQ(deployment->svc->executed(), 2u);

  // Past the TTL (the dedup clock is the NETWORK's): the entry expires
  // lazily on lookup and the retry re-enters the pipeline as fresh.
  // (The session already exists in the runtime model, so the re-run's
  // diff is empty — re-admission shows up in `accepted`, not in adapter
  // executions.)
  deployment->clock.advance(std::chrono::seconds(2));
  resend();
  ASSERT_TRUE(deployment->drive_until([&] { return replies_seen() == 3; }));
  const obs::MetricsSnapshot past_ttl =
      deployment->platform->metrics().snapshot();
  EXPECT_EQ(cell_value(past_ttl, "ingress.dedup_expired"), 1u);
  EXPECT_EQ(cell_value(past_ttl, "ingress.accepted"), 2u);
  EXPECT_EQ(cell_value(past_ttl, "ingress.deduped"), 1u);
  {
    std::lock_guard lock(mutex);
    EXPECT_EQ(replies[2].code, ErrorCode::kOk);
  }
  deployment->shutdown();
}

}  // namespace
}  // namespace mdsm
