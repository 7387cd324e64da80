// Reusable multi-threaded soak fixture: a complete session platform over
// the shared "testlang" DSML whose single resource adapter is wrapped in
// a fault-injecting ChaosAdapter. test_soak.cpp hammers it from many
// threads; the fixture keeps the model text, the adapter wiring and the
// per-submission command arithmetic in one place so future soaks (other
// domains, remote deployments) can reuse them.
//
// Command arithmetic per submitted model (one fresh Session object):
//   1 synthesized command ("session.create")
//   → Case-2 IM: broker-call svc.create, then call-dep media.path
//     → broker-call svc.open
//   → 1–2 resource invocations (the second is skipped when chaos makes
//     the first one fail or throw).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "broker/chaos_adapter.hpp"
#include "core/platform.hpp"
#include "model_fixtures.hpp"

namespace mdsm::soak {

/// The soak platform's middleware model: one resource ("svc"), one
/// broker action per lifecycle command, Case-2 procedures for session
/// establishment, a Case-1 action for session close, and an LTS mapping
/// application-model changes to those commands.
constexpr std::string_view kSoakMiddlewareModel = R"mw(
model soak_platform conforms mdsm

object MiddlewarePlatform mw {
  name = "soak-platform"
  domain = "testing"
  child ui UiLayerSpec ui1 { dsml = "testlang" }

  child broker BrokerLayerSpec b1 {
    child actions ActionSpec act-create {
      name = "bk-create"
      child steps StepSpec s1 {
        op = invoke
        a = "svc"
        b = "create"
        child args ArgSpec a1 { key = "id" value = "$id" }
      }
    }
    child actions ActionSpec act-open {
      name = "bk-open"
      child steps StepSpec s2 {
        op = invoke
        a = "svc"
        b = "open"
        child args ArgSpec a2 { key = "id" value = "$id" }
      }
    }
    child actions ActionSpec act-close {
      name = "bk-close"
      child steps StepSpec s3 {
        op = invoke
        a = "svc"
        b = "close"
        child args ArgSpec a3 { key = "id" value = "$id" }
      }
    }
    child handlers HandlerSpec h1 { signal = "svc.create" actions -> act-create }
    child handlers HandlerSpec h2 { signal = "svc.open" actions -> act-open }
    child handlers HandlerSpec h3 { signal = "svc.close" actions -> act-close }
    child resources ResourceSpec r1 { name = "svc" }
  }

  child controller ControllerLayerSpec c1 {
    child dscs DscSpec d1 { name = "session.establish" category = "session" }
    child dscs DscSpec d2 { name = "media.path" category = "media" }
    child procedures ProcedureSpec pr1 {
      name = "establish-std"
      classifier = "session.establish"
      dependencies = ["media.path"]
      child units EuSpec eu1 {
        child steps StepSpec t1 {
          op = broker-call
          a = "svc.create"
          child args ArgSpec b1a { key = "id" value = "$id" }
        }
        child steps StepSpec t2 { op = call-dep a = "media.path" }
      }
    }
    child procedures ProcedureSpec pr2 {
      name = "path-direct"
      classifier = "media.path"
      cost = 1.0
      child units EuSpec eu2 {
        child steps StepSpec t3 {
          op = broker-call
          a = "svc.open"
          child args ArgSpec b2a { key = "id" value = "$id" }
        }
      }
    }
    child actions ActionSpec ca1 {
      name = "ctl-close"
      child steps StepSpec t4 {
        op = broker-call
        a = "svc.close"
        child args ArgSpec c1a { key = "id" value = "$id" }
      }
    }
    child bindings BindingSpec bind1 { command = "session.close" actions -> ca1 }
    child mappings CommandMappingSpec m1 {
      command = "session.create"
      dsc = "session.establish"
    }
  }

  child synthesis SynthesisLayerSpec syn1 {
    initial_state = "initial"
    child transitions TransitionSpec tr1 {
      from = "initial"
      to = "live"
      kind = add-object
      class = "Session"
      child commands CommandTemplateSpec ct1 {
        name = "session.create"
        child args ArgSpec sa1 { key = "id" value = "%id" }
      }
    }
    child transitions TransitionSpec tr2 {
      from = "live"
      to = "done"
      kind = set-attribute
      class = "Session"
      feature = "state"
      value = "closed"
      vtype = string
      child commands CommandTemplateSpec ct2 {
        name = "session.close"
        child args ArgSpec sa2 { key = "id" value = "%id" }
      }
    }
  }
}
)mw";

/// The wrapped "underlying resource": counts executions, nothing else.
class CountingAdapter final : public broker::ResourceAdapter {
 public:
  explicit CountingAdapter(std::string name)
      : ResourceAdapter(std::move(name)) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)args;
    executed_.fetch_add(1, std::memory_order_relaxed);
    return model::Value("done:" + command);
  }

  [[nodiscard]] std::uint64_t executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> executed_{0};
};

/// The soak platform's "svc" resource, plus two levers: executions for
/// session "bad" fail (a controller error), and hold_next() parks the
/// next execution on its worker until release().
class LeverAdapter final : public broker::ResourceAdapter {
 public:
  LeverAdapter() : ResourceAdapter("svc") {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    auto id = args.find("id");
    if (id != args.end() && id->second == model::Value("bad")) {
      return Unavailable("svc refuses session 'bad'");
    }
    std::unique_lock lock(mutex_);
    if (hold_) {
      hold_ = false;
      parked_ = true;
      changed_.notify_all();
      changed_.wait(lock, [this] { return !parked_; });
    }
    return model::Value("done:" + command);
  }

  void hold_next() {
    std::lock_guard lock(mutex_);
    hold_ = true;
  }
  /// Whether the held execution parked within 10 s.
  bool wait_parked() {
    std::unique_lock lock(mutex_);
    return changed_.wait_for(lock, std::chrono::seconds(10),
                             [this] { return parked_; });
  }
  void release() {
    {
      std::lock_guard lock(mutex_);
      parked_ = false;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool hold_ = false;
  bool parked_ = false;
};

/// An assembled, started soak platform with its chaos wrapper handles.
struct SoakPlatform {
  model::MetamodelPtr dsml;
  std::unique_ptr<core::Platform> platform;
  broker::ChaosAdapter* chaos = nullptr;     ///< owned by the platform
  CountingAdapter* inner = nullptr;          ///< owned by `chaos`
  Status status = Status::Ok();              ///< why construction failed

  [[nodiscard]] bool ok() const noexcept {
    return status.ok() && platform != nullptr;
  }
};

/// Assemble + start the soak platform with `config` faults on "svc".
/// When `policy` is set it is installed on "svc" before start, so the
/// soak exercises the broker's retry/breaker/fallback path; backoff
/// sleeps then go through the manager's sleep hook if one is also given
/// (null keeps real sleeping — fine, the backoffs are microseconds).
inline SoakPlatform make_soak_platform(
    broker::ChaosConfig config,
    std::optional<broker::InvocationPolicy> policy = std::nullopt,
    std::function<void(Duration)> sleep_hook = nullptr,
    const Clock* clock = nullptr) {
  SoakPlatform out;
  out.dsml = model::testing::make_test_metamodel();
  core::PlatformConfig platform_config;
  platform_config.dsml = out.dsml;
  platform_config.clock = clock;
  auto assembled =
      core::Platform::assemble_from_text(kSoakMiddlewareModel,
                                         platform_config);
  if (!assembled.ok()) {
    out.status = assembled.status();
    return out;
  }
  out.platform = std::move(assembled.value());
  auto inner = std::make_unique<CountingAdapter>("svc");
  out.inner = inner.get();
  auto chaos =
      std::make_unique<broker::ChaosAdapter>(std::move(inner), config);
  out.chaos = chaos.get();
  out.status = out.platform->add_resource_adapter(std::move(chaos));
  if (!out.status.ok()) return out;
  if (policy.has_value()) {
    out.status = out.platform->broker().set_invocation_policy(
        "svc", std::move(*policy));
    if (!out.status.ok()) return out;
  }
  if (sleep_hook != nullptr) {
    out.platform->broker().resources().set_sleep_hook(std::move(sleep_hook));
  }
  out.status = out.platform->start();
  return out;
}

/// A fault-free soak platform on `clock` (null: the real clock).
inline SoakPlatform make_session_platform(const Clock* clock = nullptr) {
  return make_soak_platform(broker::ChaosConfig{}, std::nullopt, nullptr,
                            clock);
}

/// Submit `text` in session `session`, as the ingress would stamp it.
inline Result<controller::ControlScript> submit_in_session(
    core::Platform& platform, const std::string& session,
    std::string_view text) {
  obs::RequestContext context = platform.make_context();
  context.set_attribute(std::string(obs::RequestContext::kSessionAttribute),
                        session);
  return platform.submit_model_text(text, context);
}

/// Application-model text creating one open session with a unique id.
inline std::string open_session_text(const std::string& id) {
  return "model app_" + id + " conforms testlang\n" +
         "object Session " + id + " { state = open }\n";
}

/// Application-model text closing the session `id` (must be the one the
/// runtime model currently holds for the diff to be a pure close).
inline std::string close_session_text(const std::string& id) {
  return "model fin_" + id + " conforms testlang\n" +
         "object Session " + id + " { state = closed }\n";
}

}  // namespace mdsm::soak
