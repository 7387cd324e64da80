// The MD-DSM platform: composition root that assembles a running
// four-layer model execution engine from a middleware model (an instance
// of the middleware metamodel), per the process of Fig. 2:
//
//   middleware model  ──┐
//                       ├─► platform assembler ─► UI / Synthesis /
//   domain knowledge  ──┘      (component factory)  Controller / Broker
//
// The application DSML metamodel (domain knowledge for the UI and
// Synthesis layers) is supplied through PlatformConfig; the operational
// semantics (LTS, DSCs, procedures, actions) come from the middleware
// model itself. Resource adapters — the bridge to the (simulated)
// underlying resources — are installed after assembly and checked
// against the model's ResourceSpec list at start().
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker_layer.hpp"
#include "common/status.hpp"
#include "controller/controller_layer.hpp"
#include "core/admission.hpp"
#include "core/middleware_metamodel.hpp"
#include "model/text_format.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "policy/context.hpp"
#include "runtime/component_factory.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/executor.hpp"
#include "runtime/task.hpp"
#include "synthesis/synthesis_engine.hpp"
#include "synthesis/weaver.hpp"

namespace mdsm::core {

struct PlatformConfig {
  /// The application-level DSML this platform executes. Its name must
  /// match the middleware model's UiLayerSpec.dsml attribute.
  model::MetamodelPtr dsml;
  /// Clock used for request timestamps/deadlines (null = process steady
  /// clock). Simulated domains inject their SimClock here so request
  /// traces share the domain's virtual time.
  const Clock* clock = nullptr;
  /// Worker threads for submit_async()'s request pipeline (0 = one per
  /// hardware thread). The pool is created lazily on the first async
  /// submission; synchronous submits never pay for it.
  unsigned pipeline_threads = 0;
  /// Create the staged pipeline's event loop in manual mode (no loop
  /// thread; nothing fires until event_loop()->poll()/flush()).
  /// Deterministic tests pair this with an injected SimClock and pump
  /// the loop themselves.
  bool manual_event_loop = false;
};

/// Per-submission options for Platform::submit_async().
struct SubmitOptions {
  /// Deadline budget for the whole pipeline, queue delay included (the
  /// request context is minted at enqueue time).
  std::optional<Duration> deadline;
  /// Route through the executor's high-priority lane: control-plane
  /// requests overtake queued bulk work.
  bool high_priority = false;
  /// Free-form attributes stamped on the minted RequestContext before
  /// the pipeline sees it. The ingress front-end threads the remote
  /// request id across the wire this way ("ingress.request_id"), so the
  /// request's span tree and bus events stay correlated with the sender.
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Networked-ingress settings decoded from the MiddlewarePlatform model
/// (PR 7). The ingress front-end (src/ingress) reads these at attach;
/// the defaults describe "no ingress configured".
struct IngressSettings {
  /// Endpoint name the IngressServer binds on the simulated network
  /// ("" = derive "<platform-name>.ingress").
  std::string endpoint;
  /// Shared-secret auth stub; "" disables the auth middleware.
  std::string auth_token;
  /// Deadline applied to wire submissions that carry none (0 = none).
  Duration default_deadline{0};
  /// Per-client token-bucket rate limit (requests/second sustained;
  /// 0 disables the rate-limit middleware).
  double rate_limit = 0.0;
  /// Bucket capacity in tokens (burst tolerance; 0 derives max(1, rate)).
  double rate_burst = 0.0;
  /// Clock-based TTL on the ingress dedup ledger's completed entries
  /// (PR 10): how long a settled reply stays replayable for client
  /// retries. 0 keeps entries until capacity eviction alone.
  Duration dedup_ttl{0};
};

/// Read the ingress_* attributes of a MiddlewarePlatform root. Every
/// door provisioned from a middleware model uses this one decoder: a
/// platform's ingress server and the cluster front-end before a fleet.
[[nodiscard]] IngressSettings decode_ingress_settings(
    const model::ModelObject& platform_root);

class Platform {
 public:
  /// Assemble a platform from a middleware model. The model must conform
  /// to middleware_metamodel() and contain exactly one MiddlewarePlatform
  /// root. Assembly instantiates the layer components via the component
  /// factory and loads every spec into them.
  static Result<std::unique_ptr<Platform>> assemble(
      const model::Model& middleware_model, PlatformConfig config);

  /// Convenience: parse middleware-model text first.
  static Result<std::unique_ptr<Platform>> assemble_from_text(
      std::string_view middleware_model_text, PlatformConfig config);

  ~Platform();
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Install a resource adapter (before start()).
  Status add_resource_adapter(
      std::unique_ptr<broker::ResourceAdapter> adapter);

  /// Verify required resources are present and start all layers.
  Status start();
  /// Stop accepting submissions, drain the async pipeline and every
  /// in-flight synchronous submission, then stop the layers. Safe to call
  /// while submissions are racing in: they either complete normally or
  /// are rejected with FailedPrecondition — never torn.
  Status stop();
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // Thread-safety (see DESIGN.md §6b for the full matrix): make_context()
  // and the context-taking submit overloads are safe to call from any
  // number of threads and execute *concurrently* — only the synthesis
  // model swap is serialized (on the synthesis engine's internal mutex);
  // classification, IM generation, and controller/broker execution all
  // overlap across requests. The context-free submit overloads and
  // submit_woven() additionally publish last_trace() state and must be
  // called from one thread at a time. start()/stop() may race anything.

  // ---- UI layer: the model-based programming interface ----------------

  /// Mint a fresh request context bound to this platform's clock and
  /// metrics registry. Pass it to submit_model_text()/submit_model() to
  /// collect a per-request trace (and optionally enforce a deadline).
  [[nodiscard]] obs::RequestContext make_context(
      std::optional<Duration> deadline = {}) {
    return obs::RequestContext(*clock_, &metrics_, deadline);
  }

  /// Parse application-model text in the platform's DSML and execute it
  /// (synthesis → controller → broker). Returns the generated script.
  /// The context-free overload mints a context internally; its trace is
  /// retained and accessible as last_trace() until the next submission.
  Result<controller::ControlScript> submit_model_text(
      std::string_view text, obs::RequestContext& context);
  Result<controller::ControlScript> submit_model_text(std::string_view text);

  /// Submit an already-built application model.
  Result<controller::ControlScript> submit_model(
      model::Model application_model, obs::RequestContext& context);
  Result<controller::ControlScript> submit_model(model::Model application_model);

  /// Completion callback for submit_async(); invoked on a pipeline
  /// worker thread. A throwing callback is contained there (counted in
  /// "ui.callback_failures" and logged), never propagated into the
  /// worker.
  using SubmitCallback =
      std::function<void(Result<controller::ControlScript>)>;

  /// Fire-and-forget submission through the N-way request pipeline
  /// (PlatformConfig.pipeline_threads workers, created lazily; queue
  /// bound and overflow policy come from the middleware model's
  /// queue_capacity / overflow_policy attributes). The text is parsed
  /// and executed on a worker; `callback` (optional) receives the
  /// outcome there. Returns non-Ok — and does NOT invoke the callback —
  /// when the submission is refused at the door: platform not running,
  /// shed by admission control (deadline spent or predicted doomed), or
  /// rejected by a full bounded queue under the kReject policy. Once Ok
  /// is returned the callback is invoked exactly once, including for
  /// requests later dropped by kShedOldest (they resolve with
  /// kUnavailable). stop() drains all queued async submissions.
  Status submit_async(std::string text, SubmitCallback callback = nullptr,
                      SubmitOptions options = {});

  /// Aspect-oriented execution (paper §IX): weave several concern models
  /// (texts in the platform's DSML) into one application model and
  /// submit the result.
  Result<controller::ControlScript> submit_woven(
      const std::vector<std::string_view>& concern_texts,
      synthesis::WeaveConfig weave_config = {});

  /// Serialized runtime model of `session` (round-trip engineering);
  /// "" is the default session that requests without a session key use.
  [[nodiscard]] std::string runtime_model_text(
      std::string_view session = {}) const;

  // ---- session-state checkpoint / snapshot-restore (PR 10) -------------

  /// Serialize one session's runtime state as a model::Value tree: that
  /// session's committed runtime model and LTS states, plus the
  /// platform-wide scalar stores (ExecutionEngine memory, ContextStore
  /// entries, the broker StateManager's variables). `session` is the
  /// session key ("" = the default session) and is also stamped into
  /// the payload as its label. The model + LTS pair is captured
  /// atomically under the synthesis mutex; the scalar stores are
  /// point-in-time copies. Encoded with the text-format Value codec, so
  /// payload.to_text() round-trips through model::parse_value().
  Result<model::Value> export_session_state(const std::string& session);

  /// Inverse of export_session_state(): adopt each checkpointed
  /// session's runtime model + LTS states, replacing that session only
  /// (so its next submission diffs against the checkpointed model and
  /// sequenced work RESUMES rather than restarts), and merge the
  /// memory/context/broker scalar entries in. The importer's other
  /// sessions stay untouched; a fresh platform ends up byte-equal to the
  /// exporter.
  Status import_session_state(const model::Value& state);

  /// Disk-format snapshot of a running platform: the export tree of the
  /// default session and every live session, serialized as text.
  /// restore() on a fresh platform assembled from the same middleware
  /// model round-trips byte-equal on both runtime_model_text() and a
  /// re-snapshot.
  Result<std::string> snapshot();
  Status restore(std::string_view snapshot_text);

  // ---- layer access ----------------------------------------------------

  [[nodiscard]] broker::BrokerLayer& broker() noexcept { return *broker_; }
  [[nodiscard]] controller::ControllerLayer& controller() noexcept {
    return *controller_;
  }
  [[nodiscard]] synthesis::SynthesisEngine& synthesis() noexcept {
    return *synthesis_;
  }
  [[nodiscard]] policy::ContextStore& context() noexcept { return context_; }
  [[nodiscard]] runtime::EventBus& bus() noexcept { return bus_; }
  [[nodiscard]] const broker::CommandTrace& trace() const noexcept {
    return broker_->trace();
  }
  /// UI-layer admission controller (PR 5). Configured from the
  /// middleware model's admission/admission_alpha/admission_safety
  /// attributes; exposed so domains and benches can prime or inspect the
  /// latency EWMA.
  [[nodiscard]] AdmissionController& admission() noexcept {
    return admission_;
  }
  /// Backlog bounds of the async request pipeline. Zeroes before the
  /// first async submission (the executor is created lazily); its
  /// rejections and sheds are the "runtime.executor_*" cells.
  struct PipelineStats {
    std::size_t queue_capacity = 0;  ///< configured bound (0 = unbounded)
    std::size_t max_pending = 0;     ///< deepest the queue ever got
    /// Deepest the *bounded* entry backlog ever got — continuation hops
    /// excluded. This is the gauge queue_capacity governs; on the staged
    /// pipeline max_pending also counts mid-request hops and may
    /// legitimately exceed the capacity.
    std::size_t max_bounded_pending = 0;
  };
  [[nodiscard]] PipelineStats pipeline_stats() const;
  /// Per-stage queue depth / delay statistics of the staged pipeline
  /// (empty before the first async submission). Stage order: synthesis,
  /// controller, broker, complete.
  [[nodiscard]] std::vector<runtime::Executor::StageStats> stage_stats()
      const;
  /// The staged pipeline's event loop (timers for retry backoff, attempt
  /// overruns and deadline watchdogs). Null before the first async
  /// submission. With manual_event_loop, tests pump poll()/flush() on it
  /// after advancing their SimClock.
  [[nodiscard]] runtime::EventLoop* event_loop() noexcept {
    return loop_.get();
  }
  /// Platform-wide metrics: counters and latency histograms recorded by
  /// every layer (and by request contexts minted via make_context()).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  /// Span tree of the most recent context-free submission (null before
  /// the first one). Context-taking submissions keep their trace in the
  /// caller's RequestContext instead.
  [[nodiscard]] const obs::Trace* last_trace() const noexcept {
    return last_context_ == nullptr ? nullptr : &last_context_->trace();
  }
  /// Context (and span tree) of the most recently *completed* staged
  /// async submission — the async counterpart of last_trace(). Returned
  /// as a shared_ptr so a concurrent completion cannot invalidate the
  /// snapshot mid-inspection. Null before the first staged completion.
  [[nodiscard]] std::shared_ptr<const obs::RequestContext>
  last_async_context() const {
    std::lock_guard lock(last_async_mutex_);
    return last_async_context_;
  }
  [[nodiscard]] const Clock& clock() const noexcept { return *clock_; }
  /// Ingress attributes decoded from the MiddlewarePlatform model
  /// (ingress_endpoint / ingress_auth / ingress_default_deadline_us).
  [[nodiscard]] const IngressSettings& ingress_settings() const noexcept {
    return ingress_settings_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const model::MetamodelPtr& dsml() const noexcept {
    return dsml_;
  }

 private:
  Platform() = default;

  Status load_broker_spec(const model::Model& middleware_model,
                          const model::ModelObject& broker_spec);
  Status load_controller_spec(const model::Model& middleware_model,
                              const model::ModelObject& controller_spec);
  /// The checkpoint tree for `sessions`, labelled `label`.
  model::Value export_sessions(const std::string& label,
                               const std::vector<std::string>& sessions);
  /// The UI layer's gate before synthesis work: running, admission
  /// control, then the deadline.
  Status admit(obs::RequestContext& context);
  /// Non-Ok (kTimeout, counted in "ui.completed_late") when a finished
  /// request's deadline passed.
  Status deliverable(obs::RequestContext& context);
  /// Invoke a SubmitCallback with exception containment: a throw is
  /// counted ("ui.callback_failures") and logged, never propagated into
  /// the pipeline worker.
  void invoke_callback(const SubmitCallback& callback,
                       Result<controller::ControlScript> outcome);

  /// One request traversing the request coroutine (DESIGN.md §6b): on
  /// the caller's stack at the inline door, on the heap at the async
  /// one. It owns its root span, deadline watchdog and inflight slot.
  struct Request;
  /// The inline door: run the coroutine on the calling thread. A parse
  /// error in `read` fails the request inside it.
  Result<controller::ControlScript> submit_inline(
      Result<synthesis::SynthesisEngine::Draft> read,
      obs::RequestContext& context);
  /// Lazily create the executor and its stages, the event loop and the
  /// broker's async engine wiring.
  void ensure_pipeline();
  /// The request coroutine: admit, parse and commit; execute the script;
  /// the late gate. An async request hops between stages. It ends in
  /// finish(), or in abandoned()'s close-out.
  runtime::Task<> serve(Request& request);
  /// The hop to `stage`: a stage task for an async request, none inline.
  runtime::Executor::Hop hop(Request& request, std::uint32_t stage);
  /// True when the chain must stop here: the deadline watchdog already
  /// resolved it (the chain, single owner of the trace, closes out and
  /// releases its inflight slot).
  bool abandoned(Request& request);
  /// Terminal bookkeeping: record latency, count a failure, close the
  /// root span, resolve the callback exactly once, release the inflight
  /// slot.
  void finish(Request& request, Result<controller::ControlScript> outcome);
  /// Run the queued async submissions and wait out every in-flight one
  /// (stop() and the destructor).
  void drain_requests();

  std::string name_;
  model::MetamodelPtr dsml_;
  const Clock* clock_ = &obs::steady_clock();
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::RequestContext> last_context_;
  mutable std::mutex last_async_mutex_;  ///< guards last_async_context_
  std::shared_ptr<obs::RequestContext> last_async_context_;
  runtime::EventBus bus_;
  policy::ContextStore context_;
  runtime::ComponentFactory factory_;
  std::unique_ptr<broker::BrokerLayer> broker_;
  std::unique_ptr<controller::ControllerLayer> controller_;
  std::unique_ptr<synthesis::SynthesisEngine> synthesis_;
  std::vector<std::string> required_resources_;
  std::uint64_t error_subscription_ = 0;

  /// Counts a submission as in flight for stop()'s drain. Registered
  /// *before* the running_ check so stop() can never miss a submission
  /// that goes on to pass the check.
  class InflightGuard {
   public:
    explicit InflightGuard(Platform& platform) : platform_(platform) {
      std::lock_guard lock(platform_.inflight_mutex_);
      ++platform_.inflight_;
    }
    ~InflightGuard() {
      {
        std::lock_guard lock(platform_.inflight_mutex_);
        --platform_.inflight_;
      }
      platform_.inflight_cv_.notify_all();
    }
    InflightGuard(const InflightGuard&) = delete;
    InflightGuard& operator=(const InflightGuard&) = delete;

   private:
    Platform& platform_;
  };

  /// Serializes start()/stop() against each other — the only remaining
  /// global lock; steady-state submissions never take it.
  mutable std::mutex lifecycle_mutex_;
  std::atomic<bool> running_{false};
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;
  mutable std::mutex pipeline_mutex_;  ///< guards lazy pipeline_ creation
  std::unique_ptr<runtime::Executor> pipeline_;
  /// The executor's companion (created with it under pipeline_mutex_;
  /// destroyed after the executor joins). The loop outlives the
  /// executor's drain because queued tasks may still schedule timers;
  /// after stop() those are silently dropped.
  std::unique_ptr<runtime::EventLoop> loop_;
  // The executor's stages (add_stage() indices).
  std::uint32_t stage_synthesis_ = 0;
  std::uint32_t stage_controller_ = 0;
  std::uint32_t stage_broker_ = 0;
  std::uint32_t stage_complete_ = 0;
  bool manual_loop_ = false;
  unsigned pipeline_threads_ = 0;
  /// Queue bound + overflow policy decoded from the middleware model's
  /// MiddlewarePlatform attributes (thread_count is filled in at lazy
  /// pipeline creation).
  runtime::ExecutorConfig pipeline_config_;
  AdmissionController admission_{metrics_, bus_};
  IngressSettings ingress_settings_;
  // UI-layer cells (DESIGN.md §6a), resolved once per platform.
  obs::Counter& requests_submitted_ = metrics_.counter("requests.submitted");
  obs::Counter& requests_failed_ = metrics_.counter("requests.failed");
  obs::Counter& completed_late_ = metrics_.counter("ui.completed_late");
  obs::Counter& watchdog_timeouts_ = metrics_.counter("ui.watchdog_timeouts");
  obs::Counter& callback_failures_ = metrics_.counter("ui.callback_failures");
  obs::Counter& states_imported_ =
      metrics_.counter("platform.session_states_imported");
  obs::SpanName submit_span_{metrics_, "ui.submit"};
  obs::SpanName queue_span_{metrics_, "runtime.queue"};
  obs::SpanName synthesis_span_{metrics_, "synthesis.submit"};
};

}  // namespace mdsm::core
