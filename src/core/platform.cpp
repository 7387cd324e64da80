#include "core/platform.hpp"

#include "common/log.hpp"
#include "core/spec_decode.hpp"

namespace mdsm::core {

Result<std::unique_ptr<Platform>> Platform::assemble_from_text(
    std::string_view middleware_model_text, PlatformConfig config) {
  Result<model::Model> middleware_model =
      model::parse_model(middleware_model_text, middleware_metamodel());
  if (!middleware_model.ok()) return middleware_model.status();
  return assemble(*middleware_model, std::move(config));
}

IngressSettings decode_ingress_settings(const model::ModelObject& root) {
  IngressSettings settings;
  settings.endpoint = root.get_string("ingress_endpoint");
  settings.auth_token = root.get_string("ingress_auth");
  settings.default_deadline =
      Duration(root.get_int("ingress_default_deadline_us", 0));
  settings.rate_limit = root.get_real("ingress_rate_limit", 0.0);
  settings.rate_burst = root.get_real("ingress_rate_burst", 0.0);
  settings.dedup_ttl = Duration(root.get_int("ingress_dedup_ttl_us", 0));
  return settings;
}

Result<std::unique_ptr<Platform>> Platform::assemble(
    const model::Model& middleware_model, PlatformConfig config) {
  if (middleware_model.metamodel_ptr() != middleware_metamodel()) {
    return InvalidArgument(
        "middleware model must conform to the middleware metamodel");
  }
  MDSM_RETURN_IF_ERROR(middleware_model.validate());
  auto platforms = middleware_model.objects_of("MiddlewarePlatform");
  if (platforms.size() != 1) {
    return InvalidArgument("middleware model must contain exactly one "
                           "MiddlewarePlatform root, found " +
                           std::to_string(platforms.size()));
  }
  const model::ModelObject& root = *platforms[0];
  if (config.dsml == nullptr) {
    return InvalidArgument("PlatformConfig.dsml is required");
  }
  // UI layer spec: the declared DSML must be the one supplied.
  auto ui_specs = middleware_model.children(root.id(), "ui");
  if (ui_specs.size() == 1) {
    const std::string declared = ui_specs[0]->get_string("dsml");
    if (declared != config.dsml->name()) {
      return ConformanceError("middleware model binds DSML '" + declared +
                              "' but platform was given '" +
                              config.dsml->name() + "'");
    }
  }

  // Core Guidelines C.50: private ctor + factory for multi-stage init.
  std::unique_ptr<Platform> platform(new Platform());
  platform->name_ = root.get_string("name");
  platform->dsml_ = config.dsml;
  platform->pipeline_threads_ = config.pipeline_threads;
  platform->manual_loop_ = config.manual_event_loop;
  if (config.clock != nullptr) platform->clock_ = config.clock;

  // Overload protection is model-driven (PR 5): the MiddlewarePlatform
  // root declares the async pipeline's queue bound and overflow policy
  // plus the UI-layer admission controller, exactly like ResourceSpec
  // declares fault-tolerance. The defaults reproduce the pre-PR-5
  // unbounded, admit-everything platform.
  platform->pipeline_config_.queue_capacity =
      static_cast<std::size_t>(root.get_int("queue_capacity", 0));
  const std::string overflow = root.get_string("overflow_policy", "reject");
  platform->pipeline_config_.overflow_policy =
      overflow == "block"         ? runtime::OverflowPolicy::kBlock
      : overflow == "shed-oldest" ? runtime::OverflowPolicy::kShedOldest
                                  : runtime::OverflowPolicy::kReject;
  AdmissionConfig admission_config;
  admission_config.enabled = root.get_bool("admission", false);
  admission_config.ewma_alpha = root.get_real("admission_alpha", 0.2);
  admission_config.safety_factor = root.get_real("admission_safety", 1.0);
  platform->admission_.configure(admission_config);

  // Networked ingress (PR 7): the front-end's endpoint name, auth stub
  // and default wire deadline are model attributes too — a split
  // deployment is described by the same middleware model that describes
  // the platform it fronts.
  platform->ingress_settings_ = decode_ingress_settings(root);

  // The component factory holds the layer "code templates"; assembly then
  // instantiates them with the model objects as metadata (paper §V-A).
  // Every layer counts into the platform-wide registry (stable address:
  // the platform is heap-allocated and non-movable).
  runtime::EventBus& bus = platform->bus_;
  policy::ContextStore& context = platform->context_;
  obs::MetricsRegistry& metrics = platform->metrics_;
  MDSM_RETURN_IF_ERROR(platform->factory_.register_template(
      "BrokerLayerSpec",
      [&bus, &context, &metrics](const model::ModelObject& spec,
                                 const model::Model&)
          -> Result<std::unique_ptr<runtime::Component>> {
        return Result<std::unique_ptr<runtime::Component>>(
            std::make_unique<broker::BrokerLayer>(spec.id(), bus, context,
                                                  metrics));
      }));

  // ---- Broker layer ----------------------------------------------------
  auto broker_specs = middleware_model.children(root.id(), "broker");
  if (broker_specs.size() == 1 && broker_specs[0]->get_bool("enabled", true)) {
    Result<std::unique_ptr<runtime::Component>> component =
        platform->factory_.instantiate(*broker_specs[0], middleware_model);
    if (!component.ok()) return component.status();
    platform->broker_.reset(
        static_cast<broker::BrokerLayer*>(component.value().release()));
    MDSM_RETURN_IF_ERROR(
        platform->load_broker_spec(middleware_model, *broker_specs[0]));
  } else {
    return InvalidArgument("middleware model must define an enabled broker "
                           "layer (suppressing it is only legal in split "
                           "deployments, which assemble partial platforms "
                           "programmatically)");
  }

  // ---- Controller layer ------------------------------------------------
  auto controller_specs = middleware_model.children(root.id(), "controller");
  if (controller_specs.size() != 1) {
    return InvalidArgument("middleware model must define a controller layer");
  }
  controller::GeneratorConfig generator_config;
  generator_config.max_configurations = static_cast<std::size_t>(
      controller_specs[0]->get_int("max_configurations", 256));
  platform->controller_ = std::make_unique<controller::ControllerLayer>(
      controller_specs[0]->id(), *platform->broker_, bus, context, metrics,
      generator_config);
  MDSM_RETURN_IF_ERROR(
      platform->load_controller_spec(middleware_model, *controller_specs[0]));

  // ---- Synthesis layer ---------------------------------------------------
  auto synthesis_specs = middleware_model.children(root.id(), "synthesis");
  synthesis::Lts lts;
  if (synthesis_specs.size() == 1 &&
      !middleware_model.children(synthesis_specs[0]->id(), "transitions")
           .empty()) {
    Result<synthesis::Lts> decoded =
        decode_lts(middleware_model, *synthesis_specs[0]);
    if (!decoded.ok()) return decoded.status();
    lts = std::move(decoded.value());
  } else {
    return InvalidArgument(
        "no synthesis semantics: middleware model declares no transitions");
  }
  platform->synthesis_ = std::make_unique<synthesis::SynthesisEngine>(
      synthesis_specs.empty() ? "synthesis" : synthesis_specs[0]->id(),
      config.dsml, std::move(lts), context, metrics, *platform->clock_,
      // Pre-commit dispatch runs under the synthesis serial mutex, so it
      // must stay cheap: just the controller-crossing deadline check (a
      // dispatch failure keeps the old runtime model in force).
      [](const controller::ControlScript&, obs::RequestContext& request) {
        return request.check_deadline("controller");
      });

  // Controller exceptional conditions flow back to the Synthesis layer
  // ("handles events from the Controller layer", paper §V-A).
  synthesis::SynthesisEngine* synthesis = platform->synthesis_.get();
  platform->error_subscription_ = bus.subscribe(
      "controller.error", [synthesis](const runtime::Event& event) {
        synthesis->handle_controller_event(event.topic, event.payload);
      });

  // models@runtime at the broker layer: the State Manager mirrors the
  // model each commit installs (that request's session) so broker-level
  // introspection (and autonomic rules in future) can consult it.
  broker::BrokerLayer* broker = platform->broker_.get();
  platform->synthesis_->set_model_listener(
      [broker](const synthesis::SynthesisEngine::ModelPtr& committed) {
        broker->state().set_runtime_model(committed);
      });

  return platform;
}

Platform::~Platform() {
  // Close the door and run out every admitted request, as stop() does: a
  // chain parked on a loop timer is resumed, not dropped with the loop,
  // so its frames and its request are freed. Then the loop stops (no
  // more timer-driven resumes) and the executor joins.
  running_.store(false, std::memory_order_release);
  drain_requests();
  if (loop_ != nullptr) loop_->stop();
  pipeline_.reset();
  loop_.reset();
  if (error_subscription_ != 0) bus_.unsubscribe(error_subscription_);
}

Status Platform::load_broker_spec(const model::Model& middleware_model,
                                  const model::ModelObject& broker_spec) {
  for (const model::ModelObject* action_spec :
       middleware_model.children(broker_spec.id(), "actions")) {
    Result<broker::Action> action =
        decode_broker_action(middleware_model, *action_spec);
    if (!action.ok()) return action.status();
    MDSM_RETURN_IF_ERROR(broker_->register_action(std::move(action.value())));
  }
  for (const model::ModelObject* handler_spec :
       middleware_model.children(broker_spec.id(), "handlers")) {
    std::vector<std::string> action_names;
    for (const std::string& target : handler_spec->targets("actions")) {
      const model::ModelObject* action_spec = middleware_model.find(target);
      if (action_spec == nullptr) {
        return ConformanceError("handler '" + handler_spec->id() +
                                "' references missing action '" + target +
                                "'");
      }
      action_names.push_back(action_spec->get_string("name"));
    }
    MDSM_RETURN_IF_ERROR(broker_->bind_handler(
        handler_spec->get_string("signal"), std::move(action_names)));
  }
  for (const model::ModelObject* policy_spec :
       middleware_model.children(broker_spec.id(), "policies")) {
    MDSM_RETURN_IF_ERROR(broker_->policies().add(
        policy_spec->get_string("name"), policy_spec->get_string("condition"),
        policy_spec->get_string("decision"),
        static_cast<int>(policy_spec->get_int("priority"))));
  }
  for (const model::ModelObject* symptom_spec :
       middleware_model.children(broker_spec.id(), "symptoms")) {
    Result<broker::Symptom> symptom = decode_symptom(*symptom_spec);
    if (!symptom.ok()) return symptom.status();
    MDSM_RETURN_IF_ERROR(
        broker_->autonomic().add_symptom(std::move(symptom.value())));
  }
  for (const model::ModelObject* plan_spec :
       middleware_model.children(broker_spec.id(), "plans")) {
    Result<broker::ChangePlan> plan =
        decode_change_plan(middleware_model, *plan_spec);
    if (!plan.ok()) return plan.status();
    MDSM_RETURN_IF_ERROR(
        broker_->autonomic().add_plan(std::move(plan.value())));
  }
  for (const model::ModelObject* resource_spec :
       middleware_model.children(broker_spec.id(), "resources")) {
    const std::string resource_name = resource_spec->get_string("name");
    if (!resource_spec->get_bool("optional", false)) {
      required_resources_.push_back(resource_name);
    }
    // Decode the spec's fault-tolerance attributes into an
    // InvocationPolicy. The metamodel defaults describe fire-once with no
    // breaker and no fallback; only specs that deviate get a policy
    // installed, so unconfigured resources keep the zero-overhead path.
    broker::InvocationPolicy policy;
    policy.max_attempts =
        static_cast<int>(resource_spec->get_int("max_attempts", 1));
    policy.initial_backoff = Duration(resource_spec->get_int("backoff_us",
                                                             500));
    policy.max_backoff = Duration(resource_spec->get_int("max_backoff_us",
                                                         50'000));
    policy.attempt_timeout =
        Duration(resource_spec->get_int("attempt_timeout_us", 0));
    policy.fallback_resource = resource_spec->get_string("fallback");
    policy.breaker.window = static_cast<std::size_t>(
        resource_spec->get_int("breaker_window", 0));
    policy.breaker.failure_threshold =
        resource_spec->get_real("breaker_threshold", 0.5);
    policy.breaker.cooldown =
        Duration(resource_spec->get_int("breaker_cooldown_us", 10'000));
    const bool configured = policy.max_attempts != 1 ||
                            policy.attempt_timeout.count() != 0 ||
                            !policy.fallback_resource.empty() ||
                            policy.breaker.enabled();
    if (configured) {
      MDSM_RETURN_IF_ERROR(
          broker_->set_invocation_policy(resource_name, std::move(policy)));
    }
  }
  // The broker keeps the application runtime model (models@runtime).
  broker_->state().set_runtime_model(
      std::make_shared<const model::Model>("runtime", dsml_));
  return Status::Ok();
}

Status Platform::load_controller_spec(
    const model::Model& middleware_model,
    const model::ModelObject& controller_spec) {
  for (const model::ModelObject* dsc_spec :
       middleware_model.children(controller_spec.id(), "dscs")) {
    controller::Dsc dsc;
    dsc.name = dsc_spec->get_string("name");
    dsc.kind = dsc_spec->get_string("kind", "operation") == "data"
                   ? controller::DscKind::kData
                   : controller::DscKind::kOperation;
    dsc.category = dsc_spec->get_string("category");
    dsc.description = dsc_spec->get_string("description");
    MDSM_RETURN_IF_ERROR(controller_->dscs().add(std::move(dsc)));
  }
  for (const model::ModelObject* procedure_spec :
       middleware_model.children(controller_spec.id(), "procedures")) {
    Result<controller::Procedure> procedure =
        decode_procedure(middleware_model, *procedure_spec);
    if (!procedure.ok()) return procedure.status();
    MDSM_RETURN_IF_ERROR(
        controller_->add_procedure(std::move(procedure.value())));
  }
  for (const model::ModelObject* action_spec :
       middleware_model.children(controller_spec.id(), "actions")) {
    Result<controller::ControllerAction> action =
        decode_controller_action(middleware_model, *action_spec);
    if (!action.ok()) return action.status();
    MDSM_RETURN_IF_ERROR(
        controller_->register_action(std::move(action.value())));
  }
  for (const model::ModelObject* binding_spec :
       middleware_model.children(controller_spec.id(), "bindings")) {
    std::vector<std::string> action_names;
    for (const std::string& target : binding_spec->targets("actions")) {
      const model::ModelObject* action_spec = middleware_model.find(target);
      if (action_spec == nullptr) {
        return ConformanceError("binding '" + binding_spec->id() +
                                "' references missing action '" + target +
                                "'");
      }
      action_names.push_back(action_spec->get_string("name"));
    }
    MDSM_RETURN_IF_ERROR(controller_->bind_action(
        binding_spec->get_string("command"), std::move(action_names)));
  }
  for (const model::ModelObject* mapping_spec :
       middleware_model.children(controller_spec.id(), "mappings")) {
    MDSM_RETURN_IF_ERROR(
        controller_->map_command(mapping_spec->get_string("command"),
                                 mapping_spec->get_string("dsc")));
  }
  for (const model::ModelObject* policy_spec :
       middleware_model.children(controller_spec.id(), "policies")) {
    const std::string role = policy_spec->get_string("role", "classification");
    policy::PolicySet& target = role == "selection"
                                    ? controller_->selection_policies()
                                    : controller_->classification_policies();
    MDSM_RETURN_IF_ERROR(target.add(
        policy_spec->get_string("name"), policy_spec->get_string("condition"),
        policy_spec->get_string("decision"),
        static_cast<int>(policy_spec->get_int("priority"))));
  }
  return Status::Ok();
}

Status Platform::add_resource_adapter(
    std::unique_ptr<broker::ResourceAdapter> adapter) {
  return broker_->resources().add_adapter(std::move(adapter));
}

Status Platform::start() {
  std::lock_guard lock(lifecycle_mutex_);
  if (running_.load(std::memory_order_acquire)) return Status::Ok();
  for (const std::string& required : required_resources_) {
    if (!broker_->resources().has_adapter(required)) {
      return FailedPrecondition("required resource adapter '" + required +
                                "' is not installed");
    }
  }
  MDSM_RETURN_IF_ERROR(broker_->start());
  MDSM_RETURN_IF_ERROR(controller_->start());
  MDSM_RETURN_IF_ERROR(synthesis_->start());
  running_.store(true, std::memory_order_release);
  log_info("platform") << name_ << " started";
  return Status::Ok();
}

Status Platform::stop() {
  std::lock_guard lock(lifecycle_mutex_);
  // Close the gate first: submissions that re-check running_ after this
  // are rejected; ones already past the check are counted in inflight_.
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::Ok();
  }
  drain_requests();
  MDSM_RETURN_IF_ERROR(synthesis_->stop());
  MDSM_RETURN_IF_ERROR(controller_->stop());
  MDSM_RETURN_IF_ERROR(broker_->stop());
  return Status::Ok();
}

void Platform::drain_requests() {
  // Drain the async pipeline (queued tasks run to completion — rejected
  // by the gate or finishing normally), then wait out every in-flight
  // submission. Staged requests hold an inflight slot from the door to
  // their terminal continuation, so the wait also covers requests parked
  // on event-loop timers — the threaded loop keeps firing them; a manual
  // loop must be pumped here.
  if (pipeline_ != nullptr) pipeline_->drain();
  if (loop_ != nullptr && !loop_->threaded()) {
    while (true) {
      {
        std::lock_guard inflight(inflight_mutex_);
        if (inflight_ == 0) break;
      }
      loop_->flush();
      if (pipeline_ != nullptr) pipeline_->drain();
      std::this_thread::yield();  // sync submissions drain on their own
    }
  }
  std::unique_lock inflight(inflight_mutex_);
  inflight_cv_.wait(inflight, [this] { return inflight_ == 0; });
}

Result<controller::ControlScript> Platform::submit_model_text(
    std::string_view text, obs::RequestContext& context) {
  // Read outside ui.submit; a parse error still fails in the coroutine.
  return submit_inline(synthesis_->read_text(text, context.session()),
                       context);
}

Result<controller::ControlScript> Platform::submit_model_text(
    std::string_view text) {
  last_context_ = std::make_unique<obs::RequestContext>(*clock_, &metrics_);
  return submit_model_text(text, *last_context_);
}

Result<controller::ControlScript> Platform::submit_woven(
    const std::vector<std::string_view>& concern_texts,
    synthesis::WeaveConfig weave_config) {
  std::vector<model::Model> concerns;
  concerns.reserve(concern_texts.size());
  for (std::string_view text : concern_texts) {
    Result<model::Model> parsed = model::parse_model(text, dsml_);
    if (!parsed.ok()) return parsed.status();
    concerns.push_back(std::move(parsed.value()));
  }
  std::vector<const model::Model*> views;
  views.reserve(concerns.size());
  for (const model::Model& concern : concerns) views.push_back(&concern);
  Result<model::Model> woven =
      synthesis::weave(views, std::move(weave_config));
  if (!woven.ok()) return woven.status();
  return submit_model(std::move(woven.value()));
}

Result<controller::ControlScript> Platform::submit_model(
    model::Model application_model, obs::RequestContext& context) {
  return submit_inline(
      synthesis::SynthesisEngine::Draft{.model = std::move(application_model)},
      context);
}

Status Platform::admit(obs::RequestContext& context) {
  if (!running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("platform '" + name_ + "' is not started");
  }
  // UI-layer admission (PR 5): shed requests whose deadline is already
  // spent or whose remaining budget cannot cover the predicted pipeline
  // latency — before they cost any synthesis work. For async submissions
  // this re-checks the enqueue-time decision after queue delay ate into
  // the budget. Falls through to the plain deadline check when admission
  // is disabled.
  MDSM_RETURN_IF_ERROR(admission_.admit(context));
  return context.check_deadline("ui");
}

Status Platform::deliverable(obs::RequestContext& context) {
  // Overload contract: a success the caller's budget can no longer use
  // is delivered as kTimeout, never as a late Ok. The pre-stage gates
  // make this rare — it fires only when the final pipeline stage itself
  // crossed the deadline.
  if (!context.expired()) return Status::Ok();
  completed_late_.add();
  return Timeout(context.tag() + " completed after its deadline");
}

void Platform::ensure_pipeline() {
  std::lock_guard lock(pipeline_mutex_);
  if (pipeline_ != nullptr) return;
  runtime::ExecutorConfig config = pipeline_config_;
  config.thread_count = pipeline_threads_ != 0
                            ? pipeline_threads_
                            : std::thread::hardware_concurrency();
  if (config.thread_count == 0) config.thread_count = 1;
  pipeline_ = std::make_unique<runtime::Executor>(config, metrics_);
  pipeline_->set_clock(clock_);
  // The staged core: logical per-stage queues over the shared executor,
  // plus the event loop that parks requests between stages.
  stage_synthesis_ = pipeline_->add_stage("synthesis");
  stage_controller_ = pipeline_->add_stage("controller");
  stage_broker_ = pipeline_->add_stage("broker");
  stage_complete_ = pipeline_->add_stage("complete");
  runtime::EventLoopConfig loop_config;
  loop_config.clock = clock_;
  loop_config.threaded = !manual_loop_;
  // An injected virtual clock advances without waking the loop thread;
  // the poll cap bounds how stale a due check can get. 1ms keeps the
  // loop idle-cheap while real-time tests stay responsive.
  loop_config.poll_cap = Duration(1000);
  loop_ = std::make_unique<runtime::EventLoop>(loop_config);
  // Broker invocations park their retries/overruns on the loop and hop
  // back onto workers through the broker stage.
  broker_->resources().set_async_engine(loop_.get(), pipeline_.get(),
                                        stage_broker_);
}

// ---- the request coroutine -------------------------------------------
//
// A submission is a Request served by one coroutine, synthesis →
// controller → complete (DESIGN.md §6b/§6e): at the inline door on the
// caller's stack; at the async door as stage hops that park on the event
// loop while the broker backs off or an attempt overruns. Exactly one
// party "holds" the request (and may touch its trace) at a time; the
// async deadline watchdog — the only concurrent party — flips `resolved`
// and invokes the callback but NEVER touches the trace. The coroutine
// observes `resolved` at its next stage, closes the spans and releases
// the inflight slot, so stop() still waits out every admitted request
// and no span is written concurrently.

struct Platform::Request {
  /// The caller's context (inline, borrowed) or the one minted at
  /// enqueue (async, published as last_async_context()).
  std::shared_ptr<obs::RequestContext> context;
  runtime::Executor* pipeline = nullptr;  ///< async: the stage executor
  std::string text;  ///< async: read by the synthesis stage
  /// Inline: read at the door.
  std::optional<Result<synthesis::SynthesisEngine::Draft>> draft;
  SubmitCallback callback;
  controller::ControlScript script;  ///< commit result, delivered at the end
  std::uint64_t root_span = 0;       ///< "ui.submit", closed by the chain
  std::uint64_t queue_span = 0;      ///< "runtime.queue" (async)
  std::uint64_t synthesis_span = 0;  ///< "synthesis.submit": commit + run
  std::uint64_t watchdog = 0;        ///< deadline timer id (0 = none)
  std::atomic<bool> resolved{false};
  /// True once real pipeline work began (set just before the synthesis
  /// commit). Only executed requests feed the admission EWMA: a burst of
  /// fast door refusals (admission re-check, deadline check, parse
  /// errors) must not drag the latency prediction down and re-admit
  /// doomed work. Written and read on the chain only.
  bool executed = false;
  std::optional<InflightGuard> inflight;
};

Result<controller::ControlScript> Platform::submit_inline(
    Result<synthesis::SynthesisEngine::Draft> read,
    obs::RequestContext& context) {
  std::optional<Result<controller::ControlScript>> outcome;
  Request request;
  request.inflight.emplace(*this);  // before admit()'s running_ check
  requests_submitted_.add();        // the coroutine takes it here
  request.context = std::shared_ptr<obs::RequestContext>(
      std::shared_ptr<void>(), &context);
  request.callback = [&outcome](Result<controller::ControlScript> settled) {
    outcome.emplace(std::move(settled));
  };
  std::string_view name;
  if (read.ok()) name = read->model.name();
  request.root_span = context.open_span(submit_span_, name);
  request.draft.emplace(std::move(read));
  runtime::run_inline(serve(request));
  return std::move(*outcome);
}

Status Platform::submit_async(std::string text, SubmitCallback callback,
                              SubmitOptions options) {
  auto request = std::make_shared<Request>();
  // The inflight slot registers before the running_ check (same rule as
  // the inline door): stop() either rejects this request or waits for it.
  request->inflight.emplace(*this);
  if (!running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("platform '" + name_ + "' is not started");
  }
  ensure_pipeline();
  request->pipeline = pipeline_.get();
  request->context = std::make_shared<obs::RequestContext>(*clock_, &metrics_,
                                                           options.deadline);
  request->context->allow_parking();
  if (options.high_priority) {
    request->context->set_attribute("priority", "high");
  }
  for (auto& [key, value] : options.attributes) {
    request->context->set_attribute(key, value);
  }
  // Enqueue-time admission: refuse doomed work before it costs a queue
  // slot. The synthesis stage re-checks after queue delay.
  if (Status admitted = admission_.admit(*request->context); !admitted.ok()) {
    return admitted;
  }
  request->text = std::move(text);
  request->callback = std::move(callback);
  // One root span for the whole staged traversal — every stage, park and
  // resume nests under it, so the trace stays a single tree no matter
  // how many workers the request visits. A request that crossed the wire
  // carries the sender's id as the span detail, keeping remote and local
  // trace trees correlated.
  const std::string_view remote = request->context->remote_id();
  request->root_span = request->context->open_span(
      submit_span_, remote.empty() ? std::string_view("staged") : remote);
  // A budget already spent (admission off lets it through) never takes
  // a queue slot or a watchdog: it resolves here as kTimeout, through
  // the callback, as the sync door's admit() does — counted submitted
  // and failed.
  if (Status live = request->context->check_deadline("ui"); !live.ok()) {
    requests_submitted_.add();
    finish(*request, std::move(live));
    return Status::Ok();
  }
  request->queue_span = request->context->open_span(queue_span_);
  // Deadline watchdog: a request whose budget expires while parked
  // between stages resolves with kTimeout *when it expires*, not when
  // some stage eventually notices. The loser of the resolved race only
  // counts; the chain does the trace/inflight cleanup at its next touch.
  if (options.deadline.has_value()) {
    request->watchdog = loop_->schedule(
        std::max<Duration>(*options.deadline, Duration(0)), [this, request] {
          if (request->resolved.exchange(true, std::memory_order_acq_rel)) {
            return;
          }
          watchdog_timeouts_.add();
          requests_failed_.add();
          invoke_callback(request->callback,
                          Timeout(request->context->tag() +
                                  " deadline expired in the staged pipeline"));
        });
  }
  runtime::Executor::Task task;
  task.run = [this, request] {
    // The chain owns itself; its completion keeps the request alive.
    obs::ContextScope ambient(*request->context);
    runtime::start_detached(serve(*request), [request] {});
  };
  task.lane = request->context->high_priority() ? runtime::TaskLane::kHigh
                                                : runtime::TaskLane::kNormal;
  task.stage = stage_synthesis_;
  // kShedOldest victims resolve their callback exactly once, then the
  // shed handler (chain owner: the request never started) closes out.
  task.on_shed = [this, request] {
    const bool won =
        !request->resolved.exchange(true, std::memory_order_acq_rel);
    request->context->close_span(request->root_span);  // closes queue span
    if (won) {
      requests_failed_.add();  // it was counted submitted at enqueue
      if (request->watchdog != 0) loop_->cancel(request->watchdog);
      invoke_callback(request->callback,
                      Unavailable(request->context->tag() +
                                  " shed from the pipeline queue under "
                                  "overload"));
    }
    request->inflight.reset();
  };
  Status submitted = pipeline_->submit(std::move(task));
  if (!submitted.ok()) {
    // Door refusal (kReject/full queue): undo — no callback, the caller
    // gets the status.
    request->context->close_span(request->root_span);
    if (request->watchdog != 0) loop_->cancel(request->watchdog);
    return submitted;
  }
  requests_submitted_.add();  // the coroutine took it
  return Status::Ok();
}

bool Platform::abandoned(Request& request) {
  if (!request.resolved.load(std::memory_order_acquire)) return false;
  // The watchdog already delivered kTimeout; the chain owns the trace,
  // so the close-out happens here, at its next touch.
  if (request.executed) {
    admission_.record_latency(request.context->elapsed());
  }
  request.context->close_span(request.root_span);
  request.inflight.reset();
  return true;
}

void Platform::finish(Request& request,
                      Result<controller::ControlScript> outcome) {
  // Feed the admission EWMA with the observed end-to-end latency (queue
  // and park time included — an async context is minted at enqueue), but
  // only for requests that actually ran the pipeline: shed and refused
  // requests resolve in microseconds and would poison the prediction.
  if (request.executed) {
    admission_.record_latency(request.context->elapsed());
  }
  const bool won =
      !request.resolved.exchange(true, std::memory_order_acq_rel);
  // A watchdog that won already counted this request as failed.
  if (won && !outcome.ok()) requests_failed_.add();
  // Close-through: the root span pops any child spans a timed-out chain
  // left open, keeping the trace a single well-formed tree.
  request.context->close_span(request.root_span);
  if (request.pipeline != nullptr) {
    std::lock_guard lock(last_async_mutex_);
    last_async_context_ = request.context;
  }
  if (won) {
    if (request.watchdog != 0) loop_->cancel(request.watchdog);
    invoke_callback(request.callback, std::move(outcome));
  }
  request.inflight.reset();
}

runtime::Executor::Hop Platform::hop(Request& request, std::uint32_t stage) {
  // Admitted work is never refused mid-chain: the hop is a continuation.
  return {request.pipeline, stage,
          request.context->high_priority() ? runtime::TaskLane::kHigh
                                           : runtime::TaskLane::kNormal,
          request.context.get()};
}

runtime::Task<> Platform::serve(Request& request) {
  obs::RequestContext& context = *request.context;
  context.close_span(request.queue_span);
  if (abandoned(request)) co_return;
  obs::ContextScope ambient(context);
  // Admission (async: re-checked after queue delay ate into the budget).
  if (Status admitted = admit(context); !admitted.ok()) {
    finish(request, std::move(admitted));
    co_return;
  }
  if (!request.draft.has_value()) {
    request.draft.emplace(
        synthesis_->read_text(request.text, context.session()));
  }
  Result<synthesis::SynthesisEngine::Draft>& read = *request.draft;
  if (!read.ok()) {
    finish(request, read.status());
    co_return;
  }
  // The serial window is the commit alone; the span runs on through
  // execution.
  request.executed = true;
  request.synthesis_span =
      context.open_span(synthesis_span_, read->model.name());
  Result<controller::ControlScript> script =
      synthesis_->submit(std::move(read.value()), context);
  if (!script.ok()) {
    finish(request, script.status());
    co_return;
  }
  request.script = std::move(script.value());
  Status executed;
  if (!request.script.empty()) {  // an unchanged model has nothing to run
    co_await hop(request, stage_controller_);
    if (abandoned(request)) co_return;
    // The script may park in the broker (backoff, attempt overrun); the
    // rest of the request resumes on whatever thread settles it.
    executed = co_await controller_->execute_script(request.script, context);
  }
  // The synthesis span covers commit and execution; it closes here.
  context.close_span(request.synthesis_span);
  co_await hop(request, stage_complete_);
  if (abandoned(request)) co_return;
  if (executed.ok()) executed = deliverable(context);
  if (executed.ok()) {
    finish(request, std::move(request.script));
  } else {
    finish(request, std::move(executed));
  }
}

void Platform::invoke_callback(const SubmitCallback& callback,
                               Result<controller::ControlScript> outcome) {
  if (callback == nullptr) return;
  try {
    callback(std::move(outcome));
  } catch (const std::exception& error) {
    callback_failures_.add();
    log_warn("platform") << "submit_async callback threw: " << error.what();
  } catch (...) {
    callback_failures_.add();
    log_warn("platform") << "submit_async callback threw a non-exception";
  }
}

Platform::PipelineStats Platform::pipeline_stats() const {
  std::lock_guard lock(pipeline_mutex_);
  PipelineStats stats;
  stats.queue_capacity = pipeline_config_.queue_capacity;
  if (pipeline_ != nullptr) {
    stats.max_pending = pipeline_->max_pending();
    stats.max_bounded_pending = pipeline_->max_bounded_pending();
  }
  return stats;
}

std::vector<runtime::Executor::StageStats> Platform::stage_stats() const {
  std::lock_guard lock(pipeline_mutex_);
  if (pipeline_ == nullptr) return {};
  return pipeline_->stage_stats();
}

Result<controller::ControlScript> Platform::submit_model(
    model::Model application_model) {
  last_context_ = std::make_unique<obs::RequestContext>(*clock_, &metrics_);
  return submit_model(std::move(application_model), *last_context_);
}

std::string Platform::runtime_model_text(std::string_view session) const {
  return synthesis_->runtime_model_text(session);
}

// ---- session-state checkpoint / snapshot-restore (PR 10) --------------

namespace {

/// Wire/disk format tag; bumped if the pair layout ever changes (v2: a
/// "sessions" list of [key, runtime model, LTS states] triples replaced
/// the single runtime_model/lts_states pair).
constexpr std::string_view kCheckpointFormat = "mdsm-session-checkpoint-v2";

using model::find_entry;
using model::make_entry;

/// Pack a sorted string→Value map as [[key, value], ...]. The input maps
/// are std::map, so the encoding is deterministic — snapshot() texts are
/// byte-comparable.
template <typename Map>
model::Value pack_scalar_map(const Map& map) {
  model::ValueList out;
  out.reserve(map.size());
  for (const auto& [key, value] : map) {
    out.push_back(make_entry(key, value));
  }
  return model::Value(std::move(out));
}

/// Visit a [[key, value], ...] section (absent section = empty).
template <typename Apply>
Status each_checkpoint_pair(const model::Value* section,
                            std::string_view what, Apply&& apply) {
  if (section == nullptr) return Status::Ok();
  if (!section->is_list()) {
    return InvalidArgument("checkpoint section '" + std::string(what) +
                           "' must be a list of [key, value] pairs");
  }
  for (const model::Value& entry : section->as_list()) {
    if (!entry.is_list() || entry.as_list().size() != 2 ||
        !entry.as_list()[0].is_string()) {
      return InvalidArgument("checkpoint section '" + std::string(what) +
                             "' holds a malformed [key, value] pair");
    }
    apply(entry.as_list()[0].as_string(), entry.as_list()[1]);
  }
  return Status::Ok();
}

}  // namespace

model::Value Platform::export_sessions(
    const std::string& label, const std::vector<std::string>& sessions) {
  // Each session's runtime model and LTS states are captured in ONE hold
  // of the synthesis mutex — mutually consistent even while submissions
  // race. The scalar stores follow as point-in-time copies (each
  // internally synchronized).
  model::ValueList exported;
  exported.reserve(sessions.size());
  for (const std::string& session : sessions) {
    synthesis::SynthesisEngine::ExportedState synth =
        synthesis_->export_state(session);
    model::ValueList lts;
    lts.reserve(synth.lts_states.size());
    for (const auto& [object_id, state] : synth.lts_states) {
      lts.push_back(make_entry(object_id, model::Value(state)));
    }
    model::ValueList triple;
    triple.push_back(model::Value(session));
    triple.push_back(model::Value(std::move(synth.runtime_model_text)));
    triple.push_back(model::Value(std::move(lts)));
    exported.push_back(model::Value(std::move(triple)));
  }
  model::ValueList root;
  root.push_back(
      make_entry("format", model::Value(std::string(kCheckpointFormat))));
  root.push_back(make_entry("session", model::Value(label)));
  root.push_back(make_entry("sessions", model::Value(std::move(exported))));
  root.push_back(make_entry(
      "memory", pack_scalar_map(controller_->engine().memory_snapshot())));
  root.push_back(make_entry("context", pack_scalar_map(context_.snapshot())));
  root.push_back(make_entry(
      "broker", pack_scalar_map(broker_->state().variables_snapshot())));
  return model::Value(std::move(root));
}

Result<model::Value> Platform::export_session_state(
    const std::string& session) {
  return export_sessions(session, {session});
}

Status Platform::import_session_state(const model::Value& state) {
  if (!state.is_list()) {
    return InvalidArgument(
        "session checkpoint must be a list of [key, value] pairs");
  }
  const model::ValueList& entries = state.as_list();
  const model::Value* format = find_entry(entries, "format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != kCheckpointFormat) {
    return InvalidArgument("unrecognized session-checkpoint format");
  }
  const model::Value* sessions = find_entry(entries, "sessions");
  if (sessions == nullptr || !sessions->is_list()) {
    return InvalidArgument("session checkpoint carries no sessions list");
  }
  // Decode and validate every session before adopting any, so a bad
  // checkpoint leaves the platform untouched. This is the only
  // conformance check: restore_state() trusts what it is handed.
  struct Decoded {
    std::string key;
    model::Model model;
    synthesis::LtsStates lts_states;
  };
  std::vector<Decoded> decoded;
  for (const model::Value& entry : sessions->as_list()) {
    if (!entry.is_list() || entry.as_list().size() != 3 ||
        !entry.as_list()[0].is_string() || !entry.as_list()[1].is_string()) {
      return InvalidArgument(
          "checkpoint sessions entries must be [key, model, lts_states]");
    }
    const model::ValueList& triple = entry.as_list();
    Result<model::Model> checkpointed =
        model::parse_model(triple[1].as_string(), dsml_);
    if (!checkpointed.ok()) return checkpointed.status();
    MDSM_RETURN_IF_ERROR(checkpointed.value().validate());
    synthesis::LtsStates lts_states;
    bool states_ok = true;
    MDSM_RETURN_IF_ERROR(each_checkpoint_pair(
        &triple[2], "lts_states",
        [&](const std::string& id, const model::Value& value) {
          states_ok = states_ok && value.is_string();
          if (states_ok) lts_states[id] = value.as_string();
        }));
    if (!states_ok) {
      return InvalidArgument(
          "checkpoint lts_states entries must be [id, state] string pairs");
    }
    decoded.push_back(Decoded{triple[0].as_string(),
                              std::move(checkpointed.value()),
                              std::move(lts_states)});
  }
  // Adopt each session's model + LTS states (replacing that session only;
  // fires the model listener so the broker's runtime-model mirror
  // converges), then merge the platform-wide scalar stores.
  for (Decoded& session : decoded) {
    synthesis_->restore_state(session.key, std::move(session.model),
                              std::move(session.lts_states));
  }
  MDSM_RETURN_IF_ERROR(each_checkpoint_pair(
      find_entry(entries, "memory"), "memory",
      [this](const std::string& key, const model::Value& value) {
        controller_->engine().set_memory(key, value);
      }));
  MDSM_RETURN_IF_ERROR(each_checkpoint_pair(
      find_entry(entries, "context"), "context",
      [this](const std::string& key, const model::Value& value) {
        context_.set(key, value);
      }));
  MDSM_RETURN_IF_ERROR(each_checkpoint_pair(
      find_entry(entries, "broker"), "broker",
      [this](const std::string& key, const model::Value& value) {
        broker_->state().set(key, value);
      }));
  states_imported_.add();
  return Status::Ok();
}

Result<std::string> Platform::snapshot() {
  std::vector<std::string> sessions{""};  // the default session first
  for (std::string& session : synthesis_->live_sessions()) {
    sessions.push_back(std::move(session));
  }
  return export_sessions(name_, sessions).to_text();
}

Status Platform::restore(std::string_view snapshot_text) {
  Result<model::Value> parsed = model::parse_value(snapshot_text);
  if (!parsed.ok()) return parsed.status();
  return import_session_state(parsed.value());
}

}  // namespace mdsm::core
