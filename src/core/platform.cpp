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
  platform->admission_.set_metrics(&platform->metrics_);
  platform->admission_.set_bus(&platform->bus_);

  // Networked ingress (PR 7): the front-end's endpoint name, auth stub
  // and default wire deadline are model attributes too — a split
  // deployment is described by the same middleware model that describes
  // the platform it fronts.
  platform->ingress_settings_.endpoint = root.get_string("ingress_endpoint");
  platform->ingress_settings_.auth_token = root.get_string("ingress_auth");
  platform->ingress_settings_.default_deadline =
      Duration(root.get_int("ingress_default_deadline_us", 0));
  platform->ingress_settings_.rate_limit =
      root.get_real("ingress_rate_limit", 0.0);
  platform->ingress_settings_.rate_burst =
      root.get_real("ingress_rate_burst", 0.0);
  platform->ingress_settings_.dedup_ttl =
      Duration(root.get_int("ingress_dedup_ttl_us", 0));

  // The component factory holds the layer "code templates"; assembly then
  // instantiates them with the model objects as metadata (paper §V-A).
  runtime::EventBus& bus = platform->bus_;
  policy::ContextStore& context = platform->context_;
  MDSM_RETURN_IF_ERROR(platform->factory_.register_template(
      "BrokerLayerSpec",
      [&bus, &context](const model::ModelObject& spec, const model::Model&)
          -> Result<std::unique_ptr<runtime::Component>> {
        return Result<std::unique_ptr<runtime::Component>>(
            std::make_unique<broker::BrokerLayer>(spec.id(), bus, context));
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
  std::int64_t model_bound = controller_specs[0]->get_int(
      "max_configurations", 256);
  generator_config.max_configurations =
      config.max_configurations != 0
          ? config.max_configurations
          : static_cast<std::size_t>(model_bound);
  platform->controller_ = std::make_unique<controller::ControllerLayer>(
      controller_specs[0]->id(), *platform->broker_, bus, context,
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
  } else if (config.lts_override.has_value()) {
    lts = std::move(*config.lts_override);
  } else {
    return InvalidArgument(
        "no synthesis semantics: middleware model declares no transitions "
        "and no LTS override was supplied");
  }
  controller::ControllerLayer* controller = platform->controller_.get();
  platform->synthesis_ = std::make_unique<synthesis::SynthesisEngine>(
      synthesis_specs.empty() ? "synthesis" : synthesis_specs[0]->id(),
      config.dsml, std::move(lts), context,
      // Pre-commit dispatch runs under the synthesis serial mutex, so it
      // must stay cheap: just the controller-crossing deadline check (a
      // dispatch failure keeps the old runtime model in force).
      [](const controller::ControlScript&, obs::RequestContext& request) {
        return request.check_deadline("controller");
      });
  // Post-commit execution — the parallel phase. execute_script opens the
  // "controller.script" span covering every command plus the drain of the
  // events they raised, nested (like the old in-dispatch crossing) under
  // the request's "synthesis.submit" span.
  platform->synthesis_->set_executor(
      [controller](const controller::ControlScript& script,
                   obs::RequestContext& request) {
        return controller->execute_script(script, request);
      });

  // Every layer records into the platform-wide registry (stable address:
  // the platform is heap-allocated and non-movable).
  platform->broker_->set_metrics(&platform->metrics_);
  platform->controller_->set_metrics(&platform->metrics_);
  platform->synthesis_->set_metrics(&platform->metrics_);

  // Controller exceptional conditions flow back to the Synthesis layer
  // ("handles events from the Controller layer", paper §V-A).
  synthesis::SynthesisEngine* synthesis = platform->synthesis_.get();
  platform->error_subscription_ = bus.subscribe(
      "controller.error", [synthesis](const runtime::Event& event) {
        synthesis->handle_controller_event(event.topic, event.payload);
      });

  // models@runtime at the broker layer: the State Manager mirrors the
  // committed application model so broker-level introspection (and
  // autonomic rules in future) can consult it.
  broker::BrokerLayer* broker = platform->broker_.get();
  platform->synthesis_->set_model_listener(
      [broker](const synthesis::SynthesisEngine::ModelPtr& committed) {
        broker->state().set_runtime_model(committed);
      });

  return platform;
}

Platform::~Platform() {
  // Join the async pipeline first: queued submissions may still reach
  // into every layer. The loop stops before the executor drains — no
  // more timer-driven resumes — but stays alive through the drain so
  // draining tasks can still call schedule() (dropped silently after
  // stop()). Then the stage pipeline (holds Executor*), then the loop.
  running_.store(false, std::memory_order_release);
  if (loop_ != nullptr) loop_->stop();
  pipeline_.reset();
  stages_.reset();
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
  // Drain the async pipeline (queued tasks run to completion — rejected
  // by the gate or finishing normally), then wait out every in-flight
  // submission before stopping the layers under them. Staged requests
  // hold an inflight slot from the door to their terminal continuation,
  // so the wait also covers requests parked on event-loop timers — the
  // threaded loop keeps firing them; a manual loop must be pumped here.
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
  {
    std::unique_lock inflight(inflight_mutex_);
    inflight_cv_.wait(inflight, [this] { return inflight_ == 0; });
  }
  MDSM_RETURN_IF_ERROR(synthesis_->stop());
  MDSM_RETURN_IF_ERROR(controller_->stop());
  MDSM_RETURN_IF_ERROR(broker_->stop());
  return Status::Ok();
}

Result<controller::ControlScript> Platform::submit_model_text(
    std::string_view text, obs::RequestContext& context) {
  Result<model::Model> application_model = model::parse_model(text, dsml_);
  if (!application_model.ok()) return application_model.status();
  return submit_model(std::move(application_model.value()), context);
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
  // No global submit lock: submissions run concurrently. The only serial
  // section is the synthesis model swap (diff→interpret→commit, under the
  // synthesis engine's mutex); classification, IM generation, and
  // controller/broker execution overlap across requests. The guard
  // registers this submission before the running_ check so stop() either
  // rejects us or waits for us — never tears us mid-pipeline.
  InflightGuard inflight(*this);
  // UI-layer crossing: the root span of the request's trace. The scope
  // makes the context ambient so bus events published anywhere below are
  // stamped with this request's id.
  obs::ContextScope ambient(context);
  obs::ScopedSpan span(context, "ui.submit", application_model.name());
  metrics_.counter("requests.submitted").add();
  auto fail = [this](Status status) -> Result<controller::ControlScript> {
    metrics_.counter("requests.failed").add();
    return status;
  };
  if (Status admitted = admit(context); !admitted.ok()) {
    return fail(std::move(admitted));
  }
  Result<controller::ControlScript> script =
      synthesis_->submit_model(std::move(application_model), context);
  // Feed the admission EWMA with the observed end-to-end latency (queue
  // delay included — async contexts are minted at enqueue). Failures
  // consumed pipeline time all the same, so they count too; admission
  // sheds never reach this line.
  admission_.record_latency(context.elapsed());
  if (!script.ok()) return fail(script.status());
  if (Status late = deliverable(context); !late.ok()) {
    return fail(std::move(late));
  }
  return script;
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
  metrics_.counter("ui.completed_late").add();
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
  pipeline_ = std::make_unique<runtime::Executor>(config);
  pipeline_->set_metrics(&metrics_);
  pipeline_->set_clock(clock_);
  // The staged core: logical per-stage queues over the shared executor,
  // plus the event loop that parks requests between stages.
  stages_ = std::make_unique<runtime::StagePipeline>(*pipeline_, *clock_,
                                                     &metrics_);
  stage_synthesis_ = stages_->add_stage("synthesis");
  stage_controller_ = stages_->add_stage("controller");
  stage_broker_ = stages_->add_stage("broker");
  stage_complete_ = stages_->add_stage("complete");
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
  broker_->resources().set_async_engine(
      loop_.get(), [this](std::function<void()> fn) {
        runtime::StagePipeline::SubmitOptions options;
        options.continuation = true;
        Status submitted =
            stages_->submit(stage_broker_, std::move(fn), options);
        if (!submitted.ok()) {
          log_warn("platform") << "broker continuation dropped: "
                               << submitted.to_string();
        }
      });
}

// ---- staged pipeline (PR 6) ------------------------------------------
//
// A request does not hold a worker end-to-end: it is a StagedRequest
// hopping synthesis → controller → broker → complete as continuations,
// parking on the event loop whenever the broker backs off or an attempt
// overruns. Ownership discipline: exactly one continuation "holds" the
// request (and may touch its trace) at a time; the deadline watchdog — the
// only concurrent party — flips `resolved` and invokes the callback but
// NEVER touches the trace. The chain observes `resolved` at its next
// touch, closes the spans and releases the inflight slot, so stop() still
// waits out every admitted request and no span is written concurrently.

struct Platform::StagedRequest {
  std::shared_ptr<obs::RequestContext> context;
  std::string text;
  SubmitCallback callback;
  controller::ControlScript script;  ///< commit result, delivered at the end
  std::uint64_t root_span = 0;       ///< "ui.submit", closed by the chain
  std::uint64_t queue_span = 0;      ///< "runtime.queue", closed at stage 1
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

Status Platform::submit_async(std::string text, SubmitCallback callback,
                              SubmitOptions options) {
  auto request = std::make_shared<StagedRequest>();
  // The inflight slot registers before the running_ check (same rule as
  // submit_model): stop() either rejects this request or waits for it.
  request->inflight.emplace(*this);
  if (!running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("platform '" + name_ + "' is not started");
  }
  ensure_pipeline();
  request->context = std::make_shared<obs::RequestContext>(*clock_, &metrics_,
                                                           options.deadline);
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
      "ui.submit", remote.empty() ? std::string_view("staged") : remote);
  request->queue_span = request->context->open_span("runtime.queue");
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
          metrics_.counter("ui.watchdog_timeouts").add();
          metrics_.counter("requests.failed").add();
          invoke_callback(request->callback,
                          Timeout(request->context->tag() +
                                  " deadline expired in the staged pipeline"));
        });
  }
  runtime::StagePipeline::SubmitOptions stage_options;
  stage_options.lane = request->context->high_priority()
                           ? runtime::TaskLane::kHigh
                           : runtime::TaskLane::kNormal;
  // kShedOldest victims resolve their callback exactly once, then the
  // shed handler (chain owner: the request never started) closes out.
  stage_options.on_shed = [this, request] {
    const bool won =
        !request->resolved.exchange(true, std::memory_order_acq_rel);
    request->context->close_span(request->root_span);  // closes queue span
    if (won) {
      if (request->watchdog != 0) loop_->cancel(request->watchdog);
      invoke_callback(request->callback,
                      Unavailable(request->context->tag() +
                                  " shed from the pipeline queue under "
                                  "overload"));
    }
    request->inflight.reset();
  };
  Status submitted = stages_->submit(
      stage_synthesis_, [this, request] { stage_synthesis(request); },
      stage_options);
  if (!submitted.ok()) {
    // Door refusal (kReject/full queue): undo — no callback, the caller
    // gets the status.
    request->context->close_span(request->root_span);
    if (request->watchdog != 0) loop_->cancel(request->watchdog);
    return submitted;
  }
  return Status::Ok();
}

bool Platform::staged_abandoned(const std::shared_ptr<StagedRequest>& request) {
  if (!request->resolved.load(std::memory_order_acquire)) return false;
  // The watchdog already delivered kTimeout; the chain owns the trace,
  // so the close-out happens here, at its next touch.
  if (request->executed) {
    admission_.record_latency(request->context->elapsed());
  }
  request->context->close_span(request->root_span);
  request->inflight.reset();
  return true;
}

void Platform::finish_staged(const std::shared_ptr<StagedRequest>& request,
                             Result<controller::ControlScript> outcome) {
  // Feed the admission EWMA with the observed end-to-end latency (queue
  // and park time included — the context was minted at enqueue), but
  // only for requests that actually ran the pipeline: shed and refused
  // requests resolve in microseconds and would poison the prediction.
  if (request->executed) {
    admission_.record_latency(request->context->elapsed());
  }
  if (!outcome.ok()) metrics_.counter("requests.failed").add();
  const bool won =
      !request->resolved.exchange(true, std::memory_order_acq_rel);
  // Close-through: the root span pops any child spans a timed-out chain
  // left open, keeping the trace a single well-formed tree.
  request->context->close_span(request->root_span);
  {
    std::lock_guard lock(last_async_mutex_);
    last_async_context_ = request->context;
  }
  if (won) {
    if (request->watchdog != 0) loop_->cancel(request->watchdog);
    invoke_callback(request->callback, std::move(outcome));
  }
  request->inflight.reset();
}

void Platform::submit_continuation(
    std::size_t stage, const std::shared_ptr<StagedRequest>& request,
    runtime::Continuation fn) {
  runtime::StagePipeline::SubmitOptions options;
  options.lane = request->context->high_priority() ? runtime::TaskLane::kHigh
                                                   : runtime::TaskLane::kNormal;
  options.continuation = true;  // admitted work is never refused mid-chain
  Status submitted = stages_->submit(stage, std::move(fn), options);
  if (!submitted.ok()) {
    // Only reachable when the executor is shutting down (destructor
    // teardown); the request can never complete, so close it out.
    log_warn("platform") << request->context->tag()
                         << " continuation dropped: " << submitted.to_string();
    finish_staged(request, Unavailable("staged pipeline shut down mid-request"));
  }
}

void Platform::stage_synthesis(std::shared_ptr<StagedRequest> request) {
  request->context->close_span(request->queue_span);
  if (staged_abandoned(request)) return;
  obs::ContextScope ambient(*request->context);
  metrics_.counter("requests.submitted").add();
  // Dequeue-time admission re-check: queue delay ate into the budget.
  if (Status admitted = admit(*request->context); !admitted.ok()) {
    finish_staged(request, std::move(admitted));
    return;
  }
  Result<model::Model> parsed = model::parse_model(request->text, dsml_);
  if (!parsed.ok()) {
    finish_staged(request, parsed.status());
    return;
  }
  // Commit only — the serial synthesis window releases before controller
  // execution is even scheduled (the commit itself never parks).
  request->executed = true;
  Result<controller::ControlScript> script =
      synthesis_->commit_model(std::move(parsed.value()), *request->context);
  if (!script.ok()) {
    finish_staged(request, script.status());
    return;
  }
  request->script = std::move(script.value());
  if (request->script.empty()) {
    // Nothing to execute (model unchanged): skip straight to completion.
    submit_continuation(stage_complete_, request, [this, request] {
      stage_complete(request, Status::Ok());
    });
    return;
  }
  submit_continuation(stage_controller_, request,
                      [this, request] { stage_controller(request); });
}

void Platform::stage_controller(std::shared_ptr<StagedRequest> request) {
  if (staged_abandoned(request)) return;
  obs::ContextScope ambient(*request->context);
  // The script chain may park in the broker (backoff, attempt overrun);
  // its completion fires on whatever thread settles the last command and
  // hops to the completion stage from there. The completion holds the
  // request, so request->script outlives the run.
  controller_->execute_script_async(
      request->script, *request->context, [this, request](Status executed) {
        submit_continuation(stage_complete_, request,
                            [this, request, executed] {
                              stage_complete(request, executed);
                            });
      });
}

void Platform::stage_complete(std::shared_ptr<StagedRequest> request,
                              Status executed) {
  if (staged_abandoned(request)) return;
  obs::ContextScope ambient(*request->context);
  if (executed.ok()) executed = deliverable(*request->context);
  if (!executed.ok()) {
    finish_staged(request, std::move(executed));
    return;
  }
  finish_staged(request, std::move(request->script));
}

void Platform::invoke_callback(const SubmitCallback& callback,
                               Result<controller::ControlScript> outcome) {
  if (callback == nullptr) return;
  try {
    callback(std::move(outcome));
  } catch (const std::exception& error) {
    metrics_.counter("ui.callback_failures").add();
    log_warn("platform") << "submit_async callback threw: " << error.what();
  } catch (...) {
    metrics_.counter("ui.callback_failures").add();
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
    stats.rejections = pipeline_->rejections();
    stats.shed = pipeline_->shed_tasks();
  }
  return stats;
}

std::vector<runtime::StagePipeline::StageStats> Platform::stage_stats()
    const {
  std::lock_guard lock(pipeline_mutex_);
  if (stages_ == nullptr) return {};
  return stages_->stats();
}

Result<controller::ControlScript> Platform::submit_model(
    model::Model application_model) {
  last_context_ = std::make_unique<obs::RequestContext>(*clock_, &metrics_);
  return submit_model(std::move(application_model), *last_context_);
}

std::string Platform::runtime_model_text() const {
  return synthesis_->runtime_model_text();
}

// ---- session-state checkpoint / snapshot-restore (PR 10) --------------

namespace {

/// Wire/disk format tag; bumped if the pair layout ever changes.
constexpr std::string_view kCheckpointFormat = "mdsm-session-checkpoint-v1";

/// The checkpoint tree is a list of [key, value] pairs; find `key`.
const model::Value* find_checkpoint_entry(const model::ValueList& entries,
                                          std::string_view key) {
  for (const model::Value& entry : entries) {
    if (!entry.is_list() || entry.as_list().size() != 2) continue;
    const model::ValueList& pair = entry.as_list();
    if (pair[0].is_string() && pair[0].as_string() == key) return &pair[1];
  }
  return nullptr;
}

model::Value make_pair(std::string key, model::Value value) {
  model::ValueList pair;
  pair.push_back(model::Value(std::move(key)));
  pair.push_back(std::move(value));
  return model::Value(std::move(pair));
}

/// Pack a sorted string→Value map as [[key, value], ...]. The input maps
/// are std::map, so the encoding is deterministic — snapshot() texts are
/// byte-comparable.
template <typename Map>
model::Value pack_scalar_map(const Map& map) {
  model::ValueList out;
  out.reserve(map.size());
  for (const auto& [key, value] : map) {
    out.push_back(make_pair(key, value));
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

Result<model::Value> Platform::export_session_state(
    const std::string& session) {
  // The runtime model and the interpreter's LTS states are captured in
  // ONE hold of the synthesis mutex — mutually consistent even while
  // submissions race. The scalar stores follow as point-in-time copies
  // (each internally synchronized).
  synthesis::SynthesisEngine::ExportedState synth = synthesis_->export_state();
  model::ValueList lts;
  lts.reserve(synth.lts_states.size());
  for (const auto& [object_id, state] : synth.lts_states) {
    lts.push_back(make_pair(object_id, model::Value(state)));
  }
  model::ValueList root;
  root.push_back(make_pair("format", model::Value(std::string(
                                         kCheckpointFormat))));
  root.push_back(make_pair("session", model::Value(session)));
  root.push_back(
      make_pair("runtime_model",
                model::Value(std::move(synth.runtime_model_text))));
  root.push_back(make_pair("lts_states", model::Value(std::move(lts))));
  root.push_back(make_pair(
      "memory", pack_scalar_map(controller_->engine().memory_snapshot())));
  root.push_back(make_pair("context", pack_scalar_map(context_.snapshot())));
  root.push_back(make_pair(
      "broker", pack_scalar_map(broker_->state().variables_snapshot())));
  return model::Value(std::move(root));
}

Status Platform::import_session_state(const model::Value& state) {
  if (!state.is_list()) {
    return InvalidArgument(
        "session checkpoint must be a list of [key, value] pairs");
  }
  const model::ValueList& entries = state.as_list();
  const model::Value* format = find_checkpoint_entry(entries, "format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != kCheckpointFormat) {
    return InvalidArgument("unrecognized session-checkpoint format");
  }
  const model::Value* model_text =
      find_checkpoint_entry(entries, "runtime_model");
  if (model_text == nullptr || !model_text->is_string()) {
    return InvalidArgument("session checkpoint carries no runtime model");
  }
  Result<model::Model> checkpointed =
      model::parse_model(model_text->as_string(), dsml_);
  if (!checkpointed.ok()) return checkpointed.status();
  std::map<std::string, std::string, std::less<>> lts_states;
  if (const model::Value* lts = find_checkpoint_entry(entries, "lts_states");
      lts != nullptr) {
    if (!lts->is_list()) {
      return InvalidArgument("checkpoint lts_states must be a list");
    }
    for (const model::Value& entry : lts->as_list()) {
      if (!entry.is_list() || entry.as_list().size() != 2 ||
          !entry.as_list()[0].is_string() ||
          !entry.as_list()[1].is_string()) {
        return InvalidArgument(
            "checkpoint lts_states entries must be [id, state] string "
            "pairs");
      }
      lts_states[entry.as_list()[0].as_string()] =
          entry.as_list()[1].as_string();
    }
  }
  // Adopt model + LTS states first (validates conformance; fires the
  // model listener so the broker's runtime-model mirror converges). On
  // failure nothing below has been touched.
  MDSM_RETURN_IF_ERROR(synthesis_->restore_state(
      std::move(checkpointed.value()), std::move(lts_states)));
  MDSM_RETURN_IF_ERROR(each_checkpoint_pair(
      find_checkpoint_entry(entries, "memory"), "memory",
      [this](const std::string& key, const model::Value& value) {
        controller_->engine().set_memory(key, value);
      }));
  MDSM_RETURN_IF_ERROR(each_checkpoint_pair(
      find_checkpoint_entry(entries, "context"), "context",
      [this](const std::string& key, const model::Value& value) {
        context_.set(key, value);
      }));
  MDSM_RETURN_IF_ERROR(each_checkpoint_pair(
      find_checkpoint_entry(entries, "broker"), "broker",
      [this](const std::string& key, const model::Value& value) {
        broker_->state().set(key, value);
      }));
  metrics_.counter("platform.session_states_imported").add();
  return Status::Ok();
}

Result<std::string> Platform::snapshot() {
  Result<model::Value> exported = export_session_state(name_);
  if (!exported.ok()) return exported.status();
  return exported.value().to_text();
}

Status Platform::restore(std::string_view snapshot_text) {
  Result<model::Value> parsed = model::parse_value(snapshot_text);
  if (!parsed.ok()) return parsed.status();
  return import_session_state(parsed.value());
}

}  // namespace mdsm::core
