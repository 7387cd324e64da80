#include "synthesis/synthesis_engine.hpp"

#include <utility>

#include "common/log.hpp"
#include "model/text_format.hpp"

namespace mdsm::synthesis {

SynthesisEngine::SynthesisEngine(std::string name, model::MetamodelPtr dsml,
                                 Lts lts, const policy::ContextStore& context,
                                 obs::MetricsRegistry& metrics,
                                 Dispatch dispatch)
    : Component(std::move(name)),
      dsml_(dsml),
      lts_(std::move(lts)),
      interpreter_(lts_, dsml, context),
      models_submitted_(metrics.counter("synthesis.models")),
      scripts_dispatched_(metrics.counter("synthesis.scripts")),
      commands_generated_(metrics.counter("synthesis.commands")),
      rejected_models_(metrics.counter("synthesis.rejected_models")),
      controller_events_(metrics.counter("synthesis.controller_events")),
      dispatch_(std::move(dispatch)),
      runtime_model_(std::make_shared<const model::Model>("runtime", dsml)) {}

Result<controller::ControlScript> SynthesisEngine::submit_model(
    model::Model new_model, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  obs::ScopedSpan span(context, "synthesis.submit", new_model.name());
  Result<controller::ControlScript> script =
      commit_core(std::move(new_model), context);
  if (!script.ok()) return script;
  // Post-commit execution — outside the serial mutex, still inside this
  // request's "synthesis.submit" span. Independent submissions overlap
  // here. An execution failure surfaces to the submitter but does not
  // roll back the committed model.
  if (executor_ != nullptr && !script->empty()) {
    Status executed = executor_(*script, context);
    if (!executed.ok()) return executed;
  }
  return script;
}

Result<controller::ControlScript> SynthesisEngine::commit_model(
    model::Model new_model, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  obs::ScopedSpan span(context, "synthesis.submit", new_model.name());
  return commit_core(std::move(new_model), context);
}

Result<controller::ControlScript> SynthesisEngine::commit_core(
    model::Model new_model, obs::RequestContext& context) {
  models_submitted_.add();
  // Checks that do not touch shared synthesis state run before the serial
  // section so rejected submissions never contend with live ones.
  if (Status deadline = context.check_deadline("synthesis"); !deadline.ok()) {
    rejected_models_.add();
    return deadline;
  }
  if (&new_model.metamodel() != dsml_.get()) {
    rejected_models_.add();
    return InvalidArgument("submitted model conforms to metamodel '" +
                           new_model.metamodel().name() +
                           "', engine expects '" + dsml_->name() + "'");
  }
  Status valid = new_model.validate();
  if (!valid.ok()) {
    rejected_models_.add();
    return valid;
  }
  Result<controller::ControlScript> script = InvalidArgument("unreachable");
  ModelPtr previous;  // released after the mutex, if this was its last use
  {
    std::lock_guard lock(mutex_);
    // Model comparator.
    model::ChangeList changes = model::diff(*runtime_model_, new_model);
    MDSM_LOG_DEBUG("synthesis") << name() << ": " << changes.size()
                                << " change(s) between runtime and new model";
    // Change interpreter. Interpreter state mutates as transitions fire;
    // on interpretation failure the engine keeps the old runtime model
    // but interpreter states may have advanced — domains treat
    // interpretation errors as fatal configuration bugs, matching the
    // paper's assumption that LTSs fully cover their DSML.
    script = interpreter_.interpret(changes, new_model);
    if (!script.ok()) {
      rejected_models_.add();
      return script;
    }
    // Dispatcher: ship the script down, then commit the runtime model.
    if (dispatch_ != nullptr && !script->empty()) {
      Status dispatched = dispatch_(*script, context);
      if (!dispatched.ok()) {
        rejected_models_.add();
        return dispatched;
      }
    }
    scripts_dispatched_.add();
    commands_generated_.add(script->commands.size());
    previous = std::exchange(
        runtime_model_,
        std::make_shared<const model::Model>(std::move(new_model)));
    if (listener_ != nullptr) listener_(runtime_model_);
  }
  return script;
}

void SynthesisEngine::handle_controller_event(const std::string& topic,
                                              const model::Value& payload) {
  controller_events_.add();
  std::string entry = topic + ": " + payload.to_text();
  std::lock_guard lock(event_mutex_);
  if (event_log_.size() == kEventLogCapacity) event_log_.pop_front();
  event_log_.push_back(std::move(entry));
}

SynthesisEngine::ModelPtr SynthesisEngine::runtime_model() const {
  std::lock_guard lock(mutex_);
  return runtime_model_;
}

std::string SynthesisEngine::runtime_model_text() const {
  return model::serialize_model(*runtime_model());
}

SynthesisEngine::ExportedState SynthesisEngine::export_state() const {
  ExportedState out;
  ModelPtr committed;
  {
    std::lock_guard lock(mutex_);
    committed = runtime_model_;
    out.lts_states = interpreter_.states();
  }
  out.runtime_model_text = model::serialize_model(*committed);
  return out;
}

Status SynthesisEngine::restore_state(
    model::Model runtime_model,
    std::map<std::string, std::string, std::less<>> lts_states) {
  if (&runtime_model.metamodel() != dsml_.get()) {
    return InvalidArgument("restored model conforms to metamodel '" +
                           runtime_model.metamodel().name() +
                           "', engine expects '" + dsml_->name() + "'");
  }
  Status valid = runtime_model.validate();
  if (!valid.ok()) return valid;
  auto restored = std::make_shared<const model::Model>(std::move(runtime_model));
  std::lock_guard lock(mutex_);
  runtime_model_.swap(restored);
  interpreter_.restore_states(std::move(lts_states));
  if (listener_ != nullptr) listener_(runtime_model_);
  return Status::Ok();
}

SynthesisStats SynthesisEngine::stats() const {
  return {.models_submitted = models_submitted_.value(),
          .scripts_dispatched = scripts_dispatched_.value(),
          .commands_generated = commands_generated_.value(),
          .rejected_models = rejected_models_.value(),
          .controller_events = controller_events_.value()};
}

std::vector<std::string> SynthesisEngine::event_log() const {
  std::lock_guard lock(event_mutex_);
  return {event_log_.begin(), event_log_.end()};
}

}  // namespace mdsm::synthesis
