#include "synthesis/change_interpreter.hpp"

#include "common/ids.hpp"
#include "common/strings.hpp"

namespace mdsm::synthesis {

namespace {

model::Value instantiate(const model::Value& value,
                         const model::Change& change,
                         const model::Model& new_model) {
  if (!value.is_string()) return value;
  const std::string& text = value.as_string();
  if (!starts_with(text, "%")) return value;
  if (starts_with(text, "%%")) return model::Value(text.substr(1));
  if (text == "%id") return model::Value(change.object_id);
  if (text == "%class") return model::Value(change.class_name);
  if (text == "%parent") return model::Value(change.parent_id);
  if (text == "%feature") return model::Value(change.feature);
  if (text == "%target") return model::Value(change.target_id);
  if (text == "%new") return change.new_value;
  if (text == "%old") return change.old_value;
  if (starts_with(text, "%attr:")) {
    const model::ModelObject* object = new_model.find(change.object_id);
    if (object == nullptr) return {};
    return object->get(text.substr(6));
  }
  return value;  // unknown % template passes through verbatim
}

}  // namespace

ChangeInterpreter::ChangeInterpreter(const Lts& lts,
                                     model::MetamodelPtr metamodel,
                                     const policy::ContextStore& context,
                                     obs::MetricsRegistry& metrics)
    : lts_(&lts),
      metamodel_(std::move(metamodel)),
      context_(&context),
      changes_processed_(metrics.counter("synthesis.changes_processed")),
      transitions_fired_(metrics.counter("synthesis.transitions_fired")),
      unhandled_changes_(metrics.counter("synthesis.unhandled_changes")),
      guard_blocked_(metrics.counter("synthesis.guard_blocked")) {}

bool ChangeInterpreter::trigger_matches(const Trigger& trigger,
                                        const model::Change& change) const {
  if (trigger.kind != change.kind) return false;
  if (!trigger.class_name.empty() &&
      !metamodel_->is_kind_of(change.class_name, trigger.class_name)) {
    return false;
  }
  if (!trigger.feature.empty() && trigger.feature != change.feature) {
    return false;
  }
  if (!trigger.new_value.is_none() &&
      !(trigger.new_value == change.new_value)) {
    return false;
  }
  return true;
}

Result<controller::ControlScript> ChangeInterpreter::interpret(
    const model::ChangeList& changes, const model::Model& new_model,
    LtsStates& states) {
  controller::ControlScript script;
  script.id = next_tagged_id("script");
  for (const model::Change& change : changes) {
    changes_processed_.add();
    // Creation enters the initial state before matching, so AddObject
    // transitions are written from the initial state.
    if (change.kind == model::ChangeKind::kAddObject) {
      states[change.object_id] = lts_->initial_state();
    }
    auto state_it = states.find(change.object_id);
    const std::string current_state =
        state_it == states.end() ? lts_->initial_state() : state_it->second;
    const Transition* fired = nullptr;
    bool matched_any = false;
    for (const Transition& transition : lts_->transitions()) {
      if (transition.from != current_state) continue;
      if (!trigger_matches(transition.trigger, change)) continue;
      matched_any = true;
      Result<bool> open = transition.guard.evaluate_bool(*context_);
      if (!open.ok()) return open.status();
      if (!*open) {
        guard_blocked_.add();
        continue;
      }
      fired = &transition;
      break;  // first matching open transition wins (deterministic)
    }
    if (fired == nullptr) {
      if (!matched_any) unhandled_changes_.add();
      // Removal of an untracked/unmatched object still clears state.
      if (change.kind == model::ChangeKind::kRemoveObject) {
        states.erase(change.object_id);
      }
      continue;
    }
    transitions_fired_.add();
    states[change.object_id] = fired->to;
    for (const CommandTemplate& command_template : fired->commands) {
      controller::Command command;
      command.name = command_template.name;
      for (const auto& [key, value] : command_template.args) {
        command.args[key] = instantiate(value, change, new_model);
      }
      script.commands.push_back(std::move(command));
    }
    if (change.kind == model::ChangeKind::kRemoveObject) {
      states.erase(change.object_id);
    }
  }
  return script;
}

}  // namespace mdsm::synthesis
