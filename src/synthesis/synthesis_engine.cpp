#include "synthesis/synthesis_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "model/text_format.hpp"

namespace mdsm::synthesis {

SynthesisEngine::SynthesisEngine(std::string name, model::MetamodelPtr dsml,
                                 Lts lts, const policy::ContextStore& context,
                                 obs::MetricsRegistry& metrics,
                                 const Clock& clock, Dispatch dispatch)
    : Component(std::move(name)),
      dsml_(dsml),
      lts_(std::move(lts)),
      interpreter_(lts_, dsml, context, metrics),
      models_submitted_(metrics.counter("synthesis.models")),
      scripts_dispatched_(metrics.counter("synthesis.scripts")),
      commands_generated_(metrics.counter("synthesis.commands")),
      rejected_models_(metrics.counter("synthesis.rejected_models")),
      incremental_edits_(metrics.counter("model.incremental_edits")),
      incremental_fallbacks_(metrics.counter("model.incremental_fallbacks")),
      controller_events_(metrics.counter("synthesis.controller_events")),
      sessions_live_(metrics.gauge("synthesis.sessions_live")),
      sessions_released_(metrics.counter("synthesis.sessions_released")),
      sessions_expired_(metrics.counter("synthesis.sessions_expired")),
      dispatch_(std::move(dispatch)),
      empty_model_(std::make_shared<const model::Model>("runtime", dsml)),
      default_session_{.model = empty_model_},
      clock_(clock),
      next_sweep_(clock.now() + kSessionIdleTtl / 2) {
  for (const Transition& transition : lts_.transitions()) {
    active_states_.push_back(transition.from);
  }
  std::sort(active_states_.begin(), active_states_.end());
  active_states_.erase(
      std::unique(active_states_.begin(), active_states_.end()),
      active_states_.end());
}

Result<SynthesisEngine::Draft> SynthesisEngine::read_text(
    std::string_view text, std::string_view session) {
  ModelPtr base;
  std::shared_ptr<const model::ModelText> source;
  {
    std::lock_guard lock(mutex_);
    if (const Session* found = find_session(session); found != nullptr) {
      base = found->model;
      source = found->text;
    }
  }
  auto read = std::make_shared<model::ModelText>(std::string(text));
  if (source != nullptr) {
    if (std::optional<model::Edit> edit =
            model::read_edit(*base, *source, text)) {
      incremental_edits_.add();
      read->spans = std::move(edit->spans);
      return Draft{std::move(edit->model), std::move(base),
                   std::move(edit->changes), std::move(read)};
    }
    incremental_fallbacks_.add();
  }
  Result<model::Model> parsed = model::parse_model(text, dsml_, &read->spans);
  if (!parsed.ok()) {
    models_submitted_.add();
    rejected_models_.add();
    return parsed.status();
  }
  return Draft{std::move(parsed.value()), nullptr, std::nullopt,
               std::move(read)};
}

Result<controller::ControlScript> SynthesisEngine::submit(
    Draft draft, obs::RequestContext& context) {
  model::Model& new_model = draft.model;
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
  const std::string_view key = context.session();
  Result<controller::ControlScript> script = InvalidArgument("unreachable");
  // Released after the mutex, if this was their last use.
  ModelPtr previous;
  SessionMap::node_type released;
  {
    std::lock_guard lock(mutex_);
    // Only named sessions expire, so the default-session path reads no
    // clock while none is live.
    TimePoint now{};
    if (!key.empty() || !sessions_.empty()) {
      now = clock_.now();
      sweep_idle(now);
    }
    // The session this request diffs against. A named session seen for
    // the first time starts from the empty model, in a local that joins
    // sessions_ only if the commit succeeds and leaves work in flight.
    Session* session = &default_session_;
    auto named = sessions_.end();
    std::optional<Session> created;
    if (!key.empty()) {
      named = sessions_.find(key);
      if (named != sessions_.end()) {
        session = &named->second;
      } else if (retired(key)) {
        // Its resources were torn down (or abandoned at expiry): a diff
        // against the empty model would create them a second time.
        rejected_models_.add();
        return FailedPrecondition("session '" + std::string(key) +
                                  "' has ended; submit under a new key");
      } else {
        session = &created.emplace(Session{.model = empty_model_});
      }
    }
    // Model comparator: a draft read against the model still in force
    // brings its changes; any other is compared whole.
    model::ChangeList changes =
        draft.changes.has_value() && draft.base == session->model
            ? std::move(*draft.changes)
            : model::diff(*session->model, new_model);
    MDSM_LOG_DEBUG("synthesis") << name() << ": " << changes.size()
                                << " change(s) between runtime and new model";
    // Change interpreter. Interpreter state mutates as transitions fire;
    // on interpretation failure the engine keeps the old runtime model
    // but the session's LTS states may have advanced — domains treat
    // interpretation errors as fatal configuration bugs, matching the
    // paper's assumption that LTSs fully cover their DSML.
    script = interpreter_.interpret(changes, new_model, session->lts_states);
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
        session->model,
        std::make_shared<const model::Model>(std::move(new_model)));
    std::swap(session->text, draft.text);  // the old text goes with draft
    if (listener_ != nullptr) listener_(session->model);
    if (!key.empty()) {
      if (at_rest(*session)) {
        if (named != sessions_.end()) released = release(named);
      } else {
        if (named == sessions_.end()) {
          named = sessions_.emplace(std::string(key), std::move(*created))
                      .first;
          sessions_live_.add(1);
        }
        named->second.last_used = now;
      }
    }
  }
  return script;
}

const SynthesisEngine::Session* SynthesisEngine::find_session(
    std::string_view key) const {
  if (key.empty()) return &default_session_;
  auto it = sessions_.find(key);
  return it == sessions_.end() ? nullptr : &it->second;
}

bool SynthesisEngine::at_rest(const Session& session) const {
  for (const model::ModelObject* object : session.model->objects()) {
    if (!object->parent_id().empty()) continue;
    auto it = session.lts_states.find(object->id());
    const std::string& state =
        it == session.lts_states.end() ? lts_.initial_state() : it->second;
    if (std::binary_search(active_states_.begin(), active_states_.end(),
                           state)) {
      return false;
    }
  }
  return true;
}

void SynthesisEngine::sweep_idle(TimePoint now) {
  if (now < next_sweep_) return;
  next_sweep_ = now + kSessionIdleTtl / 2;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second.last_used >= kSessionIdleTtl) {
      release(it++);
      sessions_expired_.add();
    } else {
      ++it;
    }
  }
}

SynthesisEngine::SessionMap::node_type SynthesisEngine::release(
    SessionMap::iterator it) {
  SessionMap::node_type node = sessions_.extract(it);
  retire(node.key());
  sessions_live_.add(-1);
  sessions_released_.add();
  return node;
}

void SynthesisEngine::retire(std::string_view key) {
  if (retired(key)) return;
  if (retired_.size() == kRetiredSessionCapacity) {
    retired_.erase(retired_.begin());
  }
  retired_.push_back(std::hash<std::string_view>{}(key));
}

bool SynthesisEngine::retired(std::string_view key) const {
  return std::find(retired_.begin(), retired_.end(),
                   std::hash<std::string_view>{}(key)) != retired_.end();
}

bool SynthesisEngine::is_live(std::string_view session) const {
  std::lock_guard lock(mutex_);
  return find_session(session) != nullptr;
}

void SynthesisEngine::handle_controller_event(const std::string& topic,
                                              const model::Value& payload) {
  controller_events_.add();
  std::string entry = topic + ": " + payload.to_text();
  std::lock_guard lock(event_mutex_);
  if (event_log_.size() == kEventLogCapacity) event_log_.pop_front();
  event_log_.push_back(std::move(entry));
}

SynthesisEngine::ModelPtr SynthesisEngine::runtime_model(
    std::string_view session) const {
  std::lock_guard lock(mutex_);
  const Session* found = find_session(session);
  return found == nullptr ? empty_model_ : found->model;
}

std::string SynthesisEngine::runtime_model_text(
    std::string_view session) const {
  return model::serialize_model(*runtime_model(session));
}

std::string SynthesisEngine::state_of(std::string_view object_id,
                                      std::string_view session) const {
  std::lock_guard lock(mutex_);
  const Session* found = find_session(session);
  if (found == nullptr) return "";
  auto it = found->lts_states.find(object_id);
  return it == found->lts_states.end() ? "" : it->second;
}

std::vector<std::string> SynthesisEngine::live_sessions() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [key, session] : sessions_) out.push_back(key);
  return out;
}

SynthesisEngine::ExportedState SynthesisEngine::export_state(
    std::string_view session) const {
  ExportedState out;
  ModelPtr committed = empty_model_;
  {
    std::lock_guard lock(mutex_);
    if (const Session* found = find_session(session); found != nullptr) {
      committed = found->model;
      out.lts_states = found->lts_states;
    }
  }
  out.runtime_model_text = model::serialize_model(*committed);
  return out;
}

void SynthesisEngine::restore_state(std::string_view session,
                                    model::Model runtime_model,
                                    LtsStates lts_states) {
  Session restored{
      .model = std::make_shared<const model::Model>(std::move(runtime_model)),
      .lts_states = std::move(lts_states)};
  SessionMap::node_type released;  // destroyed after the mutex
  std::lock_guard lock(mutex_);
  if (listener_ != nullptr) listener_(restored.model);
  if (session.empty()) {
    std::swap(default_session_, restored);
    return;
  }
  auto it = sessions_.find(session);
  if (at_rest(restored)) {
    // A checkpoint of a finished session: nothing stays live, and the
    // key refuses further submits as after a close.
    if (it != sessions_.end()) {
      released = release(it);
    } else {
      retire(session);
    }
    return;
  }
  std::erase(retired_, std::hash<std::string_view>{}(session));
  if (it == sessions_.end()) {
    it = sessions_.emplace(std::string(session), Session{}).first;
    sessions_live_.add(1);
  }
  restored.last_used = clock_.now();
  std::swap(it->second, restored);
}

std::vector<std::string> SynthesisEngine::event_log() const {
  std::lock_guard lock(event_mutex_);
  return {event_log_.begin(), event_log_.end()};
}

}  // namespace mdsm::synthesis
