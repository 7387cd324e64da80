// The Synthesis layer (paper §V-A): "The main components in the synthesis
// engine are: (1) model comparator — compares the new user-defined model
// and the current runtime model to produce a change list; (2) change
// interpreter — processes the change list to generate control scripts ...
// and handles events from the Controller layer; and (3) dispatcher —
// dispatches a new runtime model to the UI and updates the currently
// executing model."
//
// Sessions: the engine keeps one current runtime model, with the LTS
// state of its objects, per session — the request's session key
// (obs::RequestContext::session(), stamped by the ingress from the
// submit route). Requests without a key share the default session, a
// plain member, so the in-process path pays no lookup. A named session
// is released once every root object of its committed model rests in
// an LTS state with no outgoing transition (the lifecycle ended), or
// after kSessionIdleTtl of idleness; the engine then refuses further
// submits in it for as long as it remembers the key (DESIGN.md §6k).
//
// Concurrency: synthesis itself is serial — each submission diffs
// against (and then replaces) its session's runtime model — so the
// diff→interpret→dispatch→commit section runs under an internal mutex.
// Reading a submitted text (read_text) runs before it, outside.
// Execution of the returned script is the caller's (the platform's
// request coroutine runs it after submit_model() returns), outside that
// mutex, which is what lets independent requests overlap: the serial
// window is only the model swap, not the work.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "controller/script.hpp"
#include "model/diff.hpp"
#include "model/model.hpp"
#include "model/text_format.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "runtime/component.hpp"
#include "synthesis/change_interpreter.hpp"

namespace mdsm::synthesis {

class SynthesisEngine final : public runtime::Component {
 public:
  /// `dispatch` delivers a generated control script to the layer below
  /// *before* the runtime model commits — a dispatch failure keeps the
  /// old model in force (all-or-nothing semantics). It runs under the
  /// engine's serial mutex, so keep it cheap in concurrent deployments
  /// (the platform wires a deadline check here and executes the returned
  /// script after the commit; split deployments serialize over the
  /// network).
  /// The request context rides along so the layer below continues the
  /// request's span tree.
  using Dispatch = std::function<Status(const controller::ControlScript&,
                                        obs::RequestContext&)>;
  /// The committed runtime model. It is immutable once committed, so
  /// every holder shares it instead of copying it.
  using ModelPtr = std::shared_ptr<const model::Model>;
  /// Listener invoked with the updated runtime model after a successful
  /// submission ("dispatches a new runtime model to the UI"). It runs
  /// under the serial mutex, so listeners see commits in commit order.
  using ModelListener = std::function<void(const ModelPtr&)>;

  /// Counts go to `metrics` ("synthesis.*" cells, resolved here), which
  /// must outlive the engine; session idleness is read from `clock`.
  SynthesisEngine(std::string name, model::MetamodelPtr dsml, Lts lts,
                  const policy::ContextStore& context,
                  obs::MetricsRegistry& metrics, const Clock& clock,
                  Dispatch dispatch);

  void set_model_listener(ModelListener listener) {
    listener_ = std::move(listener);
  }

  /// A submitted model, read before the serial section. A model text is
  /// read against its session's committed model (the base) and the
  /// text that model was read from (DESIGN.md §6j).
  struct Draft {
    model::Model model;
    ModelPtr base;  ///< the committed model `changes` lead from
    /// diff(*base, model), when the text was read as a local edit.
    std::optional<model::ChangeList> changes;
    /// The text `model` was read from, kept with the commit; null for a
    /// model submitted as a Model.
    std::shared_ptr<const model::ModelText> text;
  };

  /// Read model text for a submit in `session`. When the session keeps
  /// the text of its committed model and the bytes that differ lie among
  /// one object's own slots, only that object is re-read, into a copy of
  /// the committed model ("model.incremental_edits"); otherwise the text
  /// is parsed whole ("model.incremental_fallbacks" when a text was
  /// kept). A parse error counts as a rejected model and is the error
  /// parse_model() gives. Runs outside the serial mutex.
  Result<Draft> read_text(std::string_view text, std::string_view session);

  /// The synthesis cycle: validate the new model, compare it against
  /// the current runtime model of the request's session (a draft read
  /// against that very model brings its changes along), interpret the
  /// changes, dispatch the script and commit the new model as the
  /// running one; returns the script, which the caller executes. On any
  /// failure the previous runtime model stays in force. A submit in a
  /// retired session (released, and among the newest
  /// kRetiredSessionCapacity) fails with FailedPrecondition and issues
  /// nothing. Opens no span: the caller's "synthesis.submit" span covers
  /// this and the execution. Safe to call concurrently (submissions
  /// serialize on the internal mutex).
  Result<controller::ControlScript> submit(Draft draft,
                                           obs::RequestContext& context);
  Result<controller::ControlScript> submit_model(model::Model new_model,
                                                 obs::RequestContext& context) {
    return submit(Draft{.model = std::move(new_model)}, context);
  }
  Result<controller::ControlScript> submit_model(model::Model new_model) {
    return submit_model(std::move(new_model), obs::RequestContext::noop());
  }

  /// Events from the Controller layer (exceptional conditions); recorded
  /// and exposed so domain logic (or tests) can react — e.g. resubmitting
  /// a degraded model. The log keeps the newest kEventLogCapacity
  /// entries; the total stays readable as "synthesis.controller_events".
  /// Safe to call concurrently (published from request threads
  /// mid-execution).
  void handle_controller_event(const std::string& topic,
                               const model::Value& payload);

  /// The committed runtime model of `session` ("" = the default
  /// session; a released or unknown session reads as the empty model),
  /// taken under the engine's mutex. It stays valid (and unchanged) for
  /// as long as the caller holds it, even while later submissions commit.
  [[nodiscard]] ModelPtr runtime_model(std::string_view session = {}) const;
  /// Serialized runtime model of `session` (the committed model at the
  /// time of call).
  [[nodiscard]] std::string runtime_model_text(
      std::string_view session = {}) const;
  /// Current LTS state of an object in `session` ("" if untracked).
  [[nodiscard]] std::string state_of(std::string_view object_id,
                                     std::string_view session = {}) const;
  /// The named sessions holding state, sorted.
  [[nodiscard]] std::vector<std::string> live_sessions() const;
  /// The newest controller events, oldest first.
  [[nodiscard]] std::vector<std::string> event_log() const;
  static constexpr std::size_t kEventLogCapacity = 64;

  /// True while `session` holds state: it is the default session, or a
  /// named one that has committed and not been released since.
  [[nodiscard]] bool is_live(std::string_view session) const;

  /// The backstop for named sessions that never reach a terminal LTS
  /// state: one idle this long on the engine's clock is released.
  /// Swept lazily by submissions, at most every half TTL, so an idle
  /// session goes within 1.5 × the TTL.
  static constexpr Duration kSessionIdleTtl = std::chrono::hours(1);
  /// How many released session keys the engine remembers. A submit in a
  /// remembered key is refused, so a re-sent or retried model cannot
  /// re-open a session that closed or expired (its resources would be
  /// created twice). An older key is forgotten and opens a new session.
  /// Keys are remembered by their 64-bit hash: 8 KB when full.
  static constexpr std::size_t kRetiredSessionCapacity = 1024;

  /// Atomic export of one session's synthesis state: the serialized
  /// runtime model and its LTS states, both taken under ONE hold of the
  /// serial mutex so the pair is mutually consistent even while
  /// submissions are racing (the model is serialized after the mutex is
  /// released). This is the checkpoint payload.
  struct ExportedState {
    std::string runtime_model_text;
    LtsStates lts_states;
  };
  [[nodiscard]] ExportedState export_state(
      std::string_view session = {}) const;

  /// Inverse of export_state(): swap in `runtime_model` as the committed
  /// model of `session` and replace that session's LTS states, then fire
  /// the model listener so downstream mirrors (broker runtime model)
  /// converge. Other sessions are untouched. Restoring live state
  /// re-admits a retired key; restoring a finished one retires it. The
  /// caller has parsed the model with this engine's DSML and validated
  /// it; the engine does not check again.
  void restore_state(std::string_view session, model::Model runtime_model,
                     LtsStates lts_states);

 private:
  /// One session's synthesis state.
  struct Session {
    ModelPtr model;         ///< "an empty model if the system has just
                            ///< been started"
    /// The text `model` was read from, if it was submitted as text.
    std::shared_ptr<const model::ModelText> text;
    LtsStates lts_states;
    TimePoint last_used{};  ///< named sessions: last commit or restore
  };
  using SessionMap = std::map<std::string, Session, std::less<>>;

  /// `key`'s session, or null when it holds no state ("" = default).
  /// Callers hold mutex_.
  [[nodiscard]] const Session* find_session(std::string_view key) const;
  /// True when every root object of the session's model sits in an LTS
  /// state with no outgoing transition: its lifecycle is over.
  [[nodiscard]] bool at_rest(const Session& session) const;
  /// Drop named sessions idle for the TTL (mutex_ held).
  void sweep_idle(TimePoint now);
  /// Release the named session at `it` and remember its key; the node
  /// is returned so its model is freed after the mutex (mutex_ held).
  SessionMap::node_type release(SessionMap::iterator it);
  /// Remember `key` as released, forgetting the oldest beyond
  /// kRetiredSessionCapacity (mutex_ held).
  void retire(std::string_view key);
  [[nodiscard]] bool retired(std::string_view key) const;

  model::MetamodelPtr dsml_;
  Lts lts_;
  /// LTS states with at least one outgoing transition, sorted.
  std::vector<std::string> active_states_;
  ChangeInterpreter interpreter_;
  obs::Counter& models_submitted_;
  obs::Counter& scripts_dispatched_;
  obs::Counter& commands_generated_;
  obs::Counter& rejected_models_;
  obs::Counter& incremental_edits_;
  obs::Counter& incremental_fallbacks_;
  obs::Counter& controller_events_;
  obs::Gauge& sessions_live_;
  obs::Counter& sessions_released_;
  obs::Counter& sessions_expired_;
  Dispatch dispatch_;
  ModelListener listener_;
  /// Serializes diff → interpret → dispatch → commit → listener. Also
  /// guards every session's model pointer and LTS states.
  mutable std::mutex mutex_;
  const ModelPtr empty_model_;  ///< what a new session diffs against
  Session default_session_;
  SessionMap sessions_;
  /// Hashes of the newest released keys, oldest first.
  std::vector<std::size_t> retired_;
  const Clock& clock_;
  TimePoint next_sweep_;
  mutable std::mutex event_mutex_;  ///< guards event_log_ only
  std::deque<std::string> event_log_;
};

}  // namespace mdsm::synthesis
