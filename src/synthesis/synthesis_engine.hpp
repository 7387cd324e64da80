// The Synthesis layer (paper §V-A): "The main components in the synthesis
// engine are: (1) model comparator — compares the new user-defined model
// and the current runtime model to produce a change list; (2) change
// interpreter — processes the change list to generate control scripts ...
// and handles events from the Controller layer; and (3) dispatcher —
// dispatches a new runtime model to the UI and updates the currently
// executing model."
//
// Concurrency: synthesis itself is inherently serial — each submission
// diffs against (and then replaces) the single shared runtime model — so
// the diff→interpret→dispatch→commit section runs under an internal
// mutex. Everything after the commit (the executor hook, i.e. actual
// controller/broker execution) runs *outside* that mutex, which is what
// lets independent requests overlap: the serial window is only the model
// swap, not the work.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "controller/script.hpp"
#include "model/diff.hpp"
#include "model/model.hpp"
#include "obs/request_context.hpp"
#include "runtime/component.hpp"
#include "synthesis/change_interpreter.hpp"

namespace mdsm::synthesis {

struct SynthesisStats {
  std::uint64_t models_submitted = 0;
  std::uint64_t scripts_dispatched = 0;
  std::uint64_t commands_generated = 0;
  std::uint64_t rejected_models = 0;
  std::uint64_t controller_events = 0;
};

class SynthesisEngine final : public runtime::Component {
 public:
  /// `dispatch` delivers a generated control script to the layer below
  /// *before* the runtime model commits — a dispatch failure keeps the
  /// old model in force (all-or-nothing semantics). It runs under the
  /// engine's serial mutex, so keep it cheap in concurrent deployments
  /// (the platform wires a deadline check here and does the real work in
  /// the executor hook; split deployments serialize over the network).
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

  SynthesisEngine(std::string name, model::MetamodelPtr dsml, Lts lts,
                  const policy::ContextStore& context, Dispatch dispatch);

  void set_model_listener(ModelListener listener) {
    listener_ = std::move(listener);
  }

  /// Post-commit execution hook: runs *after* the runtime model commits
  /// and after the serial mutex is released, still inside the request's
  /// "synthesis.submit" span. This is the parallel phase of the request
  /// pipeline — the platform wires ControllerLayer::execute_script here.
  /// Its failure surfaces to the submitter but does not roll the model
  /// back (the model swap already happened; execution is best-effort
  /// forward progress, with errors also contained per-command below).
  void set_executor(Dispatch executor) { executor_ = std::move(executor); }

  /// Full synthesis cycle: validate the new model, compare against the
  /// current runtime model, interpret the changes, dispatch the script,
  /// commit the new model as the running one, then execute via the
  /// executor hook. On any pre-commit failure the previous runtime model
  /// stays in force. Opens the request's "synthesis.submit" span.
  /// Safe to call concurrently (submissions serialize on the internal
  /// mutex up to the commit; execution overlaps).
  Result<controller::ControlScript> submit_model(model::Model new_model,
                                                 obs::RequestContext& context);
  Result<controller::ControlScript> submit_model(model::Model new_model) {
    return submit_model(std::move(new_model), obs::RequestContext::noop());
  }

  /// The commit phase alone (PR 6 staged pipeline): validate, diff,
  /// interpret, dispatch and commit under the serial mutex, but do NOT
  /// run the post-commit executor hook — the staged platform calls this
  /// from its synthesis stage and hands the returned script to the
  /// controller stage as a separate continuation, so the serial window
  /// releases before execution is even scheduled. Opens its own
  /// "synthesis.submit" span (closed on return: the commit itself never
  /// parks).
  Result<controller::ControlScript> commit_model(model::Model new_model,
                                                 obs::RequestContext& context);

  /// Platform-wide metrics sink (optional; wired by the assembler).
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Events from the Controller layer (exceptional conditions); recorded
  /// and exposed so domain logic (or tests) can react — e.g. resubmitting
  /// a degraded model. Safe to call concurrently (published from request
  /// threads mid-execution).
  void handle_controller_event(const std::string& topic,
                               const model::Value& payload);

  /// The committed runtime model, taken under the engine's mutex. It
  /// stays valid (and unchanged) for as long as the caller holds it, even
  /// while later submissions commit.
  [[nodiscard]] ModelPtr runtime_model() const;
  /// Serialized runtime model (the committed model at the time of call).
  [[nodiscard]] std::string runtime_model_text() const;
  [[nodiscard]] const ChangeInterpreter& interpreter() const noexcept {
    return interpreter_;
  }
  /// Snapshot of the counters (each exact; cross-counter sums may tear
  /// momentarily while submissions are in flight).
  [[nodiscard]] SynthesisStats stats() const;
  [[nodiscard]] std::vector<std::string> event_log() const;

  /// Atomic export of the synthesis-layer session state: the serialized
  /// runtime model and every tracked LTS state, both taken under ONE
  /// hold of the serial mutex so the pair is mutually consistent even
  /// while submissions are racing (the model is serialized after the
  /// mutex is released). This is the checkpoint payload.
  struct ExportedState {
    std::string runtime_model_text;
    std::map<std::string, std::string, std::less<>> lts_states;
  };
  [[nodiscard]] ExportedState export_state() const;

  /// Inverse of export_state(): swap in `runtime_model` as the committed
  /// model and replace the interpreter's LTS states wholesale, then fire
  /// the model listener so downstream mirrors (broker runtime model)
  /// converge. The model must conform to this engine's DSML.
  Status restore_state(
      model::Model runtime_model,
      std::map<std::string, std::string, std::less<>> lts_states);

 private:
  /// Shared pre-check + serial diff→interpret→dispatch→commit section of
  /// submit_model()/commit_model() (everything except the executor hook).
  Result<controller::ControlScript> commit_core(model::Model new_model,
                                                obs::RequestContext& context);

  model::MetamodelPtr dsml_;
  Lts lts_;
  ChangeInterpreter interpreter_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Dispatch dispatch_;
  Dispatch executor_;
  ModelListener listener_;
  /// Serializes diff → interpret → dispatch → commit → listener. Also
  /// guards the runtime_model_ pointer and the interpreter's LTS state.
  mutable std::mutex mutex_;
  ModelPtr runtime_model_;  ///< "an empty model if the system has just
                            ///< been started"
  struct AtomicStats {
    std::atomic<std::uint64_t> models_submitted{0};
    std::atomic<std::uint64_t> scripts_dispatched{0};
    std::atomic<std::uint64_t> commands_generated{0};
    std::atomic<std::uint64_t> rejected_models{0};
    std::atomic<std::uint64_t> controller_events{0};
  };
  mutable AtomicStats stats_;
  mutable std::mutex event_mutex_;  ///< guards event_log_ only
  std::vector<std::string> event_log_;
};

}  // namespace mdsm::synthesis
