// Change interpreter (paper §V-A): "processes the change list to generate
// control scripts (using the current state of the labeled transition
// system)". The LTS state of each model object is kept by the caller,
// one map per session (see SynthesisEngine), so a reconfiguration of a
// long-lived object continues from where its lifecycle left off and two
// sessions never share an object's state.
#pragma once

#include <map>
#include <string>

#include "controller/script.hpp"
#include "model/diff.hpp"
#include "obs/metrics.hpp"
#include "policy/context.hpp"
#include "synthesis/lts.hpp"

namespace mdsm::synthesis {

/// Object id → current LTS state, for one session.
using LtsStates = std::map<std::string, std::string, std::less<>>;

class ChangeInterpreter {
 public:
  /// The metamodel is consulted for class-kind matching in triggers; the
  /// context supplies guard variables. Counts go to `metrics` (cells
  /// resolved here, which must outlive the interpreter):
  /// "synthesis.changes_processed", "synthesis.transitions_fired",
  /// "synthesis.unhandled_changes" (no matching transition) and
  /// "synthesis.guard_blocked" (matched, but the guard was closed).
  ChangeInterpreter(const Lts& lts, model::MetamodelPtr metamodel,
                    const policy::ContextStore& context,
                    obs::MetricsRegistry& metrics);

  /// Turn a change list into a control script. `new_model` supplies
  /// "%attr:" template lookups. The objects' entries in `states` advance
  /// as transitions fire; unmatched changes are counted, not errors (a
  /// DSML may have inert attributes). Callers serialize calls.
  Result<controller::ControlScript> interpret(const model::ChangeList& changes,
                                              const model::Model& new_model,
                                              LtsStates& states);

 private:
  [[nodiscard]] bool trigger_matches(const Trigger& trigger,
                                     const model::Change& change) const;

  const Lts* lts_;
  model::MetamodelPtr metamodel_;
  const policy::ContextStore* context_;
  obs::Counter& changes_processed_;
  obs::Counter& transitions_fired_;
  obs::Counter& unhandled_changes_;
  obs::Counter& guard_blocked_;
};

}  // namespace mdsm::synthesis
