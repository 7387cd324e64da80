// Procedures and Execution Units (paper §V-B): "Procedures, and their
// accompanying execution units (EUs), undertake the domain specific
// operations of the controller. They are classified by DSCs ... allowing
// them to be considered as candidates to realize the abstract operation
// that matches their classifying DSC."
//
// An EU is a list of instructions for the Controller's stack machine.
// The instruction set is the Controller's *model of execution* — the
// domain-independent operations covering "memory management, event
// handling, message passing and remote calls" plus calls down into the
// Broker layer.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "broker/broker_types.hpp"
#include "common/status.hpp"
#include "policy/expression.hpp"

namespace mdsm::controller {

enum class OpCode {
  kBrokerCall,  ///< a=broker operation name; args templated
  kCallDep,     ///< a=dependency DSC: push the matched procedure
  kSetMem,      ///< a=memory key; args["value"] (memory management)
  kEraseMem,    ///< a=memory key
  kEmit,        ///< a=topic; args["payload"] (event handling)
  kSend,        ///< a=destination, b=topic; args["payload"] (message passing
                ///< / remote calls via the platform's network endpoint)
  kGuard,       ///< `guard` must hold or execution aborts
  kSetContext,  ///< a=context variable; args["value"]
  kResult,      ///< args["value"] becomes the execution result
  kNoop,        ///< measurable no-op (used by ablation benches)
};

std::string_view to_string(OpCode op) noexcept;

/// Value templates inside args:  "$name" → command argument,
/// "$ctx:name" → context variable, "$mem:key" → engine memory,
/// "$$literal" → escaped "$literal".
struct Instruction {
  OpCode op{};
  std::string a;
  std::string b;
  broker::Args args;
  policy::Expression guard;  ///< only for kGuard
};

using ExecutionUnit = std::vector<Instruction>;

/// A domain-specific procedure. Current paper constraint: classified by
/// a single DSC.
struct Procedure {
  std::string name;
  std::string classifier;                 ///< the classifying DSC
  std::vector<std::string> dependencies;  ///< DSCs this procedure calls
  policy::Expression guard;  ///< context applicability (environmental)
  double cost = 1.0;         ///< selection metadata: execution cost
  double quality = 1.0;      ///< selection metadata: result quality
  std::vector<ExecutionUnit> units;  ///< executed in order
};

/// Shared ownership of an immutable procedure: intent models pin the
/// procedures they reference so a concurrent remove() cannot free a
/// procedure out from under an in-flight or cached model.
using ProcedurePtr = std::shared_ptr<const Procedure>;

/// The Controller's procedure repository: "the Controller's repository
/// was populated with metadata of 100 curated procedures" (paper §VII-B).
///
/// Concurrency: procedures are immutable once added; the repository maps
/// are guarded by a reader/writer lock so IM generation on many request
/// threads proceeds in parallel with each other and blocks only on the
/// rare add()/remove().
class ProcedureRepository {
 public:
  /// Register a procedure; the classifier and all dependency names are
  /// validated against `known_dscs` if non-null at add time by the layer.
  Status add(Procedure procedure);
  Status remove(const std::string& name);

  /// Borrowed pointer. Stable only while the procedure stays registered;
  /// prefer find_shared() on paths that may race with remove().
  [[nodiscard]] const Procedure* find(std::string_view name) const;

  /// Owning lookup: keeps the procedure alive past a concurrent remove().
  [[nodiscard]] ProcedurePtr find_shared(std::string_view name) const;

  /// All procedures classified by `dsc`, in registration order —
  /// the candidate set for intent-model generation. Borrowed pointers;
  /// see find() for the lifetime caveat.
  [[nodiscard]] std::vector<const Procedure*> classified_by(
      std::string_view dsc) const;

  /// Owning snapshot of the candidate set for `dsc`. The shared lock is
  /// released before returning, so callers may recurse back into the
  /// repository (IM enumeration does) without re-entrant locking.
  [[nodiscard]] std::vector<ProcedurePtr> classified_by_pinned(
      std::string_view dsc) const;

  [[nodiscard]] std::size_t size() const;

  /// Monotone version bumped on every mutation (IM cache invalidation).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  void clear();

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, ProcedurePtr, std::less<>> procedures_;
  std::vector<std::string> order_;
  /// Candidates per classifier, registration order (shared with
  /// procedures_ — cheap pointer copies on snapshot).
  std::map<std::string, std::vector<ProcedurePtr>, std::less<>> by_classifier_;
  std::atomic<std::uint64_t> version_{0};
};

/// Builders mirroring broker/action.hpp, for terse domain DSK code.
Instruction broker_call(std::string operation, broker::Args args = {});
Instruction call_dep(std::string dsc);
Instruction set_mem(std::string key, model::Value value);
Instruction erase_mem(std::string key);
Instruction emit(std::string topic, model::Value payload = {});
Instruction send(std::string destination, std::string topic,
                 model::Value payload = {});
Instruction guard(std::string_view condition);
Instruction set_context(std::string key, model::Value value);
Instruction result(model::Value value);
Instruction noop();

}  // namespace mdsm::controller
