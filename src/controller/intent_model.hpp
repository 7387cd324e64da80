// Intent Models (paper §V-B, Fig. 7): "The generation of an execution
// model operates on procedure metadata to determine the optimal
// configuration of a set of procedures to carry out a requested operation
// based on active policies. It determines valid configurations by
// examining the DSC-described dependencies of a procedure X, and matches
// them with other procedures that are classified by the DSCs on which X
// depends. This step is repeated recursively while ensuring that unwanted
// configurations such as cycles are avoided, until a procedure dependency
// tree is generated."
//
// The full generation cycle is generation → validation → selection
// (Exp-3 times exactly this cycle); a context/repository-versioned cache
// provides the warm path whose amortized cost the paper reports
// approaching ~1 ms. The cache is sharded by root-DSC hash so concurrent
// requests for different operations never contend on one lock.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "controller/dsc.hpp"
#include "controller/procedure.hpp"
#include "obs/metrics.hpp"
#include "policy/context.hpp"
#include "policy/policy_engine.hpp"

namespace mdsm::controller {

/// One node of the dependency tree: a concrete procedure plus the matched
/// procedure for each of its declared dependency DSCs (index-aligned).
struct IntentModelNode {
  const Procedure* procedure = nullptr;
  std::vector<std::unique_ptr<IntentModelNode>> children;
};

struct IntentModel {
  std::string root_dsc;  ///< "whose operation is classified by the
                         ///< classifying DSC of the root procedure"
  std::unique_ptr<IntentModelNode> root;
  double total_cost = 0.0;
  double total_quality = 0.0;
  int node_count = 0;
  /// Ownership anchors for every procedure the tree's raw pointers may
  /// reference: a concurrent ProcedureRepository::remove() cannot free a
  /// procedure out from under a cached or in-flight IM.
  std::vector<ProcedurePtr> pinned;

  [[nodiscard]] std::string to_text() const;  ///< indented tree, for logs
};

using IntentModelPtr = std::shared_ptr<const IntentModel>;

/// Selection strategies (the "active policies" of generation). The
/// selection PolicySet's decision string picks one.
enum class SelectionStrategy { kMinCost, kMaxQuality, kFirstValid };

struct GeneratorConfig {
  std::size_t max_configurations = 256;  ///< enumeration bound
  std::size_t max_depth = 32;            ///< dependency chain bound
};

/// View over the generator's "controller.im_*" registry cells.
struct GeneratorStats {
  std::uint64_t generated = 0;     ///< complete candidate configurations
  std::uint64_t validated = 0;
  std::uint64_t selected = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t guard_rejections = 0;
  std::uint64_t cycle_rejections = 0;
};

/// Thread-safe for concurrent generate()/generate_cached() calls; cache
/// shards serialize only same-shard bookkeeping, never generation itself
/// (two threads missing on the same DSC both generate — wasted work, not
/// corruption — and last-writer-wins on the entry).
class IntentModelGenerator {
 public:
  /// Counts go to `metrics` ("controller.im_*" cells, resolved here),
  /// which must outlive the generator.
  IntentModelGenerator(const DscRegistry& dscs,
                       const ProcedureRepository& repository,
                       const policy::ContextStore& context,
                       obs::MetricsRegistry& metrics,
                       GeneratorConfig config = {});

  /// Full cycle: enumerate valid configurations for `root_dsc`, validate
  /// each, select per `strategy`. Does not consult the cache. A failure
  /// observed while the repository or the DSC vocabulary changed
  /// underneath is not trusted (enumeration and validation may have read
  /// different states): the cycle reruns, so a DSC removed mid-generation
  /// surfaces as NotFound, never as a torn failure.
  Result<IntentModelPtr> generate(std::string_view root_dsc,
                                  SelectionStrategy strategy);

  /// Cached cycle: reuse the previous IM for `root_dsc` when none of the
  /// context, the repository, or the DSC vocabulary changed since it was
  /// generated (a stale-vocabulary IM would fail validate()). Versions
  /// are captured *before* generation, so a mutation racing a miss can
  /// only make the stored entry look stale — never serve a stale IM.
  Result<IntentModelPtr> generate_cached(std::string_view root_dsc,
                                         SelectionStrategy strategy);

  /// Structural re-validation of an IM against the current context:
  /// guards hold, dependencies complete, no DSC repeats along any path.
  Status validate(const IntentModel& intent_model) const;

  /// Consistent-enough snapshot of the counters (each counter is exact;
  /// cross-counter sums may be momentarily torn under concurrency).
  [[nodiscard]] GeneratorStats stats() const;

 private:
  struct CacheEntry {
    std::uint64_t context_version;
    std::uint64_t repository_version;
    std::uint64_t dsc_version;
    SelectionStrategy strategy;
    IntentModelPtr intent_model;
  };

  static constexpr std::size_t kCacheShards = 16;

  struct CacheShard {
    std::mutex mutex;
    std::map<std::string, CacheEntry, std::less<>> entries;
  };

  [[nodiscard]] CacheShard& shard_for(std::string_view root_dsc) {
    return cache_[std::hash<std::string_view>{}(root_dsc) % kCacheShards];
  }

  /// Recursively enumerate configurations rooted at candidates of `dsc`.
  /// `path` carries the DSCs on the current root-to-leaf chain for cycle
  /// avoidance (views into strings owned by `pins`/the caller). Appends
  /// complete subtrees to `out` (bounded) and the candidate snapshots to
  /// `pins` so node pointers stay valid past concurrent removes.
  void enumerate(std::string_view dsc, std::vector<std::string_view>& path,
                 std::vector<std::unique_ptr<IntentModelNode>>& out,
                 std::vector<ProcedurePtr>& pins, std::size_t bound);

  /// One generation cycle against whatever state it reads.
  Result<IntentModelPtr> generate_once(std::string_view root_dsc,
                                       SelectionStrategy strategy);

  Status validate_node(const IntentModelNode& node,
                       std::vector<std::string_view>& path) const;

  const DscRegistry* dscs_;
  const ProcedureRepository* repository_;
  const policy::ContextStore* context_;
  GeneratorConfig config_;
  obs::Counter& generated_;
  obs::Counter& validated_;
  obs::Counter& selected_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& guard_rejections_;
  obs::Counter& cycle_rejections_;
  std::array<CacheShard, kCacheShards> cache_;
};

}  // namespace mdsm::controller
