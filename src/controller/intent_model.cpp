#include "controller/intent_model.hpp"

#include <algorithm>
#include <sstream>

namespace mdsm::controller {

namespace {

std::unique_ptr<IntentModelNode> clone_node(const IntentModelNode& node) {
  auto copy = std::make_unique<IntentModelNode>();
  copy->procedure = node.procedure;
  copy->children.reserve(node.children.size());
  for (const auto& child : node.children) {
    copy->children.push_back(clone_node(*child));
  }
  return copy;
}

void accumulate_metrics(const IntentModelNode& node, double& cost,
                        double& quality, int& count) {
  cost += node.procedure->cost;
  // Quality of a configuration is its weakest component's quality: a
  // high-quality root cannot compensate for a degraded dependency.
  quality = std::min(quality, node.procedure->quality);
  ++count;
  for (const auto& child : node.children) {
    accumulate_metrics(*child, cost, quality, count);
  }
}

void print_node(const IntentModelNode& node, int indent,
                std::ostringstream& out) {
  out << std::string(static_cast<std::size_t>(indent) * 2, ' ')
      << node.procedure->name << " [" << node.procedure->classifier
      << ", cost=" << node.procedure->cost << "]\n";
  for (const auto& child : node.children) {
    print_node(*child, indent + 1, out);
  }
}

}  // namespace

std::string IntentModel::to_text() const {
  std::ostringstream out;
  out << "IM(" << root_dsc << ") cost=" << total_cost
      << " quality=" << total_quality << " nodes=" << node_count << "\n";
  if (root != nullptr) print_node(*root, 1, out);
  return out.str();
}

IntentModelGenerator::IntentModelGenerator(
    const DscRegistry& dscs, const ProcedureRepository& repository,
    const policy::ContextStore& context, obs::MetricsRegistry& metrics,
    GeneratorConfig config)
    : dscs_(&dscs),
      repository_(&repository),
      context_(&context),
      config_(config),
      generated_(metrics.counter("controller.im_generated")),
      validated_(metrics.counter("controller.im_validated")),
      selected_(metrics.counter("controller.im_selected")),
      cache_hits_(metrics.counter("controller.im_cache_hits")),
      cache_misses_(metrics.counter("controller.im_cache_misses")),
      guard_rejections_(metrics.counter("controller.im_guard_rejections")),
      cycle_rejections_(metrics.counter("controller.im_cycle_rejections")) {}

void IntentModelGenerator::enumerate(
    std::string_view dsc, std::vector<std::string_view>& path,
    std::vector<std::unique_ptr<IntentModelNode>>& out,
    std::vector<ProcedurePtr>& pins, std::size_t bound) {
  if (out.size() >= bound) return;
  if (path.size() >= config_.max_depth) return;
  if (std::find(path.begin(), path.end(), dsc) != path.end()) {
    cycle_rejections_.add();
    return;
  }
  path.push_back(dsc);
  // Snapshot (not visit-in-place): the shared lock is released before
  // the recursion below, and the pins keep every candidate alive for the
  // lifetime of the IM even if remove() races with generation.
  std::vector<ProcedurePtr> candidates = repository_->classified_by_pinned(dsc);
  for (const ProcedurePtr& candidate : candidates) {
    if (out.size() >= bound) break;
    Result<bool> applicable = candidate->guard.evaluate_bool(*context_);
    if (!applicable.ok() || !*applicable) {
      guard_rejections_.add();
      continue;
    }
    if (candidate->dependencies.empty()) {
      auto leaf = std::make_unique<IntentModelNode>();
      leaf->procedure = candidate.get();
      out.push_back(std::move(leaf));
      continue;
    }
    // Enumerate subtree options per declared dependency.
    std::vector<std::vector<std::unique_ptr<IntentModelNode>>> options;
    options.reserve(candidate->dependencies.size());
    bool feasible = true;
    for (const std::string& dependency : candidate->dependencies) {
      std::vector<std::unique_ptr<IntentModelNode>> dep_options;
      enumerate(dependency, path, dep_options, pins, bound);
      if (dep_options.empty()) {
        feasible = false;
        break;
      }
      options.push_back(std::move(dep_options));
    }
    if (!feasible) continue;
    // Cross product over per-dependency options, odometer style, bounded
    // by the remaining configuration budget.
    std::vector<std::size_t> indices(options.size(), 0);
    while (out.size() < bound) {
      auto node = std::make_unique<IntentModelNode>();
      node->procedure = candidate.get();
      node->children.reserve(options.size());
      for (std::size_t i = 0; i < options.size(); ++i) {
        node->children.push_back(clone_node(*options[i][indices[i]]));
      }
      out.push_back(std::move(node));
      // Advance the odometer.
      std::size_t position = 0;
      while (position < indices.size()) {
        if (++indices[position] < options[position].size()) break;
        indices[position] = 0;
        ++position;
      }
      if (position == indices.size()) break;  // odometer wrapped: done
    }
  }
  pins.insert(pins.end(), std::make_move_iterator(candidates.begin()),
              std::make_move_iterator(candidates.end()));
  path.pop_back();
}

Status IntentModelGenerator::validate_node(
    const IntentModelNode& node, std::vector<std::string_view>& path) const {
  if (node.procedure == nullptr) return Internal("IM node without procedure");
  const Procedure& procedure = *node.procedure;
  if (!dscs_->contains(procedure.classifier)) {
    return ConformanceError("IM uses unknown DSC '" + procedure.classifier +
                            "'");
  }
  if (std::find(path.begin(), path.end(), procedure.classifier) !=
      path.end()) {
    return ConformanceError("IM has a classifier cycle through '" +
                            procedure.classifier + "'");
  }
  Result<bool> applicable = procedure.guard.evaluate_bool(*context_);
  if (!applicable.ok()) return applicable.status();
  if (!*applicable) {
    return FailedPrecondition("procedure '" + procedure.name +
                              "' no longer applicable in context");
  }
  if (node.children.size() != procedure.dependencies.size()) {
    return ConformanceError("procedure '" + procedure.name + "' expects " +
                            std::to_string(procedure.dependencies.size()) +
                            " dependencies, IM has " +
                            std::to_string(node.children.size()));
  }
  path.push_back(procedure.classifier);
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    const IntentModelNode& child = *node.children[i];
    if (child.procedure->classifier != procedure.dependencies[i]) {
      path.pop_back();
      return ConformanceError(
          "dependency " + std::to_string(i) + " of '" + procedure.name +
          "' must be classified by '" + procedure.dependencies[i] +
          "', got '" + child.procedure->classifier + "'");
    }
    Status status = validate_node(child, path);
    if (!status.ok()) {
      path.pop_back();
      return status;
    }
  }
  path.pop_back();
  return Status::Ok();
}

Status IntentModelGenerator::validate(const IntentModel& intent_model) const {
  if (intent_model.root == nullptr) return Internal("IM without root");
  if (intent_model.root->procedure->classifier != intent_model.root_dsc) {
    return ConformanceError("IM root classified by '" +
                            intent_model.root->procedure->classifier +
                            "' but IM claims '" + intent_model.root_dsc +
                            "'");
  }
  std::vector<std::string_view> path;
  return validate_node(*intent_model.root, path);
}

Result<IntentModelPtr> IntentModelGenerator::generate(
    std::string_view root_dsc, SelectionStrategy strategy) {
  // Optimistic retry: each rerun needs a repository or vocabulary
  // mutation that landed during the previous cycle, so the loop ends once
  // those (administrative, rare) writers pause.
  for (;;) {
    const std::uint64_t repository_version = repository_->version();
    const std::uint64_t dsc_version = dscs_->version();
    Result<IntentModelPtr> generated = generate_once(root_dsc, strategy);
    if (generated.ok() || (repository_->version() == repository_version &&
                           dscs_->version() == dsc_version)) {
      return generated;
    }
  }
}

Result<IntentModelPtr> IntentModelGenerator::generate_once(
    std::string_view root_dsc, SelectionStrategy strategy) {
  if (!dscs_->contains(root_dsc)) {
    return NotFound("unknown DSC '" + std::string(root_dsc) + "'");
  }
  // Generation.
  std::vector<std::unique_ptr<IntentModelNode>> configurations;
  std::vector<std::string_view> path;
  std::vector<ProcedurePtr> pins;
  enumerate(root_dsc, path, configurations, pins, config_.max_configurations);
  generated_.add(configurations.size());
  if (configurations.empty()) {
    return FailedPrecondition("no valid configuration for DSC '" +
                              std::string(root_dsc) + "' in current context");
  }
  // Validation + metric computation. The probe shell is hoisted out of
  // the loop; only its root changes per configuration.
  struct Scored {
    std::unique_ptr<IntentModelNode> root;
    double cost;
    double quality;
    int count;
  };
  std::vector<Scored> valid;
  valid.reserve(configurations.size());
  IntentModel probe;
  probe.root_dsc.assign(root_dsc);
  for (auto& configuration : configurations) {
    probe.root = std::move(configuration);
    if (validate(probe).ok()) {
      validated_.add();
      double cost = 0.0;
      double quality = 1e300;
      int count = 0;
      accumulate_metrics(*probe.root, cost, quality, count);
      valid.push_back({std::move(probe.root), cost, quality, count});
      if (strategy == SelectionStrategy::kFirstValid) break;
    }
  }
  if (valid.empty()) {
    return FailedPrecondition("no configuration for DSC '" +
                              std::string(root_dsc) +
                              "' survived validation");
  }
  // Selection.
  std::size_t best = 0;
  for (std::size_t i = 1; i < valid.size(); ++i) {
    switch (strategy) {
      case SelectionStrategy::kMinCost:
        if (valid[i].cost < valid[best].cost) best = i;
        break;
      case SelectionStrategy::kMaxQuality:
        if (valid[i].quality > valid[best].quality ||
            (valid[i].quality == valid[best].quality &&
             valid[i].cost < valid[best].cost)) {
          best = i;
        }
        break;
      case SelectionStrategy::kFirstValid:
        break;
    }
  }
  selected_.add();
  auto intent_model = std::make_shared<IntentModel>();
  intent_model->root_dsc = std::move(probe.root_dsc);
  intent_model->root = std::move(valid[best].root);
  intent_model->total_cost = valid[best].cost;
  intent_model->total_quality = valid[best].quality;
  intent_model->node_count = valid[best].count;
  intent_model->pinned = std::move(pins);
  return IntentModelPtr(intent_model);
}

Result<IntentModelPtr> IntentModelGenerator::generate_cached(
    std::string_view root_dsc, SelectionStrategy strategy) {
  // Capture versions *before* the lookup/generation: a concurrent
  // mutation during generation then makes the stored entry stale (a
  // spurious re-generate next time), never a stale serve.
  const std::uint64_t context_version = context_->version();
  const std::uint64_t repository_version = repository_->version();
  const std::uint64_t dsc_version = dscs_->version();
  CacheShard& shard = shard_for(root_dsc);
  {
    std::lock_guard lock(shard.mutex);
    auto it = shard.entries.find(root_dsc);
    if (it != shard.entries.end() &&
        it->second.context_version == context_version &&
        it->second.repository_version == repository_version &&
        it->second.dsc_version == dsc_version &&
        it->second.strategy == strategy) {
      cache_hits_.add();
      return it->second.intent_model;
    }
  }
  cache_misses_.add();
  // Generate outside the shard lock: concurrent misses on the same DSC
  // duplicate work instead of serializing the whole pipeline.
  Result<IntentModelPtr> generated = generate(root_dsc, strategy);
  if (!generated.ok()) return generated;
  {
    std::lock_guard lock(shard.mutex);
    auto it = shard.entries.find(root_dsc);
    if (it == shard.entries.end()) {
      it = shard.entries.emplace(std::string(root_dsc), CacheEntry{}).first;
    }
    it->second = CacheEntry{context_version, repository_version, dsc_version,
                            strategy, generated.value()};
  }
  return generated;
}

GeneratorStats IntentModelGenerator::stats() const {
  return {.generated = generated_.value(),
          .validated = validated_.value(),
          .selected = selected_.value(),
          .cache_hits = cache_hits_.value(),
          .cache_misses = cache_misses_.value(),
          .guard_rejections = guard_rejections_.value(),
          .cycle_rejections = cycle_rejections_.value()};
}

}  // namespace mdsm::controller
