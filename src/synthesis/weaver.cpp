#include "synthesis/weaver.hpp"

#include <algorithm>

namespace mdsm::synthesis {

namespace {

Status merge_object(model::Model& woven, const model::Model& concern,
                    const model::ModelObject& object,
                    const WeaveConfig& config) {
  // All objects were created by the first weaving pass.
  model::ModelObject* existing = woven.find(object.id());
  if (existing == nullptr) {
    return Internal("weaving pass 1 missed object '" + object.id() + "'");
  }
  if (existing->class_name() != object.class_name()) {
    return ConformanceError("concern '" + concern.name() + "' declares '" +
                            object.id() + "' as " + object.class_name() +
                            " but another concern declared it as " +
                            existing->class_name());
  }
  if (existing->parent_id() != object.parent_id() ||
      existing->containing_reference() != object.containing_reference()) {
    return ConformanceError("concern '" + concern.name() + "' places '" +
                            object.id() +
                            "' at a different containment position");
  }
  // Both objects are of one class, so their slots line up.
  const model::MetaClass& meta = existing->meta();
  // Attributes, in name order. A default-initialized slot that one
  // concern left alone and another set explicitly is not distinguishable
  // from two explicit sets (defaults materialize at creation); treat equal
  // values as agreement and let the policy decide on true disagreements.
  for (std::size_t slot = 0; slot < meta.attributes().size(); ++slot) {
    const model::Value& value = object.value_at(slot);
    const model::Value& current = existing->value_at(slot);
    if (value.is_none() || current == value) continue;
    const model::MetaAttribute& attr = meta.attributes()[slot];
    if (!current.is_none() && config.conflicts == ConflictPolicy::kError) {
      // Ignore disagreements that are merely "my default vs your
      // explicit value": if the slot equals the metamodel default in the
      // woven model, the explicit concern wins silently.
      const bool has_default = !attr.default_value.is_none();
      const bool woven_is_default =
          has_default && current == attr.default_value;
      const bool concern_is_default =
          has_default && value == attr.default_value;
      if (!woven_is_default && !concern_is_default) {
        return ConformanceError(
            "weaving conflict on '" + object.id() + "." + attr.name +
            "': " + current.to_text() + " vs " + value.to_text() +
            " (concern '" + concern.name() + "')");
      }
      if (concern_is_default) continue;  // keep the explicit woven value
    }
    MDSM_RETURN_IF_ERROR(woven.set_attribute(*existing, attr.name, value));
  }
  // Cross references: union (containment is driven by object creation).
  for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
    const model::MetaReference& ref = meta.references()[slot];
    if (ref.containment) continue;
    for (const std::string& target : object.targets_at(slot)) {
      const model::Targets& current = existing->targets_at(slot);
      if (std::find(current.begin(), current.end(), target) !=
          current.end()) {
        continue;
      }
      if (!ref.many && !current.empty() && current[0] != target) {
        if (config.conflicts == ConflictPolicy::kError) {
          return ConformanceError("weaving conflict on single-valued '" +
                                  object.id() + "." + ref.name + "': '" +
                                  current[0] + "' vs '" + target + "'");
        }
      }
      // Forward references inside a concern are fine here because
      // objects were created in concern order before this pass.
      Status added = woven.add_reference(*existing, ref.name, target);
      if (!added.ok() && added.code() != ErrorCode::kAlreadyExists) {
        return added;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Result<model::Model> weave(const std::vector<const model::Model*>& concerns,
                           WeaveConfig config) {
  if (concerns.empty()) {
    return InvalidArgument("weave requires at least one concern model");
  }
  for (const model::Model* concern : concerns) {
    if (concern == nullptr) return InvalidArgument("null concern model");
    if (concern->metamodel_ptr() != concerns[0]->metamodel_ptr()) {
      return InvalidArgument(
          "all concerns must conform to the same DSML (got '" +
          concern->metamodel().name() + "' vs '" +
          concerns[0]->metamodel().name() + "')");
    }
  }
  model::Model woven(config.woven_name, concerns[0]->metamodel_ptr());
  // Two passes: objects first (so cross-concern references resolve),
  // then slots.
  for (const model::Model* concern : concerns) {
    for (const model::ModelObject* object : concern->objects()) {
      if (!woven.contains(object->id())) {
        Result<model::ModelObject*> created =
            object->parent_id().empty()
                ? woven.create(object->class_name(), object->id())
                : woven.create_child(object->parent_id(),
                                     object->containing_reference(),
                                     object->class_name(), object->id());
        if (!created.ok()) {
          return Status(created.status().code(),
                        "weaving '" + concern->name() +
                            "': " + created.status().message());
        }
      }
    }
  }
  for (const model::Model* concern : concerns) {
    for (const model::ModelObject* object : concern->objects()) {
      MDSM_RETURN_IF_ERROR(merge_object(woven, *concern, *object, config));
    }
  }
  MDSM_RETURN_IF_ERROR(woven.validate());
  return woven;
}

}  // namespace mdsm::synthesis
