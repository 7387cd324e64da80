#include "model/model.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace mdsm::model {

namespace {
const Value kNoneValue{};
const std::vector<std::string> kNoTargets{};

bool type_matches(const MetaAttribute& attr, const Value& value) {
  switch (attr.type) {
    case AttrType::kBool: return value.is_bool();
    case AttrType::kInt: return value.is_int();
    case AttrType::kReal: return value.is_number();
    case AttrType::kString: return value.is_string();
    case AttrType::kEnum: return value.is_string();
  }
  return false;
}
}  // namespace

const Value& ModelObject::get(std::string_view attribute) const noexcept {
  auto it = attributes_.find(attribute);
  return it == attributes_.end() ? kNoneValue : it->second;
}

bool ModelObject::has(std::string_view attribute) const noexcept {
  return attributes_.contains(attribute);
}

std::string ModelObject::get_string(std::string_view attribute,
                                    std::string fallback) const {
  const Value& v = get(attribute);
  return v.is_string() ? v.as_string() : std::move(fallback);
}

std::int64_t ModelObject::get_int(std::string_view attribute,
                                  std::int64_t fallback) const {
  const Value& v = get(attribute);
  return v.is_int() ? v.as_int() : fallback;
}

double ModelObject::get_real(std::string_view attribute,
                             double fallback) const {
  const Value& v = get(attribute);
  return v.is_number() ? v.as_number() : fallback;
}

bool ModelObject::get_bool(std::string_view attribute, bool fallback) const {
  const Value& v = get(attribute);
  return v.is_bool() ? v.as_bool() : fallback;
}

const std::vector<std::string>& ModelObject::targets(
    std::string_view reference) const noexcept {
  auto it = references_.find(reference);
  return it == references_.end() ? kNoTargets : it->second;
}

Model::Model(std::string name, MetamodelPtr metamodel)
    : name_(std::move(name)), metamodel_(std::move(metamodel)) {}

Result<ModelObject*> Model::create(const std::string& class_name,
                                   const std::string& id) {
  const MetaClass* meta = metamodel_->find_class(class_name);
  if (meta == nullptr) {
    return NotFound("class '" + class_name + "' not in metamodel '" +
                    metamodel_->name() + "'");
  }
  return add_object(*meta, id);
}

Result<ModelObject*> Model::add_object(const MetaClass& meta,
                                       const std::string& id) {
  if (meta.is_abstract()) {
    return InvalidArgument("class '" + meta.name() + "' is abstract");
  }
  if (!is_identifier(id)) {
    return InvalidArgument("'" + id + "' is not a valid object id");
  }
  auto created = std::make_unique<ModelObject>(id, meta);
  ModelObject* object = created.get();
  if (!objects_.try_emplace(id, std::move(created)).second) {
    return AlreadyExists("object '" + id + "' already in model");
  }
  // Apply attribute defaults declared in the metamodel.
  for (const auto& attr : meta.attributes()) {
    if (!attr.default_value.is_none()) {
      object->attributes_.emplace(attr.name, attr.default_value);
    }
  }
  order_.push_back(object);
  return object;
}

Result<ModelObject*> Model::create_child(const std::string& parent_id,
                                         const std::string& reference,
                                         const std::string& class_name,
                                         const std::string& id) {
  ModelObject* parent = find(parent_id);
  if (parent == nullptr) {
    return NotFound("parent '" + parent_id + "' not in model");
  }
  const MetaReference* ref = parent->meta().find_reference(reference);
  if (ref == nullptr) {
    return NotFound("class '" + parent->class_name() +
                    "' has no reference '" + reference + "'");
  }
  if (!ref->containment) {
    return InvalidArgument("reference '" + reference +
                           "' is not a containment reference");
  }
  const MetaClass* meta = metamodel_->find_class(class_name);
  if (meta == nullptr || !metamodel_->is_kind_of(*meta, ref->target_class)) {
    return InvalidArgument("class '" + class_name + "' is not a kind of '" +
                           ref->target_class + "'");
  }
  if (!ref->many && !parent->targets(reference).empty()) {
    return FailedPrecondition("single-valued containment '" + reference +
                              "' of '" + parent_id + "' already filled");
  }
  Result<ModelObject*> created = add_object(*meta, id);
  if (!created.ok()) return created.status();
  ModelObject* child = created.value();
  child->parent_id_ = parent_id;
  child->containing_reference_ = reference;
  parent->references_[reference].push_back(id);
  return child;
}

Status Model::set_attribute(const std::string& id,
                            const std::string& attribute, Value value) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  const MetaAttribute* attr = object->meta().find_attribute(attribute);
  if (attr == nullptr) {
    return NotFound("class '" + object->class_name() +
                    "' has no attribute '" + attribute + "'");
  }
  auto check_item = [&](const Value& item) -> Status {
    if (!type_matches(*attr, item)) {
      return InvalidArgument("attribute '" + object->class_name() + "." +
                             attribute + "' expects " +
                             std::string(to_string(attr->type)) + ", got " +
                             std::string(to_string(item.kind())));
    }
    return Status::Ok();
  };
  if (attr->many) {
    if (!value.is_list()) {
      return InvalidArgument("attribute '" + attribute +
                             "' is many-valued; expected a list");
    }
    for (const Value& item : value.as_list()) {
      MDSM_RETURN_IF_ERROR(check_item(item));
    }
  } else {
    MDSM_RETURN_IF_ERROR(check_item(value));
  }
  // Coerce int literals into real-typed single slots for convenience.
  if (!attr->many && attr->type == AttrType::kReal && value.is_int()) {
    value = Value(static_cast<double>(value.as_int()));
  }
  object->attributes_[attribute] = std::move(value);
  return Status::Ok();
}

Status Model::unset_attribute(const std::string& id,
                              const std::string& attribute) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  object->attributes_.erase(attribute);
  return Status::Ok();
}

Status Model::check_reference(const ModelObject& object,
                              const MetaReference& reference,
                              const std::string& target_id) const {
  const ModelObject* target = find(target_id);
  if (target == nullptr) {
    return NotFound("reference target '" + target_id + "' not in model");
  }
  if (!metamodel_->is_kind_of(target->class_name(), reference.target_class)) {
    return InvalidArgument("target '" + target_id + "' of '" +
                           object.class_name() + "." + reference.name +
                           "' is not a kind of '" + reference.target_class +
                           "'");
  }
  return Status::Ok();
}

Status Model::add_reference(const std::string& id, const std::string& reference,
                            const std::string& target_id) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  const MetaReference* ref = object->meta().find_reference(reference);
  if (ref == nullptr) {
    return NotFound("class '" + object->class_name() +
                    "' has no reference '" + reference + "'");
  }
  if (ref->containment) {
    return InvalidArgument("containment reference '" + reference +
                           "' is populated via create_child");
  }
  MDSM_RETURN_IF_ERROR(check_reference(*object, *ref, target_id));
  auto& targets = object->references_[reference];
  if (std::find(targets.begin(), targets.end(), target_id) != targets.end()) {
    return AlreadyExists("'" + target_id + "' already referenced by '" + id +
                         "." + reference + "'");
  }
  if (!ref->many && !targets.empty()) {
    targets.clear();  // single-valued: replace
  }
  targets.push_back(target_id);
  return Status::Ok();
}

Status Model::remove_reference(const std::string& id,
                               const std::string& reference,
                               const std::string& target_id) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  auto it = object->references_.find(reference);
  if (it == object->references_.end()) {
    return NotFound("reference '" + reference + "' unset on '" + id + "'");
  }
  auto& targets = it->second;
  auto pos = std::find(targets.begin(), targets.end(), target_id);
  if (pos == targets.end()) {
    return NotFound("'" + target_id + "' not referenced by '" + id + "." +
                    reference + "'");
  }
  targets.erase(pos);
  if (targets.empty()) object->references_.erase(it);
  return Status::Ok();
}

Status Model::remove(const std::string& id) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  // Collect the containment subtree (children before the parent removal).
  std::vector<std::string> doomed;
  std::vector<std::string> frontier{id};
  while (!frontier.empty()) {
    std::string current = frontier.back();
    frontier.pop_back();
    doomed.push_back(current);
    const ModelObject* node = find(current);
    for (const auto& ref : node->meta().references()) {
      if (!ref.containment) continue;
      for (const std::string& child : node->targets(ref.name)) {
        frontier.push_back(child);
      }
    }
  }
  // Detach from the parent's containment slot.
  if (!object->parent_id_.empty()) {
    ModelObject* parent = find(object->parent_id_);
    if (parent != nullptr) {
      auto it = parent->references_.find(object->containing_reference_);
      if (it != parent->references_.end()) {
        auto& targets = it->second;
        targets.erase(std::remove(targets.begin(), targets.end(), id),
                      targets.end());
        if (targets.empty()) parent->references_.erase(it);
      }
    }
  }
  // Erase the subtree and scrub dangling cross-references to it.
  for (const std::string& gone : doomed) {
    order_.erase(std::remove(order_.begin(), order_.end(), find(gone)),
                 order_.end());
    objects_.erase(gone);
  }
  for (auto& [oid, obj] : objects_) {
    for (auto it = obj->references_.begin(); it != obj->references_.end();) {
      auto& targets = it->second;
      targets.erase(std::remove_if(targets.begin(), targets.end(),
                                   [&](const std::string& t) {
                                     return std::find(doomed.begin(),
                                                      doomed.end(),
                                                      t) != doomed.end();
                                   }),
                    targets.end());
      it = targets.empty() ? obj->references_.erase(it) : std::next(it);
    }
  }
  return Status::Ok();
}

const ModelObject* Model::find(std::string_view id) const noexcept {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

ModelObject* Model::find(std::string_view id) noexcept {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

std::vector<const ModelObject*> Model::objects_of(
    std::string_view class_name) const {
  std::vector<const ModelObject*> out;
  for (const ModelObject* object : order_) {
    if (metamodel_->is_kind_of(object->class_name(), class_name)) {
      out.push_back(object);
    }
  }
  return out;
}

std::vector<const ModelObject*> Model::roots() const {
  std::vector<const ModelObject*> out;
  for (const ModelObject* object : order_) {
    if (object->parent_id().empty()) out.push_back(object);
  }
  return out;
}

std::vector<const ModelObject*> Model::children(
    std::string_view parent_id, std::string_view reference) const {
  std::vector<const ModelObject*> out;
  const ModelObject* parent = find(parent_id);
  if (parent == nullptr) return out;
  for (const auto& id : parent->targets(reference)) {
    if (const ModelObject* child = find(id)) out.push_back(child);
  }
  return out;
}

Status Model::validate() const {
  for (const ModelObject* object : order_) {
    const std::string& id = object->id();
    const MetaClass& meta = object->meta();
    // Unknown slots cannot occur (set_attribute checks), but required
    // and enum constraints are deferred to validation.
    for (const auto& attr : meta.attributes()) {
      const Value& value = object->get(attr.name);
      if (value.is_none()) {
        if (attr.required) {
          return ConformanceError("object '" + id +
                                  "' missing required attribute '" +
                                  attr.name + "'");
        }
        continue;
      }
      if (attr.type == AttrType::kEnum) {
        auto check_literal = [&](const Value& item) -> Status {
          if (std::find(attr.enum_literals.begin(), attr.enum_literals.end(),
                        item.as_string()) == attr.enum_literals.end()) {
            return ConformanceError("object '" + id + "' attribute '" +
                                    attr.name + "' has illegal literal '" +
                                    item.as_string() + "'");
          }
          return Status::Ok();
        };
        if (attr.many) {
          for (const Value& item : value.as_list()) {
            MDSM_RETURN_IF_ERROR(check_literal(item));
          }
        } else {
          MDSM_RETURN_IF_ERROR(check_literal(value));
        }
      }
    }
    for (const auto& ref : meta.references()) {
      const auto& targets = object->targets(ref.name);
      if (ref.required && targets.empty()) {
        return ConformanceError("object '" + id +
                                "' missing required reference '" + ref.name +
                                "'");
      }
      if (!ref.many && targets.size() > 1) {
        return ConformanceError("object '" + id + "' reference '" + ref.name +
                                "' is single-valued but has " +
                                std::to_string(targets.size()) + " targets");
      }
      for (const auto& target_id : targets) {
        const ModelObject* target = find(target_id);
        if (target == nullptr) {
          return ConformanceError("object '" + id + "' reference '" +
                                  ref.name + "' targets missing object '" +
                                  target_id + "'");
        }
        if (!metamodel_->is_kind_of(target->class_name(), ref.target_class)) {
          return ConformanceError("object '" + id + "' reference '" +
                                  ref.name + "' target '" + target_id +
                                  "' has incompatible class '" +
                                  target->class_name() + "'");
        }
      }
    }
  }
  return Status::Ok();
}

Model Model::clone() const {
  Model copy(name_, metamodel_);
  for (const ModelObject* object : order_) {
    auto duplicate = std::make_unique<ModelObject>(*object);
    copy.order_.push_back(duplicate.get());
    copy.objects_.emplace(object->id(), std::move(duplicate));
  }
  return copy;
}

}  // namespace mdsm::model
