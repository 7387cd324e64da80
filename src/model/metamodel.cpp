#include "model/metamodel.hpp"

#include <set>
#include <stdexcept>

namespace mdsm::model {

std::string_view to_string(AttrType type) noexcept {
  switch (type) {
    case AttrType::kBool: return "bool";
    case AttrType::kInt: return "int";
    case AttrType::kReal: return "real";
    case AttrType::kString: return "string";
    case AttrType::kEnum: return "enum";
  }
  return "?";
}

const MetaAttribute* MetaClass::find_attribute(
    std::string_view name) const noexcept {
  for (const auto& attr : effective_attributes_) {
    if (attr.name == name) return &attr;
  }
  return nullptr;
}

const MetaReference* MetaClass::find_reference(
    std::string_view name) const noexcept {
  for (const auto& ref : effective_references_) {
    if (ref.name == name) return &ref;
  }
  return nullptr;
}

MetaClass& Metamodel::add_class(const std::string& name,
                                const std::string& parent, bool is_abstract) {
  auto cls = std::make_unique<MetaClass>(name, parent, is_abstract);
  MetaClass* raw = cls.get();
  classes_.push_back(std::move(cls));
  by_name_[name] = raw;
  finalized_ = false;
  return *raw;
}

const MetaClass* Metamodel::find_class(std::string_view name) const noexcept {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

bool Metamodel::is_kind_of(std::string_view cls,
                           std::string_view ancestor) const noexcept {
  const MetaClass* current = find_class(cls);
  return current != nullptr && is_kind_of(*current, ancestor);
}

bool Metamodel::is_kind_of(const MetaClass& cls,
                           std::string_view ancestor) const noexcept {
  const MetaClass* current = &cls;
  while (current != nullptr) {
    if (current->name() == ancestor) return true;
    if (current->parent().empty()) return false;
    current = find_class(current->parent());
  }
  return false;
}

std::vector<const MetaClass*> Metamodel::classes() const {
  std::vector<const MetaClass*> out;
  out.reserve(classes_.size());
  for (const auto& cls : classes_) out.push_back(cls.get());
  return out;
}

Status Metamodel::finalize() {
  // Duplicate class names are already collapsed by the map; detect them.
  if (by_name_.size() != classes_.size()) {
    return InvalidArgument("metamodel '" + name_ + "' has duplicate classes");
  }
  // Parents exist; no inheritance cycles.
  for (const auto& cls : classes_) {
    if (!cls->parent().empty() && find_class(cls->parent()) == nullptr) {
      return InvalidArgument("class '" + cls->name() +
                             "' has unknown parent '" + cls->parent() + "'");
    }
    std::set<std::string> seen{cls->name()};
    const MetaClass* current = cls.get();
    while (!current->parent().empty()) {
      current = find_class(current->parent());
      if (!seen.insert(current->name()).second) {
        return InvalidArgument("inheritance cycle at class '" + cls->name() +
                               "'");
      }
    }
  }
  // Flatten features root-first so derived classes append after base ones.
  // Iterate until all classes are resolved (parents may appear later).
  std::set<std::string> resolved;
  while (resolved.size() < classes_.size()) {
    bool progress = false;
    for (auto& cls : classes_) {
      if (resolved.contains(cls->name())) continue;
      if (!cls->parent().empty() && !resolved.contains(cls->parent())) {
        continue;
      }
      cls->effective_attributes_.clear();
      cls->effective_references_.clear();
      if (!cls->parent().empty()) {
        const MetaClass* parent = find_class(cls->parent());
        cls->effective_attributes_ = parent->effective_attributes_;
        cls->effective_references_ = parent->effective_references_;
      }
      for (const auto& attr : cls->own_attributes_) {
        cls->effective_attributes_.push_back(attr);
      }
      for (const auto& ref : cls->own_references_) {
        cls->effective_references_.push_back(ref);
      }
      resolved.insert(cls->name());
      progress = true;
    }
    if (!progress) {
      return Internal("metamodel flattening did not converge");
    }
  }
  // Per-class feature checks on the flattened tables.
  for (const auto& cls : classes_) {
    std::set<std::string> names;
    for (const auto& attr : cls->effective_attributes_) {
      if (!names.insert(attr.name).second) {
        return InvalidArgument("class '" + cls->name() +
                               "' has duplicate feature '" + attr.name + "'");
      }
      if (attr.type == AttrType::kEnum && attr.enum_literals.empty()) {
        return InvalidArgument("enum attribute '" + cls->name() + "." +
                               attr.name + "' has no literals");
      }
    }
    for (const auto& ref : cls->effective_references_) {
      if (!names.insert(ref.name).second) {
        return InvalidArgument("class '" + cls->name() +
                               "' has duplicate feature '" + ref.name + "'");
      }
      if (find_class(ref.target_class) == nullptr) {
        return InvalidArgument("reference '" + cls->name() + "." + ref.name +
                               "' targets unknown class '" +
                               ref.target_class + "'");
      }
    }
  }
  finalized_ = true;
  return Status::Ok();
}

MetamodelPtr finalize_metamodel(Metamodel metamodel) {
  Status status = metamodel.finalize();
  if (!status.ok()) {
    throw std::invalid_argument("metamodel '" + metamodel.name() +
                                "' invalid: " + status.to_string());
  }
  return std::make_shared<const Metamodel>(std::move(metamodel));
}

}  // namespace mdsm::model
