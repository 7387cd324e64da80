#include "model/metamodel.hpp"

#include <algorithm>
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
  const int slot = attribute_slot(name);
  return slot < 0 ? nullptr : &effective_attributes_[slot];
}

const MetaReference* MetaClass::find_reference(
    std::string_view name) const noexcept {
  const int slot = reference_slot(name);
  return slot < 0 ? nullptr : &effective_references_[slot];
}

MetaClass& Metamodel::add_class(const std::string& name,
                                const std::string& parent, bool is_abstract) {
  auto cls = std::make_unique<MetaClass>(name, parent, is_abstract);
  MetaClass* raw = cls.get();
  classes_.push_back(std::move(cls));
  finalized_ = false;
  return *raw;
}

const MetaClass* Metamodel::find_class(std::string_view name) const noexcept {
  for (const auto& cls : classes_) {
    if (cls->name() == name) return cls.get();
  }
  return nullptr;
}

bool Metamodel::is_kind_of(std::string_view cls,
                           std::string_view ancestor) const noexcept {
  const MetaClass* resolved = find_class(cls);
  const MetaClass* base = find_class(ancestor);
  return resolved != nullptr && base != nullptr && resolved->is_kind_of(*base);
}

Status Metamodel::finalize() {
  std::set<std::string_view> class_names;
  for (const auto& cls : classes_) {
    if (!class_names.insert(cls->name()).second) {
      return InvalidArgument("metamodel '" + name_ + "' has duplicate classes");
    }
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
  // Flatten each class's features along its ancestor chain, which is also
  // the set of classes it is a kind of; then sort them into slot order.
  for (std::size_t i = 0; i < classes_.size(); ++i) classes_[i]->index_ = i;
  for (const auto& cls : classes_) {
    std::vector<const MetaClass*> chain{cls.get()};
    while (!chain.back()->parent().empty()) {
      chain.push_back(find_class(chain.back()->parent()));
    }
    cls->effective_attributes_.clear();
    cls->effective_references_.clear();
    cls->kinds_.assign(classes_.size(), false);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const MetaClass& ancestor = **it;
      cls->effective_attributes_.insert(cls->effective_attributes_.end(),
                                        ancestor.own_attributes_.begin(),
                                        ancestor.own_attributes_.end());
      cls->effective_references_.insert(cls->effective_references_.end(),
                                        ancestor.own_references_.begin(),
                                        ancestor.own_references_.end());
      cls->kinds_[ancestor.index_] = true;
    }
    // Feature checks on the flattened tables.
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
    for (auto& ref : cls->effective_references_) {
      if (!names.insert(ref.name).second) {
        return InvalidArgument("class '" + cls->name() +
                               "' has duplicate feature '" + ref.name + "'");
      }
      ref.target = find_class(ref.target_class);
      if (ref.target == nullptr) {
        return InvalidArgument("reference '" + cls->name() + "." + ref.name +
                               "' targets unknown class '" +
                               ref.target_class + "'");
      }
    }
    std::ranges::sort(cls->effective_attributes_, {}, &MetaAttribute::name);
    std::ranges::sort(cls->effective_references_, {}, &MetaReference::name);
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
