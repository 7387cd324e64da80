// The metamodeling facility: metaclasses with typed attributes and
// (containment or cross) references, single inheritance, and structural
// self-validation.
//
// This substitutes for the Eclipse Modeling Framework used by the paper:
// a Metamodel plays the role of an Ecore package, a MetaClass of an
// EClass. Both the MD-DSM middleware metamodel (src/core) and every
// application-level DSML (src/domains/*) are expressed with it.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "model/value.hpp"

namespace mdsm::model {

/// Static type of a MetaAttribute.
enum class AttrType { kBool, kInt, kReal, kString, kEnum };

std::string_view to_string(AttrType type) noexcept;

/// Declaration of one attribute slot on a metaclass.
struct MetaAttribute {
  std::string name;
  AttrType type = AttrType::kString;
  bool required = false;   ///< conformance fails if unset
  bool many = false;       ///< value is a list of `type`
  std::vector<std::string> enum_literals;  ///< legal values when kEnum
  Value default_value;     ///< applied at object creation when non-none
};

class MetaClass;

/// Declaration of one reference slot (a typed link to other objects).
struct MetaReference {
  std::string name;
  std::string target_class;  ///< metaclass (or subclass) of legal targets
  bool containment = false;  ///< true: parent owns the target objects
  bool many = false;
  bool required = false;     ///< at least one target must be present
  const MetaClass* target = nullptr;  ///< `target_class`, set by finalize()
};

/// Slot of the feature named `name` in a feature table, or -1.
template <typename Feature>
int find_slot(const std::vector<Feature>& features,
              std::string_view name) noexcept {
  for (std::size_t slot = 0; slot < features.size(); ++slot) {
    if (features[slot].name == name) return static_cast<int>(slot);
  }
  return -1;
}

/// A class in a metamodel. Built via Metamodel::add_class then populated;
/// effective (inheritance-flattened) feature tables are computed by
/// Metamodel::finalize(), sorted by feature name. A feature's slot is its
/// index there: objects keep one slot per attribute and per reference,
/// so walking the slots walks the features in name order.
class MetaClass {
 public:
  MetaClass(std::string name, std::string parent, bool is_abstract)
      : name_(std::move(name)),
        parent_(std::move(parent)),
        abstract_(is_abstract) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& parent() const noexcept { return parent_; }
  [[nodiscard]] bool is_abstract() const noexcept { return abstract_; }

  MetaClass& add_attribute(MetaAttribute attribute) {
    own_attributes_.push_back(std::move(attribute));
    return *this;
  }
  MetaClass& add_reference(MetaReference reference) {
    own_references_.push_back(std::move(reference));
    return *this;
  }

  /// Inheritance-flattened features, sorted by name (valid only after
  /// finalize()).
  [[nodiscard]] const std::vector<MetaAttribute>& attributes() const {
    return effective_attributes_;
  }
  [[nodiscard]] const std::vector<MetaReference>& references() const {
    return effective_references_;
  }

  /// Slot of the named feature, or -1.
  [[nodiscard]] int attribute_slot(std::string_view name) const noexcept {
    return find_slot(effective_attributes_, name);
  }
  [[nodiscard]] int reference_slot(std::string_view name) const noexcept {
    return find_slot(effective_references_, name);
  }

  [[nodiscard]] const MetaAttribute* find_attribute(
      std::string_view name) const noexcept;
  [[nodiscard]] const MetaReference* find_reference(
      std::string_view name) const noexcept;

  /// True if this class equals `ancestor` or inherits from it; both
  /// classes must be of one finalized metamodel.
  [[nodiscard]] bool is_kind_of(const MetaClass& ancestor) const noexcept {
    return ancestor.index_ < kinds_.size() && kinds_[ancestor.index_];
  }

 private:
  friend class Metamodel;

  std::string name_;
  std::string parent_;  ///< empty when root
  bool abstract_ = false;
  std::size_t index_ = 0;  ///< position in the metamodel
  std::vector<MetaAttribute> own_attributes_;
  std::vector<MetaReference> own_references_;
  std::vector<MetaAttribute> effective_attributes_;
  std::vector<MetaReference> effective_references_;
  std::vector<bool> kinds_;  ///< kinds_[i]: a kind of the i-th class
};

/// A named set of metaclasses. Immutable after finalize(); models hold a
/// shared_ptr<const Metamodel> so metamodels outlive every conforming
/// model (Core Guidelines R.20/R.21 on shared ownership intent).
class Metamodel {
 public:
  explicit Metamodel(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Add a class; `parent` may name a class added before or after this
  /// call (resolved by finalize()). Returns the class for chaining.
  MetaClass& add_class(const std::string& name, const std::string& parent = "",
                       bool is_abstract = false);

  /// Validate structure (parents exist, no inheritance cycles, unique
  /// feature names, enum attrs have literals, reference targets exist)
  /// and compute the name-sorted, inheritance-flattened feature tables,
  /// each class's ancestor set and each reference's target.
  [[nodiscard]] Status finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  [[nodiscard]] const MetaClass* find_class(
      std::string_view name) const noexcept;

  /// True if `cls` equals `ancestor` or inherits from it (transitively).
  [[nodiscard]] bool is_kind_of(std::string_view cls,
                                std::string_view ancestor) const noexcept;

 private:
  std::string name_;
  std::vector<std::unique_ptr<MetaClass>> classes_;
  bool finalized_ = false;
};

using MetamodelPtr = std::shared_ptr<const Metamodel>;

/// Convenience: finalize and wrap; throws std::invalid_argument on a
/// malformed metamodel (metamodels are authored in code, so structural
/// errors are programming errors).
MetamodelPtr finalize_metamodel(Metamodel metamodel);

}  // namespace mdsm::model
