// Models: typed object graphs conforming to a Metamodel.
//
// A Model owns its ModelObjects (containment tree plus cross-references by
// id) and is the unit the MD-DSM layers exchange: the UI layer edits one,
// the Synthesis layer diffs two, the middleware keeps one as its runtime
// model (models@runtime), and src/core instantiates middleware from one.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "model/metamodel.hpp"
#include "model/value.hpp"

namespace mdsm::model {

class Model;

/// One object in a model. Identity is a model-unique string id; state is
/// attribute slots (Value) plus reference slots (target ids). Objects are
/// created and owned by their Model.
class ModelObject {
 public:
  ModelObject(std::string id, const MetaClass& meta)
      : id_(std::move(id)), meta_(&meta) {}

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const MetaClass& meta() const noexcept { return *meta_; }
  [[nodiscard]] const std::string& class_name() const noexcept {
    return meta_->name();
  }

  /// Containment context ("" for roots).
  [[nodiscard]] const std::string& parent_id() const noexcept {
    return parent_id_;
  }
  [[nodiscard]] const std::string& containing_reference() const noexcept {
    return containing_reference_;
  }

  /// Attribute access. get() returns none for never-set attributes.
  [[nodiscard]] const Value& get(std::string_view attribute) const noexcept;
  [[nodiscard]] bool has(std::string_view attribute) const noexcept;

  /// Typed conveniences with fallbacks (for reading optional attrs).
  [[nodiscard]] std::string get_string(std::string_view attribute,
                                       std::string fallback = "") const;
  [[nodiscard]] std::int64_t get_int(std::string_view attribute,
                                     std::int64_t fallback = 0) const;
  [[nodiscard]] double get_real(std::string_view attribute,
                                double fallback = 0.0) const;
  [[nodiscard]] bool get_bool(std::string_view attribute,
                              bool fallback = false) const;

  /// Targets of a reference slot (ids), empty if unset.
  [[nodiscard]] const std::vector<std::string>& targets(
      std::string_view reference) const noexcept;

  /// All set attribute slots, sorted by name (deterministic iteration).
  [[nodiscard]] const std::map<std::string, Value, std::less<>>& attributes()
      const noexcept {
    return attributes_;
  }
  /// All set reference slots, sorted by name.
  [[nodiscard]] const std::map<std::string, std::vector<std::string>,
                               std::less<>>&
  references() const noexcept {
    return references_;
  }

 private:
  friend class Model;

  std::string id_;
  const MetaClass* meta_;
  std::string parent_id_;
  std::string containing_reference_;
  std::map<std::string, Value, std::less<>> attributes_;
  std::map<std::string, std::vector<std::string>, std::less<>> references_;
};

/// An object graph conforming (checked by validate()) to a Metamodel.
class Model {
 public:
  Model(std::string name, MetamodelPtr metamodel);

  // Move-only: a Model owns its objects; use clone() for copies.
  Model(Model&&) noexcept = default;
  Model& operator=(Model&&) noexcept = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  [[nodiscard]] const Metamodel& metamodel() const noexcept {
    return *metamodel_;
  }
  [[nodiscard]] const MetamodelPtr& metamodel_ptr() const noexcept {
    return metamodel_;
  }

  /// Create a root object. Fails on unknown/abstract class or id clash.
  Result<ModelObject*> create(const std::string& class_name,
                              const std::string& id);

  /// Create an object contained in `parent_id` via containment reference
  /// `reference`. Checks the reference exists, is containment, targets a
  /// compatible class, and respects multiplicity.
  Result<ModelObject*> create_child(const std::string& parent_id,
                                    const std::string& reference,
                                    const std::string& class_name,
                                    const std::string& id);

  /// Set an attribute with static type checking against the metaclass.
  Status set_attribute(const std::string& id, const std::string& attribute,
                       Value value);

  /// Clear an attribute slot back to unset.
  Status unset_attribute(const std::string& id, const std::string& attribute);

  /// Add a cross (non-containment) reference target.
  Status add_reference(const std::string& id, const std::string& reference,
                       const std::string& target_id);

  Status remove_reference(const std::string& id, const std::string& reference,
                          const std::string& target_id);

  /// Remove an object and (recursively) everything it contains; dangling
  /// cross-references to removed ids are also cleaned up.
  Status remove(const std::string& id);

  [[nodiscard]] const ModelObject* find(std::string_view id) const noexcept;
  [[nodiscard]] ModelObject* find(std::string_view id) noexcept;
  [[nodiscard]] bool contains(std::string_view id) const noexcept {
    return find(id) != nullptr;
  }

  /// All objects in creation order.
  [[nodiscard]] const std::vector<const ModelObject*>& objects()
      const noexcept {
    return order_;
  }
  /// Objects whose class is (a subclass of) `class_name`, creation order.
  [[nodiscard]] std::vector<const ModelObject*> objects_of(
      std::string_view class_name) const;
  /// Root (uncontained) objects, creation order.
  [[nodiscard]] std::vector<const ModelObject*> roots() const;
  /// Children contained by `parent_id` via `reference`, creation order.
  [[nodiscard]] std::vector<const ModelObject*> children(
      std::string_view parent_id, std::string_view reference) const;

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] bool empty() const noexcept { return order_.empty(); }

  /// Full conformance check: required attributes/references present, enum
  /// literals legal, reference targets exist and are type-compatible.
  [[nodiscard]] Status validate() const;

  /// Deep copy (same metamodel, same ids).
  [[nodiscard]] Model clone() const;

 private:
  /// create() once the class is resolved.
  Result<ModelObject*> add_object(const MetaClass& meta,
                                  const std::string& id);
  Status check_reference(const ModelObject& object,
                         const MetaReference& reference,
                         const std::string& target_id) const;

  std::string name_;
  MetamodelPtr metamodel_;
  /// Hashes ids for lookup by std::string_view as well as std::string.
  struct IdHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view id) const noexcept {
      return std::hash<std::string_view>{}(id);
    }
  };
  std::unordered_map<std::string, std::unique_ptr<ModelObject>, IdHash,
                     std::equal_to<>>
      objects_;
  std::vector<const ModelObject*> order_;  ///< creation order
};

}  // namespace mdsm::model
