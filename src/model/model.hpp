// Models: typed object graphs conforming to a Metamodel.
//
// A Model owns its ModelObjects (containment tree plus cross-references by
// id) and is the unit the MD-DSM layers exchange: the UI layer edits one,
// the Synthesis layer diffs two, the middleware keeps one as its runtime
// model (models@runtime), and src/core instantiates middleware from one.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "model/metamodel.hpp"
#include "model/value.hpp"

namespace mdsm::model {

class Model;

/// The ids held by one reference slot.
using Targets = std::vector<std::string>;

/// A name-ordered view of one object's set slots of one kind: attributes
/// (set when not none) or references (set when not empty). It iterates
/// and finds like a std::map from feature name to slot. Its iterators
/// point into the metaclass and the object, so they outlive the view.
template <typename Feature, typename Slot>
class SlotView {
 public:
  using value_type = std::pair<const std::string&, const Slot&>;

  class iterator {
   public:
    struct Arrow {  ///< what operator-> points through
      value_type pair;
      const value_type* operator->() const noexcept { return &pair; }
    };
    iterator(const SlotView& view, std::size_t slot) noexcept
        : features_(view.features_), slots_(view.slots_), slot_(slot) {
      skip_unset();
    }
    value_type operator*() const noexcept {
      return {(*features_)[slot_].name, slots_[slot_]};
    }
    Arrow operator->() const noexcept { return {**this}; }
    iterator& operator++() noexcept {
      ++slot_;
      skip_unset();
      return *this;
    }
    bool operator==(const iterator& other) const noexcept {
      return slot_ == other.slot_;
    }

   private:
    void skip_unset() noexcept {
      while (slot_ < features_->size() && !is_set(slots_[slot_])) ++slot_;
    }
    const std::vector<Feature>* features_;
    const Slot* slots_;
    std::size_t slot_;
  };

  SlotView(const std::vector<Feature>& features, const Slot* slots) noexcept
      : features_(&features), slots_(slots) {}
  [[nodiscard]] iterator begin() const noexcept { return {*this, 0}; }
  [[nodiscard]] iterator end() const noexcept {
    return {*this, features_->size()};
  }
  [[nodiscard]] iterator find(std::string_view name) const noexcept {
    const int slot = find_slot(*features_, name);
    return slot >= 0 && is_set(slots_[slot]) ? iterator(*this, slot) : end();
  }

 private:
  static bool is_set(const Value& value) noexcept { return !value.is_none(); }
  static bool is_set(const Targets& targets) noexcept {
    return !targets.empty();
  }
  const std::vector<Feature>* features_;
  const Slot* slots_;
};

/// One object in a model. Identity is a model-unique string id; state is
/// one slot per feature of its metaclass, indexed like its effective
/// feature tables: a Value per attribute (none when unset) and the target
/// ids per reference. Objects are created and owned by their Model and
/// keep their address for its life.
class ModelObject {
 public:
  ModelObject(const ModelObject&) = delete;
  ModelObject& operator=(const ModelObject&) = delete;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const MetaClass& meta() const noexcept { return *meta_; }
  [[nodiscard]] const std::string& class_name() const noexcept {
    return meta_->name();
  }

  /// Containment context ("" for roots).
  [[nodiscard]] const std::string& parent_id() const noexcept;
  [[nodiscard]] const std::string& containing_reference() const noexcept;

  /// Attribute access. get() returns none for never-set attributes.
  [[nodiscard]] const Value& get(std::string_view attribute) const noexcept;
  [[nodiscard]] bool has(std::string_view attribute) const noexcept {
    return !get(attribute).is_none();
  }

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
  [[nodiscard]] const Targets& targets(
      std::string_view reference) const noexcept;

  /// Slots by index into meta().attributes() / meta().references().
  [[nodiscard]] const Value& value_at(std::size_t slot) const noexcept {
    return values_[slot];
  }
  [[nodiscard]] const Targets& targets_at(std::size_t slot) const noexcept {
    return targets_[slot];
  }

  /// All set attribute slots, sorted by name (deterministic iteration).
  [[nodiscard]] SlotView<MetaAttribute, Value> attributes() const noexcept {
    return {meta_->attributes(), values_};
  }
  /// All set reference slots, sorted by name.
  [[nodiscard]] SlotView<MetaReference, Targets> references() const noexcept {
    return {meta_->references(), targets_};
  }

 private:
  friend class Model;

  ModelObject(std::string_view id, const MetaClass& meta, Value* values,
              Targets* targets)
      : id_(id), meta_(&meta), values_(values), targets_(targets) {}

  std::string id_;
  const MetaClass* meta_;
  const ModelObject* parent_ = nullptr;  ///< null for roots
  std::size_t containment_slot_ = 0;     ///< the parent's reference slot
  Value* values_;     ///< the record's attribute slots
  Targets* targets_;  ///< the record's reference slots
};

/// An object graph conforming (checked by validate()) to a Metamodel.
class Model {
 public:
  Model(std::string name, MetamodelPtr metamodel);
  ~Model();

  // Move-only: a Model owns its objects; use clone() for copies. A move
  // moves no object, so pointers and references into them stay valid.
  Model(Model&&) noexcept = default;
  Model& operator=(Model&& other) noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Metamodel& metamodel() const noexcept {
    return *metamodel_;
  }
  [[nodiscard]] const MetamodelPtr& metamodel_ptr() const noexcept {
    return metamodel_;
  }

  /// Make room for `objects` more objects, like std::vector::reserve.
  void reserve(std::size_t objects);

  /// Create a root object. Fails on unknown/abstract class or id clash.
  Result<ModelObject*> create(std::string_view class_name,
                              std::string_view id);

  /// Create an object contained in `parent_id` via containment reference
  /// `reference`. Checks the reference exists, is containment, targets a
  /// compatible class, and respects multiplicity.
  Result<ModelObject*> create_child(const std::string& parent_id,
                                    const std::string& reference,
                                    const std::string& class_name,
                                    const std::string& id);
  Result<ModelObject*> create_child(ModelObject& parent,
                                    std::string_view reference,
                                    std::string_view class_name,
                                    std::string_view id);

  /// Set an attribute with static type checking against the metaclass.
  Status set_attribute(const std::string& id, const std::string& attribute,
                       Value value);
  Status set_attribute(ModelObject& object, std::string_view attribute,
                       Value value);

  /// Clear an attribute slot back to unset.
  Status unset_attribute(const std::string& id, const std::string& attribute);

  /// Add a cross (non-containment) reference target.
  Status add_reference(const std::string& id, const std::string& reference,
                       const std::string& target_id);
  Status add_reference(ModelObject& object, std::string_view reference,
                       std::string_view target_id);

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
  Result<ModelObject*> add_object(const MetaClass& meta, std::string_view id);
  /// Allocate a record: a released one of its size, else the newest
  /// chunk's free tail, else a new chunk with room for the records
  /// reserve() still expects (4 when none) and at least twice the last.
  void* allocate(std::size_t bytes);
  /// Run the destructors of every object in `objects` and its slots.
  static void destroy(const std::vector<const ModelObject*>& objects) noexcept;
  /// Rebuild the id table with `slots` entries (a power of two).
  void rehash(std::size_t slots);

  std::string name_;
  MetamodelPtr metamodel_;
  std::vector<const ModelObject*> order_;  ///< creation order
  /// Open-addressed id table (linear probing), at most half full.
  std::vector<ModelObject*> index_;
  /// The object records, in chunks that never move: each record is the
  /// ModelObject, then its attribute slots, then its reference slots.
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t chunk_used_ = 0;  ///< bytes taken from chunks_.back()
  std::size_t chunk_size_ = 0;  ///< bytes in chunks_.back()
  std::size_t expected_ = 0;    ///< objects reserve() made room for
  /// Records remove() freed, for reuse by a record of the same bytes.
  using Released = std::pair<std::size_t, void*>;
  std::vector<Released> released_;
};

}  // namespace mdsm::model
