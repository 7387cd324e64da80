#include "model/model.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/strings.hpp"

namespace mdsm::model {

namespace {
const Value kNoneValue{};
const Targets kNoTargets{};
const std::string kNoName{};

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

// An object record is the ModelObject followed by its attribute slots and
// then its reference slots; every part is 8-byte aligned.
static_assert(sizeof(ModelObject) % alignof(Value) == 0);
static_assert(sizeof(Value) % alignof(Targets) == 0);

std::size_t record_bytes(const MetaClass& meta) {
  return sizeof(ModelObject) + meta.attributes().size() * sizeof(Value) +
         meta.references().size() * sizeof(Targets);
}

/// The id-table entry holding `id`, or the empty entry where it belongs.
template <typename Table>
auto probe(Table& table, std::string_view id) {
  const std::size_t mask = table.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(id) & mask;;
       i = (i + 1) & mask) {
    if (table[i] == nullptr || table[i]->id() == id) return &table[i];
  }
}
}  // namespace

const std::string& ModelObject::parent_id() const noexcept {
  return parent_ == nullptr ? kNoName : parent_->id_;
}

const std::string& ModelObject::containing_reference() const noexcept {
  return parent_ == nullptr
             ? kNoName
             : parent_->meta_->references()[containment_slot_].name;
}

const Value& ModelObject::get(std::string_view attribute) const noexcept {
  const int slot = meta_->attribute_slot(attribute);
  return slot < 0 ? kNoneValue : values_[slot];
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

const Targets& ModelObject::targets(
    std::string_view reference) const noexcept {
  const int slot = meta_->reference_slot(reference);
  return slot < 0 ? kNoTargets : targets_[slot];
}

Model::Model(std::string name, MetamodelPtr metamodel)
    : name_(std::move(name)), metamodel_(std::move(metamodel)) {}

Model::~Model() { destroy(order_); }

Model& Model::operator=(Model&& other) noexcept {
  // Drop this model's objects, then take over the other's storage whole.
  if (this != &other) {
    this->~Model();
    std::construct_at(this, std::move(other));
  }
  return *this;
}

void Model::reserve(std::size_t objects) {
  if (objects == 0) return;
  order_.reserve(order_.size() + objects);
  expected_ = objects;
  const std::size_t slots = std::bit_ceil(2 * (order_.size() + objects));
  if (slots > index_.size()) rehash(slots);
}

void* Model::allocate(std::size_t bytes) {
  auto reuse = std::ranges::find(released_, bytes, &Released::first);
  if (reuse != released_.end()) {
    void* record = reuse->second;
    released_.erase(reuse);
    return record;
  }
  if (chunks_.empty() || chunk_used_ + bytes > chunk_size_) {
    chunk_size_ = std::max(bytes * (expected_ > 0 ? expected_ : 4),
                           2 * chunk_size_);
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(chunk_size_));
    chunk_used_ = 0;
  }
  if (expected_ > 0) --expected_;
  chunk_used_ += bytes;
  return chunks_.back().get() + chunk_used_ - bytes;
}

void Model::destroy(const std::vector<const ModelObject*>& objects) noexcept {
  for (const ModelObject* object : objects) {
    std::destroy_n(object->values_, object->meta().attributes().size());
    std::destroy_n(object->targets_, object->meta().references().size());
    object->~ModelObject();
  }
}

void Model::rehash(std::size_t slots) {
  index_.assign(slots, nullptr);
  for (const ModelObject* object : order_) {
    *probe(index_, object->id()) = const_cast<ModelObject*>(object);
  }
}

Result<ModelObject*> Model::create(std::string_view class_name,
                                   std::string_view id) {
  const MetaClass* meta = metamodel_->find_class(class_name);
  if (meta == nullptr) {
    return NotFound("class '" + std::string(class_name) +
                    "' not in metamodel '" + metamodel_->name() + "'");
  }
  return add_object(*meta, id);
}

Result<ModelObject*> Model::add_object(const MetaClass& meta,
                                       std::string_view id) {
  if (meta.is_abstract()) {
    return InvalidArgument("class '" + meta.name() + "' is abstract");
  }
  if (!is_identifier(id)) {
    return InvalidArgument("'" + std::string(id) +
                           "' is not a valid object id");
  }
  if (2 * (order_.size() + 1) > index_.size()) {
    rehash(std::bit_ceil(2 * (order_.size() + 1)));
  }
  ModelObject*& entry = *probe(index_, id);
  if (entry != nullptr) {
    return AlreadyExists("object '" + std::string(id) + "' already in model");
  }
  // Unset slots, then the attribute defaults declared in the metamodel.
  entry = append_record(meta, id, nullptr);
  clear_slots(*entry);
  return entry;
}

ModelObject* Model::append_record(const MetaClass& meta, std::string_view id,
                                  const ModelObject* source) {
  const std::size_t attributes = meta.attributes().size();
  const std::size_t references = meta.references().size();
  auto* record = static_cast<std::byte*>(allocate(record_bytes(meta)));
  auto* values = reinterpret_cast<Value*>(record + sizeof(ModelObject));
  auto* targets = reinterpret_cast<Targets*>(values + attributes);
  if (source == nullptr) {
    std::uninitialized_value_construct_n(values, attributes);
    std::uninitialized_value_construct_n(targets, references);
  } else {
    std::uninitialized_copy_n(source->values_, attributes, values);
    std::uninitialized_copy_n(source->targets_, references, targets);
  }
  auto* object = ::new (record) ModelObject(id, meta, values, targets);
  object->position_ = static_cast<std::uint32_t>(order_.size());
  order_.push_back(object);
  return object;
}

void Model::clear_slots(ModelObject& object) {
  const MetaClass& meta = object.meta();
  for (std::size_t slot = 0; slot < meta.attributes().size(); ++slot) {
    object.values_[slot] = meta.attributes()[slot].default_value;
  }
  for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
    if (!meta.references()[slot].containment) object.targets_[slot].clear();
  }
}

Result<ModelObject*> Model::create_child(const std::string& parent_id,
                                         const std::string& reference,
                                         const std::string& class_name,
                                         const std::string& id) {
  ModelObject* parent = find(parent_id);
  if (parent == nullptr) {
    return NotFound("parent '" + parent_id + "' not in model");
  }
  return create_child(*parent, reference, class_name, id);
}

Result<ModelObject*> Model::create_child(ModelObject& parent,
                                         std::string_view reference,
                                         std::string_view class_name,
                                         std::string_view id) {
  const int slot = parent.meta().reference_slot(reference);
  if (slot < 0) {
    return NotFound("class '" + parent.class_name() + "' has no reference '" +
                    std::string(reference) + "'");
  }
  const MetaReference& ref = parent.meta().references()[slot];
  if (!ref.containment) {
    return InvalidArgument("reference '" + ref.name +
                           "' is not a containment reference");
  }
  const MetaClass* meta = metamodel_->find_class(class_name);
  if (meta == nullptr || !meta->is_kind_of(*ref.target)) {
    return InvalidArgument("class '" + std::string(class_name) +
                           "' is not a kind of '" + ref.target_class + "'");
  }
  Targets& siblings = parent.targets_[slot];
  if (!ref.many && !siblings.empty()) {
    return FailedPrecondition("single-valued containment '" + ref.name +
                              "' of '" + parent.id() + "' already filled");
  }
  Result<ModelObject*> created = add_object(*meta, id);
  if (!created.ok()) return created.status();
  ModelObject* child = created.value();
  child->parent_ = &parent;
  child->containment_slot_ = static_cast<std::uint32_t>(slot);
  siblings.emplace_back(id);
  return child;
}

Status Model::set_attribute(const std::string& id,
                            const std::string& attribute, Value value) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  return set_attribute(*object, attribute, std::move(value));
}

Status Model::set_attribute(ModelObject& object, std::string_view attribute,
                            Value value) {
  const int slot = object.meta().attribute_slot(attribute);
  if (slot < 0) {
    return NotFound("class '" + object.class_name() + "' has no attribute '" +
                    std::string(attribute) + "'");
  }
  const MetaAttribute& attr = object.meta().attributes()[slot];
  auto check_item = [&](const Value& item) -> Status {
    if (!type_matches(attr, item)) {
      return InvalidArgument("attribute '" + object.class_name() + "." +
                             attr.name + "' expects " +
                             std::string(to_string(attr.type)) + ", got " +
                             std::string(to_string(item.kind())));
    }
    return Status::Ok();
  };
  if (attr.many) {
    if (!value.is_list()) {
      return InvalidArgument("attribute '" + attr.name +
                             "' is many-valued; expected a list");
    }
    for (const Value& item : value.as_list()) {
      MDSM_RETURN_IF_ERROR(check_item(item));
    }
  } else {
    MDSM_RETURN_IF_ERROR(check_item(value));
  }
  // Coerce int literals into real-typed single slots for convenience.
  if (!attr.many && attr.type == AttrType::kReal && value.is_int()) {
    value = Value(static_cast<double>(value.as_int()));
  }
  object.values_[slot] = std::move(value);
  return Status::Ok();
}

Status Model::unset_attribute(const std::string& id,
                              const std::string& attribute) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  if (const int slot = object->meta().attribute_slot(attribute); slot >= 0) {
    object->values_[slot] = Value();
  }
  return Status::Ok();
}

Status Model::add_reference(const std::string& id, const std::string& reference,
                            const std::string& target_id) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  return add_reference(*object, reference, target_id);
}

Status Model::add_reference(ModelObject& object, std::string_view reference,
                            std::string_view target_id) {
  const int slot = object.meta().reference_slot(reference);
  if (slot < 0) {
    return NotFound("class '" + object.class_name() + "' has no reference '" +
                    std::string(reference) + "'");
  }
  const MetaReference& ref = object.meta().references()[slot];
  if (ref.containment) {
    return InvalidArgument("containment reference '" + ref.name +
                           "' is populated via create_child");
  }
  const ModelObject* target = find(target_id);
  if (target == nullptr) {
    return NotFound("reference target '" + std::string(target_id) +
                    "' not in model");
  }
  if (!target->meta().is_kind_of(*ref.target)) {
    return InvalidArgument("target '" + std::string(target_id) + "' of '" +
                           object.class_name() + "." + ref.name +
                           "' is not a kind of '" + ref.target_class + "'");
  }
  Targets& targets = object.targets_[slot];
  if (std::find(targets.begin(), targets.end(), target_id) != targets.end()) {
    return AlreadyExists("'" + std::string(target_id) +
                         "' already referenced by '" + object.id() + "." +
                         ref.name + "'");
  }
  if (!ref.many) targets.clear();  // single-valued: replace
  targets.emplace_back(target_id);
  return Status::Ok();
}

Status Model::remove_reference(const std::string& id,
                               const std::string& reference,
                               const std::string& target_id) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  const int slot = object->meta().reference_slot(reference);
  if (slot < 0 || object->targets_[slot].empty()) {
    return NotFound("reference '" + reference + "' unset on '" + id + "'");
  }
  Targets& targets = object->targets_[slot];
  auto pos = std::find(targets.begin(), targets.end(), target_id);
  if (pos == targets.end()) {
    return NotFound("'" + target_id + "' not referenced by '" + id + "." +
                    reference + "'");
  }
  targets.erase(pos);
  return Status::Ok();
}

Status Model::remove(const std::string& id) {
  ModelObject* object = find(id);
  if (object == nullptr) return NotFound("object '" + id + "' not in model");
  // The containment subtree, each object before the ones it contains.
  std::vector<const ModelObject*> doomed{object};
  for (std::size_t i = 0; i < doomed.size(); ++i) {
    const MetaClass& meta = doomed[i]->meta();
    for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
      if (!meta.references()[slot].containment) continue;
      for (const std::string& child : doomed[i]->targets_at(slot)) {
        doomed.push_back(find(child));
      }
    }
  }
  auto is_doomed = [&](std::string_view target) {
    return std::any_of(doomed.begin(), doomed.end(),
                       [&](const ModelObject* gone) {
                         return gone->id() == target;
                       });
  };
  std::erase_if(order_, [&](const ModelObject* candidate) {
    return std::find(doomed.begin(), doomed.end(), candidate) != doomed.end();
  });
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const_cast<ModelObject*>(order_[i])->position_ =
        static_cast<std::uint32_t>(i);
  }
  // Scrub references into the subtree, the parent's containment slot
  // among them, then drop the subtree.
  for (const ModelObject* survivor : order_) {
    Targets* targets = survivor->targets_;
    for (std::size_t slot = 0; slot < survivor->meta().references().size();
         ++slot) {
      std::erase_if(targets[slot], is_doomed);
    }
  }
  for (const ModelObject* gone : doomed) {
    released_.emplace_back(record_bytes(gone->meta()),
                           const_cast<ModelObject*>(gone));
  }
  destroy(doomed);
  rehash(index_.size());
  return Status::Ok();
}

const ModelObject* Model::find(std::string_view id) const noexcept {
  return index_.empty() ? nullptr : *probe(index_, id);
}

ModelObject* Model::find(std::string_view id) noexcept {
  return index_.empty() ? nullptr : *probe(index_, id);
}

std::vector<const ModelObject*> Model::objects_of(
    std::string_view class_name) const {
  std::vector<const ModelObject*> out;
  const MetaClass* cls = metamodel_->find_class(class_name);
  if (cls == nullptr) return out;
  for (const ModelObject* object : order_) {
    if (object->meta().is_kind_of(*cls)) out.push_back(object);
  }
  return out;
}

std::vector<const ModelObject*> Model::roots() const {
  std::vector<const ModelObject*> out;
  for (const ModelObject* object : order_) {
    if (object->parent_ == nullptr) out.push_back(object);
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
    for (std::size_t slot = 0; slot < meta.attributes().size(); ++slot) {
      const MetaAttribute& attr = meta.attributes()[slot];
      const Value& value = object->value_at(slot);
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
    for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
      const MetaReference& ref = meta.references()[slot];
      const Targets& targets = object->targets_at(slot);
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
        if (!target->meta().is_kind_of(*ref.target)) {
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
  copy.order_.reserve(order_.size());
  for (const ModelObject* object : order_) {
    copy.chunk_size_ += record_bytes(object->meta());
  }
  copy.chunks_.push_back(
      std::make_unique_for_overwrite<std::byte[]>(copy.chunk_size_));
  // Creation order puts each parent before its children, so a parent's
  // copy is found by its creation index.
  for (const ModelObject* object : order_) {
    ModelObject* duplicate =
        copy.append_record(object->meta(), object->id(), object);
    duplicate->containment_slot_ = object->containment_slot_;
    if (object->parent_ != nullptr) {
      duplicate->parent_ = copy.order_[object->parent_->position_];
    }
  }
  // The same ids in a table of the same size take the same entries.
  copy.index_.resize(index_.size());
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (index_[i] != nullptr) {
      copy.index_[i] =
          const_cast<ModelObject*>(copy.order_[index_[i]->position_]);
    }
  }
  return copy;
}

}  // namespace mdsm::model
