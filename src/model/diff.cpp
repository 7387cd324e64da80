#include "model/diff.hpp"

#include <algorithm>

namespace mdsm::model {

std::string_view to_string(ChangeKind kind) noexcept {
  switch (kind) {
    case ChangeKind::kAddObject: return "add-object";
    case ChangeKind::kRemoveObject: return "remove-object";
    case ChangeKind::kSetAttribute: return "set-attribute";
    case ChangeKind::kAddReference: return "add-reference";
    case ChangeKind::kRemoveReference: return "remove-reference";
  }
  return "?";
}

std::string Change::to_text() const {
  std::string out{to_string(kind)};
  out += ' ';
  out += object_id;
  if (!feature.empty()) {
    out += '.';
    out += feature;
  }
  switch (kind) {
    case ChangeKind::kSetAttribute:
      out += ' ' + old_value.to_text() + " => " + new_value.to_text();
      break;
    case ChangeKind::kAddReference:
    case ChangeKind::kRemoveReference:
      out += " -> " + target_id;
      break;
    default:
      break;
  }
  return out;
}

namespace {

const Value kNone{};
const Targets kNoTargets{};

bool is_containment(const MetaClass& meta, std::string_view reference) {
  const MetaReference* ref = meta.find_reference(reference);
  return ref != nullptr && ref->containment;
}

/// A change on `object`, with its class and containment context filled.
Change object_change(ChangeKind kind, const ModelObject& object) {
  Change change;
  change.kind = kind;
  change.object_id = object.id();
  change.class_name = object.class_name();
  change.parent_id = object.parent_id();
  change.containment = object.containing_reference();
  return change;
}

void emit_attribute(const ModelObject& object, const std::string& name,
                    const Value& old_value, const Value& new_value,
                    ChangeList& out) {
  Change change = object_change(ChangeKind::kSetAttribute, object);
  change.feature = name;
  change.old_value = old_value;
  change.new_value = new_value;
  out.push_back(std::move(change));
}

/// One change of `kind` per target in `targets` that `other` lacks.
void emit_references(ChangeKind kind, const ModelObject& object,
                     const std::string& name, const Targets& targets,
                     const Targets& other, ChangeList& out) {
  for (const auto& target : targets) {
    if (std::find(other.begin(), other.end(), target) != other.end()) continue;
    Change change = object_change(kind, object);
    change.feature = name;
    change.target_id = target;
    out.push_back(std::move(change));
  }
}

/// Attribute/cross-reference state of one object as SetAttribute /
/// AddReference changes (used for freshly added objects), in name order.
void emit_object_state(const ModelObject& object, ChangeList& out) {
  const MetaClass& meta = object.meta();
  for (const auto& [name, value] : object.attributes()) {
    emit_attribute(object, name, kNone, value, out);
  }
  for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
    if (meta.references()[slot].containment) continue;
    emit_references(ChangeKind::kAddReference, object,
                    meta.references()[slot].name, object.targets_at(slot),
                    kNoTargets, out);
  }
}

/// Advance `it` to the first entry of a name-ordered slot view whose
/// name is not less than `name`; return that entry if its name equals
/// `name`.
template <typename Iterator>
Iterator seek(Iterator& it, Iterator end, const std::string& name) {
  while (it != end && it->first < name) ++it;
  return it != end && it->first == name ? it : end;
}

/// Attribute changes of a surviving object: the slots `before` has come
/// first, in name order, then the slots only `after` has, in name order.
/// Within one class that is two walks of the slot order. A class change
/// gives the two objects different slots, so their name-ordered views
/// are merge-joined by name instead.
void diff_attributes(const ModelObject& before, const ModelObject& after,
                     ChangeList& out) {
  const MetaClass& meta = after.meta();
  if (&before.meta() == &meta) {
    for (std::size_t slot = 0; slot < meta.attributes().size(); ++slot) {
      const Value& old_value = before.value_at(slot);
      if (!old_value.is_none() && old_value != after.value_at(slot)) {
        emit_attribute(after, meta.attributes()[slot].name, old_value,
                       after.value_at(slot), out);
      }
    }
    for (std::size_t slot = 0; slot < meta.attributes().size(); ++slot) {
      if (before.value_at(slot).is_none() && !after.value_at(slot).is_none()) {
        emit_attribute(after, meta.attributes()[slot].name, kNone,
                       after.value_at(slot), out);
      }
    }
    return;
  }
  const auto old_slots = before.attributes();
  const auto new_slots = after.attributes();
  auto cursor = new_slots.begin();
  for (const auto& [name, old_value] : old_slots) {
    auto match = seek(cursor, new_slots.end(), name);
    const Value& new_value =
        match == new_slots.end() ? kNone : match->second;
    if (old_value != new_value) {
      emit_attribute(after, name, old_value, new_value, out);
    }
  }
  auto old_cursor = old_slots.begin();
  for (const auto& [name, new_value] : new_slots) {
    if (seek(old_cursor, old_slots.end(), name) != old_slots.end()) continue;
    emit_attribute(after, name, kNone, new_value, out);
  }
}

/// Cross-reference changes of a surviving object, ordered the same way:
/// removals then additions per slot, `before`'s cross-reference slots
/// first, then those only `after` has as cross-references.
void diff_references(const ModelObject& before, const ModelObject& after,
                     ChangeList& out) {
  auto emit = [&](const std::string& name, const Targets& old_targets,
                  const Targets& new_targets) {
    emit_references(ChangeKind::kRemoveReference, after, name, old_targets,
                    new_targets, out);
    emit_references(ChangeKind::kAddReference, after, name, new_targets,
                    old_targets, out);
  };
  const MetaClass& meta = after.meta();
  if (&before.meta() == &meta) {
    for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
      const MetaReference& ref = meta.references()[slot];
      if (!ref.containment && !before.targets_at(slot).empty()) {
        emit(ref.name, before.targets_at(slot), after.targets_at(slot));
      }
    }
    for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
      const MetaReference& ref = meta.references()[slot];
      if (!ref.containment && before.targets_at(slot).empty()) {
        emit(ref.name, kNoTargets, after.targets_at(slot));
      }
    }
    return;
  }
  const auto old_slots = before.references();
  const auto new_slots = after.references();
  auto cursor = new_slots.begin();
  for (const auto& [name, old_targets] : old_slots) {
    if (is_containment(before.meta(), name)) continue;
    auto match = seek(cursor, new_slots.end(), name);
    emit(name, old_targets,
         match == new_slots.end() ? kNoTargets : match->second);
  }
  auto old_cursor = old_slots.begin();
  for (const auto& [name, new_targets] : new_slots) {
    if (is_containment(after.meta(), name)) continue;
    auto match = seek(old_cursor, old_slots.end(), name);
    if (match == old_slots.end()) {
      emit(name, kNoTargets, new_targets);
    } else if (is_containment(before.meta(), name)) {
      emit(name, match->second, new_targets);
    }
  }
}

}  // namespace

ChangeList diff(const Model& old_model, const Model& new_model) {
  ChangeList out;

  // Removals: objects present in old but not in new, children first
  // (reverse creation order puts contained objects after — so reverse).
  const auto& old_objects = old_model.objects();
  for (auto it = old_objects.rbegin(); it != old_objects.rend(); ++it) {
    if (!new_model.contains((*it)->id())) {
      out.push_back(object_change(ChangeKind::kRemoveObject, **it));
    }
  }

  // Additions: objects in new but not old, creation order (parents first,
  // guaranteed because create_child requires an existing parent). All
  // AddObject changes come before any added object's state so that
  // cross-references among the additions — including forward ones —
  // resolve when the change list is applied. `before[i]` is the old
  // version of new object i, or null for an addition.
  const auto& new_objects = new_model.objects();
  std::vector<const ModelObject*> before(new_objects.size());
  for (std::size_t i = 0; i < new_objects.size(); ++i) {
    before[i] = old_model.find(new_objects[i]->id());
    if (before[i] == nullptr) {
      out.push_back(object_change(ChangeKind::kAddObject, *new_objects[i]));
    }
  }
  for (std::size_t i = 0; i < new_objects.size(); ++i) {
    if (before[i] == nullptr) emit_object_state(*new_objects[i], out);
  }

  // Mutations on surviving objects, in new-model creation order.
  for (std::size_t i = 0; i < new_objects.size(); ++i) {
    if (before[i] == nullptr) continue;
    diff_attributes(*before[i], *new_objects[i], out);
    diff_references(*before[i], *new_objects[i], out);
  }
  return out;
}

Status apply(const ChangeList& changes, Model& target) {
  for (const Change& change : changes) {
    switch (change.kind) {
      case ChangeKind::kAddObject: {
        Result<ModelObject*> created =
            change.parent_id.empty()
                ? target.create(change.class_name, change.object_id)
                : target.create_child(change.parent_id, change.containment,
                                      change.class_name, change.object_id);
        if (!created.ok()) return created.status();
        break;
      }
      case ChangeKind::kRemoveObject:
        // Removing a parent may have already cascaded over this object.
        if (target.contains(change.object_id)) {
          MDSM_RETURN_IF_ERROR(target.remove(change.object_id));
        }
        break;
      case ChangeKind::kSetAttribute:
        if (change.new_value.is_none()) {
          MDSM_RETURN_IF_ERROR(
              target.unset_attribute(change.object_id, change.feature));
        } else {
          MDSM_RETURN_IF_ERROR(target.set_attribute(
              change.object_id, change.feature, change.new_value));
        }
        break;
      case ChangeKind::kAddReference:
        MDSM_RETURN_IF_ERROR(target.add_reference(
            change.object_id, change.feature, change.target_id));
        break;
      case ChangeKind::kRemoveReference: {
        // Removing the referenced object may have already cascaded this
        // reference away (Model::remove clears inbound references), and
        // the holder itself may have been removed. Both are satisfied
        // states, not errors.
        const ModelObject* holder = target.find(change.object_id);
        if (holder == nullptr) break;
        const auto& targets = holder->targets(change.feature);
        if (std::find(targets.begin(), targets.end(), change.target_id) ==
            targets.end()) {
          break;
        }
        MDSM_RETURN_IF_ERROR(target.remove_reference(
            change.object_id, change.feature, change.target_id));
        break;
      }
    }
  }
  return Status::Ok();
}

std::string summarize(const ChangeList& changes) {
  std::string out = std::to_string(changes.size()) + " change(s)";
  for (const Change& change : changes) {
    out += "\n  " + change.to_text();
  }
  return out;
}

namespace {

constexpr std::size_t kChangeSlots = 9;
constexpr std::int64_t kMaxChangeKind =
    static_cast<std::int64_t>(ChangeKind::kRemoveReference);

}  // namespace

Value encode_changes(const ChangeList& changes) {
  ValueList encoded;
  encoded.reserve(changes.size());
  for (const Change& change : changes) {
    ValueList slots;
    slots.reserve(kChangeSlots);
    slots.emplace_back(static_cast<std::int64_t>(change.kind));
    slots.emplace_back(change.object_id);
    slots.emplace_back(change.class_name);
    slots.emplace_back(change.feature);
    slots.push_back(change.old_value);
    slots.push_back(change.new_value);
    slots.emplace_back(change.target_id);
    slots.emplace_back(change.parent_id);
    slots.emplace_back(change.containment);
    encoded.emplace_back(std::move(slots));
  }
  return Value(std::move(encoded));
}

Result<ChangeList> decode_changes(const Value& payload) {
  if (!payload.is_list()) {
    return InvalidArgument("encoded change list is not a list");
  }
  ChangeList changes;
  changes.reserve(payload.as_list().size());
  for (const Value& entry : payload.as_list()) {
    if (!entry.is_list() || entry.as_list().size() != kChangeSlots) {
      return InvalidArgument("encoded change is not a " +
                             std::to_string(kChangeSlots) + "-slot list");
    }
    const ValueList& slots = entry.as_list();
    if (!slots[0].is_int() || slots[0].as_int() < 0 ||
        slots[0].as_int() > kMaxChangeKind) {
      return InvalidArgument("encoded change kind out of range");
    }
    for (std::size_t i : {1u, 2u, 3u, 6u, 7u, 8u}) {
      if (!slots[i].is_string()) {
        return InvalidArgument("encoded change slot " + std::to_string(i) +
                               " is not a string");
      }
    }
    Change change;
    change.kind = static_cast<ChangeKind>(slots[0].as_int());
    change.object_id = slots[1].as_string();
    change.class_name = slots[2].as_string();
    change.feature = slots[3].as_string();
    change.old_value = slots[4];
    change.new_value = slots[5];
    change.target_id = slots[6].as_string();
    change.parent_id = slots[7].as_string();
    change.containment = slots[8].as_string();
    changes.push_back(std::move(change));
  }
  return changes;
}

}  // namespace mdsm::model
