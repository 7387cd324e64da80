// Model comparison — the Synthesis layer's "model comparator".
//
// diff(old, new) yields the ChangeList the change interpreter walks to
// produce control scripts: which objects appeared/disappeared, which
// attribute slots changed, which cross-references were added/removed.
#pragma once

#include <string>
#include <vector>

#include "model/model.hpp"

namespace mdsm::model {

enum class ChangeKind {
  kAddObject,
  kRemoveObject,
  kSetAttribute,
  kAddReference,
  kRemoveReference,
};

std::string_view to_string(ChangeKind kind) noexcept;

/// One atomic difference between two models.
struct Change {
  ChangeKind kind{};
  std::string object_id;
  std::string class_name;      ///< metaclass of object_id
  std::string feature;         ///< attribute/reference name (when relevant)
  Value old_value;             ///< kSetAttribute: previous value (none if unset)
  Value new_value;             ///< kSetAttribute: new value (none if unset)
  std::string target_id;       ///< kAdd/RemoveReference: the target
  std::string parent_id;       ///< kAddObject: containment parent ("" = root)
  std::string containment;     ///< kAddObject: containment reference name

  [[nodiscard]] std::string to_text() const;

  friend bool operator==(const Change& a, const Change& b) = default;
};

using ChangeList = std::vector<Change>;

/// Compute the ordered change list turning `old_model` into `new_model`.
/// Both must conform to the same metamodel. Ordering is deterministic:
/// removals first (children before parents), then additions (parents
/// before children) with the added objects' attribute/reference state,
/// then attribute and reference changes on surviving objects.
ChangeList diff(const Model& old_model, const Model& new_model);

/// The attribute and cross-reference changes turning `before` into
/// `after`, two versions of one object (same id), appended to `out` in
/// diff()'s order. diff() runs it on every object both models hold.
void diff_object(const ModelObject& before, const ModelObject& after,
                 ChangeList& out);

/// "3 changes: +obj a, -obj b, ~attr c.x" — for logs and tests.
std::string summarize(const ChangeList& changes);

/// Apply a change list to `target` in order. With `changes =
/// diff(a, b)` and `target` a clone of a, the result is
/// change-equivalent to b (diff(target, b) is empty) — the inverse
/// operation the synthesis layer relies on conceptually, and the basis
/// for replicating models across nodes by shipping deltas.
Status apply(const ChangeList& changes, Model& target);

/// Wire form of a ChangeList (PR 8): each Change becomes a fixed
/// 9-slot positional value list
///   [kind, object_id, class_name, feature, old_value, new_value,
///    target_id, parent_id, containment]
/// and the ChangeList a list of those — the payload the cluster ships
/// to replicate the authoritative runtime model to shards by delta
/// instead of re-sending full model text. decode_changes(encode_changes
/// (c)) == c for every well-formed list.
[[nodiscard]] Value encode_changes(const ChangeList& changes);
[[nodiscard]] Result<ChangeList> decode_changes(const Value& payload);

}  // namespace mdsm::model
