// Textual concrete syntax for models — the substitute for the paper's
// EMF/Xtext editing environment. The UI layer of each domain platform
// parses user-authored model text into a Model and serializes runtime
// models back out (round-trip engineering).
//
// Grammar (line comments start with '#'):
//
//   model <name> conforms <metamodel-name>
//
//   object <Class> <id> {
//     <attribute> = <value>            # value: none|true|false|int|real|
//     <reference> -> <id>, <id>        #        "string"|bare-word|[v, ...]
//     child <containment> <Class> <id> { ... }
//   }
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "model/diff.hpp"
#include "model/model.hpp"

namespace mdsm::model {

/// Where one object sits in the text it was parsed from: the byte
/// offsets of its `object`/`child` keyword, its '{' and its '}'.
struct ObjectSpan {
  std::uint32_t header = 0;
  std::uint32_t open = 0;
  std::uint32_t close = 0;

  friend bool operator==(const ObjectSpan&, const ObjectSpan&) = default;
};

/// Parse model text. The metamodel named in the header must equal
/// `metamodel->name()`. Cross-references may point forward; they are
/// resolved after all objects are created. With `spans`, each object's
/// span is appended to it in creation order (none for a text of 4 GiB
/// or more).
Result<Model> parse_model(std::string_view text, MetamodelPtr metamodel,
                          std::vector<ObjectSpan>* spans = nullptr);

/// A model text and its objects' spans: the base an edit is read against.
struct ModelText {
  std::string text;
  std::vector<ObjectSpan> spans;
};

/// An edit read against its base: `model` equals parse_model(text),
/// `changes` equals diff(base, model), and `spans` are the edited text's.
struct Edit {
  Model model;
  ChangeList changes;
  std::vector<ObjectSpan> spans;
};

/// Read `text` as an edit of `source`, the text `base` was parsed from.
/// When the bytes that differ lie among one object's own slots (they
/// touch no model header, object header, brace or child), only that
/// object's slots are re-read, into a clone of `base`. Any other edit,
/// and any fault met on the way, gives nullopt: parse `text` in full,
/// which also reports the fault.
std::optional<Edit> read_edit(const Model& base, const ModelText& source,
                              std::string_view text);

/// Serialize deterministically (creation order for objects, sorted slot
/// names). parse_model(serialize_model(m)) reproduces m.
std::string serialize_model(const Model& model);

/// Parse a single standalone Value in the same concrete syntax the
/// model grammar uses for attribute values (string/number/bool/none/
/// nested lists). parse_value(v.to_text()) reproduces v — the codec the
/// session-checkpoint wire format and Platform::snapshot() ride on.
Result<Value> parse_value(std::string_view text);

}  // namespace mdsm::model
