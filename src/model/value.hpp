// Attribute values for model objects.
//
// A Value is the dynamic-typed leaf of the modeling facility: every
// attribute slot of a ModelObject holds one. Values are pure data with
// value semantics (Core Guidelines C.10) so models can be cloned, diffed
// and serialized without aliasing concerns.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.hpp"

namespace mdsm::model {

class Value;
using ValueList = std::vector<Value>;

/// Discriminator for Value's alternatives.
enum class ValueKind { kNone, kBool, kInt, kReal, kString, kList };

std::string_view to_string(ValueKind kind) noexcept;

/// Dynamically typed attribute value: none | bool | int | real | string |
/// list-of-Value. Enum literals are represented as strings and checked
/// against the metamodel's literal set during conformance validation.
class Value {
 public:
  Value() noexcept = default;  ///< none
  Value(bool b) : rep_(b) {}                              // NOLINT(google-explicit-constructor)
  Value(std::int64_t i) : rep_(i) {}                      // NOLINT(google-explicit-constructor)
  Value(int i) : rep_(static_cast<std::int64_t>(i)) {}    // NOLINT(google-explicit-constructor)
  Value(double d) : rep_(d) {}                            // NOLINT(google-explicit-constructor)
  Value(std::string s) : rep_(std::move(s)) {}            // NOLINT(google-explicit-constructor)
  Value(const char* s) : rep_(std::string(s)) {}          // NOLINT(google-explicit-constructor)
  Value(ValueList items) : rep_(std::move(items)) {}      // NOLINT(google-explicit-constructor)

  [[nodiscard]] ValueKind kind() const noexcept {
    return static_cast<ValueKind>(rep_.index());
  }
  [[nodiscard]] bool is_none() const noexcept {
    return kind() == ValueKind::kNone;
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return kind() == ValueKind::kBool;
  }
  [[nodiscard]] bool is_int() const noexcept {
    return kind() == ValueKind::kInt;
  }
  [[nodiscard]] bool is_real() const noexcept {
    return kind() == ValueKind::kReal;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind() == ValueKind::kString;
  }
  [[nodiscard]] bool is_list() const noexcept {
    return kind() == ValueKind::kList;
  }
  /// Int or real.
  [[nodiscard]] bool is_number() const noexcept {
    return is_int() || is_real();
  }

  /// Checked accessors: throw std::bad_variant_access on kind mismatch
  /// (programming error; data errors are caught by validation).
  [[nodiscard]] bool as_bool() const { return std::get<bool>(rep_); }
  [[nodiscard]] std::int64_t as_int() const {
    return std::get<std::int64_t>(rep_);
  }
  [[nodiscard]] double as_real() const { return std::get<double>(rep_); }
  /// Numeric widening: int or real → double.
  [[nodiscard]] double as_number() const {
    return is_int() ? static_cast<double>(as_int()) : as_real();
  }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(rep_);
  }
  [[nodiscard]] const ValueList& as_list() const {
    return std::get<ValueList>(rep_);
  }
  [[nodiscard]] ValueList& as_list() { return std::get<ValueList>(rep_); }

  /// Canonical textual form, parseable back by the text format
  /// ("none", "true", "42", "3.5", "\"hi\"", "[1, 2]").
  [[nodiscard]] std::string to_text() const;
  /// Appends to_text() to `out`.
  void append_text(std::string& out) const;

  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) noexcept {
    return !(a == b);
  }

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               ValueList>
      rep_;
};

/// A `[key, value]` entry, the shape of every field in the wire
/// envelopes and session checkpoints.
Value make_entry(std::string key, Value value);

/// The value paired with `key` in a list of `[key, value]` entries;
/// nullptr when absent. Entries of any other shape are skipped.
const Value* find_entry(const ValueList& entries, std::string_view key);

}  // namespace mdsm::model
