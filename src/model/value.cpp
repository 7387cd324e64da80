#include "model/value.hpp"

#include <array>
#include <charconv>

namespace mdsm::model {

std::string_view to_string(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::kNone: return "none";
    case ValueKind::kBool: return "bool";
    case ValueKind::kInt: return "int";
    case ValueKind::kReal: return "real";
    case ValueKind::kString: return "string";
    case ValueKind::kList: return "list";
  }
  return "?";
}

namespace {

/// Quote + escape a string for the textual model format.
void append_quoted(std::string& out, std::string_view raw) {
  out += '"';
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string Value::to_text() const {
  std::string out;
  append_text(out);
  return out;
}

void Value::append_text(std::string& out) const {
  switch (kind()) {
    case ValueKind::kNone: out += "none"; return;
    case ValueKind::kBool: out += as_bool() ? "true" : "false"; return;
    case ValueKind::kInt: out += std::to_string(as_int()); return;
    case ValueKind::kReal: {
      std::array<char, 32> buffer;
      // max_digits10 (17) significant digits guarantee parse(to_text(v))
      // == v for doubles; "%.17g" form, as std::ostream prints it.
      const std::string_view text(
          buffer.begin(), std::to_chars(buffer.begin(), buffer.end(),
                                        as_real(), std::chars_format::general,
                                        17)
                              .ptr);
      out += text;
      // Guarantee a real-number marker so the parser round-trips the kind:
      // a '.', an exponent's 'e', or the 'n' of inf and nan.
      if (text.find_first_of(".en") == std::string_view::npos) out += ".0";
      return;
    }
    case ValueKind::kString: append_quoted(out, as_string()); return;
    case ValueKind::kList: {
      out += '[';
      const auto& items = as_list();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        items[i].append_text(out);
      }
      out += ']';
      return;
    }
  }
  out += "none";
}

Value make_entry(std::string key, Value value) {
  return Value(ValueList{Value(std::move(key)), std::move(value)});
}

const Value* find_entry(const ValueList& entries, std::string_view key) {
  for (const Value& entry : entries) {
    if (!entry.is_list()) continue;
    const ValueList& pair = entry.as_list();
    if (pair.size() != 2 || !pair[0].is_string()) continue;
    if (pair[0].as_string() == key) return &pair[1];
  }
  return nullptr;
}

}  // namespace mdsm::model
