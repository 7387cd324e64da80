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
std::string quote(std::string_view raw) {
  std::string out = "\"";
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
  return out;
}

}  // namespace

std::string Value::to_text() const {
  switch (kind()) {
    case ValueKind::kNone: return "none";
    case ValueKind::kBool: return as_bool() ? "true" : "false";
    case ValueKind::kInt: return std::to_string(as_int());
    case ValueKind::kReal: {
      // max_digits10 (17) significant digits guarantee parse(to_text(v))
      // == v for doubles; "%.17g" form, as std::ostream prints it.
      std::array<char, 32> buffer;
      char* end = std::to_chars(buffer.begin(), buffer.end(), as_real(),
                                std::chars_format::general, 17)
                      .ptr;
      std::string text(buffer.begin(), end);
      // Guarantee a real-number marker so the parser round-trips the kind:
      // a '.', an exponent's 'e', or the 'n' of inf and nan.
      if (text.find_first_of(".en") == std::string::npos) text += ".0";
      return text;
    }
    case ValueKind::kString: return quote(as_string());
    case ValueKind::kList: {
      std::string out = "[";
      const auto& items = as_list();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        out += items[i].to_text();
      }
      out += ']';
      return out;
    }
  }
  return "none";
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
