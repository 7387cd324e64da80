#include "model/value.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

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

std::string Value::to_text() const {
  switch (kind()) {
    case ValueKind::kNone: return "none";
    case ValueKind::kBool: return as_bool() ? "true" : "false";
    case ValueKind::kInt: return std::to_string(as_int());
    case ValueKind::kReal: {
      std::ostringstream out;
      // max_digits10 guarantees parse(to_text(v)) == v for doubles.
      out << std::setprecision(std::numeric_limits<double>::max_digits10)
          << as_real();
      std::string text = out.str();
      // Guarantee a real-number marker so the parser round-trips the kind.
      if (text.find('.') == std::string::npos &&
          text.find('e') == std::string::npos &&
          text.find("inf") == std::string::npos &&
          text.find("nan") == std::string::npos) {
        text += ".0";
      }
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
