#include "model/text_format.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <vector>

namespace mdsm::model {

namespace {

// Character classes of the grammar: ASCII only, whatever the locale.
enum CharClass : unsigned char {
  kSpace = 1,
  kDigit = 2,
  kAlpha = 4,
  kWordMark = 8,  // '_', '.' and '-', which may continue a word
};

constexpr std::array<unsigned char, 256> kCharClasses = [] {
  std::array<unsigned char, 256> table{};
  for (unsigned char c : std::string_view(" \t\n\v\f\r")) table[c] = kSpace;
  for (unsigned char c = '0'; c <= '9'; ++c) table[c] = kDigit;
  for (unsigned char c = 'a'; c <= 'z'; ++c) table[c] = kAlpha;
  for (unsigned char c = 'A'; c <= 'Z'; ++c) table[c] = kAlpha;
  for (unsigned char c : std::string_view("_.-")) table[c] = kWordMark;
  return table;
}();

bool has_class(char c, unsigned char classes) {
  return (kCharClasses[static_cast<unsigned char>(c)] & classes) != 0;
}
bool is_digit(char c) { return has_class(c, kDigit); }

enum class TokenKind {
  kWord,    // identifier or bare literal
  kString,  // quoted; the text is the raw content between the quotes
  kNumber,  // raw text of an int/real literal
  kPunct,   // one of { } = , [ ] or the two-char ->
  kEnd,
  kError,   // lexical error, described by Parser::lex_error_
};

/// A token is a view into the source text, valid for the whole parse.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int line = 1;
  bool escaped = false;  ///< kString: the text holds backslash escapes
};

std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (c == '\\' && i + 1 < raw.size()) {
      switch (char esc = raw[++i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        default: out += esc;
      }
    } else {
      out += c;
    }
  }
  return out;
}

struct PendingReference {
  ModelObject* holder;
  std::string_view reference;
  std::string_view target_id;
  int line;
};

// Bind the next identifier to `var`, or return the parse error. Works in
// functions returning Status or Result<T> (both accept a Status).
#define MDSM_TAKE_WORD(var)                                         \
  std::string_view var;                                             \
  if (tok_.kind != TokenKind::kWord) return expected("identifier"); \
  var = tok_.text;                                                  \
  advance()

/// Recursive-descent parser straight over the source text, with one
/// token of lookahead (`tok_`) and no token buffer. It builds the model
/// through the Model API as it reads. A lexical error becomes an error
/// token, so the parse stops at the first fault in reading order.
class Parser {
 public:
  Parser(std::string_view text, MetamodelPtr metamodel)
      : text_(text), metamodel_(std::move(metamodel)) {
    advance();
  }

  Result<Model> run() {
    // Header: model <name> conforms <metamodel>
    MDSM_TAKE_WORD(keyword);
    if (keyword != "model") return error("expected 'model'");
    MDSM_TAKE_WORD(name);
    MDSM_TAKE_WORD(conforms);
    if (conforms != "conforms") return error("expected 'conforms'");
    MDSM_TAKE_WORD(metamodel_name);
    if (metamodel_name != metamodel_->name()) {
      return error("model conforms to '" + std::string(metamodel_name) +
                   "' but metamodel is '" + metamodel_->name() + "'");
    }
    Model model(std::string(name), metamodel_);
    // Every object opens one brace, so this bounds the object count.
    model.reserve(static_cast<std::size_t>(
        std::count(text_.begin() + pos_, text_.end(), '{')));
    while (tok_.kind != TokenKind::kEnd) {
      MDSM_TAKE_WORD(word);
      if (word != "object") return error("expected 'object'");
      MDSM_RETURN_IF_ERROR(parse_object(model, /*parent=*/nullptr,
                                        /*containment=*/""));
    }
    for (const PendingReference& pending : pending_refs_) {
      Status status = model.add_reference(*pending.holder, pending.reference,
                                          pending.target_id);
      if (!status.ok()) return at_line(pending.line, status.message());
    }
    return model;
  }

  /// Parse exactly one standalone value (no model header, no metamodel
  /// involvement) and require the input to end there.
  Result<Value> run_value() {
    Result<Value> value = parse_value();
    if (!value.ok()) return value.status();
    if (tok_.kind != TokenKind::kEnd) {
      return unexpected("trailing input after value");
    }
    return value;
  }

 private:
  // ---- Lexer: fills tok_ with the next token. An error token stays. ----
  void advance() {
    if (tok_.kind == TokenKind::kError) return;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (has_class(c, kSpace)) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
    tok_ = Token{TokenKind::kEnd, {}, line_};
    if (pos_ >= text_.size()) return;
    char c = text_[pos_];
    bool signed_digit = (c == '-' || c == '+') && pos_ + 1 < text_.size() &&
                        is_digit(text_[pos_ + 1]);
    if (c == '"') {
      lex_string();
    } else if (is_digit(c) || signed_digit) {
      lex_number();
    } else if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
      take(TokenKind::kPunct, 2);
    } else if (c == '{' || c == '}' || c == '=' || c == ',' || c == '[' ||
               c == ']') {
      take(TokenKind::kPunct, 1);
    } else if (c == '_' || has_class(c, kAlpha)) {
      std::size_t end = pos_ + 1;
      while (end < text_.size() &&
             has_class(text_[end], kAlpha | kDigit | kWordMark)) {
        ++end;
      }
      take(TokenKind::kWord, end - pos_);
    } else {
      lex_fail("unexpected character '" + std::string(1, c) + "'");
    }
  }

  void take(TokenKind kind, std::size_t length) {
    tok_.kind = kind;
    tok_.text = text_.substr(pos_, length);
    pos_ += length;
  }

  void lex_string() {
    std::size_t end = pos_ + 1;  // past the opening quote
    bool escaped = false;
    while (end < text_.size() && text_[end] != '"') {
      if (text_[end] == '\\' && end + 1 < text_.size()) {
        escaped = true;
        end += 2;
      } else if (text_[end] == '\n') {
        return lex_fail("unterminated string");
      } else {
        ++end;
      }
    }
    if (end >= text_.size()) return lex_fail("unterminated string");
    tok_.kind = TokenKind::kString;
    tok_.text = text_.substr(pos_ + 1, end - pos_ - 1);
    tok_.escaped = escaped;
    pos_ = end + 1;  // past the closing quote
  }

  void lex_number() {
    std::size_t end = pos_ + 1;  // the first char is a digit or a sign
    while (end < text_.size()) {
      char c = text_[end];
      bool exponent_sign = (c == '-' || c == '+') &&
                           (text_[end - 1] == 'e' || text_[end - 1] == 'E');
      if (!is_digit(c) && c != '.' && c != 'e' && c != 'E' && !exponent_sign) {
        break;
      }
      ++end;
    }
    take(TokenKind::kNumber, end - pos_);
  }

  void lex_fail(std::string message) {
    tok_ = Token{TokenKind::kError, {}, line_};
    lex_error_ = std::move(message);
    pos_ = text_.size();
  }

  // ---- Errors. A lexical error in the lookahead outranks the parse
  // error that noticed it. ----
  Status at_line(int line, const std::string& message) const {
    if (tok_.kind == TokenKind::kError) {
      return ParseError("line " + std::to_string(tok_.line) + ": " +
                        lex_error_);
    }
    return ParseError("line " + std::to_string(line) + ": " + message);
  }
  Status error(const std::string& message) const {
    return at_line(tok_.line, message);
  }
  /// "expected <what>, got '<lookahead>'".
  Status expected(std::string_view what) const {
    return unexpected("expected " + std::string(what));
  }
  /// "<message>, got '<lookahead>'".
  Status unexpected(std::string message) const {
    message += ", got '";
    message += tok_.kind == TokenKind::kString && tok_.escaped
                   ? unescape(tok_.text)
                   : std::string(tok_.text);
    message += '\'';
    return error(message);
  }

  bool at_punct(std::string_view punct) const {
    return tok_.kind == TokenKind::kPunct && tok_.text == punct;
  }
  /// Consume `punct` if it is the lookahead.
  bool take_punct(std::string_view punct) {
    if (!at_punct(punct)) return false;
    advance();
    return true;
  }
  Status expect_punct(std::string_view punct) {
    if (take_punct(punct)) return Status::Ok();
    std::string what = "'";
    what += punct;
    what += '\'';
    return expected(what);
  }

  // ---- Grammar. ----
  Status parse_object(Model& model, ModelObject* parent,
                      std::string_view containment) {
    MDSM_TAKE_WORD(class_name);
    MDSM_TAKE_WORD(id);
    Result<ModelObject*> created =
        parent == nullptr
            ? model.create(class_name, id)
            : model.create_child(*parent, containment, class_name, id);
    if (!created.ok()) return error(created.status().message());
    ModelObject& object = *created.value();
    MDSM_RETURN_IF_ERROR(expect_punct("{"));
    while (!take_punct("}")) {
      if (tok_.kind == TokenKind::kEnd) return error("unexpected EOF");
      MDSM_TAKE_WORD(slot);
      if (slot == "child") {
        MDSM_TAKE_WORD(reference);
        MDSM_RETURN_IF_ERROR(parse_object(model, &object, reference));
      } else if (take_punct("=")) {
        Result<Value> value = parse_value();
        if (!value.ok()) return value.status();
        Status status = model.set_attribute(object, slot, std::move(*value));
        if (!status.ok()) return error(status.message());
      } else if (take_punct("->")) {
        do {
          MDSM_TAKE_WORD(target);
          pending_refs_.push_back({&object, slot, target, tok_.line});
        } while (take_punct(","));
      } else {
        return error("expected '=' or '->' after '" + std::string(slot) +
                     "'");
      }
    }
    return Status::Ok();
  }

  Result<Value> parse_value() {
    const Token tok = tok_;
    switch (tok.kind) {
      case TokenKind::kString:
        advance();
        return Value(tok.escaped ? unescape(tok.text) : std::string(tok.text));
      case TokenKind::kNumber: {
        advance();
        if (Result<Value> number = parse_number(tok.text); number.ok()) {
          return number;
        }
        return at_line(tok.line, "bad number '" + std::string(tok.text) + "'");
      }
      case TokenKind::kWord:
        advance();
        if (tok.text == "true") return Value(true);
        if (tok.text == "false") return Value(false);
        if (tok.text == "none") return Value();
        return Value(std::string(tok.text));  // enum literal / short string
      case TokenKind::kPunct:
        if (tok.text == "[") {
          advance();
          ValueList items;
          if (take_punct("]")) return Value(std::move(items));
          do {
            Result<Value> item = parse_value();
            if (!item.ok()) return item.status();
            items.push_back(std::move(*item));
          } while (take_punct(","));
          MDSM_RETURN_IF_ERROR(expect_punct("]"));
          return Value(std::move(items));
        }
        [[fallthrough]];
      default:
        return expected("value");
    }
  }

  /// An int literal must be all digits (with an optional '-'); a real
  /// literal (one with '.', 'e' or 'E') is read as far as it parses.
  static Result<Value> parse_number(std::string_view text) {
    const char* first = text.data();
    const char* last = text.data() + text.size();
    if (text.find_first_of(".eE") != std::string_view::npos) {
      if (*first == '+') ++first;
      double d = 0;
      if (std::from_chars(first, last, d).ec != std::errc{}) {
        return ParseError("bad number");
      }
      return Value(d);
    }
    std::int64_t i = 0;
    auto [ptr, ec] = std::from_chars(first, last, i);
    if (ec != std::errc{} || ptr != last) return ParseError("bad number");
    return Value(i);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token tok_;
  std::string lex_error_;
  MetamodelPtr metamodel_;
  std::vector<PendingReference> pending_refs_;
};

#undef MDSM_TAKE_WORD

/// Append every piece to `out`.
template <typename... Pieces>
void append(std::string& out, const Pieces&... pieces) {
  (out += ... += pieces);
}

void serialize_object(const Model& model, const ModelObject& object,
                      std::size_t indent, std::string& out) {
  const MetaClass& meta = object.meta();
  out.append(2 * indent, ' ');
  if (object.parent_id().empty()) {
    out += "object ";
  } else {
    append(out, "child ", object.containing_reference(), " ");
  }
  append(out, object.class_name(), " ", object.id(), " {\n");
  for (const auto& [name, value] : object.attributes()) {
    out.append(2 * indent + 2, ' ');
    append(out, name, " = ", value.to_text(), "\n");
  }
  for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
    const Targets& targets = object.targets_at(slot);
    if (meta.references()[slot].containment || targets.empty()) continue;
    out.append(2 * indent + 2, ' ');
    append(out, meta.references()[slot].name, " ->");
    for (std::size_t i = 0; i < targets.size(); ++i) {
      append(out, i == 0 ? " " : ", ", targets[i]);
    }
    out += '\n';
  }
  for (std::size_t slot = 0; slot < meta.references().size(); ++slot) {
    if (!meta.references()[slot].containment) continue;
    for (const auto& child_id : object.targets_at(slot)) {
      if (const ModelObject* child = model.find(child_id)) {
        serialize_object(model, *child, indent + 1, out);
      }
    }
  }
  out.append(2 * indent, ' ');
  out += "}\n";
}

}  // namespace

Result<Model> parse_model(std::string_view text, MetamodelPtr metamodel) {
  if (metamodel == nullptr || !metamodel->finalized()) {
    return InvalidArgument("parse_model requires a finalized metamodel");
  }
  return Parser(text, std::move(metamodel)).run();
}

Result<Value> parse_value(std::string_view text) {
  return Parser(text, /*metamodel=*/nullptr).run_value();
}

std::string serialize_model(const Model& model) {
  std::string out;
  out.reserve(64 + 64 * model.size());
  append(out, "model ", model.name(), " conforms ", model.metamodel().name(),
         "\n\n");
  for (const ModelObject* root : model.objects()) {
    if (root->parent_id().empty()) serialize_object(model, *root, 0, out);
  }
  return out;
}

}  // namespace mdsm::model
