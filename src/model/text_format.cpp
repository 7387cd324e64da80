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
  Parser(std::string_view text, MetamodelPtr metamodel,
         std::vector<ObjectSpan>* spans = nullptr)
      : text_(text), metamodel_(std::move(metamodel)), spans_(spans) {
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
    const auto braces = static_cast<std::size_t>(
        std::count(text_.begin() + pos_, text_.end(), '{'));
    model.reserve(braces);
    if (spans_ != nullptr) spans_->reserve(braces);
    while (tok_.kind != TokenKind::kEnd) {
      MDSM_TAKE_WORD(word);
      if (word != "object") return error("expected 'object'");
      MDSM_RETURN_IF_ERROR(parse_object(model, /*parent=*/nullptr,
                                        /*containment=*/"", offset(word)));
    }
    MDSM_RETURN_IF_ERROR(resolve_references(model));
    return model;
  }

  /// Re-read the slots of `object`, whose '{' is at `open`, into it: the
  /// object rule's body, except that each `child` must open the next of
  /// `children` (their spans in this text) and is skipped whole, and the
  /// body must close at `close`.
  Status reread(Model& model, ModelObject& object, std::size_t open,
                std::size_t close, const std::vector<ObjectSpan>& children) {
    seek(open + 1);
    skips_ = &children;
    MDSM_RETURN_IF_ERROR(parse_body(model, object));
    if (next_skip_ != children.size() || close_ != close) {
      return error("the object's children or braces moved");
    }
    return resolve_references(model);
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

  /// Lex on from byte `pos` (a token boundary; line numbers go stale).
  void seek(std::size_t pos) {
    pos_ = pos;
    tok_.kind = TokenKind::kEnd;
    advance();
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

  /// The byte offset of `token` (a view into the text) in the text.
  std::uint32_t offset(std::string_view token) const {
    return static_cast<std::uint32_t>(token.data() - text_.data());
  }

  // ---- Grammar. ----
  /// An object from its class name on; its `object`/`child` keyword is
  /// at `header`.
  Status parse_object(Model& model, ModelObject* parent,
                      std::string_view containment, std::uint32_t header) {
    MDSM_TAKE_WORD(class_name);
    MDSM_TAKE_WORD(id);
    Result<ModelObject*> created =
        parent == nullptr
            ? model.create(class_name, id)
            : model.create_child(*parent, containment, class_name, id);
    if (!created.ok()) return error(created.status().message());
    ModelObject& object = *created.value();
    const std::size_t index = model.size() - 1;
    const std::string_view brace = tok_.text;
    MDSM_RETURN_IF_ERROR(expect_punct("{"));
    if (spans_ != nullptr) spans_->push_back({header, offset(brace), 0});
    MDSM_RETURN_IF_ERROR(parse_body(model, object));
    if (spans_ != nullptr) (*spans_)[index].close = close_;
    return Status::Ok();
  }

  /// An object's slots and children, through its '}' (at close_ after).
  Status parse_body(Model& model, ModelObject& object) {
    while (!at_punct("}")) {
      if (tok_.kind == TokenKind::kEnd) return error("unexpected EOF");
      MDSM_TAKE_WORD(slot);
      if (slot == "child" && skips_ != nullptr) {
        if (next_skip_ == skips_->size() ||
            (*skips_)[next_skip_].header != offset(slot)) {
          return error("unexpected child");
        }
        seek((*skips_)[next_skip_++].close + 1);
      } else if (slot == "child") {
        MDSM_TAKE_WORD(reference);
        MDSM_RETURN_IF_ERROR(
            parse_object(model, &object, reference, offset(slot)));
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
    close_ = offset(tok_.text);
    advance();
    return Status::Ok();
  }

  /// Add the cross-references read so far, in reading order.
  Status resolve_references(Model& model) {
    for (const PendingReference& pending : pending_refs_) {
      Status status = model.add_reference(*pending.holder, pending.reference,
                                          pending.target_id);
      if (!status.ok()) return at_line(pending.line, status.message());
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
  std::vector<ObjectSpan>* spans_;  ///< filled by creation index, if set
  std::uint32_t close_ = 0;         ///< the last body's '}'
  /// reread(): the children to skip, in order, and the next one.
  const std::vector<ObjectSpan>* skips_ = nullptr;
  std::size_t next_skip_ = 0;
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

Result<Model> parse_model(std::string_view text, MetamodelPtr metamodel,
                          std::vector<ObjectSpan>* spans) {
  if (metamodel == nullptr || !metamodel->finalized()) {
    return InvalidArgument("parse_model requires a finalized metamodel");
  }
  if (text.size() > UINT32_MAX) spans = nullptr;
  return Parser(text, std::move(metamodel), spans).run();
}

std::optional<Edit> read_edit(const Model& base, const ModelText& source,
                              std::string_view text) {
  const std::vector<ObjectSpan>& spans = source.spans;
  const std::string_view old_text = source.text;
  if (spans.size() != base.size() || text.size() > UINT32_MAX) {
    return std::nullopt;
  }
  // The bytes that differ: [first, old_last) of the old text, the same
  // window shifted by the growth in the new one.
  const auto first = static_cast<std::size_t>(
      std::mismatch(old_text.begin(), old_text.end(), text.begin(), text.end())
          .first -
      old_text.begin());
  const auto tail = static_cast<std::size_t>(
      std::mismatch(old_text.rbegin(), old_text.rend() - first, text.rbegin(),
                    text.rend() - first)
          .first -
      old_text.rbegin());
  const std::size_t old_last = old_text.size() - tail;
  auto moved = [&](const ObjectSpan& span) {  // the span in the new text
    auto at = [&](std::uint32_t offset) {
      return offset < old_last ? offset
                               : static_cast<std::uint32_t>(
                                     offset + text.size() - old_text.size());
    };
    return ObjectSpan{at(span.header), at(span.open), at(span.close)};
  };
  // Spans are in creation order, which is text order: the last object
  // whose braces hold the window is the innermost, and its descendants
  // follow it.
  std::size_t edited = spans.size();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].open < first && old_last <= spans[i].close) edited = i;
  }
  if (edited == spans.size()) return std::nullopt;
  const ObjectSpan& span = spans[edited];
  std::vector<ObjectSpan> children;  // in the new text
  for (std::size_t i = edited + 1;
       i < spans.size() && spans[i].header < span.close;) {
    const ObjectSpan& child = spans[i];
    if (first <= child.close && child.header < old_last) return std::nullopt;
    children.push_back(moved(child));
    while (++i < spans.size() && spans[i].header < child.close) {
    }
  }
  Edit edit{base.clone(), {}, {}};
  ModelObject& object = *edit.model.find(base.objects()[edited]->id());
  edit.model.clear_slots(object);
  Parser parser(text, base.metamodel_ptr());
  if (!parser.reread(edit.model, object, span.open, moved(span).close,
                     children)
           .ok()) {
    return std::nullopt;
  }
  diff_object(*base.objects()[edited], object, edit.changes);
  edit.spans.reserve(spans.size());
  for (const ObjectSpan& each : spans) edit.spans.push_back(moved(each));
  return edit;
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
