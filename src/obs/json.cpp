#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <numeric>
#include <system_error>

namespace ftsched::obs {

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  static const JsonValue kAbsent;
  const JsonValue* member = find(key);
  return member != nullptr ? *member : kAbsent;
}

namespace {

/// Recursive-descent reader. Every method returns false on the first error
/// with `pos_` at the offending byte and `what_` saying what was wrong.
class Reader {
 public:
  Reader(std::string_view text, std::size_t first_line)
      : text_(text), first_line_(first_line) {}

  Result<JsonValue> run() {
    JsonValue out;
    skip_ws();
    if (value(out, 0)) {
      skip_ws();
      if (pos_ == text_.size()) return out;
      fail("trailing content after the value");
    }
    const std::string_view before = text_.substr(0, pos_);
    const auto newlines = std::count(before.begin(), before.end(), '\n');
    const std::size_t line_start =
        newlines == 0 ? 0 : before.rfind('\n') + 1;
    return Result<JsonValue>::error(
        std::to_string(first_line_ + static_cast<std::size_t>(newlines))
            .append(":")
            .append(std::to_string(pos_ - line_start + 1))
            .append(": ")
            .append(what_));
  }

 private:
  std::string_view text_;
  std::size_t first_line_;
  std::size_t pos_ = 0;
  std::string what_;

  bool fail(std::string what) {
    what_ = std::move(what);
    return false;
  }
  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool take(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }
  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }
  /// One or more digits.
  bool digits() {
    if (!at_digit()) return false;
    while (at_digit()) ++pos_;
    return true;
  }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  bool value(JsonValue& out, std::size_t depth) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth == kJsonMaxDepth) {
          return fail(std::string("nesting deeper than ")
                          .append(std::to_string(kJsonMaxDepth)));
        }
        return text_[pos_] == '{' ? object(out, depth + 1)
                                  : array(out, depth + 1);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.str);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number(out);
    }
  }

  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      return fail("expected a value");
    }
    pos_ += word.size();
    return true;
  }

  bool object(JsonValue& out, std::size_t depth) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (take('}')) return true;
    std::vector<std::size_t> key_at;
    while (true) {
      skip_ws();
      if (!at('"')) return fail("expected a string key");
      key_at.push_back(pos_);
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!take(':')) return fail("expected ':'");
      skip_ws();
      JsonValue member;
      if (!value(member, depth)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (take(',')) continue;
      if (take('}')) break;
      return fail("expected ',' or '}'");
    }
    return unique_keys(out, key_at);
  }

  /// Refuses a repeated key, pointing at its first repetition. Sorting keeps
  /// the check O(n log n) however many members an object has.
  bool unique_keys(const JsonValue& out,
                   const std::vector<std::size_t>& key_at) {
    const auto& members = out.object;
    std::vector<std::size_t> order(members.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return members[a].first < members[b].first;
                     });
    std::size_t repeat = members.size();
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (members[order[i]].first == members[order[i - 1]].first) {
        repeat = std::min(repeat, order[i]);
      }
    }
    if (repeat == members.size()) return true;
    pos_ = key_at[repeat];
    return fail(std::string("repeated key \"")
                    .append(json_escape(members[repeat].first))
                    .append("\""));
  }

  bool array(JsonValue& out, std::size_t depth) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (take(']')) return true;
    while (true) {
      skip_ws();
      JsonValue element;
      if (!value(element, depth)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (take(',')) continue;
      if (take(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      const std::size_t escape_at = pos_++;
      if (pos_ >= text_.size()) break;
      static constexpr std::string_view kEscapes = "\"\\/bfnrt";
      static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      const char escape = text_[pos_++];
      if (const auto k = kEscapes.find(escape); k != std::string_view::npos) {
        out += kDecoded[k];
      } else if (escape != 'u') {
        pos_ = escape_at;
        return fail("bad escape");
      } else if (!unicode_escape(out, escape_at)) {
        return false;
      }
    }
    return fail("unterminated string");
  }

  bool hex4(unsigned& code) {
    const char* begin = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(begin, begin + 4, code, 16).ptr != begin + 4) {
      return fail("bad \\u escape");
    }
    pos_ += 4;
    return true;
  }

  /// \uXXXX after its backslash at `escape_at`; a high surrogate must be
  /// followed by a low one, and the pair is one supplementary code point.
  bool unicode_escape(std::string& out, std::size_t escape_at) {
    unsigned code = 0;
    if (!hex4(code)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) {
      pos_ = escape_at;
      return fail("lone low surrogate");
    }
    if (code >= 0xD800 && code <= 0xDBFF) {
      unsigned low = 0;
      if (!take('\\') || !take('u') || !hex4(low) || low < 0xDC00 ||
          low > 0xDFFF) {
        pos_ = escape_at;
        return fail("high surrogate without a low surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: one byte below 0x80, else a lead byte and 1-3 continuations.
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = code < 0x80      ? 0
                     : code < 0x800   ? 1
                     : code < 0x10000 ? 2
                                      : 3;
    out += static_cast<char>(kLead[tail] | (code >> (6 * tail)));
    for (int k = tail - 1; k >= 0; --k) {
      out += static_cast<char>(0x80 | ((code >> (6 * k)) & 0x3F));
    }
    return true;
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    const bool negative = take('-');
    if (take('0')) {
      if (at_digit()) return fail("leading zero in number");
    } else if (!digits()) {
      return fail(negative ? "expected a digit after '-'" : "expected a value");
    }
    bool integer = true;
    if (take('.')) {
      integer = false;
      if (!digits()) return fail("expected a digit after '.'");
    }
    if (take('e') || take('E')) {
      integer = false;
      if (!take('+')) take('-');
      if (!digits()) return fail("expected a digit in the exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    if (integer && !negative) {
      out.is_uint = std::from_chars(token.data(), token.data() + token.size(),
                                    out.uint)
                        .ec == std::errc{};
    }
    return true;
  }
};

}  // namespace

Result<JsonValue> parse_json(std::string_view text, std::size_t first_line) {
  return Reader(text, first_line).run();
}

}  // namespace ftsched::obs
