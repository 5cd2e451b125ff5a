// JSON for the observability artifacts: the one string escaper every writer
// uses and the one reader every consumer uses.
//
// The writers (metrics, trace, telemetry, flight dumps, profiles, bench and
// ftlint output) stream their documents by hand and pass string content
// through json_escape. Everything that reads an artifact back — ftreport,
// the flight decoder, the tests — goes through parse_json, a strict
// RFC 8259 reader:
//   * the number grammar exactly: no `+1`, `01`, `1.`, `.5` or bare `-`;
//   * no raw control characters inside strings; a \uXXXX surrogate pair is
//     combined into one code point and a lone surrogate is refused;
//   * nesting capped at kJsonMaxDepth — an error, never a stack overflow;
//   * a key repeated within one object is refused;
//   * errors read `line:column: what` (1-based, the column counts bytes).
// Bytes >= 0x80 inside strings pass through unchecked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/result.hpp"

namespace ftsched::obs {

/// Escapes `text` for inclusion inside a JSON string literal (quotes,
/// backslashes, and control characters; everything else passes through).
std::string json_escape(std::string_view text);

/// One parsed JSON value. Objects keep their members in document order, so
/// reports follow the producer's ordering.
struct JsonValue {
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// True when the number token is a non-negative integer that fits 64
  /// bits; `uint` then holds it exactly (a double cannot past 2^53).
  bool is_uint = false;
  std::uint64_t uint = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member named `key`; null when absent or when this is no object.
  const JsonValue* find(std::string_view key) const;
  /// The member named `key`, or a null value when absent, so lookups
  /// chain: `doc.at("a").num_at("b")`.
  const JsonValue& at(std::string_view key) const;
  /// `number` when this is a number, else `fallback`.
  double num_or(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }
  /// The number at member `key`; `fallback` when absent or no number.
  double num_at(std::string_view key, double fallback = 0.0) const {
    const JsonValue* member = find(key);
    return member != nullptr ? member->num_or(fallback) : fallback;
  }
  /// The string at member `key`; `fallback` when absent or no string.
  std::string str_at(std::string_view key,
                     std::string_view fallback = {}) const {
    const JsonValue* member = find(key);
    return std::string(member != nullptr && member->type == Type::kString
                           ? std::string_view(member->str)
                           : fallback);
  }
};

/// Deepest accepted nesting of arrays and objects (`[[1]]` is depth 2).
inline constexpr std::size_t kJsonMaxDepth = 128;

/// Parses exactly one JSON value; whitespace may surround it, nothing else.
/// `first_line` is the line number of the text's first line in error
/// positions, so a JSON-lines reader can report the line of its file.
Result<JsonValue> parse_json(std::string_view text, std::size_t first_line = 1);

}  // namespace ftsched::obs
