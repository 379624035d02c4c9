// Spec grammar: the one token reader and printer behind every config spec.
//
// The --faults, --shards, --fleet, --obs-window and --slo specs are fields
// separated by ',', ':' and '='. Each grammar keeps its own head in its own
// file (what an entry means, which fields it carries) and describes its
// fields with a small table of Field rows; this module splits the spec,
// reads every field token with one strict number syntax, and prints
// canonical forms that parse back to the same values bit for bit. (--adapt
// entries carry no fields; that grammar only splits.)
//
// Number syntax: the whole token in std::from_chars form (no leading
// whitespace, no leading '+', no hex), a finite value, inside the field's
// range. Integer fields take decimal digits only. Every integer range in a
// field table is at most 2^24, so field values travel as exact doubles.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sb::spec {

enum class Kind : unsigned char {
  kReal,  // a finite double
  kInt,   // decimal digits
  kEnum,  // one of Field::names; the value is the name's index
};

/// Which end of [lo, hi] a field's range excludes.
enum class Range : unsigned char { kClosed, kOpenLow, kOpenHigh };

/// Default of a field that must be present.
inline constexpr double kRequired = std::numeric_limits<double>::quiet_NaN();
inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct Field {
  std::string_view name;
  Kind kind = Kind::kReal;
  double lo = 0;
  double hi = 0;
  /// Value a default-constructed config holds; canonical forms omit
  /// trailing fields at their default. kRequired: the token must be given.
  double def = kRequired;
  Range range = Range::kClosed;
  std::span<const std::string_view> names = {};
};

/// Splits on every `sep`; n separators always yield n + 1 tokens (views
/// into `text`).
std::vector<std::string_view> split(std::string_view text, char sep);

/// Reads a decimal-digits token as an integer in [lo, hi]. Throws
/// std::invalid_argument naming `grammar`, `name` and the token.
std::uint64_t read_uint(std::string_view grammar, std::string_view name,
                        std::string_view token, std::uint64_t lo,
                        std::uint64_t hi);

/// Reads one token as `field`. Throws std::invalid_argument naming
/// `grammar`, the field and the token.
double read_field(std::string_view grammar, const Field& field,
                  std::string_view token);

/// Reads tokens[i] as fields[i] into values[i]. A value whose token is
/// absent keeps what the caller put there; an absent required field, or
/// more tokens than fields, throws std::invalid_argument.
void read_fields(std::string_view grammar, std::span<const Field> fields,
                 std::span<const std::string_view> tokens,
                 std::span<double> values);

/// Shortest text that std::from_chars reads back to the same bits, in the
/// C locale. Non-finite values print as nan, inf or -inf.
void append_double(std::string& out, double v);

template <std::integral T>
void append_int(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Prints `value` so that read_field() returns it bit for bit.
void append_field(std::string& out, const Field& field, double value);

/// Prints values joined by ':', omitting trailing values that equal their
/// field's default bit for bit. read_fields() over a default config reads
/// the text back to `values`.
void append_fields(std::string& out, std::span<const Field> fields,
                   std::initializer_list<double> values);

}  // namespace sb::spec
