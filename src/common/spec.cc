#include "common/spec.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace sb::spec {
namespace {

[[noreturn]] void reject(std::string_view grammar, std::string_view name,
                         std::string_view token, const std::string& want) {
  throw std::invalid_argument(std::string(grammar) + ": bad " +
                              std::string(name) + " '" + std::string(token) +
                              "' (want " + want + ")");
}

}  // namespace

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (auto at = text.find(sep); at != text.npos; at = text.find(sep)) {
    out.push_back(text.substr(0, at));
    text.remove_prefix(at + 1);
  }
  out.push_back(text);
  return out;
}

std::uint64_t read_uint(std::string_view grammar, std::string_view name,
                        std::string_view token, std::uint64_t lo,
                        std::uint64_t hi) {
  // from_chars takes no sign, space or prefix for an unsigned type, so a
  // fully consumed token is all digits.
  std::uint64_t v = 0;
  const char* end = token.data() + token.size();
  const auto res = std::from_chars(token.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end || v < lo || v > hi) {
    reject(grammar, name, token,
           "an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
  }
  return v;
}

double read_field(std::string_view grammar, const Field& field,
                  std::string_view token) {
  if (field.kind == Kind::kInt) {
    return static_cast<double>(
        read_uint(grammar, field.name, token,
                  static_cast<std::uint64_t>(field.lo),
                  static_cast<std::uint64_t>(field.hi)));
  }
  if (field.kind == Kind::kEnum) {
    std::string want = "one of";
    for (std::size_t i = 0; i < field.names.size(); ++i) {
      if (token == field.names[i]) return static_cast<double>(i);
      (want += i ? ", " : " ") += field.names[i];
    }
    reject(grammar, field.name, token, want);
  }
  const bool open_lo = field.range == Range::kOpenLow;
  const bool open_hi = field.range == Range::kOpenHigh;
  double v = 0;
  const char* end = token.data() + token.size();
  const auto res = std::from_chars(token.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end || !std::isfinite(v) ||
      (open_lo ? v <= field.lo : v < field.lo) ||
      (open_hi ? v >= field.hi : v > field.hi)) {
    std::string want = "a finite number in ";
    want += open_lo ? '(' : '[';
    append_double(want, field.lo);
    want += ", ";
    append_double(want, field.hi);
    reject(grammar, field.name, token, want + (open_hi ? ")" : "]"));
  }
  return v;
}

void read_fields(std::string_view grammar, std::span<const Field> fields,
                 std::span<const std::string_view> tokens,
                 std::span<double> values) {
  if (tokens.size() > fields.size()) {
    throw std::invalid_argument(std::string(grammar) + ": " +
                                std::to_string(tokens.size()) +
                                " fields, want at most " +
                                std::to_string(fields.size()));
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i < tokens.size()) {
      values[i] = read_field(grammar, fields[i], tokens[i]);
    } else if (std::isnan(fields[i].def)) {
      throw std::invalid_argument(std::string(grammar) + ": missing " +
                                  std::string(fields[i].name));
    }
  }
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // Config values are always finite; exports render a stray non-finite
    // value so a bug corrupts one cell, not the whole document.
    out += std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf");
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_field(std::string& out, const Field& field, double value) {
  switch (field.kind) {
    case Kind::kEnum:
      out += field.names[static_cast<std::size_t>(value)];
      return;
    case Kind::kInt:
      // A shortest double would print 100000 as "1e+05", which the digits
      // reader rejects.
      append_int(out, static_cast<std::int64_t>(value));
      return;
    case Kind::kReal:
      append_double(out, value);
      return;
  }
}

void append_fields(std::string& out, std::span<const Field> fields,
                   std::initializer_list<double> values) {
  const double* v = values.begin();
  std::size_t n = values.size();
  while (n > 0 && std::bit_cast<std::uint64_t>(v[n - 1]) ==
                      std::bit_cast<std::uint64_t>(fields[n - 1].def)) {
    --n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out += ':';
    append_field(out, fields[i], v[i]);
  }
}

}  // namespace sb::spec
