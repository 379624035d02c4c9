// Storage shared by the obs recorders: the drop-oldest ring each recorder
// keeps its records in, the name table the tracer and the timeseries
// recorder intern event and signal names into, and the JSON scalar writers
// the exporters share.
//
// A ring keeps the newest `capacity` records. Every push gets a stable
// sequence number (the count of records pushed before it), so an owner can
// finalize an entry in place later — if, and only if, it is still retained.
// Overwritten records are counted in dropped(), which every export surfaces
// so a truncated record set is never mistaken for a complete one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sb::obs {

template <class T>
class Ring {
 public:
  /// `capacity` is clamped to >= 1. `reserve` pre-grows up to that many
  /// slots, so the first pushes stay allocation-free.
  explicit Ring(std::size_t capacity, std::size_t reserve = 0)
      : capacity_(std::max<std::size_t>(capacity, 1)) {
    buf_.reserve(std::min(capacity_, reserve));
  }

  /// Returns the pushed record's sequence number. Record k lives at slot
  /// k % capacity, so the oldest retained record is the one overwritten.
  std::uint64_t push(const T& rec) {
    if (buf_.size() < capacity_) {
      buf_.push_back(rec);
    } else {
      buf_[static_cast<std::size_t>(seq_ % capacity_)] = rec;
    }
    return seq_++;
  }

  /// The record pushed as `seq` while it is still retained, else nullptr.
  T* find(std::uint64_t seq) {
    if (seq >= seq_ || seq < dropped()) return nullptr;
    return &buf_[static_cast<std::size_t>(seq % capacity_)];
  }

  std::size_t capacity() const { return capacity_; }
  /// Records currently held (<= capacity).
  std::size_t size() const { return buf_.size(); }
  /// Total records ever pushed.
  std::uint64_t recorded() const { return seq_; }
  /// Records overwritten by overflow (oldest first).
  std::uint64_t dropped() const { return seq_ - buf_.size(); }

  /// Copy of the retained records, oldest → newest.
  std::vector<T> snapshot() const {
    if (dropped() == 0) return buf_;
    const auto head = static_cast<std::ptrdiff_t>(seq_ % capacity_);
    std::vector<T> out;
    out.reserve(buf_.size());
    out.insert(out.end(), buf_.begin() + head, buf_.end());
    out.insert(out.end(), buf_.begin(), buf_.begin() + head);
    return out;
  }

 private:
  std::size_t capacity_;
  std::vector<T> buf_;
  std::uint64_t seq_ = 0;
};

/// Interned names: each distinct string gets the next dense id, once.
/// Recorders keep one; their snapshots carry a copy, so exporters resolve
/// ids without the recorder.
class NameTable {
 public:
  /// Stable id for `name` (idempotent per string).
  std::uint32_t intern(std::string_view name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(std::string(name), id);
    return id;
  }

  const std::vector<std::string>& names() const { return names_; }

  /// The name behind `id`; "?" for an id outside the table.
  std::string_view name_of(std::uint32_t id) const {
    return id < names_.size() ? std::string_view(names_[id])
                              : std::string_view("?");
  }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// A JSON string literal: quotes, backslashes and control characters
/// escaped.
inline void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// A JSON number in the stream's format; null for inf/nan, which JSON
/// cannot spell.
inline void json_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace sb::obs
