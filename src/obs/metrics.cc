#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/store.h"

namespace sb::obs {

int Histogram::bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<int>(v);
  const int e = 63 - std::countl_zero(v);  // floor(log2 v), >= kSubBucketBits
  const int shift = e - kSubBucketBits;
  const auto sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
  return ((e - kSubBucketBits + 1) << kSubBucketBits) + sub;
}

std::uint64_t Histogram::bucket_lower(int index) {
  if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
  const int g = index >> kSubBucketBits;
  const int sub = index & (kSubBuckets - 1);
  const int e = g + kSubBucketBits - 1;
  return (std::uint64_t{1} << e) +
         (static_cast<std::uint64_t>(sub) << (e - kSubBucketBits));
}

std::uint64_t Histogram::bucket_upper(int index) {
  if (index < kSubBuckets) return static_cast<std::uint64_t>(index) + 1;
  const int g = index >> kSubBucketBits;
  const int e = g + kSubBucketBits - 1;
  const std::uint64_t lower = bucket_lower(index);
  const std::uint64_t width = std::uint64_t{1} << (e - kSubBucketBits);
  // The very last bucket's upper edge is 2^64; saturate.
  return lower > std::numeric_limits<std::uint64_t>::max() - width
             ? std::numeric_limits<std::uint64_t>::max()
             : lower + width;
}

void Histogram::record(std::uint64_t v) {
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

int Histogram::quantile_bucket(double q) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cum += buckets_[static_cast<std::size_t>(i)];
    if (cum >= rank) return i;
  }
  return kNumBuckets - 1;
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  return std::min(bucket_upper(quantile_bucket(q)) - 1, max_);
}

std::uint64_t Histogram::quantile_lower(double q) const {
  if (count_ == 0) return 0;
  return std::max(bucket_lower(quantile_bucket(q)), min());
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other,
                            std::int64_t other_run) {
  for (const auto& [name, c] : other.counters_) counter(name).value += c.value;
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauge(name);
    if (g.updates > 0) {
      // A registry that is itself a merge result carries per-gauge stamps;
      // take the stronger of those and the caller-supplied run index.
      const std::int64_t stamp = std::max(g.last_run, other_run);
      if (stamp >= mine.last_run) {
        mine.value = g.value;
        mine.last_run = stamp;
      }
    }
    mine.updates += g.updates;
  }
  for (const auto& [name, h] : other.histograms_) histogram(name).merge(h);
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':' << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':';
    json_number(os, g.value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ":{\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"min\":" << h.min() << ",\"max\":" << h.max() << ",\"mean\":";
    json_number(os, h.mean());
    os << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
       << ",\"p99\":" << h.quantile(0.99) << '}';
  }
  os << "}}";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace sb::obs
