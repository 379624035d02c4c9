// Exact nearest-rank percentiles over latency samples.
//
// Both the fleet dispatcher and the per-node wake-to-run latency report
// promise *exact* tail percentiles (nearest-rank over the full sample, not
// histogram-bucketed estimates): a gated p99 that moved with bucket
// boundaries would make the zero-ceiling latency gates meaningless. The
// obs-layer log-linear histograms remain the cheap always-mergeable view;
// this header is the ground truth they are cross-checked against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace sb {

/// Exact (nearest-rank, not histogram-bucketed) latency tail of one sample,
/// in nanoseconds.
struct LatencyTail {
  std::uint64_t count = 0;
  double mean_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Nearest-rank value of a sorted, non-empty sample (q in [0, 1]):
/// rank = ceil(q * n) clamped to [1, n], value = sorted[rank - 1].
inline std::uint64_t sorted_rank(const std::vector<std::uint64_t>& sorted,
                                 double q) {
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
inline std::uint64_t nearest_rank(std::vector<std::uint64_t> sample,
                                  double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  return sorted_rank(sample, q);
}

/// Full tail summary of a sample (count/mean/p50/p95/p99/max).
inline LatencyTail tail_of(const std::vector<std::uint64_t>& sample) {
  LatencyTail t;
  t.count = sample.size();
  if (sample.empty()) return t;
  std::vector<std::uint64_t> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (std::uint64_t v : sorted) sum += static_cast<double>(v);
  t.mean_ns = sum / static_cast<double>(sorted.size());
  t.p50_ns = sorted_rank(sorted, 0.50);
  t.p95_ns = sorted_rank(sorted, 0.95);
  t.p99_ns = sorted_rank(sorted, 0.99);
  t.max_ns = sorted.back();
  return t;
}

}  // namespace sb
