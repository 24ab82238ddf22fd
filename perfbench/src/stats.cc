#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) {
    return 0;
  }
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values->size() - 1);
  std::nth_element(values->begin(), values->begin() + static_cast<std::ptrdiff_t>(lo),
                   values->end());
  double lo_value = (*values)[lo];
  double hi_value = lo_value;
  if (hi != lo) {
    // After nth_element the (lo+1)-th smallest is the minimum of the tail.
    hi_value = *std::min_element(values->begin() + static_cast<std::ptrdiff_t>(hi),
                                 values->end());
  }
  return lo_value + (hi_value - lo_value) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(&values, 50); }

uint64_t QuietThreshold(std::vector<uint64_t> noise, double share) {
  if (noise.empty()) {
    return 0;
  }
  size_t keep = std::clamp<size_t>(static_cast<size_t>(static_cast<double>(noise.size()) * share),
                                   1, noise.size());
  std::nth_element(noise.begin(), noise.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   noise.end());
  return noise[keep - 1];
}

double QuietMedian(const std::vector<double>& values, const std::vector<uint64_t>& noise,
                   double share) {
  uint64_t threshold = QuietThreshold(noise, share);
  std::vector<double> quiet;
  for (size_t i = 0; i < values.size(); ++i) {
    if (noise[i] <= threshold) {
      quiet.push_back(values[i]);
    }
  }
  return Median(std::move(quiet));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double BucketPercentile(const std::vector<Bucket>& buckets, double p) {
  uint64_t total = 0;
  for (const Bucket& b : buckets) {
    total += b.count;
  }
  if (total == 0) {
    return 0;
  }
  // The rank-th sample (1-based, fractional), spread uniformly over its bucket.
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total);
  uint64_t below = 0;
  for (const Bucket& b : buckets) {
    if (b.count == 0) {
      continue;
    }
    if (rank <= static_cast<double>(below + b.count)) {
      double within = (rank - static_cast<double>(below)) / static_cast<double>(b.count);
      return b.lo + (b.hi - b.lo) * std::clamp(within, 0.0, 1.0);
    }
    below += b.count;
  }
  return buckets.back().hi;
}

PoissonSchedule::PoissonSchedule(uint64_t seed, uint64_t stream, double rate_per_s)
    : state_(seed * 0x9e3779b97f4a7c15ull + stream), mean_gap_ns_(1e9 / rate_per_s) {
  // Decorrelate nearby (seed, stream) pairs before the first draw.
  SplitMix64(&state_);
}

uint64_t PoissonSchedule::Next() {
  // 53 random bits -> u in (0, 1]; -ln(u) is a unit exponential.
  double u = static_cast<double>((SplitMix64(&state_) >> 11) + 1) * 0x1.0p-53;
  due_ns_ += static_cast<uint64_t>(-std::log(u) * mean_gap_ns_);
  return due_ns_;
}

}  // namespace perfbench
