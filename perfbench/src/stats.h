// Order statistics and ratios for the loopback benchmark's reports, plus the
// seeded Poisson arrival schedule that drives the open-loop generator.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// The p-th percentile (p in [0, 100]) of `values`, interpolating linearly
// between the two closest ranks (the "type 7" definition spreadsheets and
// numpy use). Reorders `values`; 0 for an empty input.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

// num / den, or 0 when nothing happened (den == 0): a ratio whose base is
// empty reports "no work", never NaN.
double Ratio(double num, double den);

// The noise level that admits the quietest `share` of the entries: the k-th
// smallest noise[i], k = max(1, share * size). Every entry at or below it
// counts as quiet, so ties at the threshold are all kept. 0 if empty.
uint64_t QuietThreshold(std::vector<uint64_t> noise, double share);

// The median of values[i] over the quiet entries (noise[i] at most
// QuietThreshold(noise, share)). Measures a program on a shared host from
// the moments the host left it alone; when the host never intervened, that
// is every entry. 0 for an empty input.
double QuietMedian(const std::vector<double>& values, const std::vector<uint64_t>& noise,
                   double share);

// One histogram bucket covering [lo, hi) with `count` samples.
struct Bucket {
  double lo = 0;
  double hi = 0;
  uint64_t count = 0;
};

// The p-th percentile of a bucketed distribution (buckets ascending),
// interpolating linearly inside the bucket that holds the rank, so two runs
// whose samples fall in the same bucket still read differently. 0 if empty.
double BucketPercentile(const std::vector<Bucket>& buckets, double p);

// SplitMix64: the seed expander and the payload byte stream.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Poisson arrivals at `rate_per_s`: exponential gaps drawn from a SplitMix64
// stream keyed by (seed, stream), so each generator thread has its own
// independent, reproducible schedule. Independent Poisson streams at rate
// r/G merge into one Poisson stream at rate r.
class PoissonSchedule {
 public:
  PoissonSchedule(uint64_t seed, uint64_t stream, double rate_per_s);

  // The next due time, `start_ns` plus the sum of the gaps drawn so far.
  uint64_t Next();
  void Reset(uint64_t start_ns) { due_ns_ = start_ns; }

 private:
  uint64_t state_;
  double mean_gap_ns_;
  uint64_t due_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
