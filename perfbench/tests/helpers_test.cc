// Tests for the loopback benchmark's own helpers: the seeded schedule, the
// order statistics, zero-base ratios and the /proc parsers on canned text.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "procfs.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<uint64_t> DueTimes(uint64_t seed, uint64_t stream, int n) {
  PoissonSchedule s(seed, stream, 20000);
  s.Reset(1000);
  std::vector<uint64_t> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(s.Next());
  }
  return out;
}

TEST(PoissonScheduleTest, SameSeedSameDueTimes) {
  EXPECT_EQ(DueTimes(7, 0, 1000), DueTimes(7, 0, 1000));
}

TEST(PoissonScheduleTest, SeedAndStreamChangeTheSchedule) {
  EXPECT_NE(DueTimes(7, 0, 100), DueTimes(8, 0, 100));
  EXPECT_NE(DueTimes(7, 0, 100), DueTimes(7, 1, 100));
}

TEST(PoissonScheduleTest, ResetRestartsFromTheGivenTime) {
  PoissonSchedule s(3, 0, 1000);
  s.Reset(5'000'000'000ull);
  EXPECT_GT(s.Next(), 5'000'000'000ull);
}

TEST(PoissonScheduleTest, GapsAreExponentialAtTheRequestedRate) {
  std::vector<uint64_t> due = DueTimes(11, 2, 200000);
  std::vector<double> gaps;
  uint64_t prev = 1000;
  for (uint64_t t : due) {
    ASSERT_GE(t, prev);
    gaps.push_back(static_cast<double>(t - prev));
    prev = t;
  }
  double mean = 0;
  for (double g : gaps) {
    mean += g;
  }
  mean /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 50000.0, 500.0);  // 1 / 20k per s = 50 us
  // An exponential's median is ln 2 times its mean.
  EXPECT_NEAR(Median(gaps), 50000.0 * std::log(2.0), 700.0);
}

TEST(StatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(&v, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(&v, 100), 50);
  EXPECT_DOUBLE_EQ(Percentile(&v, 25), 20);
  EXPECT_DOUBLE_EQ(Percentile(&v, 75), 40);
  EXPECT_DOUBLE_EQ(Percentile(&v, 90), 46);
  std::vector<double> w{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(&w, 25), 1.75);  // the lower quartile
  EXPECT_DOUBLE_EQ(Percentile(&w, 75), 3.25);  // the upper quartile
}

TEST(StatsTest, PercentileOfManyUnsortedValues) {
  std::vector<double> v;
  for (int i = 1000; i >= 0; --i) {
    v.push_back(i);
  }
  EXPECT_DOUBLE_EQ(Percentile(&v, 99), 990);
  EXPECT_DOUBLE_EQ(Percentile(&v, 50), 500);
}

TEST(StatsTest, QuietMedianUsesTheLeastNoisyShare) {
  std::vector<double> v{100, 10, 11, 500, 12, 13, 300, 14};
  std::vector<uint64_t> noise{9, 0, 1, 7, 0, 2, 8, 1};
  // The quietest half: 10, 12 (noise 0), 11, 14 (noise 1).
  EXPECT_DOUBLE_EQ(QuietMedian(v, noise, 0.5), 11.5);
  EXPECT_DOUBLE_EQ(QuietMedian(v, noise, 1.0), 13.5);
  // At least one entry's noise level is admitted, and every entry tied
  // with it counts: 10 and 12 (noise 0).
  EXPECT_DOUBLE_EQ(QuietMedian(v, noise, 0.01), 11);
  EXPECT_DOUBLE_EQ(QuietMedian({}, {}, 0.5), 0);
}

TEST(StatsTest, QuietMedianKeepsEveryEntryWhenTheHostNeverIntervened) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<uint64_t> noise(v.size(), 0);
  EXPECT_DOUBLE_EQ(QuietMedian(v, noise, 0.2), 5.5);
}

TEST(StatsTest, QuietThresholdIsTheKthSmallestNoise) {
  EXPECT_EQ(QuietThreshold({9, 0, 1, 7, 0, 2, 8, 1}, 0.5), 1u);
  EXPECT_EQ(QuietThreshold({9, 0, 1, 7, 0, 2, 8, 1}, 0.01), 0u);
  EXPECT_EQ(QuietThreshold({9, 0, 1, 7, 0, 2, 8, 1}, 1.0), 9u);
  EXPECT_EQ(QuietThreshold({}, 0.5), 0u);
}

TEST(StatsTest, RatioWithZeroBaseIsZero) {
  EXPECT_DOUBLE_EQ(Ratio(5, 0), 0);
  EXPECT_DOUBLE_EQ(Ratio(0, 0), 0);
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
}

TEST(StatsTest, BucketPercentileInterpolatesInsideTheBucket) {
  std::vector<Bucket> b{{100, 200, 2}, {200, 400, 2}};
  EXPECT_DOUBLE_EQ(BucketPercentile(b, 25), 150);
  EXPECT_DOUBLE_EQ(BucketPercentile(b, 50), 200);
  EXPECT_DOUBLE_EQ(BucketPercentile(b, 75), 300);
  EXPECT_DOUBLE_EQ(BucketPercentile(b, 100), 400);
  EXPECT_DOUBLE_EQ(BucketPercentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(BucketPercentile({{1, 2, 0}}, 50), 0);
}

TEST(ProcfsTest, Schedstat) {
  Schedstat s;
  ASSERT_TRUE(ParseSchedstat("123456789 2345 67\n", &s));
  EXPECT_EQ(s.run_ns, 123456789u);
  EXPECT_EQ(s.run_delay_ns, 2345u);
  EXPECT_EQ(s.timeslices, 67u);
  EXPECT_FALSE(ParseSchedstat("12 x 3\n", &s));
  EXPECT_FALSE(ParseSchedstat("", &s));
}

TEST(ProcfsTest, StatusFields) {
  const char* status =
      "Name:\tloopbench\n"
      "VmHWM:\t   10240 kB\n"
      "voluntary_ctxt_switches:\t1520\n"
      "nonvoluntary_ctxt_switches:\t37\n";
  uint64_t v = 0;
  ASSERT_TRUE(ParseStatusField(status, "voluntary_ctxt_switches", &v));
  EXPECT_EQ(v, 1520u);
  ASSERT_TRUE(ParseStatusField(status, "nonvoluntary_ctxt_switches", &v));
  EXPECT_EQ(v, 37u);
  ASSERT_TRUE(ParseStatusField(status, "VmHWM", &v));
  EXPECT_EQ(v, 10240u);
  EXPECT_FALSE(ParseStatusField(status, "VmRSS", &v));
  EXPECT_FALSE(ParseStatusField(status, "VmHW", &v));
}

TEST(ProcfsTest, Netstat) {
  const char* netstat =
      "TcpExt: SyncookiesSent ListenOverflows ListenDrops\n"
      "TcpExt: 0 12 15\n"
      "IpExt: InNoRoutes ListenDrops\n"
      "IpExt: 4 99\n";
  uint64_t v = 0;
  ASSERT_TRUE(ParseNetstat(netstat, "TcpExt", "ListenOverflows", &v));
  EXPECT_EQ(v, 12u);
  ASSERT_TRUE(ParseNetstat(netstat, "TcpExt", "ListenDrops", &v));
  EXPECT_EQ(v, 15u);
  ASSERT_TRUE(ParseNetstat(netstat, "IpExt", "ListenDrops", &v));
  EXPECT_EQ(v, 99u);
  EXPECT_FALSE(ParseNetstat(netstat, "TcpExt", "Missing", &v));
  EXPECT_FALSE(ParseNetstat(netstat, "Tcp", "ListenDrops", &v));
  EXPECT_FALSE(ParseNetstat("TcpExt: A B\nTcpExt: 1\n", "TcpExt", "B", &v));
}

TEST(ProcfsTest, StealAndPressure) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseStealJiffies(
      "cpu  100 2 300 4000 5 0 6 77 0 0\ncpu0 50 1 150 2000 2 0 3 40 0 0\n", &v));
  EXPECT_EQ(v, 77u);
  EXPECT_FALSE(ParseStealJiffies("cpu  1 2 3\n", &v));
  ASSERT_TRUE(ParsePsiSomeTotalUs(
      "some avg10=0.12 avg60=0.05 avg300=0.01 total=123456\n"
      "full avg10=0.00 avg60=0.00 avg300=0.00 total=999\n",
      &v));
  EXPECT_EQ(v, 123456u);
  EXPECT_FALSE(ParsePsiSomeTotalUs("full avg10=0.00 total=5\n", &v));
}

TEST(ProcfsTest, ThisProcessHasReadableTasks) {
  std::vector<int> tids = ListTasks();
  ASSERT_FALSE(tids.empty());
  TaskSample s;
  EXPECT_TRUE(ReadTask(tids.front(), &s));
}

}  // namespace
}  // namespace perfbench
