// The benchmark's own arithmetic: percentiles and their sample counts,
// due-time latency and generator lateness, span self time, and failure
// accounting. Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Quantile, NearestRankPicksASample) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(quantile_sorted(v, 0.5), 5);
  EXPECT_EQ(quantile_sorted(v, 0.9), 9);
  EXPECT_EQ(quantile_sorted(v, 0.91), 10);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1);
  EXPECT_EQ(quantile_sorted(v, 1.0), 10);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0);
}

TEST(Median, UnsortedInput) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Summary, CountsAndPercentiles) {
  const LatencySummary s = summarize(one_to(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.beyond_p99, 10u);
  // p99.9 has only one sample beyond it; p99 is the highest with ten.
  EXPECT_EQ(s.top_level, 99.0);
  EXPECT_EQ(s.top_value, 990);
}

TEST(Summary, TopLevelNeedsTenBeyond) {
  EXPECT_EQ(summarize(one_to(100)).top_level, 90.0);  // p99: 1 beyond
  EXPECT_EQ(summarize(one_to(19)).top_level, 0.0);    // median: 9 beyond
  EXPECT_EQ(summarize(one_to(20)).top_level, 50.0);   // median: 10 beyond
  EXPECT_EQ(summarize(one_to(10000)).top_level, 99.9);
  EXPECT_EQ(summarize(one_to(10000)).top_value, 9990);
}

TEST(Summary, TiesCountAsAtOrBelow) {
  std::vector<double> v(200, 5.0);
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.p99, 5.0);
  EXPECT_EQ(s.beyond_p99, 0u);
}

TEST(OpenLoop, LatencyIsFromDueTime) {
  // Sent 3 late, answered 10 after sending: the user waited 13.
  const OpenLoopTimes t{100.0, 103.0, 113.0};
  EXPECT_EQ(due_latency(t), 13.0);
  EXPECT_EQ(lateness(t), 3.0);
}

TEST(OpenLoop, EarlySendIsOnTime) {
  const OpenLoopTimes t{100.0, 99.5, 104.0};
  EXPECT_EQ(lateness(t), 0.0);
  EXPECT_EQ(due_latency(t), 4.0);
}

TEST(SelfTime, ChildrenAreSubtracted) {
  // root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and a grandchild inside the first child.
  const std::vector<Span> spans{
      {1, 0, "root", 0, 100, 7},
      {2, 1, "a", 10, 30, 7},
      {3, 1, "b", 20, 50, 7},
      {4, 2, "c", 12, 18, 7},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 14);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans{
      {1, 0, "root", 0, 10, 1},
      {2, 1, "late", 5, 25, 1},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 20);
}

TEST(Failures, EveryOutcomeIsCounted) {
  FailureTally t;
  t.add(Outcome::kOk);
  t.add(Outcome::kOk);
  t.add(Outcome::kErrorReply);
  t.add(Outcome::kWrongType);
  t.add(Outcome::kMissing);
  t.add(Outcome::kLost);
  EXPECT_EQ(t.attempted, 6u);
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 4.0 / 6.0);
  EXPECT_EQ(FailureTally{}.failed_frac(), 0.0);
}

TEST(Failures, AFailedRequestMissesEveryLimit) {
  EXPECT_EQ(charged_latency(Outcome::kOk, 42.0), 42.0);
  EXPECT_TRUE(std::isinf(charged_latency(Outcome::kErrorReply, 1.0)));
  EXPECT_TRUE(std::isinf(charged_latency(Outcome::kMissing, 1.0)));
  // One failure in 100 moves p99 to the failure.
  std::vector<double> lat(99, 10.0);
  lat.push_back(charged_latency(Outcome::kLost, 10.0));
  EXPECT_EQ(summarize(lat).p99, 10.0);
  lat.push_back(charged_latency(Outcome::kWrongType, 10.0));
  EXPECT_TRUE(std::isinf(summarize(lat).p99));
}

}  // namespace
}  // namespace perfbench
