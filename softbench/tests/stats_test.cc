#include "stats.h"

#include <gtest/gtest.h>

namespace softbench {
namespace {

TEST(PercentileTest, NearestRankAndSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const std::vector<Percentile> ps = Percentiles(samples, {50.0, 99.0});
  EXPECT_EQ(ps[0].value, 500.0);
  EXPECT_EQ(ps[0].samples, 1000u);
  EXPECT_EQ(ps[0].beyond, 500u);
  EXPECT_EQ(ps[1].value, 990.0);
  EXPECT_EQ(ps[1].beyond, 10u);
}

TEST(PercentileTest, SmallSetsReportFewSamplesBeyond) {
  const std::vector<Percentile> ps = Percentiles({3.0, 1.0, 2.0}, {99.0});
  EXPECT_EQ(ps[0].value, 3.0);
  EXPECT_EQ(ps[0].samples, 3u);
  EXPECT_EQ(ps[0].beyond, 0u);
}

TEST(PercentileTest, EmptyAndUnsortedInput) {
  EXPECT_EQ(Percentiles({}, {50.0})[0].samples, 0u);
  EXPECT_EQ(Percentiles({}, {50.0})[0].value, 0.0);
  EXPECT_EQ(Median({9.0, 1.0, 5.0}), 5.0);
}

TEST(QErrorTest, SymmetricAndZeroGuarded) {
  EXPECT_DOUBLE_EQ(QError(10.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(5.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(QError(8.0, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(QError(0.25, 4.0), 4.0);  // Floors at one row.
}

TEST(RatioTest, PrintsItsBase) {
  const Ratio r{95.0, 100.0};
  EXPECT_DOUBLE_EQ(r.value(), 0.95);
  EXPECT_EQ(r.ToString(), "0.95 (95 / 100)");
  const Ratio empty{3.0, 0.0};
  EXPECT_EQ(empty.value(), 0.0);
  EXPECT_EQ(empty.ToString(), "0 (3 / 0)");
}

TEST(MetricNameTest, Validation) {
  EXPECT_TRUE(ValidMetricName("read_p50_us"));
  EXPECT_TRUE(ValidMetricName("optimizer.cache_hit_ratio"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricSetTest, RejectsBadOrDuplicateNamesAndEmitsJson) {
  MetricSet set;
  EXPECT_TRUE(set.Add("latency_ms", 1.5, "ms"));
  EXPECT_FALSE(set.Add("latency_ms", 2.0, "ms"));
  EXPECT_FALSE(set.Add("bad name", 2.0, "ms"));
  EXPECT_TRUE(set.Add("setup_s", 0.25, "s"));
  EXPECT_EQ(set.ToJson({"setup_s", "latency_ms", "missing"}),
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}");
}

TEST(JsonNumberTest, FullPrecisionAndFinite) {
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(JsonNumber(std::nan("")), "0");
}

}  // namespace
}  // namespace softbench
