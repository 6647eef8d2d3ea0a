#include "stats.h"

#include <gtest/gtest.h>

namespace stackbench {
namespace {

TEST(Quantile, OrderStatisticAtFloorRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  EXPECT_EQ(quantile(v, 0.50), 51);  // rank floor(0.5 * 100) = 50
  EXPECT_EQ(quantile(v, 0.99), 100);
  EXPECT_EQ(quantile(v, 0.0), 1);
  EXPECT_EQ(quantile(v, 1.0), 100);  // clamped to the last rank
  EXPECT_EQ(quantile({}, 0.5), 0);
}

TEST(Quantile, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 9u);  // rank 990; 991..999 beyond
  EXPECT_EQ(samples_beyond(1100, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1, 0.99), 0u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Ratio, ZeroDenominatorIsZero) {
  EXPECT_EQ(ratio(3, 0), 0);
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
  EXPECT_EQ(mean({}), 0);
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3);
}

TEST(ReplicaLag, PairsTheKthWriteOfEachBlock) {
  // Block 7 is written three times; its replica applies arrive in order but
  // interleaved with block 3's.  Times are in nanoseconds.
  const std::vector<LbaEvent> primary = {
      {7, 1'000}, {3, 1'500}, {7, 2'000}, {7, 9'000}, {3, 4'000}};
  const std::vector<LbaEvent> replica = {
      {3, 2'500}, {7, 1'200}, {7, 5'000}, {3, 4'100}, {7, 9'050}};
  const LagMatch m = match_replica_lag(primary, replica);
  EXPECT_EQ(m.unmatched, 0u);
  // Sorted by (lba, time): block 3 first, then block 7.
  const std::vector<double> want = {1.0, 0.1, 0.2, 3.0, 0.05};
  ASSERT_EQ(m.lags_us.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(m.lags_us[i], want[i], 1e-9) << i;
  }
}

TEST(ReplicaLag, CountsWritesWithoutAPartner) {
  // An extra primary write on block 1 and an unmatched replica apply on
  // block 9 (e.g. tracing enabled mid-flight) are reported, not paired.
  const LagMatch m = match_replica_lag({{1, 10}, {1, 20}, {2, 30}},
                                       {{1, 15}, {2, 40}, {9, 50}});
  EXPECT_EQ(m.unmatched, 2u);
  ASSERT_EQ(m.lags_us.size(), 2u);
  EXPECT_NEAR(m.lags_us[0], 0.005, 1e-12);
  EXPECT_NEAR(m.lags_us[1], 0.010, 1e-12);
}

TEST(ReplicaLag, ReplicaAheadOfTheReturnGivesANegativeLag) {
  const LagMatch m = match_replica_lag({{4, 2'000}}, {{4, 1'000}});
  ASSERT_EQ(m.lags_us.size(), 1u);
  EXPECT_NEAR(m.lags_us[0], -1.0, 1e-12);
}

}  // namespace
}  // namespace stackbench
