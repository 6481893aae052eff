#include "outlier/outlier.h"

#include <vector>

#include <gtest/gtest.h>

namespace csod::outlier {
namespace {

TEST(ModeTest, EmptyVector) {
  EXPECT_EQ(ComputeMode({}), 0.0);
  EXPECT_FALSE(IsMajorityDominated({}));
}

TEST(ModeTest, MostFrequentValueWins) {
  EXPECT_EQ(ComputeMode({1, 2, 2, 3, 2}), 2.0);
}

TEST(ModeTest, TieBreaksTowardSmallerValue) {
  EXPECT_EQ(ComputeMode({5, 5, 3, 3}), 3.0);
}

TEST(ModeTest, MajorityDominatedDetection) {
  EXPECT_TRUE(IsMajorityDominated({7, 7, 7, 1, 2}));
  EXPECT_FALSE(IsMajorityDominated({7, 7, 1, 2}));  // Exactly half is not >.
  EXPECT_TRUE(IsMajorityDominated({4.0}));
}

TEST(ExactKOutliersTest, FindsFurthestFromMode) {
  // Mode 10; divergences: 90 (idx 3), 40 (idx 5), 5 (idx 0).
  const std::vector<double> x = {15, 10, 10, 100, 10, 50, 10};
  OutlierSet set = ExactKOutliers(x, 2);
  EXPECT_EQ(set.mode, 10.0);
  ASSERT_EQ(set.outliers.size(), 2u);
  EXPECT_EQ(set.outliers[0].key_index, 3u);
  EXPECT_EQ(set.outliers[0].value, 100.0);
  EXPECT_EQ(set.outliers[0].divergence, 90.0);
  EXPECT_EQ(set.outliers[1].key_index, 5u);
}

TEST(ExactKOutliersTest, NegativeDivergenceCounts) {
  // Outliers below the mode matter as much as above (the real-field
  // setting that breaks TA/TPUT assumptions).
  const std::vector<double> x = {10, 10, 10, -80, 10, 95};
  OutlierSet set = ExactKOutliers(x, 2);
  ASSERT_EQ(set.outliers.size(), 2u);
  EXPECT_EQ(set.outliers[0].key_index, 3u);  // |−80−10| = 90
  EXPECT_EQ(set.outliers[1].key_index, 5u);  // |95−10| = 85
}

TEST(ExactKOutliersTest, FewerOutliersThanK) {
  const std::vector<double> x = {5, 5, 5, 9};
  OutlierSet set = ExactKOutliers(x, 10);
  EXPECT_EQ(set.outliers.size(), 1u);  // min(k, |O|).
}

TEST(ExactKOutliersTest, AllEqualNoOutliers) {
  const std::vector<double> x = {3, 3, 3, 3};
  OutlierSet set = ExactKOutliers(x, 5);
  EXPECT_TRUE(set.outliers.empty());
  EXPECT_EQ(set.mode, 3.0);
}

TEST(ExactKOutliersTest, SingleElement) {
  OutlierSet set = ExactKOutliers({42.0}, 3);
  EXPECT_TRUE(set.outliers.empty());
  EXPECT_EQ(set.mode, 42.0);
}

TEST(ExactKOutliersTest, TiesBrokenByIndex) {
  const std::vector<double> x = {0, 0, 0, 5, -5};
  OutlierSet set = ExactKOutliers(x, 2);
  ASSERT_EQ(set.outliers.size(), 2u);
  EXPECT_EQ(set.outliers[0].key_index, 3u);
  EXPECT_EQ(set.outliers[1].key_index, 4u);
}

TEST(KOutliersGivenModeTest, UsesSuppliedMode) {
  const std::vector<double> x = {1, 2, 3};
  OutlierSet set = KOutliersGivenMode(x, 2.0, 3);
  EXPECT_EQ(set.mode, 2.0);
  EXPECT_EQ(set.outliers.size(), 2u);  // x[1] == mode is excluded.
}

TEST(TopKTest, DistinctFromOutlierK) {
  // Figure 1(b): the top-k keys are NOT the k-outlier keys when data has a
  // large positive mode and low-side outliers.
  const std::vector<double> x = {1800, 1800, 1800, 1805, 20, 1810};
  const size_t k = 2;

  std::vector<Outlier> top = TopK(x, k);
  ASSERT_EQ(top.size(), k);
  EXPECT_EQ(top[0].key_index, 5u);  // 1810
  EXPECT_EQ(top[1].key_index, 3u);  // 1805

  OutlierSet outliers = ExactKOutliers(x, k);
  ASSERT_EQ(outliers.outliers.size(), k);
  EXPECT_EQ(outliers.outliers[0].key_index, 4u);  // |20−1800| dominates.

  // RankTopK, the ranking behind TopK: equal values go to the lower key
  // first, whatever the input order, and k past the candidate count keeps
  // every candidate.
  std::vector<Outlier> tied = {{9, 1800, 1800}, {2, 1805, 1805},
                               {4, 1800, 1800}, {0, 1800, 1800}};
  RankTopK(&tied, 10);
  ASSERT_EQ(tied.size(), 4u);
  EXPECT_EQ(tied[0].key_index, 2u);
  EXPECT_EQ(tied[1].key_index, 0u);
  EXPECT_EQ(tied[2].key_index, 4u);
  EXPECT_EQ(tied[3].key_index, 9u);
  RankTopK(&tied, 2);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(tied[1].key_index, 0u);
  const std::vector<Outlier> all = TopK(x, x.size() + 3);
  ASSERT_EQ(all.size(), x.size());
  EXPECT_EQ(all[2].key_index, 0u);  // The three 1800s, lowest key first.
  EXPECT_EQ(all[3].key_index, 1u);
  EXPECT_EQ(all[4].key_index, 2u);
}

TEST(AbsoluteTopKTest, RanksByMagnitude) {
  const std::vector<double> x = {-100, 5, 99, -2};
  std::vector<Outlier> abs_top = AbsoluteTopK(x, 2);
  ASSERT_EQ(abs_top.size(), 2u);
  EXPECT_EQ(abs_top[0].key_index, 0u);
  EXPECT_EQ(abs_top[1].key_index, 2u);
}

TEST(KOutliersFromRecoveryTest, SelectsFurthestRecoveredEntries) {
  cs::BompResult recovery;
  recovery.mode = 100.0;
  recovery.entries = {{1, 150.0}, {2, 100.0}, {3, 5.0}, {4, 120.0}};
  OutlierSet set = KOutliersFromRecovery(recovery, 2);
  EXPECT_EQ(set.mode, 100.0);
  ASSERT_EQ(set.outliers.size(), 2u);
  EXPECT_EQ(set.outliers[0].key_index, 3u);  // |5−100| = 95.
  EXPECT_EQ(set.outliers[1].key_index, 1u);  // |150−100| = 50.
  // Entry 2 equals the mode: not an outlier.
}

TEST(KOutliersFromRecoveryTest, EmptyRecovery) {
  cs::BompResult recovery;
  recovery.mode = 7.0;
  OutlierSet set = KOutliersFromRecovery(recovery, 5);
  EXPECT_TRUE(set.outliers.empty());
  EXPECT_EQ(set.mode, 7.0);
}

}  // namespace
}  // namespace csod::outlier
