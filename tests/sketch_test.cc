#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dist/cs_protocol.h"
#include "outlier/metrics.h"
#include "sketch/count_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/sketch_protocols.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::sketch {
namespace {

TEST(CountSketchTest, UnbiasedOnSignedData) {
  // Mean estimate over many independent sketches approaches the truth.
  const uint64_t kTarget = 7;
  double total = 0.0;
  const int kRuns = 60;
  for (int run = 0; run < kRuns; ++run) {
    auto sketch = CountSketch::Create(32, 5, 100 + run).MoveValue();
    Rng rng(run);
    sketch.Update(kTarget, 25.0);
    for (int i = 0; i < 200; ++i) {
      sketch.Update(rng.NextBounded(1000) + 10, rng.NextGaussian() * 5.0);
    }
    total += sketch.Estimate(kTarget);
  }
  EXPECT_NEAR(total / kRuns, 25.0, 5.0);
}

TEST(CountSketchTest, HandlesNegativeValues) {
  auto sketch = CountSketch::Create(2048, 5, 11).MoveValue();
  sketch.Update(1, -500.0);
  sketch.Update(2, 300.0);
  EXPECT_NEAR(sketch.Estimate(1), -500.0, 1e-9);
  EXPECT_NEAR(sketch.Estimate(2), 300.0, 1e-9);
}

TEST(CountSketchTest, MergeEqualsCombinedStream) {
  auto a = CountSketch::Create(256, 5, 9).MoveValue();
  auto b = CountSketch::Create(256, 5, 9).MoveValue();
  auto combined = CountSketch::Create(256, 5, 9).MoveValue();
  Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = rng.NextBounded(100);
    const double delta = rng.NextGaussian();
    if (i % 2 == 0) {
      a.Update(key, delta);
    } else {
      b.Update(key, delta);
    }
    combined.Update(key, delta);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_NEAR(a.Estimate(key), combined.Estimate(key), 1e-9);
  }
}

TEST(HyperLogLogTest, CreateValidates) {
  EXPECT_FALSE(HyperLogLog::Create(3).ok());
  EXPECT_FALSE(HyperLogLog::Create(17).ok());
  EXPECT_TRUE(HyperLogLog::Create(12).ok());
}

TEST(HyperLogLogTest, EmptyEstimatesZero) {
  auto hll = HyperLogLog::Create(10).MoveValue();
  EXPECT_NEAR(hll.Estimate(), 0.0, 1e-9);
}

TEST(HyperLogLogTest, AddIsIdempotentPerKey) {
  auto hll = HyperLogLog::Create(10).MoveValue();
  for (int rep = 0; rep < 5; ++rep) {
    for (uint64_t key = 0; key < 100; ++key) hll.Add(key);
  }
  EXPECT_NEAR(hll.Estimate(), 100.0, 10.0);
}

TEST(HyperLogLogTest, AccuracyAcrossCardinalities) {
  for (uint64_t cardinality : {100u, 1000u, 50000u}) {
    auto hll = HyperLogLog::Create(12).MoveValue();
    for (uint64_t key = 0; key < cardinality; ++key) {
      hll.Add(key * 2654435761u + 7);
    }
    // 2^12 registers: ~1.6% standard error; allow 6%.
    EXPECT_NEAR(hll.Estimate(), static_cast<double>(cardinality),
                0.06 * cardinality)
        << "cardinality " << cardinality;
  }
}

TEST(HyperLogLogTest, MergeEqualsUnion) {
  auto a = HyperLogLog::Create(12, 5).MoveValue();
  auto b = HyperLogLog::Create(12, 5).MoveValue();
  auto combined = HyperLogLog::Create(12, 5).MoveValue();
  for (uint64_t key = 0; key < 3000; ++key) {
    (key % 2 ? a : b).Add(key);
    combined.Add(key);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), combined.Estimate());
}

TEST(HyperLogLogTest, MergeRejectsIncompatible) {
  auto a = HyperLogLog::Create(10, 1).MoveValue();
  auto b = HyperLogLog::Create(11, 1).MoveValue();
  auto c = HyperLogLog::Create(10, 2).MoveValue();
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.Merge(c).ok());
}

TEST(HyperLogLogTest, EstimatesWorkloadSparsity) {
  // The library use case: estimate the number of active keys (F0) from
  // per-node sketches to size M before running the CS protocol.
  workload::MajorityDominatedOptions gen;
  gen.n = 4000;
  gen.sparsity = 100;
  gen.seed = 3;
  auto global = workload::GenerateMajorityDominated(gen).MoveValue();

  workload::PartitionOptions part;
  part.num_nodes = 5;
  part.strategy = workload::PartitionStrategy::kByKey;
  part.seed = 4;
  auto slices = workload::PartitionAdditive(global, part).MoveValue();

  auto merged = HyperLogLog::Create(12, 9).MoveValue();
  for (const auto& slice : slices) {
    auto local = HyperLogLog::Create(12, 9).MoveValue();
    for (size_t idx : slice.indices) local.Add(idx);
    ASSERT_TRUE(merged.Merge(local).ok());
  }
  // All 4000 keys are non-zero here; the estimate must see them all.
  EXPECT_NEAR(merged.Estimate(), 4000.0, 0.06 * 4000.0);
}

// The headline comparison (Section 7.2 discussion): at equal communication
// budgets, the CS protocol recovers mode-dominated outliers exactly while
// the CountSketch estimates drown in the mode's energy.
TEST(SketchProtocolTest, CsBeatsCountSketchOnModeDominatedData) {
  const size_t n = 2000;
  const size_t k = 5;
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = 20;
  gen.mode = 5000.0;
  gen.min_divergence = 2000.0;
  gen.max_divergence = 20000.0;
  gen.seed = 13;
  auto global = workload::GenerateMajorityDominated(gen).MoveValue();
  const auto truth = outlier::ExactKOutliers(global, k);

  workload::PartitionOptions part;
  part.num_nodes = 8;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = 14;
  auto slices = workload::PartitionAdditive(global, part).MoveValue();
  dist::Cluster cluster(n);
  for (auto& slice : slices) {
    ASSERT_TRUE(cluster.AddNode(std::move(slice)).ok());
  }

  // Equal budget: 300 tuples of 8 bytes per node.
  dist::CsProtocolOptions cs_options;
  cs_options.m = 300;
  cs_options.seed = 5;
  cs_options.iterations = 30;
  dist::CsOutlierProtocol cs_protocol(cs_options);
  dist::CommStats cs_comm;
  auto cs_result = cs_protocol.Run(cluster, k, &cs_comm).MoveValue();

  CountSketchProtocolOptions sk_options;
  sk_options.width = 60;
  sk_options.depth = 5;  // 300 counters.
  sk_options.seed = 5;
  CountSketchOutlierProtocol sk_protocol(sk_options);
  dist::CommStats sk_comm;
  auto sk_result = sk_protocol.Run(cluster, k, &sk_comm).MoveValue();

  EXPECT_EQ(cs_comm.bytes_total(), sk_comm.bytes_total());
  const double cs_ek = outlier::ErrorOnKey(truth, cs_result);
  const double sk_ek = outlier::ErrorOnKey(truth, sk_result);
  EXPECT_EQ(cs_ek, 0.0);
  EXPECT_GT(sk_ek, 0.3);  // CountSketch noise ~ b*sqrt(N/width) >> outliers.
}

TEST(SketchProtocolTest, CountSketchTopKFindsHeavyHitters) {
  // On zero-mode data with towering heavy hitters, CountSketch top-k works
  // — the regime it was designed for.
  const size_t n = 3000;
  std::vector<double> global(n, 0.0);
  global[10] = 100000.0;
  global[200] = 80000.0;
  global[2999] = 60000.0;
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    if (global[i] == 0.0) global[i] = rng.NextDouble() * 10.0;
  }

  workload::PartitionOptions part;
  part.num_nodes = 4;
  part.strategy = workload::PartitionStrategy::kUniformSplit;
  part.seed = 4;
  auto slices = workload::PartitionAdditive(global, part).MoveValue();
  dist::Cluster cluster(n);
  for (auto& slice : slices) {
    ASSERT_TRUE(cluster.AddNode(std::move(slice)).ok());
  }

  CountSketchProtocolOptions options;
  options.width = 256;
  options.depth = 5;
  options.seed = 8;
  dist::CommStats comm;
  auto result = RunCountSketchTopK(cluster, 3, options, &comm).MoveValue();
  ASSERT_EQ(result.top.size(), 3u);
  EXPECT_EQ(result.top[0].key_index, 10u);
  EXPECT_EQ(result.top[1].key_index, 200u);
  EXPECT_EQ(result.top[2].key_index, 2999u);
}

TEST(SketchProtocolTest, Validation) {
  dist::Cluster empty(10);
  CountSketchProtocolOptions options;
  options.width = 8;
  CountSketchOutlierProtocol protocol(options);
  dist::CommStats comm;
  EXPECT_FALSE(protocol.Run(empty, 3, &comm).ok());
  EXPECT_FALSE(protocol.Run(empty, 3, nullptr).ok());

  dist::Cluster cluster(10);
  ASSERT_TRUE(cluster.AddNode({}).ok());
  CountSketchProtocolOptions bad;
  bad.width = 0;
  CountSketchOutlierProtocol bad_protocol(bad);
  EXPECT_FALSE(bad_protocol.Run(cluster, 3, &comm).ok());
}

}  // namespace
}  // namespace csod::sketch
