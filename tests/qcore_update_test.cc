// Focused tests for core/qcore_update (Algorithm 4 building blocks) and a
// common/huffman round trip: pool-size invariants, miss-stratified
// resampling, fixed-seed determinism, and lossless code compression.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/huffman.h"
#include "core/continual.h"
#include "core/qcore_update.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"

namespace qcore {
namespace {

HarSpec TinySpec() {
  HarSpec spec = HarSpec::Usc();
  spec.num_classes = 4;
  spec.channels = 3;
  spec.length = 16;
  spec.train_per_class = 10;
  spec.test_per_class = 2;
  return spec;
}

TEST(QCoreUpdateTest, UpdatePoolBalancesQCoreAndBatch) {
  HarDomain d = MakeHarDomain(TinySpec(), 0);
  Rng rng(11);
  // Small QCore, larger batch: the QCore is replicated up to |batch|.
  Dataset qcore = d.train.Subset({0, 1, 2, 3, 4});
  Dataset batch = d.train.Subset({10, 11, 12, 13, 14, 15, 16, 17});
  Dataset pool = MakeUpdatePool(qcore, batch, &rng);
  EXPECT_EQ(pool.size(), 2 * batch.size());

  // Large QCore, small batch: the QCore is subsampled down to |batch|.
  std::vector<int> big(20);
  for (int i = 0; i < 20; ++i) big[static_cast<size_t>(i)] = i;
  Dataset big_qcore = d.train.Subset(big);
  Dataset small_batch = d.train.Subset({30, 31, 32});
  Dataset pool2 = MakeUpdatePool(big_qcore, small_batch, &rng);
  EXPECT_EQ(pool2.size(), 2 * small_batch.size());

  // Empty batch: the pool is the QCore unchanged.
  Dataset pool3 = MakeUpdatePool(qcore, Dataset(), &rng);
  EXPECT_EQ(pool3.size(), qcore.size());
}

TEST(QCoreUpdateTest, ResampleStratifiesByMissCounts) {
  HarDomain d = MakeHarDomain(TinySpec(), 0);
  std::vector<int> indices(40);
  for (int i = 0; i < 40; ++i) indices[static_cast<size_t>(i)] = i;
  Dataset pool = d.train.Subset(indices);

  // Two miss buckets of equal population: examples 0..19 never missed,
  // 20..39 missed 3 times. A miss-stratified resample of half the pool must
  // draw round(0.5 * 20) = 10 from each bucket — proportional allocation,
  // not uniform over the pool.
  std::vector<int> misses(40, 0);
  for (int i = 20; i < 40; ++i) misses[static_cast<size_t>(i)] = 3;
  Rng rng(17);
  Dataset resampled = ResampleQCore(pool, misses, 20, &rng);
  ASSERT_EQ(resampled.size(), 20);

  // Bucket membership is recoverable from the example tensors: compare
  // against the pool rows (labels alone are ambiguous).
  int from_clean = 0;
  for (int i = 0; i < resampled.size(); ++i) {
    for (int j = 0; j < pool.size(); ++j) {
      bool equal = true;
      for (int64_t k = 0; k < pool.Example(0).size() && equal; ++k) {
        equal = resampled.Example(i)[k] == pool.Example(j)[k];
      }
      if (equal) {
        if (j < 20) ++from_clean;
        break;
      }
    }
  }
  EXPECT_EQ(from_clean, 10);
}

TEST(QCoreUpdateTest, ResampleTopsUpWhenPoolIsSmall) {
  HarDomain d = MakeHarDomain(TinySpec(), 0);
  Dataset pool = d.train.Subset({0, 1, 2, 3});
  std::vector<int> misses = {0, 1, 2, 3};
  Rng rng(23);
  Dataset resampled = ResampleQCore(pool, misses, 9, &rng);
  EXPECT_EQ(resampled.size(), 9);  // whole pool kept + uniform duplicates
}

TEST(QCoreUpdateTest, FixedSeedIsDeterministic) {
  HarDomain d = MakeHarDomain(TinySpec(), 0);
  std::vector<int> indices(30);
  for (int i = 0; i < 30; ++i) indices[static_cast<size_t>(i)] = i;
  Dataset pool = d.train.Subset(indices);
  std::vector<int> misses(30);
  for (int i = 0; i < 30; ++i) misses[static_cast<size_t>(i)] = i % 4;

  auto run = [&]() {
    Rng rng(4242);
    Dataset r = ResampleQCore(pool, misses, 12, &rng);
    return r.labels();
  };
  EXPECT_EQ(run(), run());

  auto pool_run = [&](uint64_t seed) {
    Rng rng(seed);
    Dataset qcore = d.train.Subset({0, 1, 2});
    Dataset batch = d.train.Subset({5, 6, 7, 8, 9});
    return MakeUpdatePool(qcore, batch, &rng).labels();
  };
  EXPECT_EQ(pool_run(9), pool_run(9));
}

TEST(QCoreUpdateTest, CountReplacedIsAMultisetDiff) {
  // Rows a, a, b in the old QCore. The new one holds a twice (both kept),
  // b under another label (new) and an unseen row c (new).
  Dataset before(Tensor::FromVector({3, 2}, {1, 2, 1, 2, 3, 4}), {0, 0, 1},
                 2);
  Dataset after(Tensor::FromVector({4, 2}, {1, 2, 3, 4, 1, 2, 5, 6}),
                {0, 0, 0, 1}, 2);
  EXPECT_EQ(CountReplaced(before, after), 2);
  EXPECT_EQ(CountReplaced(before, before), 0);
  // A third copy of a has no old counterpart left to match.
  Dataset three_a(Tensor::FromVector({3, 2}, {1, 2, 1, 2, 1, 2}), {0, 0, 0},
                  2);
  EXPECT_EQ(CountReplaced(before, three_a), 1);
}

// Independent count for the driver test: greedy pairwise matching of
// (row bytes, label), each old example used at most once.
int ReplacedByPairing(const Dataset& before, const Dataset& after) {
  const int64_t row = before.x().size() / before.size();
  std::vector<bool> used(static_cast<size_t>(before.size()), false);
  int replaced = 0;
  for (int i = 0; i < after.size(); ++i) {
    bool matched = false;
    for (int j = 0; j < before.size() && !matched; ++j) {
      matched = !used[static_cast<size_t>(j)] &&
                after.labels()[static_cast<size_t>(i)] ==
                    before.labels()[static_cast<size_t>(j)] &&
                std::memcmp(after.x().data() + i * row,
                            before.x().data() + j * row,
                            static_cast<size_t>(row) * sizeof(float)) == 0;
      if (matched) used[static_cast<size_t>(j)] = true;
    }
    if (!matched) ++replaced;
  }
  return replaced;
}

TEST(QCoreUpdateTest, DriverReportsExamplesTheResampleReplaced) {
  const HarSpec spec = TinySpec();
  HarDomain source = MakeHarDomain(spec, 0);
  HarDomain target = MakeHarDomain(spec, 1);
  Rng rng(31);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  QuantizedModel qm(*model, 4);
  ContinualOptions opts;
  opts.use_bitflip = false;  // the resample alone decides the churn
  const Dataset qcore0 = source.train.Subset({0, 5, 10, 15, 20, 25, 30, 35});
  ContinualDriver driver(&qm, nullptr, qcore0, opts, &rng);
  int below_size = 0;
  for (const Dataset& batch : SplitIntoStreamBatches(target.train, 4, &rng)) {
    const Dataset before = driver.qcore();
    const BatchStats stats = driver.ProcessBatch(batch, Dataset());
    EXPECT_EQ(stats.qcore_changed, ReplacedByPairing(before, driver.qcore()));
    if (stats.qcore_changed < driver.qcore().size()) ++below_size;
  }
  // The miss-stratified resample keeps some old examples: the count is
  // not simply the QCore size.
  EXPECT_GT(below_size, 0);
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  // A quantized-code-like stream: skewed distribution over a small alphabet,
  // including negative symbols.
  Rng rng(99);
  std::vector<int32_t> symbols;
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.NextDouble();
    if (u < 0.6) {
      symbols.push_back(0);
    } else if (u < 0.85) {
      symbols.push_back(rng.NextBool(0.5) ? 1 : -1);
    } else {
      symbols.push_back(rng.NextInt(-7, 7));
    }
  }
  auto encoded = HuffmanCoder::Encode(symbols);
  ASSERT_TRUE(encoded.ok());
  auto decoded = HuffmanCoder::Decode(encoded.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), symbols);

  // Compression beats the 4-bit fixed-width baseline on this skew and never
  // beats entropy.
  const double entropy = HuffmanCoder::EntropyBits(symbols);
  EXPECT_GE(static_cast<double>(encoded.value().PayloadBits()) + 1e-9,
            entropy);
  EXPECT_LT(encoded.value().PayloadBits(), 4ULL * symbols.size());
}

TEST(HuffmanTest, SingleSymbolAlphabetRoundTrip) {
  std::vector<int32_t> symbols(257, 5);
  auto encoded = HuffmanCoder::Encode(symbols);
  ASSERT_TRUE(encoded.ok());
  auto decoded = HuffmanCoder::Decode(encoded.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), symbols);
}

}  // namespace
}  // namespace qcore
