// Tests for the QCore core: Algorithm 1 (builder), Algorithm 2/3 (bit-flip
// network), Algorithm 4 (QCore update), and the continual driver. Uses small
// synthetic problems to keep runtimes in seconds.
#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/bitflip.h"
#include "core/continual.h"
#include "core/pipeline.h"
#include "core/qcore_builder.h"
#include "core/qcore_update.h"
#include "data/har_generator.h"
#include "data/image_generator.h"
#include "models/model_zoo.h"
#include "nn/batchnorm.h"
#include "nn/loss.h"
#include "nn/training.h"
#include "quant/ste_calibrator.h"
#include "tensor/kernels.h"

namespace qcore {
namespace {

HarSpec SmallSpec() {
  HarSpec spec = HarSpec::Usc();
  spec.num_classes = 6;
  spec.channels = 4;
  spec.length = 32;
  spec.train_per_class = 10;
  spec.test_per_class = 5;
  return spec;
}

struct Fixture {
  HarSpec spec;
  HarDomain source;
  HarDomain target;
  std::unique_ptr<Sequential> model;
  Rng rng{4242};

  Fixture() : spec(SmallSpec()) {
    source = MakeHarDomain(spec, 0);
    target = MakeHarDomain(spec, 1);
    model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  }
};

QCoreBuildOptions SmallBuildOptions() {
  QCoreBuildOptions opts;
  opts.size = 18;
  opts.train.epochs = 16;
  opts.train.batch_size = 32;
  opts.train.sgd.lr = 0.03f;
  return opts;
}

TEST(QCoreBuilderTest, BuildsSubsetOfRequestedSize) {
  Fixture f;
  QCoreBuildResult res =
      BuildQCore(f.model.get(), f.source.train, SmallBuildOptions(), &f.rng);
  EXPECT_EQ(static_cast<int>(res.indices.size()), 18);
  EXPECT_EQ(res.qcore.size(), 18);
  EXPECT_EQ(res.combined_misses.size(),
            static_cast<size_t>(f.source.train.size()));
  // Per-level misses recorded for every proxy level plus full precision.
  EXPECT_EQ(res.per_level_misses.size(), 4u);  // {2, 4, 8, 32}
  EXPECT_TRUE(res.per_level_misses.count(32));
  // The FP model must have learned the source domain while building (the
  // synthetic task deliberately has boundary cases, so well below 1.0).
  EXPECT_GT(EvaluateAccuracy(f.model.get(), f.source.test.x(),
                             f.source.test.labels()),
            0.6f);
}

TEST(QCoreBuilderTest, LowerBitProxiesMissMore) {
  Fixture f;
  QCoreBuildResult res =
      BuildQCore(f.model.get(), f.source.train, SmallBuildOptions(), &f.rng);
  auto total = [&](int bits) {
    int64_t sum = 0;
    for (int m : res.per_level_misses.at(bits)) sum += m;
    return sum;
  };
  // 2-bit proxies are more unstable than 8-bit ones and the full-precision
  // model (paper Fig. 8). 4-bit vs 32-bit can tie on a fixture this small,
  // so only the extreme comparison is asserted.
  EXPECT_GE(total(2), total(8));
  EXPECT_GE(total(2), total(32));
}

TEST(QCoreBuilderTest, StrategiesProduceValidSubsets) {
  Fixture f;
  for (SubsetStrategy strategy :
       {SubsetStrategy::kCombined, SubsetStrategy::kSingleLevel,
        SubsetStrategy::kFullPrecision, SubsetStrategy::kRandom}) {
    auto model = MakeOmniScaleCnn(f.spec.channels, f.spec.num_classes, &f.rng);
    QCoreBuildOptions opts = SmallBuildOptions();
    opts.strategy = strategy;
    opts.single_level_index = 1;  // 4-bit
    QCoreBuildResult res =
        BuildQCore(model.get(), f.source.train, opts, &f.rng);
    EXPECT_EQ(res.qcore.size(), opts.size);
  }
}

TEST(QCoreBuilderTest, InfoLossSmallForStratifiedSampling) {
  Fixture f;
  QCoreBuildResult res =
      BuildQCore(f.model.get(), f.source.train, SmallBuildOptions(), &f.rng);
  EXPECT_LE(res.info_loss, 1.0);
}

struct CalibratedFixture : Fixture {
  QCoreBuildResult build;
  std::unique_ptr<QuantizedModel> qm;
  std::unique_ptr<BitFlipNet> bf;

  explicit CalibratedFixture(int bits = 4) {
    build = BuildQCore(model.get(), source.train, SmallBuildOptions(), &rng);
    qm = std::make_unique<QuantizedModel>(*model, bits);
    BitFlipTrainOptions bfopt;
    bfopt.ste.epochs = 15;
    bfopt.ste.batch_size = 16;
    bfopt.augment_episodes = 2;
    bf = std::make_unique<BitFlipNet>(
        TrainBitFlipNet(qm.get(), build.qcore, bfopt, &rng));
    qm->DropShadows();
  }
};

TEST(BitFlipTest, FeatureMatrixShape) {
  CalibratedFixture f;
  SetBatchNormFrozen(f.qm->model(), true);
  (void)f.qm->model()->Forward(f.build.qcore.x(), /*training=*/true);
  for (int t = 0; t < f.qm->num_quantized(); ++t) {
    Tensor features = ComputeBitFlipFeatures(f.qm->quantized(t), nullptr);
    EXPECT_EQ(features.dim(0),
              static_cast<int64_t>(f.qm->quantized(t).codes.size()));
    EXPECT_EQ(features.dim(1), kBitFlipFeatureDim);
  }
}

TEST(BitFlipTest, NetLearnsSyntheticRule) {
  // Rule: label = sign of the first feature, mapped to {0, 1, 2}.
  Rng rng(7);
  const int n = 3000;
  Tensor features({n, kBitFlipFeatureDim});
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kBitFlipFeatureDim; ++j) {
      features.at(i, j) = static_cast<float>(rng.NextGaussian());
    }
    const float v = features.at(i, 0);
    labels[static_cast<size_t>(i)] = v < -0.4f ? 0 : (v > 0.4f ? 2 : 1);
  }
  BitFlipNet bf(8, &rng);
  TrainOptions topt;
  topt.epochs = 20;
  topt.batch_size = 64;
  topt.sgd.lr = 0.05f;
  bf.Train(features, labels, topt, &rng);
  std::vector<int> deltas;
  std::vector<float> conf;
  bf.Predict(features, &deltas, &conf);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    if (deltas[static_cast<size_t>(i)] + 1 == labels[static_cast<size_t>(i)]) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<float>(correct) / n, 0.8f);
}

TEST(BitFlipTest, QuantizedNetStillPredicts) {
  Rng rng(8);
  BitFlipNet bf(4, &rng);
  Tensor features = Tensor::Randn({100, kBitFlipFeatureDim}, &rng);
  std::vector<int> labels(100, 1);
  TrainOptions topt;
  topt.epochs = 3;
  bf.Train(features, labels, topt, &rng);
  EXPECT_FALSE(bf.is_quantized());
  bf.Quantize();
  EXPECT_TRUE(bf.is_quantized());
  std::vector<int> deltas;
  std::vector<float> conf;
  bf.Predict(features, &deltas, &conf);
  EXPECT_EQ(deltas.size(), 100u);
  for (float c : conf) {
    EXPECT_GE(c, 0.0f);
    EXPECT_LE(c, 1.0f);
  }
  for (int d : deltas) {
    EXPECT_GE(d, -1);
    EXPECT_LE(d, 1);
  }
}

TEST(BitFlipTest, NetIsTiny) {
  Rng rng(9);
  BitFlipNet bf(4, &rng);
  EXPECT_LT(bf.ParamCount(), 200);
}

TEST(BitFlipTest, CalibrateNeverIncreasesPoolLoss) {
  CalibratedFixture f;
  Dataset pool = MakeUpdatePool(f.build.qcore,
                                SplitIntoStreamBatches(f.target.train, 10,
                                                       &f.rng)[0],
                                &f.rng);
  SoftmaxCrossEntropy ce;
  Tensor logits0 = f.qm->model()->Forward(pool.x(), false);
  const float loss_before = ce.Forward(logits0, pool.labels());
  BitFlipCalibrateOptions copt;
  copt.iterations = 3;
  copt.trial_rows = 0;  // full-pool validation => monotone by construction
  BitFlipCalibrate(f.qm.get(), f.bf.get(), pool.x(), pool.labels(), copt,
                   &f.rng);
  Tensor logits1 = f.qm->model()->Forward(pool.x(), false);
  const float loss_after = ce.Forward(logits1, pool.labels());
  EXPECT_LE(loss_after, loss_before + 1e-5f);
}

TEST(BitFlipTest, CalibrationAdaptsToShiftedDomain) {
  CalibratedFixture f;
  Dataset pool = MakeUpdatePool(f.build.qcore, f.target.train.Subset([&] {
    std::vector<int> idx;
    for (int i = 0; i < 30; ++i) idx.push_back(i);
    return idx;
  }()),
                                &f.rng);
  const float before = EvaluateAccuracy(f.qm->model(), f.target.test.x(),
                                        f.target.test.labels());
  BitFlipCalibrateOptions copt;
  copt.iterations = 6;
  BitFlipCalibrate(f.qm.get(), f.bf.get(), pool.x(), pool.labels(), copt,
                   &f.rng);
  const float after = EvaluateAccuracy(f.qm->model(), f.target.test.x(),
                                       f.target.test.labels());
  EXPECT_GT(after, before);
}

TEST(QCoreUpdateTest, PoolScalesQCoreUpToBatch) {
  Rng rng(10);
  Tensor x = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Dataset qcore(std::move(x), {0, 1}, 2);
  Tensor bx({10, 2});
  Dataset batch(std::move(bx), std::vector<int>(10, 0), 2);
  Dataset pool = MakeUpdatePool(qcore, batch, &rng);
  EXPECT_EQ(pool.size(), 20);  // 10 replicated + 10 stream
}

TEST(QCoreUpdateTest, PoolSubsamplesLargeQCoreToBatch) {
  Rng rng(12);
  Tensor x({40, 2});
  Dataset qcore(std::move(x), std::vector<int>(40, 0), 2);
  Tensor bx({10, 2});
  Dataset batch(std::move(bx), std::vector<int>(10, 1), 2);
  Dataset pool = MakeUpdatePool(qcore, batch, &rng);
  EXPECT_EQ(pool.size(), 20);  // balanced: 10 sampled + 10 stream
}

TEST(QCoreUpdateTest, ResampleLargerThanPoolDuplicates) {
  Rng rng(13);
  Tensor x({10, 2});
  Dataset pool(std::move(x), std::vector<int>(10, 0), 2);
  std::vector<int> misses(10, 1);
  Dataset big = ResampleQCore(pool, misses, 25, &rng);
  EXPECT_EQ(big.size(), 25);
}

TEST(QCoreUpdateTest, ResampleKeepsSize) {
  Rng rng(11);
  Tensor x({40, 3});
  Dataset pool(std::move(x), std::vector<int>(40, 0), 2);
  std::vector<int> misses(40, 0);
  for (int i = 0; i < 10; ++i) misses[static_cast<size_t>(i)] = 2;
  Dataset next = ResampleQCore(pool, misses, 8, &rng);
  EXPECT_EQ(next.size(), 8);
}

TEST(QCoreUpdateTest, StandaloneUpdateRuns) {
  CalibratedFixture f;
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  QCoreUpdateOptions opts;
  Dataset updated = UpdateQCore(f.qm.get(), f.build.qcore, batch, opts,
                                &f.rng);
  EXPECT_EQ(updated.size(), f.build.qcore.size());
}

TEST(ContinualDriverTest, NoBfKeepsModelFrozen) {
  CalibratedFixture f;
  ContinualOptions opts;
  opts.use_bitflip = false;
  const std::vector<int32_t> codes_before = f.qm->quantized(0).codes;
  ContinualDriver driver(f.qm.get(), nullptr, f.build.qcore, opts, &f.rng);
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  Dataset slice = SplitIntoStreamBatches(f.target.test, 10, &f.rng)[0];
  driver.ProcessBatch(batch, slice);
  EXPECT_EQ(f.qm->quantized(0).codes, codes_before);
}

TEST(ContinualDriverTest, NoUpdateKeepsQCoreContents) {
  CalibratedFixture f;
  ContinualOptions opts;
  opts.use_qcore_update = false;
  ContinualDriver driver(f.qm.get(), f.bf.get(), f.build.qcore, opts,
                         &f.rng);
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  driver.ProcessBatch(batch, Dataset());
  EXPECT_EQ(driver.qcore().size(), f.build.qcore.size());
  for (int64_t i = 0; i < f.build.qcore.x().size(); ++i) {
    EXPECT_FLOAT_EQ(driver.qcore().x()[i], f.build.qcore.x()[i]);
  }
}

TEST(ContinualDriverTest, UpdateAbsorbsStreamExamples) {
  CalibratedFixture f;
  ContinualOptions opts;
  ContinualDriver driver(f.qm.get(), f.bf.get(), f.build.qcore, opts,
                         &f.rng);
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  driver.ProcessBatch(batch, Dataset());
  EXPECT_EQ(driver.qcore().size(), f.build.qcore.size());
  // At least one stream example should have entered the QCore: check that
  // some row of the new QCore does not appear in the original.
  bool any_new = false;
  const int64_t row = f.build.qcore.x().size() / f.build.qcore.size();
  for (int i = 0; i < driver.qcore().size() && !any_new; ++i) {
    bool found = false;
    for (int j = 0; j < f.build.qcore.size() && !found; ++j) {
      bool equal = true;
      for (int64_t e = 0; e < row && equal; ++e) {
        equal = driver.qcore().x()[i * row + e] ==
                f.build.qcore.x()[j * row + e];
      }
      found = equal;
    }
    any_new = !found;
  }
  EXPECT_TRUE(any_new);
}

// A session's model must not carry the calibration forward's activation
// caches between batches: ProcessBatch and BitFlipCalibrate release them.
TEST(ContinualDriverTest, CalibrationReleasesTrainingCaches) {
  CalibratedFixture f;
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  Layer* model = f.qm->model();
  auto leaves_holding_input = [model] {
    int holding = 0;
    for (Layer* leaf : FlattenLeafLayers(model)) {
      holding += leaf->cached_input() != nullptr ? 1 : 0;
    }
    return holding;
  };
  auto fill_caches = [&] {
    SetBatchNormFrozen(model, true);
    (void)model->Forward(batch.x(), /*training=*/true);
    SetBatchNormFrozen(model, false);
  };

  fill_caches();
  ASSERT_GT(leaves_holding_input(), 0);
  ContinualDriver driver(f.qm.get(), f.bf.get(), f.build.qcore,
                         ContinualOptions(), &f.rng);
  driver.ProcessBatch(batch, Dataset());
  EXPECT_EQ(leaves_holding_input(), 0);

  fill_caches();
  ASSERT_GT(leaves_holding_input(), 0);
  BitFlipCalibrate(f.qm.get(), f.bf.get(), batch.x(), batch.labels(),
                   BitFlipCalibrateOptions(), &f.rng);
  EXPECT_EQ(leaves_holding_input(), 0);
}

TEST(ContinualDriverTest, RunStreamReportsPerBatchStats) {
  CalibratedFixture f;
  ContinualOptions opts;
  ContinualDriver driver(f.qm.get(), f.bf.get(), f.build.qcore, opts,
                         &f.rng);
  auto batches = SplitIntoStreamBatches(f.target.train, 5, &f.rng);
  auto slices = SplitIntoStreamBatches(f.target.test, 5, &f.rng);
  auto stats = driver.RunStream(batches, slices);
  ASSERT_EQ(stats.size(), 5u);
  for (const auto& s : stats) {
    EXPECT_GE(s.accuracy, 0.0f);
    EXPECT_LE(s.accuracy, 1.0f);
    EXPECT_GT(s.calibration_seconds, 0.0);
  }
  EXPECT_GE(AverageAccuracy(stats), 0.0f);
}

// Golden digests of the continual loop on every zoo model at 2, 4 and 8
// bits: the code tables, the per-step test loss and accuracy, and the Rng
// state after a few ContinualDriver steps. They pin the calibration
// trajectory bit for bit, so a change to how proposals are validated (or
// to any kernel underneath) that alters a single accept/reject decision
// shows up here.
//
// kernels::Gemm accumulates with fused multiply-add in its AVX2/AVX-512
// clones and with separate multiply and add on the portable path
// (sanitizer and clang builds, hosts without FMA). The two round
// differently, so every case has one digest per path.
struct GoldenCase {
  const char* model;
  int bits;
  uint32_t fused;
  uint32_t unfused;
};

bool GemmFusesMultiplyAdd() {
  const float a = 1.0f + 0x1p-12f;  // a * a needs 25 significant bits
  float c = -1.0f;
  kernels::Gemm(1, 1, 1, &a, 1, /*trans_a=*/false, &a, 1, /*trans_b=*/false,
                &c, 1);
  return c != 0x1p-11f;
}

uint32_t RunGoldenCase(const std::string& model_name, int bits) {
  Rng rng(1000 + static_cast<uint64_t>(bits));
  Dataset train, test, stream;
  std::unique_ptr<Sequential> model;
  if (model_name == "InceptionTime" || model_name == "OmniScaleCNN") {
    HarSpec spec = SmallSpec();
    spec.train_per_class = 8;
    spec.test_per_class = 4;
    HarDomain source = MakeHarDomain(spec, 0);
    HarDomain target = MakeHarDomain(spec, 1);
    train = source.train;
    test = target.test;
    stream = target.train;
    model = MakeTimeSeriesModel(model_name, spec.channels, spec.num_classes,
                                &rng);
  } else {
    ImageSpec spec = ImageSpec::Caltech10();
    spec.num_classes = 4;
    spec.height = 8;
    spec.width = 8;
    spec.train_per_class = 12;
    spec.test_per_class = 4;
    ImageDomain source = MakeImageDomain(spec, 0);
    ImageDomain target = MakeImageDomain(spec, 1);
    train = source.train;
    test = target.test;
    stream = target.train;
    model = MakeImageModel(model_name, spec.channels, spec.height, spec.width,
                           spec.num_classes, &rng);
  }
  TrainOptions topt;
  topt.epochs = 3;
  topt.batch_size = 16;
  topt.sgd.lr = 0.03f;
  TrainClassifier(model.get(), train.x(), train.labels(), topt, &rng);

  std::vector<int> qcore_rows;
  for (int i = 0; i < 16; ++i) qcore_rows.push_back(i * train.size() / 16);
  const Dataset qcore = train.Subset(qcore_rows);
  QuantizedModel qm(*model, bits);
  BitFlipTrainOptions bfopt;
  bfopt.ste.epochs = 2;
  bfopt.ste.batch_size = 8;
  bfopt.augment_episodes = 1;
  bfopt.bf_train.epochs = 4;
  BitFlipNet bf = TrainBitFlipNet(&qm, qcore, bfopt, &rng);
  qm.DropShadows();

  ContinualOptions copt;
  copt.bf.trial_rows = 24;  // exercise the per-round row subsample
  ContinualDriver driver(&qm, &bf, qcore, copt, &rng);
  const std::vector<std::vector<int32_t>> deployed = qm.AllCodes();
  uint32_t digest = 0;
  SoftmaxCrossEntropy ce;
  for (const Dataset& batch : SplitIntoStreamBatches(stream, 3, &rng)) {
    const BatchStats stats = driver.ProcessBatch(batch, test);
    const float loss = ce.Forward(qm.Forward(test.x()), test.labels());
    digest = Crc32(&loss, sizeof(loss), digest);
    digest = Crc32(&stats.accuracy, sizeof(stats.accuracy), digest);
  }
  // A trajectory that never accepts a proposal would pin nothing.
  EXPECT_NE(qm.AllCodes(), deployed) << model_name << " at " << bits;
  for (const std::vector<int32_t>& codes : qm.AllCodes()) {
    digest = Crc32(codes.data(), codes.size() * sizeof(int32_t), digest);
  }
  const uint64_t rng_state = rng.NextUint64();
  return Crc32(&rng_state, sizeof(rng_state), digest);
}

TEST(ContinualGoldenTest, ZooModelsMatchGoldenDigests) {
  const GoldenCase kCases[] = {
      {"OmniScaleCNN", 2, 123767645u, 123767645u},
      {"OmniScaleCNN", 4, 942042646u, 1441292858u},
      {"OmniScaleCNN", 8, 408490275u, 2919957847u},
      {"InceptionTime", 2, 2788187072u, 3835072464u},
      {"InceptionTime", 4, 3267362965u, 741494121u},
      {"InceptionTime", 8, 172269617u, 3837193677u},
      {"ResNet18", 2, 2200809331u, 2200809331u},
      {"ResNet18", 4, 944632836u, 2456040858u},
      {"ResNet18", 8, 1923455837u, 4147766861u},
      {"VGG16", 2, 2950715572u, 1955998162u},
      {"VGG16", 4, 243247103u, 178767029u},
      {"VGG16", 8, 1933132864u, 3371682825u},
  };
  const bool fused = GemmFusesMultiplyAdd();
  for (const GoldenCase& c : kCases) {
    EXPECT_EQ(RunGoldenCase(c.model, c.bits), fused ? c.fused : c.unfused)
        << c.model << " at " << c.bits << " bits, "
        << (fused ? "fused" : "unfused") << " GEMM";
  }
}

TEST(PipelineTest, EndToEndImprovesOverFrozenModel) {
  // Full pipeline vs the NoBF/NoUpda-style frozen deployment.
  HarSpec spec = SmallSpec();
  HarDomain source = MakeHarDomain(spec, 0);
  HarDomain target = MakeHarDomain(spec, 2);

  PipelineOptions opts;
  opts.bits = 4;
  opts.build = SmallBuildOptions();
  opts.bf_train.ste.epochs = 15;
  opts.bf_train.ste.batch_size = 16;
  opts.bf_train.augment_episodes = 2;
  opts.stream_batches = 5;

  Rng rng(777);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  PipelineResult with_qcore =
      RunQCorePipeline(model.get(), source.train, source.test, target.train,
                       target.test, opts, &rng);

  Rng rng2(777);
  auto model2 = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng2);
  PipelineOptions frozen = opts;
  frozen.continual.use_bitflip = false;
  frozen.continual.use_qcore_update = false;
  PipelineResult without =
      RunQCorePipeline(model2.get(), source.train, source.test, target.train,
                       target.test, frozen, &rng2);

  EXPECT_GT(with_qcore.average_accuracy, without.average_accuracy);
  EXPECT_GT(with_qcore.post_calibration_source_accuracy, 0.7f);
}

}  // namespace
}  // namespace qcore
