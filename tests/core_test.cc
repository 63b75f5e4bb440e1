#include <gtest/gtest.h>

#include <cmath>

#include "core/chunked.h"
#include "core/info_loss.h"
#include "core/networks.h"
#include "core/table_gan.h"
#include "data/datasets.h"
#include "tensor/tensor_ops.h"

namespace tablegan {
namespace core {
namespace {

data::Table TinyTrainingTable(int64_t rows, uint64_t seed) {
  // Two clusters with a label that separates them; 6 attributes -> 4x4.
  data::Schema schema({
      {"q", data::ColumnType::kDiscrete,
       data::ColumnRole::kQuasiIdentifier, {}},
      {"a", data::ColumnType::kContinuous, data::ColumnRole::kSensitive, {}},
      {"b", data::ColumnType::kContinuous, data::ColumnRole::kSensitive, {}},
      {"c", data::ColumnType::kContinuous, data::ColumnRole::kSensitive, {}},
      {"d", data::ColumnType::kDiscrete, data::ColumnRole::kSensitive, {}},
      {"y", data::ColumnType::kDiscrete, data::ColumnRole::kLabel, {}},
  });
  data::Table t(schema);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    const bool pos = rng.NextBool(0.5);
    const double center = pos ? 3.0 : -3.0;
    t.AppendRow({static_cast<double>(rng.UniformInt(0, 9)),
                 rng.Gaussian(center, 0.5), rng.Gaussian(center, 0.5),
                 rng.Gaussian(-center, 0.5),
                 static_cast<double>(rng.UniformInt(0, 4)),
                 pos ? 1.0 : 0.0});
  }
  return t;
}

TableGanOptions FastOptions() {
  TableGanOptions o;
  o.base_channels = 8;
  o.epochs = 4;
  o.batch_size = 32;
  o.latent_dim = 16;
  return o;
}

TEST(NetworksTest, NumStages) {
  EXPECT_EQ(NumStages(4), 1);
  EXPECT_EQ(NumStages(8), 2);
  EXPECT_EQ(NumStages(16), 3);
}

TEST(NetworksTest, DiscriminatorShapes) {
  Rng rng(1);
  for (int side : {4, 8, 16}) {
    TwoPartNet d = BuildDiscriminator(side, 8, &rng);
    Tensor x = Tensor::Uniform({3, 1, side, side}, -1, 1, &rng);
    Tensor feat = d.features->Forward(x, true);
    EXPECT_EQ(feat.shape(), (std::vector<int64_t>{3, d.feature_dim}));
    Tensor logits = d.head->Forward(feat, true);
    EXPECT_EQ(logits.shape(), (std::vector<int64_t>{3, 1}));
  }
}

TEST(NetworksTest, GeneratorShapes) {
  Rng rng(2);
  for (int side : {4, 8, 16}) {
    auto g = BuildGenerator(side, 25, 8, &rng);
    Tensor z = Tensor::Uniform({5, 25}, -1, 1, &rng);
    Tensor out = g->Forward(z, true);
    EXPECT_EQ(out.shape(), (std::vector<int64_t>{5, 1, side, side}));
    // Tanh output range.
    EXPECT_GE(ops::Min(out), -1.0f);
    EXPECT_LE(ops::Max(out), 1.0f);
  }
}

TEST(InfoLossTest, ZeroWhenDistributionsMatch) {
  InfoLossState state(4, 0.99f, 0.0f, 0.0f);
  Rng rng(3);
  Tensor features = Tensor::Uniform({32, 4}, -1, 1, &rng);
  state.UpdateStatistics(features, features);
  EXPECT_NEAR(state.Loss(), 0.0f, 1e-5f);
  Tensor grad = state.GradFakeFeatures();
  EXPECT_NEAR(ops::Norm2(grad), 0.0f, 1e-5f);
}

TEST(InfoLossTest, HingeSuppressesSmallDiscrepancies) {
  Rng rng(4);
  Tensor real = Tensor::Uniform({32, 4}, -0.1f, 0.1f, &rng);
  Tensor fake = Tensor::Uniform({32, 4}, -0.1f, 0.1f, &rng);
  InfoLossState tight(4, 0.99f, 0.0f, 0.0f);
  tight.UpdateStatistics(real, fake);
  InfoLossState loose(4, 0.99f, 5.0f, 5.0f);
  loose.UpdateStatistics(real, fake);
  EXPECT_GT(tight.Loss(), 0.0f);
  EXPECT_EQ(loose.Loss(), 0.0f);
  EXPECT_NEAR(ops::Norm2(loose.GradFakeFeatures()), 0.0f, 1e-7f);
}

TEST(InfoLossTest, GradientMatchesFiniteDifference) {
  // Freshly-seeded state (first batch): loss depends on the fake batch
  // through its mean and sd with weight 1.
  Rng rng(5);
  Tensor real = Tensor::Uniform({8, 3}, 0.5f, 1.5f, &rng);
  Tensor fake = Tensor::Uniform({8, 3}, -1.5f, -0.5f, &rng);
  InfoLossState state(3, 0.99f, 0.0f, 0.0f);
  state.UpdateStatistics(real, fake);
  Tensor grad = state.GradFakeFeatures();
  const double eps = 1e-2;
  for (int64_t i = 0; i < fake.size(); ++i) {
    auto loss_at = [&](float v) {
      Tensor perturbed = fake;
      perturbed[i] = v;
      InfoLossState s(3, 0.99f, 0.0f, 0.0f);
      s.UpdateStatistics(real, perturbed);
      return static_cast<double>(s.Loss());
    };
    const double numeric =
        (loss_at(fake[i] + static_cast<float>(eps)) -
         loss_at(fake[i] - static_cast<float>(eps))) /
        (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 2e-2) << "index " << i;
  }
}

TEST(InfoLossTest, EwmaSmoothsAcrossBatches) {
  Rng rng(6);
  InfoLossState state(2, 0.9f, 0.0f, 0.0f);
  Tensor real = Tensor::Full({16, 2}, 1.0f);
  Tensor fake = Tensor::Full({16, 2}, -1.0f);
  state.UpdateStatistics(real, fake);
  const float first = state.l_mean();
  for (int i = 0; i < 20; ++i) state.UpdateStatistics(real, fake);
  // Constant streams keep the gap stable.
  EXPECT_NEAR(state.l_mean(), first, 1e-4f);
  // Relative gap: ||(1,1)-(-1,-1)|| / ||(1,1)|| = 2*sqrt2 / sqrt2 = 2.
  EXPECT_NEAR(first, 2.0f, 1e-3f);
}

TEST(TableGanTest, FitRejectsBadInputs) {
  TableGan gan(FastOptions());
  data::Table tiny = TinyTrainingTable(2, 1);
  EXPECT_FALSE(gan.Fit(tiny, 5).ok());  // too few rows
  data::Table t = TinyTrainingTable(64, 1);
  EXPECT_FALSE(gan.Fit(t, 99).ok());  // bad label col
  EXPECT_FALSE(gan.Sample(10).ok());  // sample before fit
}

TEST(TableGanTest, FitRejectsSideThatIsNotAPowerOfTwo) {
  TableGanOptions o = FastOptions();
  o.side = 6;  // 36 cells hold the 6 attributes, but the pyramid needs 2^k
  TableGan gan(o);
  const Status st = gan.Fit(TinyTrainingTable(64, 1), 5);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("power of two"), std::string::npos)
      << st.message();
  EXPECT_FALSE(gan.fitted());
}

TEST(TableGanTest, FailedRefitLeavesTheModelUnfitted) {
  Rng rng(5);
  data::Table adult = data::MakeAdultLike(64, &rng);
  data::Table lacity = data::MakeLaCityLike(64, &rng);
  TableGanOptions o = FastOptions();
  o.epochs = 1;
  o.side = 4;
  TableGan gan(o);
  ASSERT_TRUE(
      gan.Fit(adult,
              adult.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0])
          .ok());
  ASSERT_TRUE(gan.fitted());

  // 24 attributes do not fit a 4x4 record matrix: the re-Fit must fail
  // before it touches the model, and the model must stop claiming to be
  // fitted rather than serve a half-replaced state.
  const Status st = gan.Fit(
      lacity, lacity.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0]);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("side too small"), std::string::npos)
      << st.message();
  EXPECT_FALSE(gan.fitted());
  EXPECT_EQ(gan.Sample(4).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(gan.Save(::testing::TempDir() + "/refit.tgan").code(),
            StatusCode::kFailedPrecondition);
  // The schema was never replaced: the old model's shape is intact.
  EXPECT_EQ(gan.side(), 4);
  EXPECT_EQ(gan.label_col(),
            adult.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0]);
}

TEST(TableGanTest, TrainsAndSamplesWithSchema) {
  data::Table t = TinyTrainingTable(256, 2);
  TableGan gan(FastOptions());
  ASSERT_TRUE(gan.Fit(t, 5).ok());
  EXPECT_TRUE(gan.fitted());
  EXPECT_EQ(gan.side(), 4);
  auto sample = gan.Sample(100);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_EQ(sample->num_rows(), 100);
  ASSERT_TRUE(sample->schema().Equals(t.schema()));
  // Values respect fitted ranges and discrete columns are integral.
  for (int64_t r = 0; r < sample->num_rows(); ++r) {
    const double q = sample->Get(r, 0);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 9.0);
    EXPECT_EQ(q, std::floor(q));
    const double y = sample->Get(r, 5);
    EXPECT_TRUE(y == 0.0 || y == 1.0);
  }
}

TEST(TableGanTest, HistoryTracksEpochs) {
  data::Table t = TinyTrainingTable(128, 3);
  TableGanOptions o = FastOptions();
  o.epochs = 3;
  TableGan gan(o);
  ASSERT_TRUE(gan.Fit(t, 5).ok());
  EXPECT_EQ(gan.history().size(), 3u);
  for (const EpochStats& s : gan.history()) {
    EXPECT_TRUE(std::isfinite(s.d_loss));
    EXPECT_TRUE(std::isfinite(s.g_orig_loss));
    EXPECT_TRUE(std::isfinite(s.info_loss));
    EXPECT_TRUE(std::isfinite(s.class_loss));
  }
}

TEST(TableGanTest, DcganBaselineSkipsExtraLosses) {
  data::Table t = TinyTrainingTable(128, 4);
  TableGanOptions o = FastOptions();
  o.use_info_loss = false;
  o.use_classifier = false;
  o.epochs = 2;
  TableGan gan(o);
  ASSERT_TRUE(gan.Fit(t, 5).ok());
  for (const EpochStats& s : gan.history()) {
    EXPECT_EQ(s.info_loss, 0.0f);
    EXPECT_EQ(s.class_loss, 0.0f);
  }
  EXPECT_TRUE(gan.Sample(16).ok());
}

TEST(TableGanTest, DiscriminatorScoresAreProbabilities) {
  data::Table t = TinyTrainingTable(128, 5);
  TableGan gan(FastOptions());
  ASSERT_TRUE(gan.Fit(t, 5).ok());
  auto scores = gan.DiscriminatorScores(t);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), static_cast<size_t>(t.num_rows()));
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(TableGanTest, LearnsBimodalStructure) {
  // After training, the synthetic marginal of column "a" should span
  // both modes rather than collapse to the middle.
  data::Table t = TinyTrainingTable(512, 6);
  TableGanOptions o = FastOptions();
  o.epochs = 30;
  TableGan gan(o);
  ASSERT_TRUE(gan.Fit(t, 5).ok());
  auto sample = gan.Sample(256);
  ASSERT_TRUE(sample.ok());
  int lo = 0, hi = 0;
  for (int64_t r = 0; r < sample->num_rows(); ++r) {
    const double a = sample->Get(r, 1);
    if (a < -1.0) ++lo;
    if (a > 1.0) ++hi;
  }
  // Both modes represented (not mode-collapsed onto one side or center).
  EXPECT_GT(lo + hi, 64);
  EXPECT_GT(lo, 5);
  EXPECT_GT(hi, 5);
}

TEST(ChunkedTest, TrainsPerChunkAndMerges) {
  data::Table t = TinyTrainingTable(256, 7);
  ChunkedSynthesisOptions o;
  o.gan = FastOptions();
  o.gan.epochs = 2;
  o.num_chunks = 3;
  o.num_threads = 2;
  auto synth = ChunkedTrainAndSynthesize(t, 5, 90, o);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  EXPECT_EQ(synth->num_rows(), 90);
  EXPECT_TRUE(synth->schema().Equals(t.schema()));
}

TEST(ChunkedTest, SingleChunkMatchesDirectPath) {
  data::Table t = TinyTrainingTable(128, 8);
  ChunkedSynthesisOptions o;
  o.gan = FastOptions();
  o.gan.epochs = 2;
  o.num_chunks = 1;
  o.num_threads = 1;
  auto synth = ChunkedTrainAndSynthesize(t, 5, 40, o);
  ASSERT_TRUE(synth.ok());
  EXPECT_EQ(synth->num_rows(), 40);
}

TEST(OptionsTest, NamedPrivacySettings) {
  EXPECT_EQ(TableGanOptions::LowPrivacy().delta_mean, 0.0f);
  EXPECT_EQ(TableGanOptions::MidPrivacy().delta_mean, 0.35f);
  EXPECT_EQ(TableGanOptions::HighPrivacy().delta_sd, 0.5f);
  EXPECT_FALSE(TableGanOptions::DcganBaseline().use_info_loss);
  EXPECT_FALSE(TableGanOptions::DcganBaseline().use_classifier);
}

}  // namespace
}  // namespace core
}  // namespace tablegan
