#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>

#include "common/crc32.h"
#include "common/parallel.h"
#include "common/random.h"
#include "data/datasets.h"
#include "data/table_view.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/ml_data.h"
#include "ml/mlp.h"
#include "ml/model_zoo.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace ml {
namespace {

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, ConfusionCounts) {
  const std::vector<int> t{1, 1, 0, 0, 1};
  const std::vector<int> p{1, 0, 0, 1, 1};
  ConfusionCounts c = Confusion(t, p);
  EXPECT_EQ(c.tp, 2);
  EXPECT_EQ(c.fn, 1);
  EXPECT_EQ(c.tn, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_NEAR(Accuracy(t, p), 0.6, 1e-9);
}

TEST(MetricsTest, F1IsHarmonicMeanOfPrecisionRecall) {
  const std::vector<int> t{1, 1, 1, 0, 0, 0, 0, 0};
  const std::vector<int> p{1, 1, 0, 1, 0, 0, 0, 0};
  ConfusionCounts c = Confusion(t, p);
  const double prec = Precision(c);
  const double rec = Recall(c);
  EXPECT_NEAR(F1Score(t, p), 2 * prec * rec / (prec + rec), 1e-12);
}

TEST(MetricsTest, F1EdgeCases) {
  EXPECT_EQ(F1Score({0, 0}, {0, 0}), 0.0);          // no positives anywhere
  EXPECT_EQ(F1Score({1, 1}, {1, 1}), 1.0);          // perfect
  EXPECT_EQ(F1Score({1, 0}, {0, 1}), 0.0);          // all wrong
}

TEST(MetricsTest, AucPerfectAndRandomAndInverted) {
  const std::vector<int> y{0, 0, 1, 1};
  EXPECT_NEAR(AucRoc(y, {0.1, 0.2, 0.8, 0.9}), 1.0, 1e-12);
  EXPECT_NEAR(AucRoc(y, {0.9, 0.8, 0.2, 0.1}), 0.0, 1e-12);
  EXPECT_NEAR(AucRoc(y, {0.5, 0.5, 0.5, 0.5}), 0.5, 1e-12);  // all tied
  EXPECT_NEAR(AucRoc({1, 1}, {0.3, 0.7}), 0.5, 1e-12);  // one class only
}

TEST(MetricsTest, AucHandlesTiesWithMidranks) {
  // Positives: {0.5, 0.9}; negatives: {0.5, 0.1}.
  // Pairs: (0.5 vs 0.5)=0.5, (0.5 vs 0.1)=1, (0.9 vs 0.5)=1, (0.9 vs 0.1)=1.
  EXPECT_NEAR(AucRoc({1, 0, 1, 0}, {0.5, 0.5, 0.9, 0.1}), 3.5 / 4.0, 1e-12);
}

TEST(MetricsTest, RegressionErrors) {
  const std::vector<double> y{10, 20, 40};
  const std::vector<double> p{11, 18, 44};
  EXPECT_NEAR(MeanRelativeError(y, p), (0.1 + 0.1 + 0.1) / 3.0, 1e-12);
  EXPECT_NEAR(MeanAbsoluteError(y, p), (1 + 2 + 4) / 3.0, 1e-12);
  EXPECT_NEAR(RootMeanSquaredError(y, p),
              std::sqrt((1.0 + 4.0 + 16.0) / 3.0), 1e-12);
}

// ------------------------------------------------------------------ data

TEST(MlDataTest, TableConversionDropsTargetAndExtras) {
  data::Schema s({
      {"a", data::ColumnType::kContinuous, data::ColumnRole::kSensitive, {}},
      {"b", data::ColumnType::kContinuous, data::ColumnRole::kSensitive, {}},
      {"y", data::ColumnType::kDiscrete, data::ColumnRole::kLabel, {}},
  });
  data::Table t(s);
  t.AppendRow({1, 2, 0});
  t.AppendRow({3, 4, 1});
  auto d = TableToMlData(t, 2, {0});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_features(), 1);
  EXPECT_EQ(d->x[1][0], 4.0);
  EXPECT_EQ(d->y[1], 1.0);
  EXPECT_FALSE(TableToMlData(t, 9).ok());
}

TEST(MlDataTest, StandardScalerNormalizes) {
  MlData d;
  d.x = {{1, 100}, {3, 300}, {5, 500}};
  d.y = {0, 0, 0};
  StandardScaler scaler;
  scaler.Fit(d);
  MlData s = scaler.TransformAll(d);
  EXPECT_NEAR(s.x[1][0], 0.0, 1e-9);
  EXPECT_NEAR(s.x[0][1] + s.x[2][1], 0.0, 1e-9);
  EXPECT_NEAR(s.x[2][0], std::sqrt(1.5), 1e-6);
}

// A linearly separable blob problem.
MlData BlobData(int64_t n, uint64_t seed, double gap = 2.0) {
  Rng rng(seed);
  MlData d;
  for (int64_t i = 0; i < n; ++i) {
    const bool pos = rng.NextBool(0.5);
    const double cx = pos ? gap : -gap;
    d.x.push_back({rng.Gaussian(cx, 1.0), rng.Gaussian(-cx, 1.0),
                   rng.Uniform(-1, 1)});
    d.y.push_back(pos ? 1.0 : 0.0);
  }
  return d;
}

std::vector<int> TrueLabels(const MlData& d) {
  std::vector<int> out;
  for (double y : d.y) out.push_back(y > 0.5 ? 1 : 0);
  return out;
}

template <typename Model>
double FitAndScore(Model* model, uint64_t seed) {
  MlData train = BlobData(400, seed);
  MlData test = BlobData(200, seed + 1);
  EXPECT_TRUE(model->Fit(train).ok());
  return F1Score(TrueLabels(test), model->PredictAll(test));
}

TEST(DecisionTreeTest, LearnsSeparableBlobs) {
  DecisionTreeClassifier tree;
  EXPECT_GT(FitAndScore(&tree, 1), 0.9);
}

TEST(DecisionTreeTest, LearnsXorWithDepth) {
  // XOR needs depth >= 2; a stump cannot express it.
  MlData d;
  Rng rng(2);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    d.x.push_back({a, b});
    d.y.push_back((a > 0) != (b > 0) ? 1.0 : 0.0);
  }
  TreeOptions stump_opts;
  stump_opts.max_depth = 1;
  DecisionTreeClassifier stump(stump_opts);
  ASSERT_TRUE(stump.Fit(d).ok());
  TreeOptions deep_opts;
  deep_opts.max_depth = 4;
  DecisionTreeClassifier deep(deep_opts);
  ASSERT_TRUE(deep.Fit(d).ok());
  const std::vector<int> truth = TrueLabels(d);
  EXPECT_LT(Accuracy(truth, stump.PredictAll(d)), 0.75);
  EXPECT_GT(Accuracy(truth, deep.PredictAll(d)), 0.95);
}

TEST(DecisionTreeTest, RespectsMaxDepthLeafPurity) {
  TreeOptions o;
  o.max_depth = 0;  // root is a leaf -> predicts the prior
  DecisionTreeClassifier tree(o);
  MlData d = BlobData(100, 3);
  ASSERT_TRUE(tree.Fit(d).ok());
  double prior = 0.0;
  for (double y : d.y) prior += y;
  prior /= static_cast<double>(d.y.size());
  EXPECT_NEAR(tree.PredictProba(d.x[0]), prior, 1e-9);
}

TEST(DecisionTreeTest, WeightedFitFocusesOnHeavySamples) {
  // Two conflicting points; weight decides the leaf value.
  MlData d;
  d.x = {{0.0}, {0.0}};
  d.y = {0.0, 1.0};
  DecisionTreeClassifier tree;
  std::vector<double> w{0.9, 0.1};
  ASSERT_TRUE(tree.FitWeighted(d, w).ok());
  EXPECT_LT(tree.PredictProba({0.0}), 0.2);
}

TEST(DecisionTreeRegressorTest, FitsPiecewiseConstant) {
  MlData d;
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(-1, 1);
    d.x.push_back({x});
    d.y.push_back(x > 0.0 ? 5.0 : -5.0);
  }
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(d).ok());
  EXPECT_NEAR(tree.Predict({0.5}), 5.0, 0.5);
  EXPECT_NEAR(tree.Predict({-0.5}), -5.0, 0.5);
}

TEST(RandomForestTest, BeatsChanceOnBlobs) {
  RandomForestClassifier forest;
  EXPECT_GT(FitAndScore(&forest, 5), 0.9);
}

TEST(AdaBoostTest, BoostsStumpsAboveSingleStump) {
  MlData d;
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    d.x.push_back({a, b});
    d.y.push_back((a + b > 0) ? 1.0 : 0.0);  // diagonal boundary
  }
  TreeOptions stump_opts;
  stump_opts.max_depth = 1;
  DecisionTreeClassifier stump(stump_opts);
  ASSERT_TRUE(stump.Fit(d).ok());
  AdaBoostClassifier boost;
  ASSERT_TRUE(boost.Fit(d).ok());
  const std::vector<int> truth = TrueLabels(d);
  EXPECT_GT(Accuracy(truth, boost.PredictAll(d)),
            Accuracy(truth, stump.PredictAll(d)) + 0.05);
}

TEST(MlpTest, LearnsBlobs) {
  MlpOptions o;
  o.epochs = 20;
  MlpClassifier mlp(o);
  EXPECT_GT(FitAndScore(&mlp, 7), 0.9);
}

// PredictProba runs the const Sequential::Infer, which writes no layer
// state, so threads may predict on one model at once. The batched
// PredictProbaAll gives the per-row bits.
TEST(MlpTest, ConcurrentPredictionsMatchSerial) {
  MlpOptions o;
  o.hidden_sizes = {16, 8};
  o.epochs = 3;
  MlpClassifier mlp(o);
  ASSERT_TRUE(mlp.Fit(BlobData(200, 21)).ok());
  const MlData test = BlobData(96, 22);
  std::vector<double> serial;
  for (const auto& row : test.x) serial.push_back(mlp.PredictProba(row));
  EXPECT_EQ(mlp.PredictProbaAll(test), serial);

  std::vector<std::vector<double>> rowwise(4), batched(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        rowwise[t].clear();
        for (const auto& row : test.x) {
          rowwise[t].push_back(mlp.PredictProba(row));
        }
        batched[t] = mlp.PredictProbaAll(test);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(rowwise[t], serial) << "thread " << t;
    EXPECT_EQ(batched[t], serial) << "thread " << t;
  }
}

TEST(SvmTest, LearnsBlobsAndExposesMargin) {
  LinearSvmClassifier svm;
  EXPECT_GT(FitAndScore(&svm, 8), 0.9);
  MlData d = BlobData(10, 9);
  const double margin = svm.DecisionFunction(d.x[0]);
  const double proba = svm.PredictProba(d.x[0]);
  EXPECT_EQ(proba > 0.5, margin > 0.0);
}

// ------------------------------------------------------------- regressors

MlData LinearData(int64_t n, uint64_t seed, double noise = 0.1) {
  Rng rng(seed);
  MlData d;
  for (int64_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-2, 2);
    const double b = rng.Uniform(-2, 2);
    const double c = rng.Uniform(-2, 2);
    d.x.push_back({a, b, c});
    d.y.push_back(3.0 * a - 2.0 * b + 0.5 + rng.Gaussian(0, noise));
  }
  return d;
}

class RegressorRecoveryTest : public ::testing::TestWithParam<const char*> {
 public:
  std::unique_ptr<Regressor> Make() const {
    const std::string name = GetParam();
    if (name == "linear") return std::make_unique<LinearRegression>();
    if (name == "lasso") return std::make_unique<LassoRegression>(0.01);
    if (name == "pa") {
      return std::make_unique<PassiveAggressiveRegressor>(1.0, 0.05, 20);
    }
    return std::make_unique<HuberRegressor>(1.35, 0.2, 500);
  }
};

TEST_P(RegressorRecoveryTest, RecoversLinearFunction) {
  auto model = Make();
  MlData train = LinearData(500, 10);
  MlData test = LinearData(100, 11);
  ASSERT_TRUE(model->Fit(train).ok());
  const std::vector<double> pred = model->PredictAll(test);
  EXPECT_LT(MeanAbsoluteError(test.y, pred), 0.5);
}

INSTANTIATE_TEST_SUITE_P(All, RegressorRecoveryTest,
                         ::testing::Values("linear", "lasso", "pa",
                                           "huber"));

TEST(LinearRegressionTest, ExactOnNoiselessData) {
  LinearRegression model;
  MlData d = LinearData(200, 12, /*noise=*/0.0);
  ASSERT_TRUE(model.Fit(d).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(model.Predict(d.x[static_cast<size_t>(i)]),
                d.y[static_cast<size_t>(i)], 1e-3);
  }
}

TEST(LassoTest, StrongPenaltyZeroesIrrelevantCoefficients) {
  // Target depends only on x0; with a noticeable alpha the prediction
  // should ignore x1 almost entirely.
  Rng rng(13);
  MlData d;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    d.x.push_back({a, b});
    d.y.push_back(4.0 * a + rng.Gaussian(0, 0.05));
  }
  LassoRegression lasso(0.5);
  ASSERT_TRUE(lasso.Fit(d).ok());
  const double base = lasso.Predict({0.0, 0.0});
  EXPECT_NEAR(lasso.Predict({0.0, 0.9}), base, 0.1);
  EXPECT_GT(lasso.Predict({0.9, 0.0}), base + 1.0);
}

TEST(HuberTest, RobustToOutliers) {
  Rng rng(14);
  MlData d;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.Uniform(-1, 1);
    double y = 2.0 * a;
    if (i % 20 == 0) y += 50.0;  // gross outliers
    d.x.push_back({a});
    d.y.push_back(y);
  }
  HuberRegressor huber(1.0, 0.2, 800);
  ASSERT_TRUE(huber.Fit(d).ok());
  LinearRegression ols;
  ASSERT_TRUE(ols.Fit(d).ok());
  // Slope recovered by Huber should be closer to 2 than OLS's.
  const double huber_slope = huber.Predict({1.0}) - huber.Predict({0.0});
  const double ols_slope = ols.Predict({1.0}) - ols.Predict({0.0});
  EXPECT_LT(std::fabs(huber_slope - 2.0), std::fabs(ols_slope - 2.0) + 0.2);
  const double huber_bias = huber.Predict({0.0});
  const double ols_bias = ols.Predict({0.0});
  EXPECT_LT(std::fabs(huber_bias), std::fabs(ols_bias));
}

// ------------------------------------------------------------- model zoo

TEST(ModelZooTest, GridSizesMatchPaperProtocol) {
  EXPECT_EQ(ModelCompatibilityClassifiers().size(), 40u);
  EXPECT_EQ(ModelCompatibilityRegressors().size(), 40u);
  EXPECT_EQ(MembershipAttackClassifiers().size(), 5u);
}

TEST(ModelZooTest, SpecsProduceWorkingModels) {
  MlData train = BlobData(150, 15);
  // One spec per family to keep runtime bounded.
  const auto classifiers = ModelCompatibilityClassifiers();
  for (size_t i : {size_t{0}, size_t{10}, size_t{20}, size_t{30}}) {
    auto model = classifiers[i].make();
    ASSERT_TRUE(model->Fit(train).ok()) << classifiers[i].name;
    const double p = model->PredictProba(train.x[0]);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  MlData lin = LinearData(150, 16);
  const auto regressors = ModelCompatibilityRegressors();
  for (size_t i : {size_t{0}, size_t{10}, size_t{20}, size_t{30}}) {
    auto model = regressors[i].make();
    ASSERT_TRUE(model->Fit(lin).ok()) << regressors[i].name;
    EXPECT_TRUE(std::isfinite(model->Predict(lin.x[0])));
  }
}

TEST(ModelZooTest, SpecNamesAreUnique) {
  std::set<std::string> names;
  for (const auto& s : ModelCompatibilityClassifiers()) names.insert(s.name);
  for (const auto& s : ModelCompatibilityRegressors()) names.insert(s.name);
  EXPECT_EQ(names.size(), 80u);
}

// CRC-32 over the held-out probabilities of every compatibility-grid
// spec, each fit on the same Adult-like split (the label's source column
// dropped, as the paper's protocol does).
uint32_t CompatGridCrc() {
  constexpr int64_t kTrain = 384, kTest = 128;
  Rng rng(2018);
  const data::Table all = data::MakeAdultLike(kTrain + kTest, &rng);
  const int label =
      all.schema().ColumnsWithRole(data::ColumnRole::kLabel).at(0);
  const std::vector<int> drop = {*all.schema().FindColumn("hours_per_week")};
  const MlData train = *TableToMlData(
      data::TableRangeView(all, 0, kTrain).Materialize(), label, drop);
  const MlData test = *TableToMlData(
      data::TableRangeView(all, kTrain, kTest).Materialize(), label, drop);
  uint32_t crc = 0;
  for (const ClassifierSpec& spec : ModelCompatibilityClassifiers()) {
    std::unique_ptr<Classifier> model = spec.make();
    EXPECT_TRUE(model->Fit(train).ok()) << spec.name;
    const std::vector<double> proba = model->PredictProbaAll(test);
    crc = Crc32(proba.data(), proba.size() * sizeof(double), crc);
  }
  return crc;
}

// The grid's predictions are pinned: speeding up the tree, forest,
// AdaBoost or MLP fits, or the GEMM kernels under the MLP, must keep
// every bit. The strict avx2 backend matches scalar bit for bit, and
// every fit is thread-count invariant, so one literal holds for all four
// runs.
TEST(ModelZooTest, CompatGridPredictionsArePinned) {
  constexpr uint32_t kGridCrc = 0xcca559e5u;  // taken before the speed-ups
  std::vector<const kernels::Backend*> backends = {&kernels::Scalar()};
  if (const kernels::Backend* avx2 = kernels::Avx2(/*fma=*/false)) {
    backends.push_back(avx2);
  }
  for (const kernels::Backend* backend : backends) {
    kernels::OverrideBackend(backend);
    for (int threads : {1, 4}) {
      ScopedNumThreads scope(threads);
      EXPECT_EQ(CompatGridCrc(), kGridCrc)
          << backend->name << " at " << threads << " threads";
    }
  }
  kernels::OverrideBackend(nullptr);
}

}  // namespace
}  // namespace ml
}  // namespace tablegan
