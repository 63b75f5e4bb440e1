// Training-stability guardrail tests (DESIGN.md §15): DivergenceGuard
// unit semantics, strict-JSON validity of the telemetry stream under
// non-finite losses, and end-to-end divergence handling through Fit via
// the train.loss_nan failpoint — halt with a loadable last-good
// auto-checkpoint, and rollback-and-retry within the budget.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/table_gan.h"
#include "data/datasets.h"
#include "strict_json.h"

namespace tablegan {
namespace {

using testing_util::JsonValue;
using testing_util::ParseStrict;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------------
// DivergenceGuard unit semantics.

TEST(DivergenceGuardTest, NonFiniteNamesTheOffendingLoss) {
  DivergenceGuard guard(0.9, 50.0, 3);
  EXPECT_EQ(guard.Observe({{"d_loss", 1.0}, {"g_loss", 2.0}}), "");
  const std::string nan_anomaly =
      guard.Observe({{"d_loss", kNan}, {"g_loss", 2.0}});
  EXPECT_NE(nan_anomaly.find("non-finite"), std::string::npos);
  EXPECT_NE(nan_anomaly.find("d_loss"), std::string::npos);
  const std::string inf_anomaly =
      guard.Observe({{"d_loss", 1.0}, {"g_loss", -kInf}});
  EXPECT_NE(inf_anomaly.find("g_loss"), std::string::npos);
  // Non-finite detection is armed from the very first epoch, before any
  // baseline exists.
  DivergenceGuard fresh(0.9, 50.0, 3);
  EXPECT_NE(fresh.Observe({{"d_loss", kNan}}), "");
}

TEST(DivergenceGuardTest, PoisonedEpochsDoNotFoldIntoTheEwma) {
  DivergenceGuard guard(0.5, 10.0, 2);
  EXPECT_EQ(guard.Observe({{"loss", 1.0}}), "");
  EXPECT_EQ(guard.Observe({{"loss", 1.0}}), "");
  ASSERT_EQ(guard.observed_epochs(), 2);
  const double ewma_before = guard.ewma();
  // A NaN epoch and a runaway epoch both report an anomaly and leave
  // the statistics untouched, so a rolled-back run keeps judging
  // subsequent epochs against healthy history.
  EXPECT_NE(guard.Observe({{"loss", kNan}}), "");
  EXPECT_NE(guard.Observe({{"loss", 1e9}}), "");
  EXPECT_EQ(guard.ewma(), ewma_before);
  EXPECT_EQ(guard.observed_epochs(), 2);
  // A healthy epoch afterwards folds in normally again.
  EXPECT_EQ(guard.Observe({{"loss", 1.5}}), "");
  EXPECT_EQ(guard.observed_epochs(), 3);
}

TEST(DivergenceGuardTest, RunawayArmsOnlyAfterWarmup) {
  // During warmup even a 1e6x jump is folded into the baseline instead
  // of firing (only non-finite detection is armed there).
  DivergenceGuard guard(0.5, 10.0, 2);
  EXPECT_EQ(guard.Observe({{"loss", 1.0}}), "");
  EXPECT_EQ(guard.Observe({{"loss", 1e6}}), "");
  EXPECT_GT(guard.baseline(), 1.0);

  DivergenceGuard armed(0.5, 10.0, 2);
  EXPECT_EQ(armed.Observe({{"loss", 1.0}}), "");
  EXPECT_EQ(armed.Observe({{"loss", 1.0}}), "");
  const std::string anomaly = armed.Observe({{"loss", 1e6}});
  EXPECT_NE(anomaly.find("runaway"), std::string::npos);
  // The magnitude is the sum over terms; small per-term values whose
  // EWMA stays under factor x baseline keep passing.
  EXPECT_EQ(armed.Observe({{"loss", 2.0}}), "");
}

TEST(DivergenceGuardTest, RestoreRewindsTheStatistics) {
  DivergenceGuard guard(0.5, 10.0, 1);
  EXPECT_EQ(guard.Observe({{"loss", 1.0}}), "");
  const double ewma = guard.ewma();
  const double baseline = guard.baseline();
  const int64_t observed = guard.observed_epochs();
  EXPECT_EQ(guard.Observe({{"loss", 3.0}}), "");
  guard.Restore(ewma, baseline, observed);
  EXPECT_EQ(guard.ewma(), ewma);
  EXPECT_EQ(guard.baseline(), baseline);
  EXPECT_EQ(guard.observed_epochs(), observed);
}

// ------------------------------------------------------------------
// Telemetry stays strictly-valid JSON when losses go non-finite
// (satellite: the bare-`nan` token regression).

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(MetricsJsonTest, NonFiniteLossesSerializeAsNullWithAnomalyString) {
  const std::string path = ::testing::TempDir() + "/nonfinite_metrics.jsonl";
  {
    JsonlMetricsSink sink(path);
    ASSERT_TRUE(sink.status().ok());
    TrainingMetrics m;
    m.epoch = 1;
    m.total_epochs = 2;
    m.d_loss = kNan;
    m.g_loss = kInf;
    m.info_loss = -kInf;
    m.class_loss = 0.25;
    m.loss_ewma = kNan;
    m.anomaly = "non-finite d_loss";
    ASSERT_TRUE(sink.Record(m).ok());
    m.epoch = 2;
    m.d_loss = 1.5;
    m.g_loss = 0.5;
    m.info_loss = 0.0;
    m.loss_ewma = 2.0;
    m.anomaly.clear();
    ASSERT_TRUE(sink.Record(m).ok());
    TrainingEvent ev;
    ev.event = "diverged";
    ev.epoch = 1;
    ev.detail = "non-finite d_loss";
    ev.checkpoint_path = "/tmp/weird \"dir\"\n/last.tgan";
    ASSERT_TRUE(sink.RecordEvent(ev).ok());
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(ParseStrict(line).has_value())
        << "not strict JSON: " << line;
  }

  auto first = ParseStrict(lines[0]);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(first->Find("d_loss")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(first->Find("g_loss")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(first->Find("info_loss")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(first->Find("loss_ewma")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(first->Find("class_loss")->kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(first->Find("class_loss")->number_value, 0.25);
  ASSERT_EQ(first->Find("anomaly")->kind, JsonValue::Kind::kString);
  EXPECT_EQ(first->Find("anomaly")->string_value, "non-finite d_loss");

  auto second = ParseStrict(lines[1]);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->Find("d_loss")->kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(second->Find("anomaly")->kind, JsonValue::Kind::kNull);

  auto event = ParseStrict(lines[2]);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->Find("event")->string_value, "diverged");
  // The quote/newline in the path must round-trip through the escaping.
  EXPECT_EQ(event->Find("checkpoint")->string_value,
            "/tmp/weird \"dir\"\n/last.tgan");
  std::remove(path.c_str());
}

TEST(MetricsJsonTest, StrictParserRejectsTheOldBareTokens) {
  // What the pre-fix writers produced (std::ostream / std::fixed on a
  // non-finite double) must fail to parse — this is the reader the
  // regression is locked with, so prove it can see the bug.
  EXPECT_FALSE(ParseStrict("{\"d_loss\":nan}").has_value());
  EXPECT_FALSE(ParseStrict("{\"d_loss\":-nan}").has_value());
  EXPECT_FALSE(ParseStrict("{\"d_loss\":inf}").has_value());
  EXPECT_FALSE(ParseStrict("{\"rows\":1,}").has_value());
  EXPECT_FALSE(ParseStrict("{rows:1}").has_value());
  EXPECT_FALSE(ParseStrict("{\"rows\":1} trailing").has_value());
  EXPECT_TRUE(ParseStrict("{\"d_loss\":null,\"x\":[1,2.5e-3]}").has_value());
}

// ------------------------------------------------------------------
// End-to-end: Fit + train.loss_nan failpoint.

class GuardrailFitTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Reset(); }
  void TearDown() override {
    failpoint::Reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  core::TableGanOptions GuardOptions() {
    core::TableGanOptions o;
    o.base_channels = 8;
    o.epochs = 4;
    o.batch_size = 16;
    o.latent_dim = 8;
    o.seed = 1234;
    o.num_threads = 1;
    o.checkpoint_dir = dir_;
    return o;
  }

  data::Table SmallTable() {
    Rng rng(11);
    return data::MakeAdultLike(64, &rng);
  }

  std::string dir_ = ::testing::TempDir() + "/guardrail_fit";
};

TEST_F(GuardrailFitTest, InjectedNanHaltsWithLoadableAutoCheckpoint) {
  const std::string jsonl = dir_ + "/metrics.jsonl";
  std::filesystem::create_directories(dir_);
  data::Table table = SmallTable();
  const int label =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];

  failpoint::Scoped fp("train.loss_nan", "after(2)");  // epoch 3 diverges
  core::TableGanOptions options = GuardOptions();
  options.divergence_action = core::DivergenceAction::kHalt;
  JsonlMetricsSink sink(jsonl);
  ASSERT_TRUE(sink.status().ok());
  options.metrics_sink = &sink;

  core::TableGan gan(options);
  const Status fit = gan.Fit(table, label);
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.ToString().find("diverged"), std::string::npos);
  // The poisoned epoch is excluded from the history; the model holds
  // the last-good (epoch 2) state and still samples.
  EXPECT_EQ(gan.history().size(), 2u);
  for (const auto& e : gan.history()) {
    EXPECT_TRUE(std::isfinite(e.d_loss));
  }
  EXPECT_TRUE(gan.fitted());
  Result<data::Table> own = gan.Sample(8);
  ASSERT_TRUE(own.ok()) << own.status().ToString();

  // Every telemetry line — including the NaN epoch — is strict JSON,
  // and the stream carries a diverged event pointing at the
  // auto-checkpoint.
  const std::vector<std::string> lines = ReadLines(jsonl);
  ASSERT_GE(lines.size(), 4u);  // 3 epoch records + 1 event
  std::string checkpoint_path;
  bool saw_null_loss = false;
  for (const std::string& line : lines) {
    auto v = ParseStrict(line);
    ASSERT_TRUE(v.has_value()) << "not strict JSON: " << line;
    if (const JsonValue* ev = v->Find("event")) {
      EXPECT_EQ(ev->string_value, "diverged");
      ASSERT_NE(v->Find("checkpoint"), nullptr);
      checkpoint_path = v->Find("checkpoint")->string_value;
      EXPECT_NE(v->Find("detail")->string_value.find("d_loss"),
                std::string::npos);
    } else if (v->Find("d_loss")->kind == JsonValue::Kind::kNull) {
      saw_null_loss = true;
      EXPECT_EQ(v->Find("anomaly")->kind, JsonValue::Kind::kString);
    }
  }
  EXPECT_TRUE(saw_null_loss);
  ASSERT_FALSE(checkpoint_path.empty());
  EXPECT_EQ(checkpoint_path, dir_ + "/diverged-last-good.tgan");

  // The auto-checkpoint is a complete, loadable model of the last-good
  // epoch.
  Result<core::TableGan> loaded = core::TableGan::Load(checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<data::Table> sample = loaded->Sample(8);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_EQ(sample->num_rows(), 8);
}

// A halted model serves exactly the last-good state its error message
// promises: the same rows as the epoch-2 periodic checkpoint and as the
// auto-checkpoint, bit for bit. That also pins the snapshot restore.
TEST_F(GuardrailFitTest, HaltedModelSamplesTheLastGoodState) {
  data::Table table = SmallTable();
  const int label =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];

  failpoint::Scoped fp("train.loss_nan", "after(2)");  // epoch 3 diverges
  core::TableGanOptions options = GuardOptions();
  options.divergence_action = core::DivergenceAction::kHalt;
  options.checkpoint_every = 1;
  core::TableGan gan(options);
  const Status fit = gan.Fit(table, label);
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.ToString().find("diverged at epoch 3"), std::string::npos)
      << fit.ToString();
  ASSERT_TRUE(gan.fitted());

  const uint64_t seed = 424242;
  Result<data::Table> halted = gan.SampleRange(seed, 0, 64);
  ASSERT_TRUE(halted.ok()) << halted.status().ToString();
  for (const char* file : {"/ckpt-epoch-0002.tgan",
                           "/diverged-last-good.tgan"}) {
    Result<core::TableGan> loaded = core::TableGan::Load(dir_ + file);
    ASSERT_TRUE(loaded.ok()) << file << ": " << loaded.status().ToString();
    Result<data::Table> rows = loaded->SampleRange(seed, 0, 64);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->num_rows(), halted->num_rows());
    for (int64_t r = 0; r < rows->num_rows(); ++r) {
      for (int c = 0; c < rows->num_columns(); ++c) {
        ASSERT_EQ(std::bit_cast<uint64_t>(rows->Get(r, c)),
                  std::bit_cast<uint64_t>(halted->Get(r, c)))
            << file << " differs at (" << r << ", " << c << ")";
      }
    }
  }
}

TEST_F(GuardrailFitTest, RollbackRetriesTheEpochAndCompletes) {
  data::Table table = SmallTable();
  const int label =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];

  // Fires on the 4th epoch evaluation only; the retry (evaluation 5)
  // passes, so a 6-epoch run completes with one rollback.
  failpoint::Scoped fp("train.loss_nan", "every(4)");
  core::TableGanOptions options = GuardOptions();
  options.epochs = 6;
  options.divergence_action = core::DivergenceAction::kRollback;

  core::TableGan gan(options);
  const Status fit = gan.Fit(table, label);
  ASSERT_TRUE(fit.ok()) << fit.ToString();
  // All 6 epochs made it into the history (the poisoned attempt did
  // not), and the retry consumed exactly one failpoint trigger.
  EXPECT_EQ(gan.history().size(), 6u);
  EXPECT_EQ(failpoint::TriggerCount("train.loss_nan"), 1);
  EXPECT_TRUE(
      std::filesystem::exists(dir_ + "/diverged-last-good.tgan"));
  Result<data::Table> sample = gan.Sample(4);
  ASSERT_TRUE(sample.ok());

  // The epochs before the rollback match an undisturbed run; the retried
  // epoch does not, because the RNG stream is deliberately not rewound —
  // a retry draws a fresh batch order instead of replaying the one that
  // diverged.
  failpoint::Reset();
  core::TableGan undisturbed(options);
  ASSERT_TRUE(undisturbed.Fit(table, label).ok());
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(gan.history()[e].d_loss, undisturbed.history()[e].d_loss) << e;
  }
  EXPECT_NE(gan.history()[3].d_loss, undisturbed.history()[3].d_loss);
}

TEST_F(GuardrailFitTest, RollbackBudgetExhaustionHalts) {
  data::Table table = SmallTable();
  const int label =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];

  failpoint::Scoped fp("train.loss_nan", "always");
  core::TableGanOptions options = GuardOptions();
  options.divergence_action = core::DivergenceAction::kRollback;
  options.guard_max_rollbacks = 2;

  core::TableGan gan(options);
  const Status fit = gan.Fit(table, label);
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.ToString().find("diverged"), std::string::npos);
  // 1 initial attempt + 2 rollback retries, every one poisoned.
  EXPECT_EQ(failpoint::TriggerCount("train.loss_nan"), 3);
  EXPECT_TRUE(gan.history().empty());
}

TEST_F(GuardrailFitTest, GuardOffKeepsTrainingThroughNan) {
  data::Table table = SmallTable();
  const int label =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];

  failpoint::Scoped fp("train.loss_nan", "after(1)");
  core::TableGanOptions options = GuardOptions();
  options.checkpoint_dir.clear();
  options.divergence_action = core::DivergenceAction::kOff;

  core::TableGan gan(options);
  // Pre-guardrail behavior: the run keeps going and records the
  // poisoned losses verbatim.
  ASSERT_TRUE(gan.Fit(table, label).ok());
  ASSERT_EQ(gan.history().size(), 4u);
  EXPECT_TRUE(std::isnan(gan.history()[1].d_loss));
}

}  // namespace
}  // namespace tablegan
