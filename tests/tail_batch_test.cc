// Regression tests for the tail-batch rule (ISSUE satellite): a final
// partial batch with a single row is skipped (BatchNorm needs >= 2
// samples for a batch variance), a tail of two or more rows is trained,
// and TrainingMetrics.examples reports the rows actually consumed.

#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.h"
#include "core/table_gan.h"
#include "data/table.h"

namespace tablegan {
namespace {

data::Table MakeRows(int64_t n) {
  data::Schema schema;
  data::ColumnSpec a;
  a.name = "x";
  a.type = data::ColumnType::kContinuous;
  schema.AddColumn(a);
  data::ColumnSpec b;
  b.name = "label";
  b.type = data::ColumnType::kDiscrete;
  b.role = data::ColumnRole::kLabel;
  schema.AddColumn(b);
  data::Table t(schema);
  for (int64_t r = 0; r < n; ++r) {
    t.AppendRow({0.1 * static_cast<double>(r),
                 static_cast<double>(r % 2)});
  }
  return t;
}

// Trains `epochs` epochs with batch_size 16 on `n` rows and returns the
// examples count the metrics callback reported, which must be the same
// for every epoch.
int64_t TrainedExamples(int64_t n, int epochs = 1) {
  core::TableGanOptions opt;
  opt.latent_dim = 4;
  opt.base_channels = 4;
  opt.epochs = epochs;
  opt.batch_size = 16;
  opt.num_threads = 1;
  std::vector<TrainingMetrics> seen;
  opt.metrics_callback = [&](const TrainingMetrics& m) {
    seen.push_back(m);
  };
  core::TableGan gan(opt);
  EXPECT_TRUE(gan.Fit(MakeRows(n), 1).ok()) << "n = " << n;
  EXPECT_EQ(seen.size(), static_cast<size_t>(epochs)) << "n = " << n;
  if (seen.empty()) return -1;
  for (size_t e = 0; e < seen.size(); ++e) {
    EXPECT_EQ(seen[e].epoch, static_cast<int64_t>(e) + 1);
    EXPECT_EQ(seen[e].total_epochs, epochs);
    EXPECT_EQ(seen[e].examples, seen[0].examples) << "epoch " << e + 1;
  }
  return seen[0].examples;
}

TEST(TailBatchTest, OneRowTailIsSkipped) {
  // 33 = 16 + 16 + 1: the single-row tail cannot be batch-normalized
  // and must be dropped, so only 32 examples train.
  EXPECT_EQ(TrainedExamples(33), 32);
}

TEST(TailBatchTest, TwoRowTailIsTrained) {
  // 34 = 16 + 16 + 2: a two-row tail is a valid batch.
  EXPECT_EQ(TrainedExamples(34), 34);
}

TEST(TailBatchTest, TailIsTrainedInEveryEpoch) {
  // 70 = 4 * 16 + 6: the tail trains again after the reshuffle.
  EXPECT_EQ(TrainedExamples(70, /*epochs=*/2), 70);
}

TEST(TailBatchTest, ExactMultipleTrainsEverything) {
  EXPECT_EQ(TrainedExamples(32), 32);
}

TEST(TailBatchTest, SubBatchTableTrainsAllRowsWhenAtLeastTwo) {
  // Fewer rows than one batch: the whole table is the (only) batch.
  EXPECT_EQ(TrainedExamples(5), 5);
}

}  // namespace
}  // namespace tablegan
