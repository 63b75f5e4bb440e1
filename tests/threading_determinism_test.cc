// End-to-end determinism across thread counts: the same seed must produce
// identical training histories, byte-identical saved models and identical
// sampled tables whether the tensor substrate runs on 1 thread or 4. This
// is the system-level check of the bitwise-reproducibility contract in
// common/parallel.h.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/table_gan.h"
#include "data/datasets.h"

namespace tablegan {
namespace {

core::TableGanOptions SmallOptions() {
  core::TableGanOptions options;
  options.epochs = 2;
  options.batch_size = 32;
  options.base_channels = 8;
  options.latent_dim = 16;
  options.seed = 1234;
  return options;
}

struct RunResult {
  std::vector<core::EpochStats> history;
  std::string model_bytes;
  data::Table samples;
};

// The bytes Save writes: weights, BatchNorm running statistics and the
// sampling-stream counters.
std::string SavedModelBytes(const core::TableGan& gan, int num_threads) {
  const std::string path = ::testing::TempDir() + "/threads_" +
                           std::to_string(num_threads) + ".tgan";
  EXPECT_TRUE(gan.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

RunResult TrainAndSample(const data::Table& table, int label_col,
                         int num_threads) {
  core::TableGanOptions options = SmallOptions();
  options.num_threads = num_threads;
  core::TableGan gan(options);
  EXPECT_TRUE(gan.Fit(table, label_col).ok());
  std::string model_bytes = SavedModelBytes(gan, num_threads);
  Result<data::Table> samples = gan.Sample(64);
  EXPECT_TRUE(samples.ok());
  return RunResult{gan.history(), std::move(model_bytes),
                   std::move(samples).value()};
}

TEST(ThreadingDeterminismTest, FitAndSampleAreIdenticalAcrossThreadCounts) {
  Rng rng(7);
  data::Table table = data::MakeAdultLike(160, &rng);
  const std::vector<int> labels =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel);
  ASSERT_EQ(labels.size(), 1u);

  RunResult serial = TrainAndSample(table, labels[0], 1);
  RunResult threaded = TrainAndSample(table, labels[0], 4);
  SetNumThreads(0);

  ASSERT_EQ(serial.history.size(), threaded.history.size());
  for (size_t e = 0; e < serial.history.size(); ++e) {
    EXPECT_EQ(serial.history[e].d_loss, threaded.history[e].d_loss);
    EXPECT_EQ(serial.history[e].g_orig_loss, threaded.history[e].g_orig_loss);
    EXPECT_EQ(serial.history[e].info_loss, threaded.history[e].info_loss);
    EXPECT_EQ(serial.history[e].class_loss, threaded.history[e].class_loss);
    EXPECT_EQ(serial.history[e].l_mean, threaded.history[e].l_mean);
    EXPECT_EQ(serial.history[e].l_sd, threaded.history[e].l_sd);
  }
  EXPECT_FALSE(serial.model_bytes.empty());
  EXPECT_TRUE(serial.model_bytes == threaded.model_bytes)
      << "saved models differ between 1 and 4 threads";

  ASSERT_EQ(serial.samples.num_rows(), threaded.samples.num_rows());
  ASSERT_EQ(serial.samples.num_columns(), threaded.samples.num_columns());
  for (int64_t r = 0; r < serial.samples.num_rows(); ++r) {
    for (int c = 0; c < serial.samples.num_columns(); ++c) {
      EXPECT_EQ(serial.samples.Get(r, c), threaded.samples.Get(r, c))
          << "row " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace tablegan
