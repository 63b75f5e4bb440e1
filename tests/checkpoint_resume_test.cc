// Training-robustness subsystem tests: checkpoint corruption matrix
// (truncated / bit-flipped / bad-magic / future-version files must be
// rejected with a clean Status), kill-and-resume bitwise determinism at
// 1 and 4 threads under every loss mode, and the per-epoch metrics
// sink/callback telemetry.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32.h"
#include "common/metrics.h"
#include "core/table_gan.h"
#include "data/datasets.h"

namespace tablegan {
namespace core {
namespace {

data::Table SmallTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  return data::MakeAdultLike(rows, &rng);
}

TableGanOptions FastOptions(int num_threads = 1) {
  TableGanOptions o;
  o.base_channels = 8;
  o.epochs = 4;
  o.batch_size = 16;
  o.latent_dim = 8;
  o.seed = 1234;
  o.num_threads = num_threads;
  return o;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectTablesBitwiseEqual(const data::Table& a, const data::Table& b,
                              const char* what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.Get(r, c), b.Get(r, c))
          << what << " differs at " << r << "," << c;
    }
  }
}

class CheckpointTest : public ::testing::Test {
 protected:
  // One trained model file shared by the corruption tests.
  void SetUp() override {
    table_ = SmallTable(64, 11);
    label_col_ =
        table_.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
    model_path_ = TempPath("corruption_base.tgan");
    TableGan gan(FastOptions());
    ASSERT_TRUE(gan.Fit(table_, label_col_).ok());
    ASSERT_TRUE(gan.Save(model_path_).ok());
    bytes_ = ReadFileBytes(model_path_);
    ASSERT_GT(bytes_.size(), 100u);
  }

  void TearDown() override { std::remove(model_path_.c_str()); }

  data::Table table_{data::Schema()};
  int label_col_ = 0;
  std::string model_path_;
  std::string bytes_;
};

TEST_F(CheckpointTest, LoadRejectsTruncatedFiles) {
  const std::string path = TempPath("truncated.tgan");
  const size_t cuts[] = {0, 3, 7, 8, 20, bytes_.size() / 2,
                         bytes_.size() - 1};
  for (size_t cut : cuts) {
    WriteFileBytes(path, bytes_.substr(0, cut));
    auto loaded = TableGan::Load(path);
    EXPECT_FALSE(loaded.ok()) << "truncated at " << cut;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsBitFlips) {
  const std::string path = TempPath("bitflip.tgan");
  // Flip one bit at a sweep of offsets across the whole file,
  // including header, tensor data and the CRC footer itself.
  for (size_t offset = 0; offset < bytes_.size();
       offset += 1 + bytes_.size() / 37) {
    std::string mutated = bytes_;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x10);
    WriteFileBytes(path, mutated);
    auto loaded = TableGan::Load(path);
    EXPECT_FALSE(loaded.ok()) << "bit flip at offset " << offset;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("badmagic.tgan");
  std::string mutated = bytes_;
  mutated[0] = 'X';
  WriteFileBytes(path, mutated);
  auto loaded = TableGan::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("not a table-GAN"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsFutureVersionCleanly) {
  const std::string path = TempPath("future.tgan");
  std::string mutated = bytes_;
  mutated[4] = '0';
  mutated[5] = '0';
  mutated[6] = '9';
  mutated[7] = '9';
  // Recompute the CRC so the *version check*, not the integrity check,
  // is what rejects the file.
  const uint32_t crc =
      Crc32(mutated.data(), mutated.size() - sizeof(uint32_t));
  mutated.replace(mutated.size() - sizeof(uint32_t), sizeof(uint32_t),
                  reinterpret_cast<const char*>(&crc), sizeof(uint32_t));
  WriteFileBytes(path, mutated);
  auto loaded = TableGan::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("unsupported model file version"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, SaveLeavesNoTempFileBehind) {
  EXPECT_FALSE(std::filesystem::exists(model_path_ + ".tmp"));
}

class ResumeTest
    : public ::testing::TestWithParam<std::tuple<int, LossMode>> {};

std::string ResumeCaseName(
    const ::testing::TestParamInfo<std::tuple<int, LossMode>>& info) {
  const char* const modes[] = {"Dcgan", "WganGp", "SpectralNorm"};
  return "Threads" + std::to_string(std::get<0>(info.param)) + "_" +
         modes[static_cast<int>(std::get<1>(info.param))];
}

TEST_P(ResumeTest, KilledAndResumedRunIsBitwiseIdentical) {
  const auto [threads, mode] = GetParam();
  data::Table table = SmallTable(64, 21);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const std::string dir =
      TempPath("resume_ckpt_t" + std::to_string(threads) + "_m" +
               std::to_string(static_cast<int>(mode)));
  // Every loss mode persists its own training state (WGAN-GP: none
  // beyond the common section; spectral norm: the power-iteration u/v
  // vectors), and resuming must pick all of it up.
  auto options = [threads = threads, mode = mode]() {
    TableGanOptions o = FastOptions(threads);
    o.loss_mode = mode;
    return o;
  };

  // Uninterrupted reference run: 4 epochs straight through.
  TableGan full(options());
  ASSERT_TRUE(full.Fit(table, label_col).ok());
  auto full_sample = full.Sample(24);
  ASSERT_TRUE(full_sample.ok());

  // "Killed" run: same options but stopped after 2 epochs, with a
  // checkpoint written at epoch 2.
  TableGanOptions partial_options = options();
  partial_options.epochs = 2;
  partial_options.checkpoint_every = 2;
  partial_options.checkpoint_dir = dir;
  TableGan partial(partial_options);
  ASSERT_TRUE(partial.Fit(table, label_col).ok());
  ASSERT_TRUE(std::filesystem::exists(dir + "/ckpt-epoch-0002.tgan"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/latest.tgan"));

  // Resumed run: fresh process state, continues epochs 3-4.
  TableGanOptions resume_options = options();
  resume_options.resume_from = dir + "/latest.tgan";
  TableGan resumed(resume_options);
  ASSERT_TRUE(resumed.Fit(table, label_col).ok());
  ASSERT_EQ(resumed.history().size(), 4u);
  for (size_t e = 0; e < 4; ++e) {
    EXPECT_EQ(resumed.history()[e].d_loss, full.history()[e].d_loss) << e;
    EXPECT_EQ(resumed.history()[e].g_orig_loss,
              full.history()[e].g_orig_loss)
        << e;
    EXPECT_EQ(resumed.history()[e].class_loss, full.history()[e].class_loss)
        << e;
  }
  auto resumed_sample = resumed.Sample(24);
  ASSERT_TRUE(resumed_sample.ok());
  ExpectTablesBitwiseEqual(*full_sample, *resumed_sample,
                           "resumed Sample output");

  // The saved weights are identical too: both models must give the
  // same discriminator scores on a probe.
  data::Table probe = SmallTable(16, 22);
  auto a = full.DiscriminatorScores(probe);
  auto b = resumed.DiscriminatorScores(probe);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i], (*b)[i]) << "probe record " << i;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndLossModes, ResumeTest,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(LossMode::kDcgan, LossMode::kWganGp,
                                         LossMode::kSpectralNorm)),
    ResumeCaseName);

TEST(ResumeValidationTest, MismatchedOptionsAreRejected) {
  data::Table table = SmallTable(64, 31);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const std::string dir = TempPath("resume_mismatch");
  TableGanOptions options = FastOptions();
  options.epochs = 2;
  options.checkpoint_every = 2;
  options.checkpoint_dir = dir;
  TableGan gan(options);
  ASSERT_TRUE(gan.Fit(table, label_col).ok());
  const std::string ckpt = dir + "/latest.tgan";

  {
    TableGanOptions bad = FastOptions();
    bad.learning_rate *= 2.0f;
    bad.resume_from = ckpt;
    TableGan g(bad);
    Status status = g.Fit(table, label_col);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  {
    TableGanOptions bad = FastOptions();
    bad.seed = 999;
    bad.resume_from = ckpt;
    TableGan g(bad);
    EXPECT_FALSE(g.Fit(table, label_col).ok());
  }
  {
    // A different training table changes the normalizer bounds.
    data::Table other = SmallTable(64, 77);
    TableGanOptions o = FastOptions();
    o.resume_from = ckpt;
    TableGan g(o);
    EXPECT_FALSE(g.Fit(other, label_col).ok());
  }
  {
    // A final model file has no training section to resume from.
    const std::string model = TempPath("final_model.tgan");
    ASSERT_TRUE(gan.Save(model).ok());
    TableGanOptions o = FastOptions();
    o.resume_from = model;
    TableGan g(o);
    Status status = g.Fit(table, label_col);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("training section"), std::string::npos);
    std::remove(model.c_str());
  }
  std::filesystem::remove_all(dir);
}

TEST(ResumeValidationTest, NonRepresentableFloatOptionsRoundTrip) {
  // 0.995 has no exact float32 representation; the resume check must
  // compare the *post-round-trip* representations (what the checkpoint
  // stores) rather than source-literal doubles, or every run configured
  // with such a value would refuse to resume from its own checkpoint.
  data::Table table = SmallTable(64, 51);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const std::string dir = TempPath("resume_nonrep");
  TableGanOptions options = FastOptions();
  options.epochs = 2;
  options.ewma_weight = 0.995f;
  options.guard_ewma_weight = 0.995f;
  options.guard_factor = 49.9f;
  options.delta_mean = 0.1f;
  options.checkpoint_every = 2;
  options.checkpoint_dir = dir;
  {
    TableGan gan(options);
    ASSERT_TRUE(gan.Fit(table, label_col).ok());
  }
  TableGanOptions resume = options;
  resume.epochs = 4;  // extend the finished run
  resume.checkpoint_every = 0;
  resume.checkpoint_dir.clear();
  resume.resume_from = dir + "/latest.tgan";
  TableGan resumed(resume);
  Status status = resumed.Fit(table, label_col);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(resumed.history().size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(ResumeValidationTest, MismatchedStabilityOptionsAreRejected) {
  // A v5 checkpoint records its loss mode and guardrail settings; a
  // resume must not silently switch the training objective.
  data::Table table = SmallTable(64, 61);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const std::string dir = TempPath("resume_stability_mismatch");
  TableGanOptions options = FastOptions();
  options.epochs = 2;
  options.loss_mode = LossMode::kSpectralNorm;
  options.checkpoint_every = 2;
  options.checkpoint_dir = dir;
  {
    TableGan gan(options);
    ASSERT_TRUE(gan.Fit(table, label_col).ok());
  }
  const std::string ckpt = dir + "/latest.tgan";
  {
    TableGanOptions bad = options;
    bad.loss_mode = LossMode::kWganGp;
    bad.resume_from = ckpt;
    TableGan g(bad);
    Status status = g.Fit(table, label_col);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  {
    TableGanOptions bad = options;
    bad.sn_weight *= 2.0f;
    bad.resume_from = ckpt;
    TableGan g(bad);
    EXPECT_FALSE(g.Fit(table, label_col).ok());
  }
  {
    TableGanOptions bad = options;
    bad.guard_factor = 10.0f;
    bad.resume_from = ckpt;
    TableGan g(bad);
    EXPECT_FALSE(g.Fit(table, label_col).ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(ResumeValidationTest, MismatchedHeaderSectionsAreRejected) {
  // Resume compares the encoded model headers byte for byte; each case
  // changes one header section the other cases leave alone.
  data::Table table = SmallTable(64, 71);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const int other_label = *table.schema().FindColumn("income_over_50k");
  const int continuous = *table.schema().FindColumn("capital_gain");
  const std::string dir = TempPath("resume_header_mismatch");
  TableGanOptions options = FastOptions();
  options.epochs = 2;
  options.checkpoint_every = 2;
  options.checkpoint_dir = dir;
  {
    TableGan gan(options);
    ASSERT_TRUE(gan.Fit(table, label_col).ok());
  }
  const auto resume = [&](TableGanOptions o, int label) {
    o.checkpoint_every = 0;
    o.checkpoint_dir.clear();
    o.resume_from = dir + "/latest.tgan";
    TableGan g(o);
    return g.Fit(table, label);
  };
  // Control: the unchanged run resumes.
  ASSERT_TRUE(resume(options, label_col).ok());

  TableGanOptions conditional = options;
  conditional.conditional = true;
  TableGanOptions gmm = options;
  gmm.gmm_columns = {continuous};
  TableGanOptions channels = options;
  channels.base_channels = 4;
  const struct {
    const char* what;
    TableGanOptions options;
    int label;
  } cases[] = {
      {"conditional flipped", conditional, label_col},
      {"gmm_columns changed", gmm, label_col},
      {"different label column", options, other_label},
      {"base_channels changed", channels, label_col},
  };
  for (const auto& c : cases) {
    Status status = resume(c.options, c.label);
    ASSERT_FALSE(status.ok()) << c.what;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << c.what << ": " << status.ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(ResumeValidationTest, CheckpointLoadsAsAModel) {
  data::Table table = SmallTable(64, 41);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const std::string dir = TempPath("ckpt_as_model");
  TableGanOptions options = FastOptions();
  options.checkpoint_every = 4;
  options.checkpoint_dir = dir;
  TableGan gan(options);
  ASSERT_TRUE(gan.Fit(table, label_col).ok());

  auto loaded = TableGan::Load(dir + "/latest.tgan");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  auto sample = loaded->Sample(8);
  EXPECT_TRUE(sample.ok());
  std::filesystem::remove_all(dir);
}

// Compares table `part` against rows [offset, offset + part rows) of
// `whole`, cell for cell.
void ExpectRowsEqual(const data::Table& whole, int64_t offset,
                     const data::Table& part, const char* what) {
  ASSERT_LE(offset + part.num_rows(), whole.num_rows()) << what;
  ASSERT_EQ(whole.num_columns(), part.num_columns()) << what;
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    for (int c = 0; c < part.num_columns(); ++c) {
      ASSERT_EQ(whole.Get(offset + r, c), part.Get(r, c))
          << what << " differs at " << r << "," << c;
    }
  }
}

TEST(SampleStreamTest, StreamStateSurvivesSaveLoad) {
  data::Table table = SmallTable(64, 71);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];

  // Reference run draws the first 24 stream rows in one call.
  TableGan ref(FastOptions());
  ASSERT_TRUE(ref.Fit(table, label_col).ok());
  auto all = ref.Sample(24);
  ASSERT_TRUE(all.ok());

  TableGan gan(FastOptions());
  ASSERT_TRUE(gan.Fit(table, label_col).ok());
  auto first = gan.Sample(10);
  ASSERT_TRUE(first.ok());
  ExpectRowsEqual(*all, 0, *first, "first 10 rows");

  // Save mid-stream, then keep sampling.
  const std::string v6_path = TempPath("stream_v6.tgan");
  ASSERT_TRUE(gan.Save(v6_path).ok());
  auto rest = gan.Sample(14);
  ASSERT_TRUE(rest.ok());
  ExpectRowsEqual(*all, 10, *rest, "rows 10-23 from the original");

  // A reload continues the stream exactly where the save left it.
  auto v6 = TableGan::Load(v6_path);
  ASSERT_TRUE(v6.ok()) << v6.status().ToString();
  auto v6_rest = v6->Sample(14);
  ASSERT_TRUE(v6_rest.ok());
  ExpectRowsEqual(*all, 10, *v6_rest, "rows 10-23 from the reload");
  std::remove(v6_path.c_str());

  // A v3 file has no stream counters: the reload starts a fresh stream
  // (the pre-v4 behavior), so its first Sample replays rows 0-13 of the
  // logical table its options seed defines.
  auto v3 = TableGan::Load(TABLEGAN_TEST_DATA_DIR "/tiny_v3.tgan");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  auto v3_range = v3->SampleRange(v3->options().seed, 0, 14);
  ASSERT_TRUE(v3_range.ok()) << v3_range.status().ToString();
  auto v3_rest = v3->Sample(14);
  ASSERT_TRUE(v3_rest.ok());
  ExpectRowsEqual(*v3_range, 0, *v3_rest, "rows 0-13 from the v3 reload");
}

TEST(SampleStreamTest, VersionedMagicBytes) {
  data::Table table = SmallTable(64, 81);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  TableGan gan(FastOptions());
  ASSERT_TRUE(gan.Fit(table, label_col).ok());
  const std::string v6_path = TempPath("magic_v6.tgan");
  ASSERT_TRUE(gan.Save(v6_path).ok());
  EXPECT_EQ(ReadFileBytes(v6_path).substr(0, 8), "TGAN0006");
  std::remove(v6_path.c_str());
}

TEST(MetricsTest, SinkAndCallbackSeeEveryEpoch) {
  data::Table table = SmallTable(64, 51);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const std::string path = TempPath("metrics.jsonl");

  JsonlMetricsSink sink(path);
  ASSERT_TRUE(sink.status().ok());
  std::vector<TrainingMetrics> seen;
  TableGanOptions options = FastOptions();
  options.metrics_sink = &sink;
  options.metrics_callback = [&seen](const TrainingMetrics& m) {
    seen.push_back(m);
  };
  TableGan gan(options);
  ASSERT_TRUE(gan.Fit(table, label_col).ok());

  ASSERT_EQ(seen.size(), 4u);
  for (size_t e = 0; e < seen.size(); ++e) {
    EXPECT_EQ(seen[e].epoch, static_cast<int64_t>(e) + 1);
    EXPECT_EQ(seen[e].total_epochs, 4);
    // Losses must mirror the in-memory history exactly.
    EXPECT_EQ(seen[e].d_loss, gan.history()[e].d_loss);
    EXPECT_EQ(seen[e].g_loss, gan.history()[e].g_orig_loss);
    EXPECT_GT(seen[e].examples, 0);
    EXPECT_GE(seen[e].epoch_seconds, 0.0);
    EXPECT_GE(seen[e].d_seconds + seen[e].c_seconds + seen[e].g_seconds,
              0.0);
  }

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(lines)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"d_loss\":"), std::string::npos);
    EXPECT_NE(line.find("\"examples_per_sec\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 4);
  std::remove(path.c_str());
}

TEST(MetricsTest, AppendModeKeepsRecordsAcrossResume) {
  data::Table table = SmallTable(64, 61);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  const std::string dir = TempPath("metrics_resume");
  const std::string path = TempPath("metrics_resume.jsonl");

  {
    JsonlMetricsSink sink(path);
    ASSERT_TRUE(sink.status().ok());
    TableGanOptions options = FastOptions();
    options.epochs = 2;
    options.checkpoint_every = 2;
    options.checkpoint_dir = dir;
    options.metrics_sink = &sink;
    TableGan gan(options);
    ASSERT_TRUE(gan.Fit(table, label_col).ok());
  }
  {
    JsonlMetricsSink sink(path, /*append=*/true);
    ASSERT_TRUE(sink.status().ok());
    TableGanOptions options = FastOptions();
    options.resume_from = dir + "/latest.tgan";
    options.metrics_sink = &sink;
    TableGan gan(options);
    ASSERT_TRUE(gan.Fit(table, label_col).ok());
  }

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++lines;
  }
  // 2 epochs from the first run + epochs 3-4 from the resumed run.
  EXPECT_EQ(lines, 4);
  std::remove(path.c_str());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace core
}  // namespace tablegan
