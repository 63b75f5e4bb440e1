// Cross-version checkpoint compatibility: tiny version-3, -4 and -5
// checkpoints committed under tests/data/ must keep loading under the
// current reader, and re-saving them (which writes the current format)
// must not change what they sample. Crafted headers must be rejected
// with a Status, never abort. No test here depends on float arithmetic
// (load + re-serialize + sample from fixed weights only), so the suite
// is platform-stable.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/crc32.h"
#include "core/table_gan.h"
#include "data/table.h"

#ifndef TABLEGAN_TEST_DATA_DIR
#error "TABLEGAN_TEST_DATA_DIR must be defined by the build"
#endif

namespace tablegan {
namespace {

const char kFixture[] = TABLEGAN_TEST_DATA_DIR "/tiny_v3.tgan";
const char kFixtureV4[] = TABLEGAN_TEST_DATA_DIR "/tiny_v4.tgan";
const char kFixtureV5[] = TABLEGAN_TEST_DATA_DIR "/tiny_v5.tgan";

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Re-saves `fixture` in the current format, reloads it, and requires
// both models to continue the Sample stream bit for bit.
void ExpectUpgradeSamplesIdentically(const char* fixture,
                                     const std::string& upgraded) {
  Result<core::TableGan> old_model = core::TableGan::Load(fixture);
  ASSERT_TRUE(old_model.ok()) << old_model.status().ToString();
  ASSERT_TRUE(old_model->Save(upgraded).ok());
  EXPECT_EQ(ReadFileBytes(upgraded).substr(0, 8), "TGAN0006");
  Result<core::TableGan> new_model = core::TableGan::Load(upgraded);
  std::remove(upgraded.c_str());
  ASSERT_TRUE(new_model.ok()) << new_model.status().ToString();

  Result<data::Table> a = old_model->Sample(16);
  Result<data::Table> b = new_model->Sample(16);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  for (int c = 0; c < a->num_columns(); ++c) {
    for (int64_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->Get(r, c), b->Get(r, c))
          << "sample divergence at (" << r << ", " << c << ")";
    }
  }
}

TEST(CheckpointGoldenTest, V3FixtureLoads) {
  Result<core::TableGan> loaded = core::TableGan::Load(kFixture);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->label_col(), 3);
  EXPECT_EQ(loaded->options().latent_dim, 4);
  EXPECT_EQ(loaded->options().seed, 20260806u);
}

// A v3 file carries no stream counters, so the upgraded model must
// continue exactly where the v3 defaults start.
TEST(CheckpointGoldenTest, V3UpgradesToV4AndSamplesIdentically) {
  ExpectUpgradeSamplesIdentically(kFixture, "golden_upgraded_from_v3.tgan");
}

// --- v4 fixture (the v5 model re-saved in the pre-loss-mode layout).

TEST(CheckpointGoldenTest, V4FixtureLoads) {
  ASSERT_EQ(ReadFileBytes(kFixtureV4).substr(0, 8), "TGAN0004");
  Result<core::TableGan> loaded = core::TableGan::Load(kFixtureV4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->label_col(), 3);
  EXPECT_EQ(loaded->options().seed, 20260806u);
  // A v4 file has no loss-mode section: the defaults apply.
  EXPECT_EQ(loaded->options().loss_mode, core::LossMode::kDcgan);
  EXPECT_FALSE(loaded->options().conditional);
}

TEST(CheckpointGoldenTest, V4UpgradesToV6AndSamplesIdentically) {
  ExpectUpgradeSamplesIdentically(kFixtureV4, "golden_upgraded_from_v4.tgan");
}

// --- v5 fixture (trained before the conditional/GMM section existed).

TEST(CheckpointGoldenTest, V5FixtureLoads) {
  Result<core::TableGan> loaded = core::TableGan::Load(kFixtureV5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->label_col(), 3);
  EXPECT_EQ(loaded->options().seed, 20260806u);
  // A pre-v6 model is unconditional and all-min-max by construction.
  EXPECT_FALSE(loaded->options().conditional);
  EXPECT_TRUE(loaded->options().gmm_columns.empty());
}

// Upgrade: v6 appends the conditional/GMM section in its empty,
// all-defaults form.
TEST(CheckpointGoldenTest, V5UpgradesToV6AndSamplesIdentically) {
  ExpectUpgradeSamplesIdentically(kFixtureV5, "golden_upgraded_from_v5.tgan");
}

// --- crafted headers.

// Rewrites the i64 at `offset` of `image`, recomputes the CRC footer so
// only the header check can reject it, and loads the result.
Result<core::TableGan> LoadPatched(std::string image, size_t offset,
                                   int64_t value, const std::string& path) {
  std::memcpy(image.data() + offset, &value, sizeof(value));
  const size_t body = image.size() - sizeof(uint32_t);
  const uint32_t crc = Crc32(image.data(), body);
  std::memcpy(image.data() + body, &crc, sizeof(crc));
  WriteFileBytes(path, image);
  Result<core::TableGan> loaded = core::TableGan::Load(path);
  std::remove(path.c_str());
  return loaded;
}

// A CRC-valid v6 file whose stored record side is not one the encoded
// record fits (or not a power of two >= 4), or whose label column lies
// outside the schema, is a corrupt file: Load must say so instead of
// aborting in the codec or the network builders.
TEST(CheckpointGoldenTest, CraftedBadHeaderIsRejectedNotFatal) {
  Result<core::TableGan> model = core::TableGan::Load(kFixtureV5);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::string v6 = "golden_side_v6.tgan";
  ASSERT_TRUE(model->Save(v6).ok());
  const std::string bytes = ReadFileBytes(v6);
  // Header offset of the stored side_: the 8-byte magic, then the
  // options block (side, latent_dim, base_channels, batch_size: i64;
  // delta_mean, delta_sd: f32; seed: i64; learning_rate, beta1, beta2,
  // ewma_weight, info_loss_weight: f32; use_info_loss, use_classifier:
  // i64).
  constexpr size_t kSideOffset = 92;
  int64_t stored_side = 0;
  std::memcpy(&stored_side, bytes.data() + kSideOffset, sizeof(stored_side));
  ASSERT_EQ(stored_side, model->side());
  std::remove(v6.c_str());
  for (const int64_t side :
       {int64_t{6}, int64_t{2}, int64_t{0}, int64_t{-4}, int64_t{1} << 20,
        int64_t{8}, (int64_t{1} << 32) + 4}) {
    Result<core::TableGan> loaded = LoadPatched(bytes, kSideOffset, side, v6);
    ASSERT_FALSE(loaded.ok()) << "side " << side;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << side;
    EXPECT_NE(loaded.status().message().find("corrupt model file"),
              std::string::npos)
        << loaded.status().message();
  }
  // The label-column count follows the side; the first index after it
  // must name a schema column.
  constexpr size_t kFirstLabelOffset = kSideOffset + 16;
  int64_t stored_label = 0;
  std::memcpy(&stored_label, bytes.data() + kFirstLabelOffset,
              sizeof(stored_label));
  ASSERT_EQ(stored_label, model->label_col());
  for (const int64_t col : {int64_t{-1}, int64_t{4}, int64_t{1} << 40}) {
    Result<core::TableGan> loaded =
        LoadPatched(bytes, kFirstLabelOffset, col, v6);
    ASSERT_FALSE(loaded.ok()) << "label column " << col;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << col;
  }
  // The unpatched image still loads.
  ASSERT_TRUE(LoadPatched(bytes, kSideOffset, stored_side, v6).ok());
}

}  // namespace
}  // namespace tablegan
