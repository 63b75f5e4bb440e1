// Cross-subsystem conditional-determinism suite (ISSUE tentpole lock):
// TableGan::SampleConditional must be a pure function of
// (seed, label, row index) — bitwise invariant to batch size, thread
// count, chunking, and to whether the rows are produced locally or
// fetched through the serving daemon. Per-label streams are disjoint
// from each other and from the unconditional stream, unknown labels
// map onto NotFound locally and UNKNOWN_LABEL on the wire, and the
// conditional + GMM state survives a checkpoint round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/chunked.h"
#include "core/networks.h"
#include "core/table_gan.h"
#include "data/csv.h"
#include "data/table.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "test_util.h"

namespace tablegan {
namespace {

std::string CompareTablesBitwise(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return "shape mismatch";
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      const double x = a.Get(r, c), y = b.Get(r, c);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) {
        std::ostringstream os;
        os.precision(17);
        os << "cell (" << r << ", " << c << "): " << x << " vs " << y;
        return os.str();
      }
    }
  }
  return "";
}

// A table whose continuous column is bimodal keyed by the binary label
// — the shape conditional generation is for.
data::Table ConditionalFixtureTable(int64_t rows = 24) {
  data::Schema schema;
  data::ColumnSpec x;
  x.name = "x";
  x.type = data::ColumnType::kContinuous;
  schema.AddColumn(x);
  data::ColumnSpec label;
  label.name = "label";
  label.type = data::ColumnType::kDiscrete;
  label.role = data::ColumnRole::kLabel;
  schema.AddColumn(label);
  data::Table t(schema);
  Rng rng(0xC01D);
  for (int64_t r = 0; r < rows; ++r) {
    const double y = static_cast<double>(r % 2);
    t.AppendRow({y == 0.0 ? rng.Gaussian(-10.0, 0.5)
                          : rng.Gaussian(25.0, 1.0),
                 y});
  }
  return t;
}

core::TableGanOptions TinyConditionalOptions(bool with_gmm = false) {
  core::TableGanOptions opt;
  opt.latent_dim = 4;
  opt.base_channels = 4;
  opt.epochs = 1;
  opt.batch_size = 4;
  opt.num_threads = 1;
  opt.seed = 20260808;
  opt.conditional = true;
  if (with_gmm) {
    opt.gmm_columns = {0};
    opt.gmm_components = 3;
  }
  return opt;
}

core::TableGan FitConditionalGan(bool with_gmm = false) {
  core::TableGan gan(TinyConditionalOptions(with_gmm));
  TABLEGAN_CHECK_OK(gan.Fit(ConditionalFixtureTable(), 1));
  return gan;
}

TEST(ConditionalTest, RequiresAConditionalModel) {
  core::TableGanOptions opt = TinyConditionalOptions();
  opt.conditional = false;
  core::TableGan gan(opt);
  ASSERT_TRUE(gan.Fit(ConditionalFixtureTable(), 1).ok());
  const auto r = gan.SampleConditional(1, 0, 4, 1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ConditionalTest, UnknownLabelIsNotFound) {
  core::TableGan gan = FitConditionalGan();
  const auto r = gan.SampleConditional(1, 0, 4, 3.5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("3.5"), std::string::npos);
  // Exact training levels are accepted, including after canonicalizing
  // the request's -0.0 spelling of level 0.0.
  EXPECT_TRUE(gan.SampleConditional(1, 0, 2, 1.0).ok());
  const auto pos = gan.SampleConditional(1, 0, 2, 0.0);
  const auto neg = gan.SampleConditional(1, 0, 2, -0.0);
  ASSERT_TRUE(pos.ok() && neg.ok());
  EXPECT_EQ(CompareTablesBitwise(*pos, *neg), "");
}

TEST(ConditionalTest, BitwiseInvariantToBatchThreadsAndChunking) {
  core::TableGan gan = FitConditionalGan(/*with_gmm=*/true);
  constexpr int64_t kRows = 90;  // > one 64-row inference block
  constexpr uint64_t kSeed = 77;

  Result<data::Table> whole = gan.SampleConditional(kSeed, 0, kRows, 1.0);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->num_rows(), kRows);

  Rng rng(0x51ABULL);
  for (int threads : {1, 3, 7}) {
    ScopedNumThreads scope(threads);
    // Random chunking of [0, kRows) reassembles the identical bytes.
    std::vector<data::Table> parts;
    int64_t at = 0;
    while (at < kRows) {
      const int64_t take = rng.UniformInt(1, kRows - at);
      Result<data::Table> part =
          gan.SampleConditional(kSeed, at, at + take, 1.0);
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      parts.push_back(std::move(*part));
      at += take;
    }
    Result<data::Table> glued = data::Table::ConcatRows(parts);
    ASSERT_TRUE(glued.ok());
    EXPECT_EQ(CompareTablesBitwise(*whole, *glued), "")
        << "at " << threads << " threads";
  }

  // A second identically-configured fit (trained under a different
  // thread count) serves the same conditional bytes.
  {
    ScopedNumThreads scope(4);
    core::TableGan twin(TinyConditionalOptions(/*with_gmm=*/true));
    ASSERT_TRUE(twin.Fit(ConditionalFixtureTable(), 1).ok());
    Result<data::Table> again = twin.SampleConditional(kSeed, 0, kRows, 1.0);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(CompareTablesBitwise(*whole, *again), "");
  }
}

TEST(ConditionalTest, PerLabelStreamsAreDisjointAndHonorTheLabel) {
  core::TableGan gan = FitConditionalGan();
  constexpr int64_t kRows = 32;
  constexpr uint64_t kSeed = 5;
  Result<data::Table> zero = gan.SampleConditional(kSeed, 0, kRows, 0.0);
  Result<data::Table> one = gan.SampleConditional(kSeed, 0, kRows, 1.0);
  Result<data::Table> uncond = gan.SampleRange(kSeed, 0, kRows);
  ASSERT_TRUE(zero.ok() && one.ok() && uncond.ok());

  // The condition is a contract: every returned row carries the label.
  for (int64_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(zero->Get(r, 1), 0.0);
    EXPECT_EQ(one->Get(r, 1), 1.0);
  }

  // The three streams draw from disjoint substreams: their continuous
  // cells differ (count, not assert-per-cell — a chance collision of a
  // single float is possible, 32 at once is not).
  auto differing = [](const data::Table& a, const data::Table& b) {
    int n = 0;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      if (a.Get(r, 0) != b.Get(r, 0)) ++n;
    }
    return n;
  };
  EXPECT_GT(differing(*zero, *one), 16);
  EXPECT_GT(differing(*zero, *uncond), 16);
  EXPECT_GT(differing(*one, *uncond), 16);

  // And conditional sampling never perturbs the unconditional stream.
  Result<data::Table> uncond2 = gan.SampleRange(kSeed, 0, kRows);
  ASSERT_TRUE(uncond2.ok());
  EXPECT_EQ(CompareTablesBitwise(*uncond, *uncond2), "");
}

TEST(ConditionalTest, LocalAndRemoteConditionalBytesAgree) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("cond", FitConditionalGan()).ok());
  core::TableGan local = FitConditionalGan();

  constexpr int64_t kRows = 19;
  constexpr uint64_t kSeed = 11;
  Result<data::Table> rows = local.SampleConditional(kSeed, 0, kRows, 1.0);
  ASSERT_TRUE(rows.ok());
  Result<std::string> local_csv = data::WriteCsvToString(*rows);
  ASSERT_TRUE(local_csv.ok());

  serve::Server server(&registry, serve::ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  Result<std::string> remote = client.SampleRange(
      "cond", kSeed, 0, kRows, serve::Format::kCsv, 1.0);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(*remote, *local_csv);

  // Sharded conditional fetches concatenate into the same bytes.
  Result<std::string> shard0 = client.SampleRange(
      "cond", kSeed, 0, 6, serve::Format::kCsv, 1.0);
  Result<std::string> shard1 = client.SampleRange(
      "cond", kSeed, 6, kRows, serve::Format::kCsvNoHeader, 1.0);
  ASSERT_TRUE(shard0.ok() && shard1.ok());
  EXPECT_EQ(*shard0 + *shard1, *local_csv);

  // An untrained label answers UNKNOWN_LABEL, and the connection stays
  // usable afterwards.
  serve::SampleRequest req;
  req.model_id = "cond";
  req.seed = kSeed;
  req.row_end = 4;
  req.where_label = 9.0;
  Result<serve::SampleResponse> resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, serve::WireStatus::kUnknownLabel);
  req.where_label = 1.0;
  resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, serve::WireStatus::kOk);
  server.Shutdown();
}

TEST(ConditionalTest, ConditionalRequestAgainstPlainModelIsBadRequest) {
  core::TableGanOptions opt = TinyConditionalOptions();
  opt.conditional = false;
  core::TableGan plain(opt);
  ASSERT_TRUE(plain.Fit(ConditionalFixtureTable(), 1).ok());
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("plain", std::move(plain)).ok());
  serve::Server server(&registry, serve::ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  serve::SampleRequest req;
  req.model_id = "plain";
  req.row_end = 2;
  req.where_label = 1.0;
  Result<serve::SampleResponse> resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, serve::WireStatus::kBadRequest);
  server.Shutdown();
}

// ISSUE satellite: an out-of-range label column index must name the
// offending index, and duplicates are rejected rather than silently
// double-counted.
TEST(ConditionalTest, LabelColumnErrorsNameTheOffendingIndex) {
  data::Table t = ConditionalFixtureTable();
  {
    core::TableGan gan(TinyConditionalOptions());
    const Status st = gan.Fit(t, 7);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("label column index 7"), std::string::npos);
    EXPECT_NE(st.message().find("[0, 2)"), std::string::npos);
  }
  {
    core::TableGan gan(TinyConditionalOptions());
    const Status st = gan.Fit(t, -1);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("label column index -1"), std::string::npos);
  }
  {
    core::TableGan gan(TinyConditionalOptions());
    const Status st = gan.FitMultiLabel(t, {1, 1});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("duplicate label column index 1"),
              std::string::npos);
  }
}

TEST(ConditionalTest, CheckpointRoundTrips) {
  core::TableGan gan = FitConditionalGan(/*with_gmm=*/true);
  const std::string path = "conditional_ckpt.tgan";
  ASSERT_TRUE(gan.Save(path).ok());
  Result<core::TableGan> loaded = core::TableGan::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->options().conditional);
  ASSERT_EQ(loaded->options().gmm_columns, (std::vector<int>{0}));

  Result<data::Table> a = gan.SampleConditional(3, 0, 40, 0.0);
  Result<data::Table> b = loaded->SampleConditional(3, 0, 40, 0.0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(CompareTablesBitwise(*a, *b), "");
}

TEST(ConditionalTest, ChunkedConditionalSynthesisIsDeterministic) {
  data::Table t = ConditionalFixtureTable(32);
  core::ChunkedSynthesisOptions opt;
  opt.gan = TinyConditionalOptions();
  opt.num_chunks = 2;
  opt.num_threads = 1;
  opt.where_label = 1.0;
  Result<data::Table> a = core::ChunkedTrainAndSynthesize(t, 1, 20, opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_EQ(a->num_rows(), 20);
  for (int64_t r = 0; r < a->num_rows(); ++r) {
    EXPECT_EQ(a->Get(r, 1), 1.0) << "row " << r;
  }
  opt.num_threads = 3;
  Result<data::Table> b = core::ChunkedTrainAndSynthesize(t, 1, 20, opt);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(CompareTablesBitwise(*a, *b), "");
}

// ISSUE tentpole gate: gradients flow correctly through the widened
// generator input (latent + conditioning cells).
TEST(ConditionalGradCheck, GeneratorStackWithConditioningInput) {
  Rng rng(9);
  constexpr int kLatent = 12;
  constexpr int kCond = 2;
  auto g = core::BuildGenerator(/*side=*/8, kLatent + kCond,
                                /*base_channels=*/4, &rng);
  for (Tensor* p : g->Parameters()) {
    for (int64_t i = 0; i < p->size(); ++i) (*p)[i] *= 5.0f;
  }
  testing_util::GradCheckLayerAggregate(
      g.get(), Tensor::Uniform({4, kLatent + kCond}, -1, 1, &rng));
}

}  // namespace
}  // namespace tablegan
