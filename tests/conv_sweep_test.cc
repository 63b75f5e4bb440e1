// Property-style sweep over convolution geometries: forward shapes,
// gradient correctness, conv/transposed-conv adjointness, and bitwise
// equality of the batched (one GEMM per chunk) lowering with a
// per-sample reference across kernel/stride/padding/channel
// combinations (TEST_P per paper architecture building block).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/init.h"
#include "tensor/im2col.h"
#include "tensor/kernels/kernels.h"
#include "tensor/matmul.h"
#include "test_util.h"

namespace tablegan {
namespace {

// (in_channels, out_channels, kernel, stride, padding, in_h)
using ConvGeom = std::tuple<int, int, int, int, int, int>;

// Batch sizes around the FixedChunks cap of 16: one chunk, single-sample
// chunks, equal chunks, and uneven chunks.
const int64_t kBatchSizes[] = {1, 2, 15, 16, 17, 64, 67};

// Every kernel backend this host can run.
std::vector<const kernels::Backend*> AvailableBackends() {
  std::vector<const kernels::Backend*> backends{&kernels::Scalar()};
  for (bool fma : {false, true}) {
    if (const kernels::Backend* b = kernels::Avx2(fma)) backends.push_back(b);
  }
  return backends;
}

// Forces a backend for the scope; restores environment selection after.
struct BackendGuard {
  explicit BackendGuard(const kernels::Backend* b) {
    kernels::OverrideBackend(b);
  }
  ~BackendGuard() { kernels::OverrideBackend(nullptr); }
};

::testing::AssertionResult SameBits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  }
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Zeroes about a tenth of the weights, so the GEMM kernels' a == 0 skip
// is exercised in both lowerings.
void SprinkleZeros(Tensor* w, Rng* rng) {
  for (int64_t i = 0; i < w->size(); ++i) {
    if (rng->NextBool(0.1)) (*w)[i] = 0.0f;
  }
}

// One layer pass: output, and the input / weight / bias gradients of one
// Backward from zeroed gradients.
struct PassResult {
  Tensor y, dx, dw, db;
};

void AddBias(const Tensor& bias, int64_t spatial, float* slice) {
  for (int64_t ch = 0; ch < bias.size(); ++ch) {
    for (int64_t s = 0; s < spatial; ++s) slice[ch * spatial + s] += bias[ch];
  }
}

void AddChannelSums(const float* grad, int64_t spatial, Tensor* db) {
  for (int64_t ch = 0; ch < db->size(); ++ch) {
    float acc = 0.0f;
    for (int64_t s = 0; s < spatial; ++s) acc += grad[ch * spatial + s];
    (*db)[ch] += acc;
  }
}

// Weight / bias gradients are per-chunk partials accumulated sample by
// sample, combined in chunk order.
void CombineChunk(const Tensor& dw_c, const Tensor& db_c, PassResult* r) {
  for (int64_t i = 0; i < r->dw.size(); ++i) r->dw[i] += dw_c[i];
  for (int64_t i = 0; i < r->db.size(); ++i) r->db[i] += db_c[i];
}

// The per-sample Conv2d lowering (one im2col and one GEMM per sample).
PassResult ReferenceConv2d(nn::Conv2d* conv, const ops::Conv2dGeometry& g,
                           const Tensor& x, const Tensor& dy) {
  const int64_t n = x.dim(0), oc = conv->weight().dim(0);
  const int64_t patch = g.patch_size(), spatial = g.out_h() * g.out_w();
  const int64_t in_sample = g.in_channels * g.in_h * g.in_w;
  const float* w = conv->weight().data();
  PassResult r{Tensor({n, oc, g.out_h(), g.out_w()}), Tensor(x.shape()),
               Tensor(conv->weight().shape()), Tensor(conv->bias().shape())};
  Tensor cols({patch, spatial});
  for (int64_t i = 0; i < n; ++i) {
    float* out = r.y.data() + i * oc * spatial;
    ops::Im2Col(g, x.data() + i * in_sample, cols.data());
    ops::RawGemmNN(oc, spatial, patch, w, cols.data(), out, false);
    AddBias(conv->bias(), spatial, out);
  }
  const FixedChunks chunks(n, kDefaultBatchChunks);
  for (int64_t c = 0; c < chunks.count; ++c) {
    Tensor dw_c(conv->weight().shape()), db_c(conv->bias().shape());
    for (int64_t i = chunks.begin(c); i < chunks.end(c); ++i) {
      const float* go = dy.data() + i * oc * spatial;
      ops::Im2Col(g, x.data() + i * in_sample, cols.data());
      ops::RawGemmNT(oc, patch, spatial, go, cols.data(), dw_c.data(), true);
      AddChannelSums(go, spatial, &db_c);
      ops::RawGemmTN(patch, spatial, oc, w, go, cols.data(), false);
      ops::Col2Im(g, cols.data(), r.dx.data() + i * in_sample);
    }
    CombineChunk(dw_c, db_c, &r);
  }
  return r;
}

// The per-sample ConvTranspose2d lowering; `g` is the output geometry.
PassResult ReferenceConvTranspose2d(nn::ConvTranspose2d* deconv,
                                    const ops::Conv2dGeometry& g,
                                    const Tensor& x, const Tensor& dy) {
  const int64_t n = x.dim(0), ic = x.dim(1), oc = g.in_channels;
  const int64_t patch = g.patch_size(), in_spatial = g.out_h() * g.out_w();
  const int64_t out_spatial = g.in_h * g.in_w;
  const float* w = deconv->weight().data();
  PassResult r{Tensor({n, oc, g.in_h, g.in_w}), Tensor(x.shape()),
               Tensor(deconv->weight().shape()),
               Tensor(deconv->bias().shape())};
  Tensor cols({patch, in_spatial});
  for (int64_t i = 0; i < n; ++i) {
    float* out = r.y.data() + i * oc * out_spatial;
    ops::RawGemmTN(patch, in_spatial, ic, w, x.data() + i * ic * in_spatial,
                   cols.data(), false);
    ops::Col2Im(g, cols.data(), out);
    AddBias(deconv->bias(), out_spatial, out);
  }
  const FixedChunks chunks(n, kDefaultBatchChunks);
  for (int64_t c = 0; c < chunks.count; ++c) {
    Tensor dw_c(deconv->weight().shape()), db_c(deconv->bias().shape());
    for (int64_t i = chunks.begin(c); i < chunks.end(c); ++i) {
      const float* go = dy.data() + i * oc * out_spatial;
      const float* xi = x.data() + i * ic * in_spatial;
      ops::Im2Col(g, go, cols.data());
      ops::RawGemmNN(ic, in_spatial, patch, w, cols.data(),
                     r.dx.data() + i * ic * in_spatial, false);
      ops::RawGemmNT(ic, patch, in_spatial, xi, cols.data(), dw_c.data(),
                     true);
      AddChannelSums(go, out_spatial, &db_c);
    }
    CombineChunk(dw_c, db_c, &r);
  }
  return r;
}

// Runs the layer's Forward, Infer and one Backward and checks each
// against `ref` bit for bit.
template <typename LayerT>
void ExpectMatchesReference(LayerT* layer, const Tensor& x, const Tensor& dy,
                            const PassResult& ref, const char* backend,
                            int64_t batch) {
  SCOPED_TRACE(::testing::Message() << backend << " batch=" << batch);
  layer->ZeroGrad();
  EXPECT_TRUE(SameBits(ref.y, layer->Forward(x, true))) << "Forward";
  EXPECT_TRUE(SameBits(ref.y, layer->Infer(x))) << "Infer";
  EXPECT_TRUE(SameBits(ref.dx, layer->Backward(dy))) << "dX";
  const std::vector<Tensor*> grads = layer->Gradients();
  EXPECT_TRUE(SameBits(ref.dw, *grads[0])) << "dW";
  EXPECT_TRUE(SameBits(ref.db, *grads[1])) << "db";
}

class ConvSweepTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvSweepTest, ForwardShapeMatchesFormula) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(1);
  nn::Conv2d conv(ic, oc, k, s, p);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({2, ic, h, h}, -1, 1, &rng);
  Tensor y = conv.Forward(x, true);
  const int64_t expected = (h + 2 * p - k) / s + 1;
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, oc, expected, expected}));
}

TEST_P(ConvSweepTest, GradientsMatchFiniteDifferences) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(2);
  nn::Conv2d conv(ic, oc, k, s, p);
  nn::DcganInitialize(&conv, &rng);
  for (int64_t i = 0; i < conv.weight().size(); ++i) {
    conv.weight()[i] *= 10.0f;  // lift gradients above fp noise
  }
  testing_util::GradCheckLayer(
      &conv, Tensor::Uniform({2, ic, h, h}, -1, 1, &rng), 1e-2, 5e-2);
}

TEST_P(ConvSweepTest, BatchedLoweringMatchesPerSampleReference) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(6);
  nn::Conv2d conv(ic, oc, k, s, p);
  nn::DcganInitialize(&conv, &rng);
  SprinkleZeros(&conv.weight(), &rng);
  conv.bias().FillUniform(-1, 1, &rng);
  const ops::Conv2dGeometry g{ic, h, h, k, s, p};
  for (const int64_t n : kBatchSizes) {
    const Tensor x = Tensor::Uniform({n, ic, h, h}, -1, 1, &rng);
    const Tensor dy =
        Tensor::Uniform({n, oc, g.out_h(), g.out_w()}, -1, 1, &rng);
    for (const kernels::Backend* backend : AvailableBackends()) {
      BackendGuard guard(backend);
      const PassResult ref = ReferenceConv2d(&conv, g, x, dy);
      ExpectMatchesReference(&conv, x, dy, ref, backend->name, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweepTest,
    ::testing::Values(ConvGeom{1, 2, 3, 1, 0, 5},   // valid conv
                      ConvGeom{1, 2, 3, 1, 1, 5},   // same conv
                      ConvGeom{2, 3, 4, 2, 1, 8},   // DCGAN block
                      ConvGeom{3, 2, 2, 2, 0, 4},   // non-overlapping
                      ConvGeom{1, 4, 5, 1, 2, 6},   // big kernel
                      ConvGeom{2, 2, 1, 1, 0, 3},   // 1x1 conv
                      ConvGeom{1, 3, 4, 4, 0, 8},   // stride = kernel
                      ConvGeom{4, 1, 3, 2, 1, 7})); // odd size

class DeconvSweepTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(DeconvSweepTest, ForwardShapeMatchesFormula) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(3);
  nn::ConvTranspose2d deconv(ic, oc, k, s, p);
  nn::DcganInitialize(&deconv, &rng);
  Tensor x = Tensor::Uniform({2, ic, h, h}, -1, 1, &rng);
  Tensor y = deconv.Forward(x, true);
  const int64_t expected = (h - 1) * s - 2 * p + k;
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, oc, expected, expected}));
}

TEST_P(DeconvSweepTest, GradientsMatchFiniteDifferences) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(4);
  nn::ConvTranspose2d deconv(ic, oc, k, s, p);
  nn::DcganInitialize(&deconv, &rng);
  for (int64_t i = 0; i < deconv.weight().size(); ++i) {
    deconv.weight()[i] *= 10.0f;
  }
  testing_util::GradCheckLayer(
      &deconv, Tensor::Uniform({2, ic, h, h}, -1, 1, &rng), 1e-2, 5e-2);
}

TEST_P(DeconvSweepTest, BatchedLoweringMatchesPerSampleReference) {
  const auto [ic, oc, k, s, p, h] = GetParam();
  Rng rng(7);
  nn::ConvTranspose2d deconv(ic, oc, k, s, p);
  nn::DcganInitialize(&deconv, &rng);
  SprinkleZeros(&deconv.weight(), &rng);
  deconv.bias().FillUniform(-1, 1, &rng);
  const int64_t out = (h - 1) * s - 2 * p + k;
  const ops::Conv2dGeometry g{oc, out, out, k, s, p};
  for (const int64_t n : kBatchSizes) {
    const Tensor x = Tensor::Uniform({n, ic, h, h}, -1, 1, &rng);
    const Tensor dy = Tensor::Uniform({n, oc, out, out}, -1, 1, &rng);
    for (const kernels::Backend* backend : AvailableBackends()) {
      BackendGuard guard(backend);
      const PassResult ref = ReferenceConvTranspose2d(&deconv, g, x, dy);
      ExpectMatchesReference(&deconv, x, dy, ref, backend->name, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DeconvSweepTest,
    ::testing::Values(ConvGeom{2, 1, 4, 2, 1, 2},   // DCGAN upsample
                      ConvGeom{1, 2, 4, 2, 1, 4},
                      ConvGeom{3, 2, 3, 1, 1, 5},   // same-size deconv
                      ConvGeom{2, 3, 2, 2, 0, 3},   // exact doubling
                      ConvGeom{1, 1, 3, 3, 0, 2},   // stride 3
                      ConvGeom{4, 2, 5, 1, 2, 4})); // big kernel

TEST(ConvAdjointTest, DeconvForwardIsConvBackwardData) {
  // For matching weights, ConvTranspose2d::Forward must equal the data
  // gradient of Conv2d with the same geometry: <conv(x), y> = <x, deconv(y)>.
  Rng rng(5);
  const int ic = 3, oc = 2, k = 4, s = 2, p = 1, h = 8;
  nn::Conv2d conv(ic, oc, k, s, p, /*bias=*/false);
  nn::DcganInitialize(&conv, &rng);
  nn::ConvTranspose2d deconv(oc, ic, k, s, p, /*bias=*/false);
  // deconv.weight is [oc, ic*k*k]; conv.weight is [oc, ic*k*k]: identical
  // layout under our conventions.
  for (int64_t i = 0; i < conv.weight().size(); ++i) {
    deconv.weight()[i] = conv.weight()[i];
  }
  Tensor x = Tensor::Uniform({1, ic, h, h}, -1, 1, &rng);
  Tensor cx = conv.Forward(x, true);
  Tensor y = Tensor::Uniform(cx.shape(), -1, 1, &rng);
  Tensor dy = deconv.Forward(y, true);
  ASSERT_EQ(dy.shape(), x.shape());
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cx.size(); ++i) {
    lhs += static_cast<double>(cx[i]) * y[i];
  }
  for (int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * dy[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

// Infer is const and must be safe for concurrent callers (serve
// workers): plain threads share one layer of each kind, and every call
// must equal the serial result bit for bit.
TEST(ConvInferTest, ConcurrentInferOnSharedLayersMatchesSerial) {
  Rng rng(8);
  nn::Conv2d conv(4, 8, 4, 2, 1);
  nn::ConvTranspose2d deconv(8, 4, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  nn::DcganInitialize(&deconv, &rng);
  conv.bias().FillUniform(-1, 1, &rng);
  deconv.bias().FillUniform(-1, 1, &rng);
  std::vector<Tensor> conv_in, deconv_in, conv_want, deconv_want;
  for (const int64_t n : {1, 17, 64}) {
    conv_in.push_back(Tensor::Uniform({n, 4, 8, 8}, -1, 1, &rng));
    deconv_in.push_back(Tensor::Uniform({n, 8, 4, 4}, -1, 1, &rng));
    conv_want.push_back(conv.Infer(conv_in.back()));
    deconv_want.push_back(deconv.Infer(deconv_in.back()));
  }
  const nn::Conv2d& shared_conv = conv;
  const nn::ConvTranspose2d& shared_deconv = deconv;
  const int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        for (size_t i = 0; i < conv_in.size(); ++i) {
          // Threads walk the inputs in different orders.
          const size_t j = (i + static_cast<size_t>(t)) % conv_in.size();
          if (!SameBits(conv_want[j], shared_conv.Infer(conv_in[j]))) {
            ++mismatches[static_cast<size_t>(t)];
          }
          if (!SameBits(deconv_want[j], shared_deconv.Infer(deconv_in[j]))) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace tablegan
