// Kernel parity suite (DESIGN.md §12). Three-way contract:
//
//  - The scalar backend is the reference. Like every TU it is built
//    without implicit FP contraction, so it has *portable* IEEE
//    semantics: one rounding per multiply and per add, scalar
//    accumulation order. The AVX2 backend (kFma=false) must match it
//    BITWISE on everything except the NCHW BatchNorm reductions, whose
//    fixed 8-lane fold is instead held to a double-precision bound.
//  - The scalar backend itself is also held to the double-precision
//    bounds.
//  - The FMA variant (TABLEGAN_FMA=1) is held to the double bounds.
//
// Shapes sweep the awkward paths: vector-width tails, one-row matrices,
// block-boundary sizes (kGemmBlockK/N, kNtBlockJ/L), stride-2 and
// stride-3 convolutions. Golden end-to-end checks pin the forced-scalar
// train + Sample stream to fixed CRCs, and check thread-count
// invariance of the AVX2 backend.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "core/table_gan.h"
#include "data/datasets.h"
#include "tensor/im2col.h"
#include "tensor/kernels/blocking.h"
#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace {

using kernels::Backend;
using kernels::kGemmBlockK;
using kernels::kGemmBlockN;
using kernels::kNtBlockJ;
using kernels::kNtBlockL;

// ---------------------------------------------------------------------
// Helpers.

// Restores environment-based backend selection on scope exit.
struct BackendGuard {
  explicit BackendGuard(const Backend* b) { kernels::OverrideBackend(b); }
  ~BackendGuard() { kernels::OverrideBackend(nullptr); }
};

// Random data with the float edge cases the kernels' zero-skips and
// comparisons are sensitive to: exact zeros, negative zeros, denormals.
std::vector<float> RandomVec(Rng* rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    if (rng->NextBool(0.10)) {
      x = 0.0f;
    } else if (rng->NextBool(0.03)) {
      x = -0.0f;
    } else if (rng->NextBool(0.03)) {
      x = rng->NextBool(0.5) ? 1e-42f : -1e-42f;  // denormal
    } else {
      x = static_cast<float>(rng->Gaussian(0.0, 1.0));
    }
  }
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int64_t FirstMismatch(const std::vector<float>& a,
                      const std::vector<float>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

#define EXPECT_BITWISE_EQ(a, b, msg)                                       \
  do {                                                                     \
    if (!BitwiseEqual(a, b)) {                                             \
      const int64_t mi = FirstMismatch(a, b);                              \
      ADD_FAILURE() << msg << ": first mismatch at " << mi << ": "         \
                    << (a)[static_cast<size_t>(mi)] << " vs "              \
                    << (b)[static_cast<size_t>(mi)];                       \
      return;                                                              \
    }                                                                      \
  } while (0)

// |value - double_reference| bound for a float accumulation whose terms
// have total magnitude `scale`: reassociation (the NCHW lane fold) and
// FMA contraction each perturb the result by a small multiple of
// eps * scale.
bool WithinBound(float value, double ref, double scale) {
  const double bound = 64.0 * FLT_EPSILON * (scale + 1.0);
  return std::abs(static_cast<double>(value) - ref) <= bound;
}

struct GemmShape {
  int64_t m, n, k;
};

// Tails of every vector width (16/8/1 columns, 4/1 rows), one-row and
// one-column cases, and sizes straddling the kGemmBlockK/N = 256/512 and
// kNtBlockJ/L = 64/256 boundaries.
const GemmShape kGemmShapes[] = {
    {1, 1, 1},    {1, 8, 3},     {1, 16, 257},  {2, 17, 3},   {3, 15, 7},
    {4, 16, 8},   {5, 33, 13},   {7, 23, 300},  {8, 64, 256}, {9, 65, 257},
    {6, 63, 255}, {16, 40, 64},  {33, 7, 5},    {2, 515, 30}, {4, 512, 16},
    {5, 96, 513}, {13, 129, 31}, {21, 19, 100},
};

// The backends every parity test exercises: the production scalar
// backend, the strict (kFma=false) AVX2 backend, and the FMA variant.
struct TestBackends {
  const Backend* scalar = nullptr;
  const Backend* avx2 = nullptr;     // bitwise vs scalar
  const Backend* avx2fma = nullptr;  // bounded vs double reference
};

class BackendParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    b_.scalar = &kernels::Scalar();
    b_.avx2 = kernels::Avx2(/*fma=*/false);
    b_.avx2fma = kernels::Avx2(/*fma=*/true);
    if (b_.avx2 == nullptr) {
      GTEST_SKIP() << "AVX2 backend not available on this host";
    }
    ASSERT_NE(b_.avx2fma, nullptr);
  }

  TestBackends b_;
};

// ---------------------------------------------------------------------
// GEMM.

TEST_F(BackendParityTest, GemmNnParity) {
  Rng rng(0x6e6e1);
  for (const auto& s : kGemmShapes) {
    for (float alpha : {1.0f, 0.5f}) {
      const auto a = RandomVec(&rng, s.m * s.k);
      const auto b = RandomVec(&rng, s.k * s.n);
      const auto c0 = RandomVec(&rng, s.m * s.n);
      auto c_ref = c0;
      b_.scalar->gemm_nn(s.m, s.n, s.k, alpha, a.data(), b.data(),
                         c_ref.data());

      auto c_avx2 = c0;
      b_.avx2->gemm_nn(s.m, s.n, s.k, alpha, a.data(), b.data(),
                       c_avx2.data());
      EXPECT_BITWISE_EQ(c_ref, c_avx2,
                        "gemm_nn avx2 vs scalar m=" << s.m << " n=" << s.n
                                                 << " k=" << s.k);
      auto c_rerun = c0;
      b_.avx2->gemm_nn(s.m, s.n, s.k, alpha, a.data(), b.data(),
                       c_rerun.data());
      EXPECT_BITWISE_EQ(c_avx2, c_rerun, "gemm_nn avx2 determinism");

      // Scalar and the FMA variant against a double reference.
      for (const Backend* backend : {b_.scalar, b_.avx2fma}) {
        auto c_got = c0;
        backend->gemm_nn(s.m, s.n, s.k, alpha, a.data(), b.data(),
                         c_got.data());
        for (int64_t i = 0; i < s.m; ++i) {
          for (int64_t j = 0; j < s.n; ++j) {
            double dref = c0[static_cast<size_t>(i * s.n + j)];
            double scale = std::abs(dref);
            for (int64_t l = 0; l < s.k; ++l) {
              const double t = static_cast<double>(alpha) *
                               a[static_cast<size_t>(i * s.k + l)] *
                               b[static_cast<size_t>(l * s.n + j)];
              dref += t;
              scale += std::abs(t);
            }
            ASSERT_TRUE(WithinBound(c_got[static_cast<size_t>(i * s.n + j)],
                                    dref, scale))
                << backend->name << " gemm_nn out of bound at (" << i << ","
                << j << ") m=" << s.m << " n=" << s.n << " k=" << s.k;
          }
        }
      }
    }
  }
}

TEST_F(BackendParityTest, GemmNtParity) {
  Rng rng(0x6e742);
  for (const auto& s : kGemmShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = RandomVec(&rng, s.m * s.k);
      const auto b = RandomVec(&rng, s.n * s.k);
      const auto c0 = RandomVec(&rng, s.m * s.n);
      auto c_ref = c0;
      b_.scalar->gemm_nt(s.m, s.n, s.k, a.data(), b.data(), c_ref.data(),
                         accumulate);
      auto c_avx2 = c0;
      b_.avx2->gemm_nt(s.m, s.n, s.k, a.data(), b.data(), c_avx2.data(),
                       accumulate);
      EXPECT_BITWISE_EQ(c_ref, c_avx2,
                        "gemm_nt avx2 vs scalar m=" << s.m << " n=" << s.n
                                                 << " k=" << s.k
                                                 << " acc=" << accumulate);
      for (const Backend* backend : {b_.scalar, b_.avx2fma}) {
        auto c_got = c0;
        backend->gemm_nt(s.m, s.n, s.k, a.data(), b.data(), c_got.data(),
                         accumulate);
        for (int64_t i = 0; i < s.m; ++i) {
          for (int64_t j = 0; j < s.n; ++j) {
            double dref =
                accumulate ? c0[static_cast<size_t>(i * s.n + j)] : 0.0;
            double scale = std::abs(dref);
            for (int64_t l = 0; l < s.k; ++l) {
              const double t =
                  static_cast<double>(a[static_cast<size_t>(i * s.k + l)]) *
                  b[static_cast<size_t>(j * s.k + l)];
              dref += t;
              scale += std::abs(t);
            }
            ASSERT_TRUE(WithinBound(c_got[static_cast<size_t>(i * s.n + j)],
                                    dref, scale))
                << backend->name << " gemm_nt out of bound at (" << i << ","
                << j << ")";
          }
        }
      }
    }
  }
}

TEST_F(BackendParityTest, GemmTnParityAndRowRangesCompose) {
  Rng rng(0x746e3);
  for (const auto& s : kGemmShapes) {
    const auto a = RandomVec(&rng, s.k * s.m);
    const auto b = RandomVec(&rng, s.k * s.n);
    const auto c0 = RandomVec(&rng, s.m * s.n);
    auto c_ref = c0;
    b_.scalar->gemm_tn(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                       c_ref.data());
    auto c_avx2 = c0;
    b_.avx2->gemm_tn(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                     c_avx2.data());
    EXPECT_BITWISE_EQ(c_ref, c_avx2,
                      "gemm_tn avx2 vs scalar m=" << s.m << " n=" << s.n
                                               << " k=" << s.k);
    // The threading layer splits [0, m) into row ranges; in every
    // backend any split must reproduce the full-range result bitwise.
    const int64_t mid = s.m / 2;
    for (const Backend* backend : {b_.scalar, b_.avx2, b_.avx2fma}) {
      auto c_full = c0;
      backend->gemm_tn(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                       c_full.data());
      auto c_split = c0;
      backend->gemm_tn(0, mid, s.m, s.n, s.k, a.data(), b.data(),
                       c_split.data());
      backend->gemm_tn(mid, s.m, s.m, s.n, s.k, a.data(), b.data(),
                       c_split.data());
      EXPECT_BITWISE_EQ(c_full, c_split,
                        backend->name << " gemm_tn split-range composition");
    }
    for (const Backend* backend : {b_.scalar, b_.avx2fma}) {
      auto c_got = c0;
      backend->gemm_tn(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                       c_got.data());
      for (int64_t i = 0; i < s.m; ++i) {
        for (int64_t j = 0; j < s.n; ++j) {
          double dref = c0[static_cast<size_t>(i * s.n + j)];
          double scale = std::abs(dref);
          for (int64_t l = 0; l < s.k; ++l) {
            const double t =
                static_cast<double>(a[static_cast<size_t>(l * s.m + i)]) *
                b[static_cast<size_t>(l * s.n + j)];
            dref += t;
            scale += std::abs(t);
          }
          ASSERT_TRUE(WithinBound(c_got[static_cast<size_t>(i * s.n + j)],
                                  dref, scale))
              << backend->name << " gemm_tn out of bound at (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

// A GEMM element's bits must not depend on its column position or on n:
// the batched convolution lowering puts a sample's columns at a
// chunk-dependent offset of a chunk-wide product (DESIGN.md §7, §12).
// So in every backend, a column slice [j0, j0 + w) computed on its own
// must equal the same columns of the full product bit for bit — whether
// each column lands in a vector body or a scalar tail on either side.
TEST(KernelColumnPositionTest, GemmColumnSliceMatchesFullProduct) {
  std::vector<const Backend*> backends{&kernels::Scalar()};
  for (bool fma : {false, true}) {
    if (const Backend* b = kernels::Avx2(fma)) backends.push_back(b);
  }
  const int64_t n = 80;
  std::vector<int64_t> widths;
  for (int64_t w = 1; w <= 17; ++w) widths.push_back(w);
  widths.push_back(31);
  widths.push_back(33);
  Rng rng(0xc01c0);
  // k = 300 crosses the kGemmBlockK depth block.
  for (const auto& [m, k] : {std::pair<int64_t, int64_t>{1, 3}, {5, 37},
                            {6, 300}}) {
    const auto a_nn = RandomVec(&rng, m * k);  // [m, k]
    const auto a_tn = RandomVec(&rng, k * m);  // [k, m]
    const auto b = RandomVec(&rng, k * n);     // [k, n]
    const auto c0 = RandomVec(&rng, m * n);
    for (const Backend* backend : backends) {
      auto full_nn = c0;
      backend->gemm_nn(m, n, k, 0.5f, a_nn.data(), b.data(), full_nn.data());
      auto full_tn = c0;
      backend->gemm_tn(0, m, m, n, k, a_tn.data(), b.data(), full_tn.data());
      for (const int64_t w : widths) {
        for (const int64_t j0 : {0, 1, 7, 8, 16, 29, 47}) {
          if (j0 + w > n) continue;
          // Slice operands: columns [j0, j0 + w) of B and C.
          std::vector<float> bs(static_cast<size_t>(k * w));
          std::vector<float> cs0(static_cast<size_t>(m * w));
          std::vector<float> want_nn(cs0.size()), want_tn(cs0.size());
          for (int64_t r = 0; r < k; ++r) {
            std::copy_n(b.begin() + r * n + j0, w, bs.begin() + r * w);
          }
          for (int64_t r = 0; r < m; ++r) {
            std::copy_n(c0.begin() + r * n + j0, w, cs0.begin() + r * w);
            std::copy_n(full_nn.begin() + r * n + j0, w,
                        want_nn.begin() + r * w);
            std::copy_n(full_tn.begin() + r * n + j0, w,
                        want_tn.begin() + r * w);
          }
          auto got_nn = cs0;
          backend->gemm_nn(m, w, k, 0.5f, a_nn.data(), bs.data(),
                           got_nn.data());
          EXPECT_BITWISE_EQ(want_nn, got_nn,
                            backend->name << " gemm_nn slice j0=" << j0
                                          << " w=" << w << " m=" << m
                                          << " k=" << k);
          auto got_tn = cs0;
          backend->gemm_tn(0, m, m, w, k, a_tn.data(), bs.data(),
                           got_tn.data());
          EXPECT_BITWISE_EQ(want_tn, got_tn,
                            backend->name << " gemm_tn slice j0=" << j0
                                          << " w=" << w << " m=" << m
                                          << " k=" << k);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// The zero-skip on ReLU-sparse operands. In the MLP's backward pass A is
// the ReLU-masked upstream gradient: about half exact zeros at random
// positions. The SIMD gemm_nn skips those terms without a branch (gemm_tn
// keeps one), so a skipped 0 * inf or 0 * NaN must still never reach C,
// and a -0 in C must stay -0.

// Operands of C[m,n] += A * B where A (logically [m, k]) is ~50% zeros,
// a fifth of them -0. Depth indices kk % 7 == 2 are poisoned: B's row kk
// holds +inf, -inf and NaN, and A[i, kk] is zero for every sparse row.
// Rows [4, 8) and the last row are dense (no zero multiplier at all, so
// they take the plain multiply-add path and pick up the poison). Rows
// with i % 6 == 0 are otherwise all zeros, a dead ReLU unit. C rows with
// i % 3 == 0 start at -0, which only the skip keeps in the dead rows.
struct SparseOperands {
  std::vector<float> a_nn;  // [m, k]
  std::vector<float> a_tn;  // [k, m], the same values transposed
  std::vector<float> b;     // [k, n]
  std::vector<float> c0;    // [m, n]
};

SparseOperands ReluSparseOperands(Rng* rng, int64_t m, int64_t n, int64_t k) {
  SparseOperands s;
  s.a_nn.resize(static_cast<size_t>(m * k));
  s.a_tn.resize(s.a_nn.size());
  for (int64_t i = 0; i < m; ++i) {
    const bool dense = (i >= 4 && i < 8) || i == m - 1;
    for (int64_t kk = 0; kk < k; ++kk) {
      float v = static_cast<float>(rng->Gaussian(0.0, 1.0));
      if (v == 0.0f) v = 1.0f;
      if (!dense && (kk % 7 == 2 || i % 6 == 0 || rng->NextBool(0.5))) {
        v = rng->NextBool(0.2) ? -0.0f : 0.0f;
      }
      s.a_nn[static_cast<size_t>(i * k + kk)] = v;
      s.a_tn[static_cast<size_t>(kk * m + i)] = v;
    }
  }
  const float poison[] = {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()};
  s.b.resize(static_cast<size_t>(k * n));
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) {
      s.b[static_cast<size_t>(kk * n + j)] =
          kk % 7 == 2 ? poison[(kk + j) % 3]
                      : static_cast<float>(rng->Gaussian(0.0, 1.0));
    }
  }
  s.c0.resize(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      s.c0[static_cast<size_t>(i * n + j)] =
          i % 3 == 0 ? -0.0f : static_cast<float>(rng->Gaussian(0.0, 1.0));
    }
  }
  return s;
}

// Compares `got` with the scalar result `want` element by element. A
// NaN matches any NaN: its sign and payload are not part of the
// contract, since x86 returns the first NaN operand of an add and the
// compiler may commute the scalar kernel's operands. With `exact` every
// other element must match bit for bit; without, only +-inf and -0 must
// sit in the same places, and finite nonzero values may differ (the FMA
// variant rounds once per term).
void ExpectSameBits(const std::vector<float>& want,
                    const std::vector<float>& got, bool exact,
                    const std::string& what) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const float w = want[i], g = got[i];
    const bool bits = std::memcmp(&w, &g, sizeof(float)) == 0;
    const bool same = std::isnan(w) ? std::isnan(g)
                      : exact || std::isinf(w) || w == 0.0f
                          ? bits
                          : std::isfinite(g) && g != 0.0f;
    ASSERT_TRUE(same) << what << ": element " << i << " is " << g
                      << ", scalar gives " << w;
  }
}

TEST_F(BackendParityTest, ZeroSkipOnReluSparseOperands) {
  Rng rng(0x2e10);
  std::vector<int64_t> widths;  // 16/8 bodies and every n % 8 tail
  for (int64_t n = 1; n <= 33; ++n) widths.push_back(n);
  // k = 300 crosses the kGemmBlockK depth block, and m = 300 the
  // 256-row chunk of the NN kernel's zero-free flags.
  for (const auto& [m, k] : {std::pair<int64_t, int64_t>{1, 9}, {9, 23},
                            {13, 64}, {6, 300}, {300, 20}}) {
    for (const int64_t n : widths) {
      const SparseOperands s = ReluSparseOperands(&rng, m, n, k);
      const std::string shape = " m=" + std::to_string(m) +
                                " n=" + std::to_string(n) +
                                " k=" + std::to_string(k);
      for (const Backend* backend : {b_.avx2, b_.avx2fma}) {
        const bool exact = !backend->fma;
        const std::string what = std::string(backend->name) + shape;
        for (float alpha : {1.0f, -0.5f}) {
          auto want = s.c0;
          b_.scalar->gemm_nn(m, n, k, alpha, s.a_nn.data(), s.b.data(),
                             want.data());
          auto got = s.c0;
          backend->gemm_nn(m, n, k, alpha, s.a_nn.data(), s.b.data(),
                           got.data());
          ExpectSameBits(want, got, exact, "sparse gemm_nn " + what);
        }
        // Rows from 0, m / 3 and 5 shift the dense and sparse rows
        // against the 4-row tiles; from 5, a tile mixes both.
        for (const int64_t r0 : {int64_t{0}, m / 3, std::min<int64_t>(m, 5)}) {
          auto want = s.c0;
          b_.scalar->gemm_tn(r0, m, m, n, k, s.a_tn.data(), s.b.data(),
                             want.data());
          auto got = s.c0;
          backend->gemm_tn(r0, m, m, n, k, s.a_tn.data(), s.b.data(),
                           got.data());
          ExpectSameBits(want, got, exact,
                         "sparse gemm_tn rows from " + std::to_string(r0) +
                             " " + what);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// im2col / col2im: pure data movement — bitwise in EVERY backend.

struct ConvShape {
  int64_t channels, in_h, in_w, kernel, stride, padding;
};

const ConvShape kConvShapes[] = {
    {1, 1, 1, 1, 1, 0},  {1, 5, 5, 3, 1, 1},   {2, 8, 8, 4, 2, 1},
    {3, 7, 9, 3, 2, 1},  {1, 16, 16, 4, 2, 1}, {2, 6, 6, 5, 2, 2},
    {1, 9, 7, 3, 1, 0},  {1, 3, 3, 5, 1, 2},   {2, 11, 13, 4, 3, 2},
    {4, 4, 4, 2, 2, 0},  {1, 2, 2, 4, 2, 1},
};

ops::Conv2dGeometry MakeGeometry(const ConvShape& s) {
  ops::Conv2dGeometry g;
  g.in_channels = s.channels;
  g.in_h = s.in_h;
  g.in_w = s.in_w;
  g.kernel = s.kernel;
  g.stride = s.stride;
  g.padding = s.padding;
  return g;
}

TEST_F(BackendParityTest, Im2ColCol2ImExactAllBackends) {
  Rng rng(0x12c01);
  for (const auto& s : kConvShapes) {
    const ops::Conv2dGeometry g = MakeGeometry(s);
    if (g.out_h() <= 0 || g.out_w() <= 0) continue;
    const int64_t img_size = g.in_channels * g.in_h * g.in_w;
    const int64_t cols_size = g.patch_size() * g.out_h() * g.out_w();

    const auto img = RandomVec(&rng, img_size);
    std::vector<float> cols_ref(static_cast<size_t>(cols_size), -7.0f);
    b_.scalar->im2col(g, img.data(), cols_ref.data());
    const auto cols_in = RandomVec(&rng, cols_size);
    const auto img0 = RandomVec(&rng, img_size);
    auto img_ref = img0;
    b_.scalar->col2im(g, cols_in.data(), img_ref.data());

    for (const Backend* backend : {b_.avx2, b_.avx2fma}) {
      std::vector<float> cols_got(static_cast<size_t>(cols_size), -7.0f);
      backend->im2col(g, img.data(), cols_got.data());
      EXPECT_BITWISE_EQ(cols_ref, cols_got,
                        backend->name << " im2col stride=" << s.stride
                                      << " k=" << s.kernel
                                      << " pad=" << s.padding);
      auto img_got = img0;
      backend->col2im(g, cols_in.data(), img_got.data());
      EXPECT_BITWISE_EQ(img_ref, img_got,
                        backend->name << " col2im stride=" << s.stride
                                      << " k=" << s.kernel
                                      << " pad=" << s.padding);
    }
  }
}

// ---------------------------------------------------------------------
// BatchNorm.

struct BnShape {
  int64_t rows, channels, spatial;
};

const BnShape kBnNfShapes[] = {
    {1, 7, 1}, {5, 8, 1}, {4, 17, 1}, {16, 9, 1}, {3, 1, 1}, {2, 33, 1},
};
const BnShape kBnNchwShapes[] = {
    {2, 3, 4},  {3, 5, 16}, {2, 4, 64},  {1, 6, 7},
    {4, 2, 9},  {2, 8, 257}, {1, 1, 1024},
};

TEST_F(BackendParityTest, BnMomentsParity) {
  Rng rng(0xb701);
  // NF: the strict AVX2 backend vectorizes across channels, preserving
  // per-channel accumulation order — bitwise vs scalar.
  for (const BnShape& s : kBnNfShapes) {
    const auto x = RandomVec(&rng, s.rows * s.channels * s.spatial);
    std::vector<float> mean_r(static_cast<size_t>(s.channels));
    std::vector<float> var_r(static_cast<size_t>(s.channels));
    b_.scalar->bn_moments(s.rows, s.channels, s.spatial, x.data(),
                          mean_r.data(), var_r.data());
    std::vector<float> mean_v(static_cast<size_t>(s.channels));
    std::vector<float> var_v(static_cast<size_t>(s.channels));
    b_.avx2->bn_moments(s.rows, s.channels, s.spatial, x.data(),
                        mean_v.data(), var_v.data());
    EXPECT_BITWISE_EQ(mean_r, mean_v, "bn_moments NF mean");
    EXPECT_BITWISE_EQ(var_r, var_v, "bn_moments NF var");
  }
  // Every backend on every shape (the NCHW lane fold included): double
  // reference with an accumulation bound; plus rerun determinism.
  auto all_shapes = std::vector<BnShape>(std::begin(kBnNfShapes),
                                         std::end(kBnNfShapes));
  all_shapes.insert(all_shapes.end(), std::begin(kBnNchwShapes),
                    std::end(kBnNchwShapes));
  for (const BnShape& s : all_shapes) {
    const auto x = RandomVec(&rng, s.rows * s.channels * s.spatial);
    const double m = static_cast<double>(s.rows * s.spatial);
    for (const Backend* backend : {b_.scalar, b_.avx2, b_.avx2fma}) {
      std::vector<float> mean(static_cast<size_t>(s.channels));
      std::vector<float> var(static_cast<size_t>(s.channels));
      backend->bn_moments(s.rows, s.channels, s.spatial, x.data(),
                          mean.data(), var.data());
      for (int64_t c = 0; c < s.channels; ++c) {
        double sum = 0.0, asum = 0.0;
        for (int64_t r = 0; r < s.rows; ++r) {
          const float* px = x.data() + (r * s.channels + c) * s.spatial;
          for (int64_t sp = 0; sp < s.spatial; ++sp) {
            sum += px[sp];
            asum += std::abs(static_cast<double>(px[sp]));
          }
        }
        ASSERT_TRUE(WithinBound(mean[static_cast<size_t>(c)], sum / m,
                                asum / m + asum))
            << backend->name << " mean channel " << c << " spatial "
            << s.spatial;
        double vsum = 0.0;
        const double mf = static_cast<double>(mean[static_cast<size_t>(c)]);
        for (int64_t r = 0; r < s.rows; ++r) {
          const float* px = x.data() + (r * s.channels + c) * s.spatial;
          for (int64_t sp = 0; sp < s.spatial; ++sp) {
            const double d = px[sp] - mf;
            vsum += d * d;
          }
        }
        ASSERT_TRUE(WithinBound(var[static_cast<size_t>(c)], vsum / m,
                                vsum / m + vsum))
            << backend->name << " var channel " << c << " spatial "
            << s.spatial;
      }
      std::vector<float> mean2(static_cast<size_t>(s.channels));
      std::vector<float> var2(static_cast<size_t>(s.channels));
      backend->bn_moments(s.rows, s.channels, s.spatial, x.data(),
                          mean2.data(), var2.data());
      EXPECT_BITWISE_EQ(mean, mean2, "bn_moments rerun determinism");
      EXPECT_BITWISE_EQ(var, var2, "bn_moments rerun determinism");
    }
  }
}

TEST_F(BackendParityTest, BnNormalizeAndBackwardInputParity) {
  Rng rng(0xb702);
  auto all_shapes = std::vector<BnShape>(std::begin(kBnNfShapes),
                                         std::end(kBnNfShapes));
  all_shapes.insert(all_shapes.end(), std::begin(kBnNchwShapes),
                    std::end(kBnNchwShapes));
  for (const BnShape& s : all_shapes) {
    const int64_t size = s.rows * s.channels * s.spatial;
    const auto x = RandomVec(&rng, size);
    const auto mean = RandomVec(&rng, s.channels);
    auto inv_std = RandomVec(&rng, s.channels);
    for (auto& v : inv_std) v = 0.5f + std::abs(v);
    const auto gamma = RandomVec(&rng, s.channels);
    const auto beta = RandomVec(&rng, s.channels);
    // Scalar xhat for the double-precision y bound below (xh_r is only
    // populated in the want_xhat=true iteration).
    std::vector<float> xh_full(static_cast<size_t>(size));
    std::vector<float> y_full(static_cast<size_t>(size));
    b_.scalar->bn_normalize(s.rows, s.channels, s.spatial, x.data(),
                            mean.data(), inv_std.data(), gamma.data(),
                            beta.data(), xh_full.data(), y_full.data());
    for (bool want_xhat : {true, false}) {
      std::vector<float> xh_r(static_cast<size_t>(size), -3.0f);
      std::vector<float> xh_v(static_cast<size_t>(size), -3.0f);
      std::vector<float> y_r(static_cast<size_t>(size));
      std::vector<float> y_v(static_cast<size_t>(size));
      b_.scalar->bn_normalize(s.rows, s.channels, s.spatial, x.data(),
                              mean.data(), inv_std.data(), gamma.data(),
                              beta.data(), want_xhat ? xh_r.data() : nullptr,
                              y_r.data());
      b_.avx2->bn_normalize(s.rows, s.channels, s.spatial, x.data(),
                            mean.data(), inv_std.data(), gamma.data(),
                            beta.data(), want_xhat ? xh_v.data() : nullptr,
                            y_v.data());
      EXPECT_BITWISE_EQ(y_r, y_v, "bn_normalize y spatial=" << s.spatial);
      EXPECT_BITWISE_EQ(xh_r, xh_v, "bn_normalize xhat");
      // y = gamma*xhat + beta is one mul+add: within a few ulp.
      for (int64_t i = 0; i < size; ++i) {
        const int64_t c = (i / s.spatial) % s.channels;
        const double gx = static_cast<double>(gamma[static_cast<size_t>(c)]) *
                          xh_full[static_cast<size_t>(i)];
        const double yd = gx + beta[static_cast<size_t>(c)];
        const double sc =
            std::abs(gx) +
            std::abs(static_cast<double>(beta[static_cast<size_t>(c)]));
        ASSERT_TRUE(WithinBound(y_r[static_cast<size_t>(i)], yd, sc))
            << "scalar bn_normalize y at " << i;
      }
    }

    const auto dy = RandomVec(&rng, size);
    const auto xhat = RandomVec(&rng, size);
    const auto sum_dy = RandomVec(&rng, s.channels);
    const auto sum_dy_xhat = RandomVec(&rng, s.channels);
    const float inv_m = 1.0f / static_cast<float>(s.rows * s.spatial);
    std::vector<float> dx_r(static_cast<size_t>(size));
    b_.scalar->bn_backward_input(s.rows, s.channels, s.spatial, dy.data(),
                                 xhat.data(), gamma.data(), inv_std.data(),
                                 sum_dy.data(), sum_dy_xhat.data(), inv_m,
                                 dx_r.data());
    for (const Backend* backend : {b_.avx2, b_.avx2fma}) {
      std::vector<float> dx_v(static_cast<size_t>(size));
      backend->bn_backward_input(s.rows, s.channels, s.spatial, dy.data(),
                                 xhat.data(), gamma.data(), inv_std.data(),
                                 sum_dy.data(), sum_dy_xhat.data(), inv_m,
                                 dx_v.data());
      EXPECT_BITWISE_EQ(dx_r, dx_v, backend->name
                                        << " bn_backward_input spatial="
                                        << s.spatial);
    }
    // And the scalar reference against a double-precision bound.
    for (int64_t i = 0; i < size; ++i) {
      const int64_t c = (i / s.spatial) % s.channels;
      const size_t ci = static_cast<size_t>(c);
      const double w = static_cast<double>(dy[static_cast<size_t>(i)]) -
                       static_cast<double>(sum_dy[ci]) * inv_m -
                       static_cast<double>(xhat[static_cast<size_t>(i)]) *
                           sum_dy_xhat[ci] * inv_m;
      const double dref =
          static_cast<double>(gamma[ci]) * inv_std[ci] * w;
      const double sc = std::abs(static_cast<double>(gamma[ci]) *
                                 inv_std[ci]) *
                        (std::abs(static_cast<double>(
                             dy[static_cast<size_t>(i)])) +
                         std::abs(static_cast<double>(sum_dy[ci]) * inv_m) +
                         std::abs(static_cast<double>(
                                      xhat[static_cast<size_t>(i)]) *
                                  sum_dy_xhat[ci] * inv_m));
      ASSERT_TRUE(WithinBound(dx_r[static_cast<size_t>(i)], dref, sc))
          << "scalar bn_backward_input at " << i;
    }
  }
}

TEST_F(BackendParityTest, BnBackwardReduceParity) {
  Rng rng(0xb703);
  for (const BnShape& s : kBnNfShapes) {
    const int64_t size = s.rows * s.channels * s.spatial;
    const auto dy = RandomVec(&rng, size);
    const auto xhat = RandomVec(&rng, size);
    std::vector<float> sd_r(static_cast<size_t>(s.channels), 0.0f);
    std::vector<float> sdx_r(static_cast<size_t>(s.channels), 0.0f);
    b_.scalar->bn_backward_reduce(s.rows, s.channels, s.spatial, dy.data(),
                                  xhat.data(), sd_r.data(), sdx_r.data());
    std::vector<float> sd_v(static_cast<size_t>(s.channels), 0.0f);
    std::vector<float> sdx_v(static_cast<size_t>(s.channels), 0.0f);
    b_.avx2->bn_backward_reduce(s.rows, s.channels, s.spatial, dy.data(),
                                xhat.data(), sd_v.data(), sdx_v.data());
    EXPECT_BITWISE_EQ(sd_r, sd_v, "bn_backward_reduce NF sum_dy");
    EXPECT_BITWISE_EQ(sdx_r, sdx_v, "bn_backward_reduce NF sum_dy_xhat");
  }
  auto all_shapes = std::vector<BnShape>(std::begin(kBnNfShapes),
                                         std::end(kBnNfShapes));
  all_shapes.insert(all_shapes.end(), std::begin(kBnNchwShapes),
                    std::end(kBnNchwShapes));
  for (const BnShape& s : all_shapes) {
    const int64_t size = s.rows * s.channels * s.spatial;
    const auto dy = RandomVec(&rng, size);
    const auto xhat = RandomVec(&rng, size);
    for (const Backend* backend : {b_.scalar, b_.avx2, b_.avx2fma}) {
      std::vector<float> sd(static_cast<size_t>(s.channels), 0.0f);
      std::vector<float> sdx(static_cast<size_t>(s.channels), 0.0f);
      backend->bn_backward_reduce(s.rows, s.channels, s.spatial, dy.data(),
                                  xhat.data(), sd.data(), sdx.data());
      for (int64_t c = 0; c < s.channels; ++c) {
        double rd = 0.0, ad = 0.0, rdx = 0.0, adx = 0.0;
        for (int64_t r = 0; r < s.rows; ++r) {
          const int64_t base = (r * s.channels + c) * s.spatial;
          for (int64_t sp = 0; sp < s.spatial; ++sp) {
            const double d = dy[static_cast<size_t>(base + sp)];
            const double t = d * xhat[static_cast<size_t>(base + sp)];
            rd += d;
            ad += std::abs(d);
            rdx += t;
            adx += std::abs(t);
          }
        }
        ASSERT_TRUE(WithinBound(sd[static_cast<size_t>(c)], rd, ad))
            << backend->name << " sum_dy channel " << c;
        ASSERT_TRUE(WithinBound(sdx[static_cast<size_t>(c)], rdx, adx))
            << backend->name << " sum_dy_xhat channel " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Activations.

TEST_F(BackendParityTest, ActivationsParity) {
  Rng rng(0xac7);
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t n : {1, 7, 8, 9, 64, 100, 1023}) {
    auto x = RandomVec(&rng, n);
    // Sprinkle non-finite values; the comparisons must treat them the
    // same way in every backend.
    if (n >= 8) {
      x[0] = kInf;
      x[1] = -kInf;
      x[2] = kNan;
      x[3] = -0.0f;
    }
    const auto dy = RandomVec(&rng, n);
    std::vector<float> yr(static_cast<size_t>(n)), yg(static_cast<size_t>(n));
    std::vector<float> dr(static_cast<size_t>(n)), dg(static_cast<size_t>(n));

    // ReLU / LeakyReLU are comparisons: bitwise in every backend.
    b_.scalar->relu(n, x.data(), yr.data());
    b_.scalar->relu_bwd(n, x.data(), dy.data(), dr.data());
    for (const Backend* backend : {b_.avx2, b_.avx2fma}) {
      backend->relu(n, x.data(), yg.data());
      EXPECT_BITWISE_EQ(yr, yg, backend->name << " relu n=" << n);
      backend->relu_bwd(n, x.data(), dy.data(), dg.data());
      EXPECT_BITWISE_EQ(dr, dg, backend->name << " relu_bwd n=" << n);
    }
    b_.scalar->leaky_relu(n, 0.2f, x.data(), yr.data());
    b_.scalar->leaky_relu_bwd(n, 0.2f, x.data(), dy.data(), dr.data());
    for (const Backend* backend : {b_.avx2, b_.avx2fma}) {
      backend->leaky_relu(n, 0.2f, x.data(), yg.data());
      EXPECT_BITWISE_EQ(yr, yg, backend->name << " leaky_relu n=" << n);
      backend->leaky_relu_bwd(n, 0.2f, x.data(), dy.data(), dg.data());
      EXPECT_BITWISE_EQ(dr, dg, backend->name << " leaky_relu_bwd n=" << n);
    }

    // tanh/sigmoid forward share one libm loop across backends.
    b_.scalar->tanh_fwd(n, x.data(), yr.data());
    b_.avx2->tanh_fwd(n, x.data(), yg.data());
    EXPECT_BITWISE_EQ(yr, yg, "tanh_fwd n=" << n);
    b_.scalar->sigmoid_fwd(n, x.data(), yr.data());
    b_.avx2->sigmoid_fwd(n, x.data(), yg.data());
    EXPECT_BITWISE_EQ(yr, yg, "sigmoid_fwd n=" << n);

    // Backwards: strict AVX2 bitwise vs scalar.
    auto y = RandomVec(&rng, n);
    b_.scalar->tanh_bwd(n, y.data(), dy.data(), dr.data());
    b_.avx2->tanh_bwd(n, y.data(), dy.data(), dg.data());
    EXPECT_BITWISE_EQ(dr, dg, "tanh_bwd n=" << n);
    // sigmoid_bwd = dy * (y * (1 - y)) has no mul+add to fuse: bitwise
    // for the FMA variant too.
    b_.scalar->sigmoid_bwd(n, y.data(), dy.data(), dr.data());
    for (const Backend* backend : {b_.avx2, b_.avx2fma}) {
      backend->sigmoid_bwd(n, y.data(), dy.data(), dg.data());
      EXPECT_BITWISE_EQ(dr, dg, backend->name << " sigmoid_bwd n=" << n);
    }
    // tanh_bwd's 1 - y*y is fused in the FMA variant: double bound for it
    // and for scalar.
    for (const Backend* backend : {b_.scalar, b_.avx2fma}) {
      backend->tanh_bwd(n, y.data(), dy.data(), dg.data());
      for (int64_t i = 0; i < n; ++i) {
        const double t =
            static_cast<double>(dy[static_cast<size_t>(i)]) *
            (1.0 - static_cast<double>(y[static_cast<size_t>(i)]) *
                       y[static_cast<size_t>(i)]);
        ASSERT_TRUE(WithinBound(dg[static_cast<size_t>(i)], t,
                                std::abs(t) + 1.0))
            << backend->name << " tanh_bwd at " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end goldens.

struct EndToEndCrcs {
  uint32_t loss = 0;
  uint32_t sample33 = 0;
  uint32_t sample20 = 0;
};

uint32_t TableCrc(const data::Table& t) {
  uint32_t crc = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      const double v = t.Get(r, c);
      crc = Crc32(&v, sizeof(v), crc);
    }
  }
  return crc;
}

EndToEndCrcs TrainAndSampleCrcs(int threads) {
  Rng rng(77);
  data::Table table = data::MakeAdultLike(96, &rng);
  const auto labels = table.schema().ColumnsWithRole(data::ColumnRole::kLabel);
  core::TableGanOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  options.base_channels = 8;
  options.latent_dim = 16;
  options.seed = 1234;
  options.use_info_loss = true;
  options.use_classifier = true;
  options.num_threads = threads;
  options.verbose = false;
  core::TableGan gan(options);
  Status fit = gan.Fit(table, labels[0]);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  EndToEndCrcs out;
  for (const auto& e : gan.history()) {
    out.loss = Crc32(&e.d_loss, sizeof(float), out.loss);
    out.loss = Crc32(&e.g_orig_loss, sizeof(float), out.loss);
    out.loss = Crc32(&e.info_loss, sizeof(float), out.loss);
    out.loss = Crc32(&e.class_loss, sizeof(float), out.loss);
  }
  auto s33 = gan.Sample(33);
  auto s20 = gan.Sample(20);
  EXPECT_TRUE(s33.ok() && s20.ok());
  out.sample33 = TableCrc(*s33);
  out.sample20 = TableCrc(*s20);
  return out;
}

// CRC of the libm results the pipeline depends on (exp, log, log1p, pow,
// tanh, sin, cos in float and double) on a fixed grid. The step is
// volatile so that the compiler cannot fold the calls at build time.
uint32_t LibmCrc() {
  volatile double step = 0.0371;
  uint32_t crc = 0;
  for (int i = -200; i <= 200; ++i) {
    const double x = i * step;
    const double p = std::abs(x) + 0.01;
    const double d[] = {std::exp(x),    std::log(p),  std::log1p(p),
                        std::pow(p, x), std::tanh(x), std::sin(x),
                        std::cos(x)};
    const float xf = static_cast<float>(x);
    const float pf = static_cast<float>(p);
    const float f[] = {std::exp(xf),     std::log(pf),  std::log1p(pf),
                       std::pow(pf, xf), std::tanh(xf), std::sin(xf),
                       std::cos(xf)};
    crc = Crc32(d, sizeof(d), crc);
    crc = Crc32(f, sizeof(f), crc);
  }
  return crc;
}

// The fixed-seed train + Sample CRCs of the scalar backend. With no
// implicit FP contraction they are a function of the source and libm
// alone, so every build type and thread count reproduces them. They were
// recorded with glibc 2.36's libm, which kGoldenLibmCrc identifies.
constexpr uint32_t kGoldenLibmCrc = 0xfc8e0889u;
constexpr uint32_t kGoldenLossCrc = 0x61f8d074u;
constexpr uint32_t kGoldenSample33Crc = 0xf42a6ac2u;
constexpr uint32_t kGoldenSample20Crc = 0x5d226298u;

TEST(KernelGoldenTest, ScalarBackendMatchesGoldens) {
  ASSERT_EQ(LibmCrc(), kGoldenLibmCrc)
      << "this host's libm differs from the one the golden CRCs were "
         "recorded with (glibc 2.36), so the CRCs below cannot apply here";
  BackendGuard guard(&kernels::Scalar());
  for (int threads : {1, 3}) {
    const EndToEndCrcs got = TrainAndSampleCrcs(threads);
    EXPECT_EQ(got.loss, kGoldenLossCrc) << "loss CRC, threads=" << threads;
    EXPECT_EQ(got.sample33, kGoldenSample33Crc)
        << "Sample(33) CRC, threads=" << threads;
    EXPECT_EQ(got.sample20, kGoldenSample20Crc)
        << "Sample(20) CRC, threads=" << threads;
  }
}

TEST(KernelGoldenTest, Avx2BackendThreadCountInvariant) {
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "AVX2 backend not available on this host";
  }
  BackendGuard guard(kernels::Avx2(/*fma=*/false));
  const EndToEndCrcs t1 = TrainAndSampleCrcs(1);
  const EndToEndCrcs t3 = TrainAndSampleCrcs(3);
  EXPECT_EQ(t1.loss, t3.loss);
  EXPECT_EQ(t1.sample33, t3.sample33);
  EXPECT_EQ(t1.sample20, t3.sample20);
}

}  // namespace
}  // namespace tablegan
