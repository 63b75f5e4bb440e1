#include "tensor/matmul.h"

#include <algorithm>

#include "common/parallel.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor_ops.h"

namespace tablegan {
namespace ops {
namespace {

// Threading policy: every kernel below is parallelized by partitioning the
// rows of C, so each worker owns a disjoint block of output rows and the
// per-row arithmetic (loop structure, accumulation order) is identical to
// the serial kernel. Results are therefore bitwise identical at any thread
// count. The gate and grain are pure functions of the problem shape, never
// of the thread count.
//
// The serial block kernels themselves live one layer down, in
// tensor/kernels/ (scalar reference plus the runtime-selected SIMD
// backend); this file only partitions rows and forwards to
// kernels::Active().
constexpr int64_t kMinParallelFlops = int64_t{1} << 18;  // ~262k mul-adds
constexpr int64_t kGrainFlops = int64_t{1} << 15;        // per-chunk floor

bool WorthThreading(int64_t m, int64_t n, int64_t k) {
  return m > 1 && m * n * k >= kMinParallelFlops;
}

int64_t RowGrain(int64_t n, int64_t k) {
  return std::max<int64_t>(1, kGrainFlops / std::max<int64_t>(1, n * k));
}

// Row-partitioned gemm_nn. Each chunk runs the serial kernel on its own
// block of A/C rows; per-row work does not depend on the partition.
void ParallelGemm(int64_t m, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float* c) {
  const auto gemm_nn = kernels::Active().gemm_nn;
  if (!WorthThreading(m, n, k)) {
    gemm_nn(m, n, k, alpha, a, b, c);
    return;
  }
  ParallelFor(m, RowGrain(n, k), [=](int64_t r0, int64_t r1) {
    gemm_nn(r1 - r0, n, k, alpha, a + r0 * k, b, c + r0 * n);
  });
}

}  // namespace

void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c) {
  TABLEGAN_CHECK(a.rank() == 2 && b.rank() == 2 && c->rank() == 2);
  const int64_t m = transpose_a ? a.dim(1) : a.dim(0);
  const int64_t k = transpose_a ? a.dim(0) : a.dim(1);
  const int64_t kb = transpose_b ? b.dim(1) : b.dim(0);
  const int64_t n = transpose_b ? b.dim(0) : b.dim(1);
  TABLEGAN_CHECK(k == kb) << "inner dimensions differ: " << k << " vs " << kb;
  TABLEGAN_CHECK(c->dim(0) == m && c->dim(1) == n)
      << "output shape " << ShapeToString(c->shape()) << " expected ["
      << m << ", " << n << "]";

  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    ScaleInPlace(beta, c);
  }
  if (m == 0 || n == 0 || k == 0) return;

  // Materializing the transposed operand keeps the hot kernel contiguous;
  // the copy is O(m*k) versus the O(m*k*n) multiply.
  const Tensor* pa = &a;
  const Tensor* pb = &b;
  Tensor at, bt;
  if (transpose_a) {
    Transpose2DInto(a, &at);
    pa = &at;
  }
  if (transpose_b) {
    Transpose2DInto(b, &bt);
    pb = &bt;
  }
  ParallelGemm(m, n, k, alpha, pa->data(), pb->data(), c->data());
}

void RawGemmNN(int64_t m, int64_t n, int64_t k, const float* a,
               const float* b, float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  ParallelGemm(m, n, k, 1.0f, a, b, c);
}

void RawGemmNT(int64_t m, int64_t n, int64_t k, const float* a,
               const float* b, float* c, bool accumulate) {
  const auto gemm_nt = kernels::Active().gemm_nt;
  if (!WorthThreading(m, n, k)) {
    gemm_nt(m, n, k, a, b, c, accumulate);
    return;
  }
  ParallelFor(m, RowGrain(n, k), [=](int64_t r0, int64_t r1) {
    gemm_nt(r1 - r0, n, k, a + r0 * k, b, c + r0 * n, accumulate);
  });
}

void RawGemmTN(int64_t m, int64_t n, int64_t k, const float* a,
               const float* b, float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  const auto gemm_tn = kernels::Active().gemm_tn;
  if (!WorthThreading(m, n, k)) {
    gemm_tn(0, m, m, n, k, a, b, c);
    return;
  }
  ParallelFor(m, RowGrain(n, k), [=](int64_t r0, int64_t r1) {
    gemm_tn(r0, r1, m, n, k, a, b, c);
  });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TABLEGAN_CHECK(a.rank() == 2 && b.rank() == 2);
  Tensor c({a.dim(0), b.dim(1)});
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  return c;
}

}  // namespace ops
}  // namespace tablegan
