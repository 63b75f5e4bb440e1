#ifndef TABLEGAN_TENSOR_MATMUL_H_
#define TABLEGAN_TENSOR_MATMUL_H_

#include "tensor/tensor.h"

namespace tablegan {
namespace ops {

/// C = alpha * op(A) * op(B) + beta * C for row-major rank-2 tensors,
/// where op(.) optionally transposes. This is the single GEMM the whole
/// NN stack funnels through (dense layers and im2col convolutions), so
/// it is cache-blocked and written to auto-vectorize.
///
/// Shapes: op(A) is [m, k], op(B) is [k, n], C is [m, n]. C must be
/// pre-sized; with beta == 0 its prior contents are ignored.
///
/// A transposed operand is materialized contiguously before the kernel
/// runs.
void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c);

/// Convenience: returns A * B (no transposes, alpha=1, beta=0).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Raw pointer GEMM kernels over packed row-major buffers, used by the
/// convolution layers to multiply directly into tensor slices without
/// intermediate copies. All accumulate into C when `accumulate` is true,
/// otherwise overwrite.
///
/// NN: C[m,n] (+)= A[m,k] * B[k,n]
/// NT: C[m,n] (+)= A[m,k] * B[n,k]^T
/// TN: C[m,n] (+)= A[k,m]^T * B[k,n]
void RawGemmNN(int64_t m, int64_t n, int64_t k, const float* a,
               const float* b, float* c, bool accumulate);
void RawGemmNT(int64_t m, int64_t n, int64_t k, const float* a,
               const float* b, float* c, bool accumulate);
void RawGemmTN(int64_t m, int64_t n, int64_t k, const float* a,
               const float* b, float* c, bool accumulate);

}  // namespace ops
}  // namespace tablegan

#endif  // TABLEGAN_TENSOR_MATMUL_H_
