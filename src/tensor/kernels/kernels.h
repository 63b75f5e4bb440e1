#ifndef TABLEGAN_TENSOR_KERNELS_KERNELS_H_
#define TABLEGAN_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>

#include "tensor/im2col.h"

namespace tablegan {
namespace kernels {

/// A backend is a table of the serial math kernels the NN stack spends
/// its FLOPs in. Threading stays *above* this layer (matmul.cc /
/// batch-parallel conv chunks call a backend kernel per row block), so a
/// backend only ever sees serial work and per-ISA bitwise determinism at
/// any thread count follows from the existing row-partition argument.
///
/// Determinism contract (DESIGN.md §12):
///  - Every TU is built without implicit FP contraction (a build rule
///    in src/common), so a*b + c rounds twice unless the source writes
///    an fma, and the bits are a function of source, backend and libm.
///  - "scalar" is the golden reference: the pre-dispatch kernel source
///    with portable strict IEEE semantics (one rounding per multiply and
///    per add). KernelGoldenTest pins its end-to-end train + Sample
///    CRCs.
///  - "avx2" (TABLEGAN_FMA unset) is written with explicit intrinsics,
///    vectorizing across *independent outputs* (GEMM output columns,
///    elementwise lanes) in the scalar per-element accumulation order,
///    so it is bitwise identical to "scalar", which the parity suite
///    checks. The one reassociating exception is the NCHW BatchNorm
///    reductions (moments and backward sums), which use a fixed 8-lane
///    split of the spatial axis folded in lane order — deterministic
///    per-ISA, but a different rounding order, held to a small
///    accumulation-scaled multiple of FLT_EPSILON of the exact (double)
///    result.
///  - "avx2fma" (TABLEGAN_FMA=1) additionally fuses multiply-adds via
///    explicit FMA intrinsics (one rounding instead of two); it holds
///    the same double-precision bound and is gated off by default.
///  - Every backend is individually deterministic: same input, same
///    backend, any thread count => bitwise identical results.
struct Backend {
  const char* name;  // "scalar", "avx2", "avx2fma"
  bool fma;

  /// C[m,n] += alpha * A[m,k] * B[k,n] (row-major, serial block kernel).
  /// Terms with alpha * a[i,kk] == 0 are skipped, exactly as the scalar
  /// reference does (the skip is observable with inf/NaN/-0 operands).
  /// The SIMD backends skip without a branch: A is often a ReLU-masked
  /// gradient with zeros at random positions, where a branch per term
  /// mispredicts often. They blend the accumulator back instead, with the
  /// same bits.
  void (*gemm_nn)(int64_t m, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float* c);
  /// C[m,n] (+)= A[m,k] * B[n,k]^T. Overwrites C unless `accumulate`.
  void (*gemm_nt)(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* b, float* c, bool accumulate);
  /// Rows [r0, r1) of C[m,n] += A[k,m]^T * B[k,n].
  void (*gemm_tn)(int64_t r0, int64_t r1, int64_t m, int64_t n, int64_t k,
                  const float* a, const float* b, float* c);

  /// Patch unfold / fold-accumulate for one [C,H,W] image (pure data
  /// movement + one add per target cell; bitwise-exact in any backend).
  void (*im2col)(const ops::Conv2dGeometry& g, const float* img,
                 float* cols);
  void (*col2im)(const ops::Conv2dGeometry& g, const float* cols,
                 float* img);

  /// BatchNorm batch moments over a [rows, channels, spatial] view (an
  /// NF tensor is spatial == 1). Writes per-channel mean and biased
  /// variance, both already divided by rows * spatial.
  void (*bn_moments)(int64_t rows, int64_t channels, int64_t spatial,
                     const float* x, float* mean, float* var);
  /// xhat = (x - mean[c]) * inv_std[c]; y = gamma[c] * xhat + beta[c].
  /// `xhat` may be null (inference path does not cache it).
  void (*bn_normalize)(int64_t rows, int64_t channels, int64_t spatial,
                       const float* x, const float* mean,
                       const float* inv_std, const float* gamma,
                       const float* beta, float* xhat, float* y);
  /// sum_dy[c] += dy; sum_dy_xhat[c] += dy * xhat (caller zeroes sums).
  void (*bn_backward_reduce)(int64_t rows, int64_t channels, int64_t spatial,
                             const float* dy, const float* xhat,
                             float* sum_dy, float* sum_dy_xhat);
  /// dx = gamma[c]*inv_std[c] * (dy - sum_dy[c]*inv_m - xhat*sum_dy_xhat[c]
  /// *inv_m), with the scalar reference's association order.
  void (*bn_backward_input)(int64_t rows, int64_t channels, int64_t spatial,
                            const float* dy, const float* xhat,
                            const float* gamma, const float* inv_std,
                            const float* sum_dy, const float* sum_dy_xhat,
                            float inv_m, float* dx);

  /// Elementwise activations; `y`/`dx` may alias `x`/`dy`.
  void (*relu)(int64_t n, const float* x, float* y);
  void (*relu_bwd)(int64_t n, const float* x, const float* dy, float* dx);
  void (*leaky_relu)(int64_t n, float slope, const float* x, float* y);
  void (*leaky_relu_bwd)(int64_t n, float slope, const float* x,
                         const float* dy, float* dx);
  /// tanh/sigmoid forward call libm per element in every backend (there
  /// is no bit-identical vector libm), so they are exact by construction;
  /// their polynomial backwards are vectorized.
  void (*tanh_fwd)(int64_t n, const float* x, float* y);
  void (*tanh_bwd)(int64_t n, const float* y, const float* dy, float* dx);
  void (*sigmoid_fwd)(int64_t n, const float* x, float* y);
  void (*sigmoid_bwd)(int64_t n, const float* y, const float* dy, float* dx);
};

/// The backend every dispatching call site uses. Selected once, on first
/// use: TABLEGAN_ISA=scalar|avx2 overrides; unset/"auto" picks the best
/// ISA the CPU supports (CPUID) among those compiled in. TABLEGAN_FMA=1
/// additionally enables FMA contraction in the avx2 backend. A forced
/// TABLEGAN_ISA=avx2 on hardware without AVX2+FMA aborts with a clear
/// message rather than executing illegal instructions.
const Backend& Active();

/// The scalar reference backend (always available).
const Backend& Scalar();

/// The AVX2 backend (with or without FMA contraction), or nullptr when
/// it was not compiled in or the CPU lacks AVX2/FMA. Used by the parity
/// tests and benches to compare backends explicitly.
const Backend* Avx2(bool fma);

/// True when this process may execute the AVX2 backend.
bool Avx2Available();

/// Test/bench hook: force `backend` to be returned by Active() from now
/// on (pass nullptr to restore environment-based selection). Not for
/// production use — call only while no kernels are running.
void OverrideBackend(const Backend* backend);

}  // namespace kernels
}  // namespace tablegan

#endif  // TABLEGAN_TENSOR_KERNELS_KERNELS_H_
