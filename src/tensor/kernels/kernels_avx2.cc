// AVX2/FMA backend. Compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt) and, like every TU, without implicit FP
// contraction, so the only FMAs are the explicit _mm256_fmadd_ps (and
// std::fma in the NT scalar column tail) of the kFma=true instantiation.
// That gives the kFma=false variant portable strict IEEE semantics — one
// rounding per multiply and per add — and it matches the scalar backend
// bitwise; see the contract in kernels.h.
//
// Exactness strategy (DESIGN.md §12): vectorize across *independent
// outputs* — GEMM output columns, elementwise lanes, NF channels — so
// every SIMD lane executes the scalar kernel's per-element operation
// sequence. Reductions along the depth axis keep the scalar kernel's
// accumulation order per element (NT reuses the shared kNtBlockL
// boundaries; NN/TN accumulate ascending-k into C-held registers, which
// is store/load elision and rounds identically). Column tails perform
// the vector body's exact per-element operation, so a GEMM element's
// bits do not depend on its column position or on n. The only
// reassociating divergence is the NCHW BatchNorm reductions, which split
// the spatial axis over 8 lanes folded in lane order.

#include "tensor/kernels/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "tensor/kernels/blocking.h"

namespace tablegan {
namespace kernels {

// libm forwards shared with the scalar backend (kernels_scalar.cc).
void TanhFwdLibm(int64_t n, const float* x, float* y);
void SigmoidFwdLibm(int64_t n, const float* x, float* y);

namespace {

template <bool kFma>
inline __m256 MulAdd(__m256 a, __m256 b, __m256 c) {
  if constexpr (kFma) {
    return _mm256_fmadd_ps(a, b, c);
  } else {
    return _mm256_add_ps(c, _mm256_mul_ps(a, b));
  }
}

// Scalar twin for the NT column tail: the same per-element operation as
// the vector body (one fused rounding when kFma, else mul then add), so
// an element's bits do not depend on whether its column lands in the
// body or in the tail.
template <bool kFma>
inline float MulAdd(float a, float b, float c) {
  if constexpr (kFma) {
    return std::fma(a, b, c);
  } else {
    return c + a * b;
  }
}

// Sums the 8 lanes in ascending lane order (the documented fixed
// lane-reduction order for the NCHW BatchNorm reductions).
inline float LaneSum(__m256 v) {
  alignas(32) float lane[8];
  _mm256_store_ps(lane, v);
  float acc = lane[0];
  for (int i = 1; i < 8; ++i) acc += lane[i];
  return acc;
}

// ---------------------------------------------------------------------
// GEMM NN zero-skip. The scalar kernel skips a term whose multiplier
// (alpha * a) is +-0, which is observable: the skipped 0 * inf or
// 0 * NaN of B never reaches C, and a -0 in C stays -0.
//
// The NN kernel skips without a branch. Its A is often a ReLU-masked
// gradient with zeros at random positions (the MLP's dX and dW products,
// and the forward pass of a layer fed by a ReLU), where a per-(row, k)
// `if (av == 0) continue;` mispredicts often. Instead a row block that
// has a zero multiplier computes every term and blends the old
// accumulator back where av is +-0 — the same bits as the scalar skip.
// A row block with none (dense inputs, weights) takes the plain
// multiply-add, so the blend costs it nothing. Which path a block takes
// is decided once per depth block from A, for kFlagRows rows at a time
// so the flags live on the stack.

constexpr int64_t kFlagRows = 256;

// With kSkip, acc + av * b except where av is +-0, where acc is kept;
// without, acc + av * b.
template <bool kFma, bool kSkip>
inline __m256 SkipMulAdd(__m256 av, __m256 b, __m256 acc) {
  const __m256 sum = MulAdd<kFma>(av, b, acc);
  if constexpr (kSkip) {
    // EQ_OQ is false for NaN, which the scalar `av == 0.0f` keeps too.
    return _mm256_blendv_ps(
        sum, acc, _mm256_cmp_ps(av, _mm256_setzero_ps(), _CMP_EQ_OQ));
  } else {
    return sum;
  }
}

// zero_free[i] = 1 when row i of A[rows, k] has no zero multiplier
// alpha * a[i, kk] for kk in [k0, k1).
void ZeroFreeRows(int64_t rows, int64_t k0, int64_t k1, int64_t k,
                  float alpha, const float* a, uint8_t* zero_free) {
  const __m256 alphav = _mm256_set1_ps(alpha);
  for (int64_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    __m256 zero = _mm256_setzero_ps();
    int64_t kk = k0;
    for (; kk + 8 <= k1; kk += 8) {
      const __m256 av = _mm256_mul_ps(alphav, _mm256_loadu_ps(arow + kk));
      zero = _mm256_or_ps(
          zero, _mm256_cmp_ps(av, _mm256_setzero_ps(), _CMP_EQ_OQ));
    }
    bool any = !_mm256_testz_ps(zero, zero);
    for (; kk < k1; ++kk) any |= alpha * arow[kk] == 0.0f;
    zero_free[i] = any ? 0 : 1;
  }
}

// Runs tile(rows, i) over the rows [r0, r1) in blocks of 4, then 1;
// `rows` is a std::integral_constant tag.
template <typename Tile>
inline void ForRowBlocks(int64_t r0, int64_t r1, const Tile& tile) {
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) tile(std::integral_constant<int, 4>{}, i);
  for (; i < r1; ++i) tile(std::integral_constant<int, 1>{}, i);
}

// Load/store of 8 columns; the masked form covers a column tail of
// 1..7 lanes and never touches memory past it.
template <bool kMasked>
inline __m256 Load8(const float* p, __m256i mask) {
  if constexpr (kMasked) {
    return _mm256_maskload_ps(p, mask);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool kMasked>
inline void Store8(float* p, __m256i mask, __m256 v) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// Lane mask for the first w (1..7) of 8 columns.
inline __m256i TailMask(int64_t w) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Runs step(vecs, masked, j0, mask) over the columns [0, n): 16-wide
// steps (2 vectors), then at most one 8-wide step and one masked step
// for the last 1..7 columns. `vecs` and `masked` are compile-time tags.
template <typename Step>
inline void ForColumnSteps(int64_t n, const Step& step) {
  using Two = std::integral_constant<int, 2>;
  using One = std::integral_constant<int, 1>;
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) step(Two{}, std::false_type{}, j0, all);
  if (j0 + 8 <= n) {
    step(One{}, std::false_type{}, j0, all);
    j0 += 8;
  }
  if (j0 < n) step(One{}, std::true_type{}, j0, TailMask(n - j0));
}

// ---------------------------------------------------------------------
// GEMM NN: C[m,n] += alpha * A[m,k] * B[k,n].
//
// Register-blocked micro kernel: kRows rows x kVecs * 8 columns of C
// held in registers across one k block, or with kMasked (kVecs == 1) a
// 1..7-column tail under `mask`. Per element this performs the scalar
// kernel's adds in the same ascending-k order (C round-trips through
// memory in the scalar kernel, which does not round), and the
// alpha*a==0 skip is applied per (row, kk) exactly as in scalar, without
// a branch (see the zero-skip note above).

template <int kRows, int kVecs, bool kFma, bool kSkip, bool kMasked>
void NnMicro(int64_t k0, int64_t k1, int64_t k, int64_t n, float alpha,
             const float* a, const float* b, float* c, int64_t j0,
             __m256i mask) {
  __m256 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = Load8<kMasked>(c + r * n + j0 + 8 * v, mask);
    }
  }
  for (int64_t kk = k0; kk < k1; ++kk) {
    __m256 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = Load8<kMasked>(b + kk * n + j0 + 8 * v, mask);
    }
    for (int r = 0; r < kRows; ++r) {
      const __m256 avv = _mm256_set1_ps(alpha * a[r * k + kk]);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = SkipMulAdd<kFma, kSkip>(avv, bv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      Store8<kMasked>(c + r * n + j0 + 8 * v, mask, acc[r][v]);
    }
  }
}

template <bool kFma>
void GemmNnAvx2(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                const float* b, float* c) {
  uint8_t zero_free[kFlagRows];
  for (int64_t k0 = 0; k0 < k; k0 += kGemmBlockK) {
    const int64_t k1 = std::min(k, k0 + kGemmBlockK);
    for (int64_t i0 = 0; i0 < m; i0 += kFlagRows) {
      const int64_t i1 = std::min(m, i0 + kFlagRows);
      ZeroFreeRows(i1 - i0, k0, k1, k, alpha, a + i0 * k, zero_free);
      ForColumnSteps(n, [&](auto vecs, auto masked, int64_t j0,
                            __m256i mask) {
        ForRowBlocks(i0, i1, [&](auto rows, int64_t i) {
          uint8_t dense = 1;
          for (int r = 0; r < rows(); ++r) dense &= zero_free[i - i0 + r];
          if (dense) {
            NnMicro<rows(), vecs(), kFma, false, masked()>(
                k0, k1, k, n, alpha, a + i * k, b, c + i * n, j0, mask);
          } else {
            NnMicro<rows(), vecs(), kFma, true, masked()>(
                k0, k1, k, n, alpha, a + i * k, b, c + i * n, j0, mask);
          }
        });
      });
    }
  }
}

// ---------------------------------------------------------------------
// GEMM NT: C[m,n] (+)= A[m,k] * B[n,k]^T.
//
// A kNtBlockL x kNtBlockJ tile of B is transpose-packed (pure copy) so
// the j axis becomes contiguous; each lane then accumulates its own
// C element over the *same* [l0, l1) depth blocks as the scalar kernel
// (acc = 0, ascending l, then c += acc), making the kFma=false variant
// bitwise exact.

template <bool kFma>
void GemmNtAvx2(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, bool accumulate) {
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) std::fill(c + i * n, c + i * n + n, 0.0f);
  }
  alignas(32) static thread_local float bt[kNtBlockL * kNtBlockJ];
  for (int64_t l0 = 0; l0 < k; l0 += kNtBlockL) {
    const int64_t l1 = std::min(k, l0 + kNtBlockL);
    const int64_t lw = l1 - l0;
    for (int64_t j0 = 0; j0 < n; j0 += kNtBlockJ) {
      const int64_t j1 = std::min(n, j0 + kNtBlockJ);
      const int64_t jw = j1 - j0;
      const int64_t jv = jw - jw % 8;  // vectorized columns of this tile
      for (int64_t jj = 0; jj < jv; ++jj) {
        const float* brow = b + (j0 + jj) * k + l0;
        for (int64_t l = 0; l < lw; ++l) bt[l * jv + jj] = brow[l];
      }
      int64_t i = 0;
      for (; i + 4 <= m; i += 4) {
        for (int64_t jj = 0; jj + 8 <= jv; jj += 8) {
          __m256 acc0 = _mm256_setzero_ps();
          __m256 acc1 = _mm256_setzero_ps();
          __m256 acc2 = _mm256_setzero_ps();
          __m256 acc3 = _mm256_setzero_ps();
          const float* a0 = a + i * k + l0;
          const float* a1 = a0 + k;
          const float* a2 = a1 + k;
          const float* a3 = a2 + k;
          for (int64_t l = 0; l < lw; ++l) {
            const __m256 bv = _mm256_load_ps(bt + l * jv + jj);
            acc0 = MulAdd<kFma>(_mm256_set1_ps(a0[l]), bv, acc0);
            acc1 = MulAdd<kFma>(_mm256_set1_ps(a1[l]), bv, acc1);
            acc2 = MulAdd<kFma>(_mm256_set1_ps(a2[l]), bv, acc2);
            acc3 = MulAdd<kFma>(_mm256_set1_ps(a3[l]), bv, acc3);
          }
          float* crow = c + i * n + j0 + jj;
          _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc0));
          crow += n;
          _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc1));
          crow += n;
          _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc2));
          crow += n;
          _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc3));
        }
      }
      for (; i < m; ++i) {
        for (int64_t jj = 0; jj + 8 <= jv; jj += 8) {
          __m256 acc = _mm256_setzero_ps();
          const float* arow = a + i * k + l0;
          for (int64_t l = 0; l < lw; ++l) {
            acc = MulAdd<kFma>(_mm256_set1_ps(arow[l]),
                               _mm256_load_ps(bt + l * jv + jj), acc);
          }
          float* crow = c + i * n + j0 + jj;
          _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc));
        }
      }
      if (jv < jw) {
        // Scalar column tail straight off B (reference loop order).
        for (int64_t ii = 0; ii < m; ++ii) {
          const float* arow = a + ii * k;
          float* crow = c + ii * n;
          for (int64_t j = j0 + jv; j < j1; ++j) {
            const float* brow = b + j * k;
            float acc = 0.0f;
            for (int64_t l = l0; l < l1; ++l) {
              acc = MulAdd<kFma>(arow[l], brow[l], acc);
            }
            crow[j] += acc;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// GEMM TN: rows [r0, r1) of C[m,n] += A[k,m]^T * B[k,n].
//
// C columns are vectorized, in the same column steps as NN; each element
// accumulates ascending l in a register (the scalar kernel round-trips C
// through memory, which does not round), with the a==0 skip applied per
// (l, row) as in scalar. The skip stays a branch here: TN's callers pass
// convolution weights as A, which have no zeros, so it is always
// predicted ([[unlikely]] keeps the multiply-add on the fall-through
// path).

template <int kRows, int kVecs, bool kFma, bool kMasked>
void TnMicro(int64_t i, int64_t m, int64_t n, int64_t k, const float* a,
             const float* b, float* c, int64_t j0, __m256i mask) {
  __m256 acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = Load8<kMasked>(c + (i + r) * n + j0 + 8 * v, mask);
    }
  }
  for (int64_t l = 0; l < k; ++l) {
    __m256 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = Load8<kMasked>(b + l * n + j0 + 8 * v, mask);
    }
    const float* arow = a + l * m + i;
    for (int r = 0; r < kRows; ++r) {
      const float av = arow[r];
      if (av == 0.0f) [[unlikely]] continue;
      const __m256 avv = _mm256_set1_ps(av);
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = MulAdd<kFma>(avv, bv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      Store8<kMasked>(c + (i + r) * n + j0 + 8 * v, mask, acc[r][v]);
    }
  }
}

template <bool kFma>
void GemmTnAvx2(int64_t r0, int64_t r1, int64_t m, int64_t n, int64_t k,
                const float* a, const float* b, float* c) {
  ForColumnSteps(n, [&](auto vecs, auto masked, int64_t j0, __m256i mask) {
    ForRowBlocks(r0, r1, [&](auto rows, int64_t i) {
      TnMicro<rows(), vecs(), kFma, masked()>(i, m, n, k, a, b, c, j0, mask);
    });
  });
}

// ---------------------------------------------------------------------
// im2col / col2im: pure data movement (plus one add per target cell for
// col2im), so any implementation is bitwise exact. The hot stride-1 rows
// become memcpy / vector adds; other strides use strided scalar loops
// over the precomputed valid x range.

// Valid output-x range [x_lo, x_hi) for which ix = x*stride + off lies
// in [0, in_w).
inline void ValidXRange(int64_t off, int64_t stride, int64_t in_w, int64_t ow,
                        int64_t* x_lo, int64_t* x_hi) {
  *x_lo = off >= 0 ? 0 : std::min(ow, (-off + stride - 1) / stride);
  const int64_t t = in_w - 1 - off;
  *x_hi = t < 0 ? *x_lo : std::min(ow, t / stride + 1);
  if (*x_hi < *x_lo) *x_hi = *x_lo;
}

void Im2ColAvx2(const ops::Conv2dGeometry& g, const float* img, float* cols) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t out_spatial = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* channel = img + c * g.in_h * g.in_w;
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = cols + row * out_spatial;
        const int64_t off = kx - g.padding;
        int64_t x_lo, x_hi;
        ValidXRange(off, g.stride, g.in_w, ow, &x_lo, &x_hi);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + ky - g.padding;
          float* dst = out_row + y * ow;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(dst, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          const float* src = channel + iy * g.in_w + off;
          if (x_lo > 0) {
            std::memset(dst, 0, static_cast<size_t>(x_lo) * sizeof(float));
          }
          if (g.stride == 1) {
            std::memcpy(dst + x_lo, src + x_lo,
                        static_cast<size_t>(x_hi - x_lo) * sizeof(float));
          } else {
            for (int64_t x = x_lo; x < x_hi; ++x) dst[x] = src[x * g.stride];
          }
          if (x_hi < ow) {
            std::memset(dst + x_hi, 0,
                        static_cast<size_t>(ow - x_hi) * sizeof(float));
          }
        }
      }
    }
  }
}

void Col2ImAvx2(const ops::Conv2dGeometry& g, const float* cols, float* img) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t out_spatial = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    float* channel = img + c * g.in_h * g.in_w;
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row = cols + row * out_spatial;
        const int64_t off = kx - g.padding;
        int64_t x_lo, x_hi;
        ValidXRange(off, g.stride, g.in_w, ow, &x_lo, &x_hi);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + ky - g.padding;
          if (iy < 0 || iy >= g.in_h) continue;
          const float* src = in_row + y * ow;
          float* dst = channel + iy * g.in_w + off;
          if (g.stride == 1) {
            int64_t x = x_lo;
            for (; x + 8 <= x_hi; x += 8) {
              _mm256_storeu_ps(dst + x,
                               _mm256_add_ps(_mm256_loadu_ps(dst + x),
                                             _mm256_loadu_ps(src + x)));
            }
            for (; x < x_hi; ++x) dst[x] += src[x];
          } else {
            for (int64_t x = x_lo; x < x_hi; ++x) {
              dst[x * g.stride] += src[x];
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// BatchNorm. NF tensors (spatial == 1) vectorize across channels, which
// keeps every per-channel accumulation in scalar order (exact). NCHW
// reductions split the spatial axis over 8 lanes folded in lane order —
// deterministic per-ISA, ULP-level different from scalar.

template <bool kFma>
void BnMomentsAvx2(int64_t rows, int64_t channels, int64_t spatial,
                   const float* x, float* mean, float* var) {
  const float m = static_cast<float>(rows * spatial);
  std::fill(mean, mean + channels, 0.0f);
  std::fill(var, var + channels, 0.0f);
  if (spatial == 1) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* px = x + r * channels;
      int64_t c = 0;
      for (; c + 8 <= channels; c += 8) {
        _mm256_storeu_ps(mean + c, _mm256_add_ps(_mm256_loadu_ps(mean + c),
                                                 _mm256_loadu_ps(px + c)));
      }
      for (; c < channels; ++c) mean[c] += px[c];
    }
    for (int64_t c = 0; c < channels; ++c) mean[c] /= m;
    for (int64_t r = 0; r < rows; ++r) {
      const float* px = x + r * channels;
      int64_t c = 0;
      for (; c + 8 <= channels; c += 8) {
        const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(px + c),
                                       _mm256_loadu_ps(mean + c));
        _mm256_storeu_ps(var + c,
                         MulAdd<kFma>(d, d, _mm256_loadu_ps(var + c)));
      }
      for (; c < channels; ++c) {
        const float d = px[c] - mean[c];
        var[c] += d * d;
      }
    }
    for (int64_t c = 0; c < channels; ++c) var[c] /= m;
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* px = x + (r * channels + c) * spatial;
      __m256 acc = _mm256_setzero_ps();
      int64_t s = 0;
      for (; s + 8 <= spatial; s += 8) {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(px + s));
      }
      float partial = LaneSum(acc);
      for (; s < spatial; ++s) partial += px[s];
      mean[c] += partial;
    }
  }
  for (int64_t c = 0; c < channels; ++c) mean[c] /= m;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* px = x + (r * channels + c) * spatial;
      const __m256 mv = _mm256_set1_ps(mean[c]);
      __m256 acc = _mm256_setzero_ps();
      int64_t s = 0;
      for (; s + 8 <= spatial; s += 8) {
        const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(px + s), mv);
        acc = MulAdd<kFma>(d, d, acc);
      }
      float partial = LaneSum(acc);
      for (; s < spatial; ++s) {
        const float d = px[s] - mean[c];
        partial += d * d;
      }
      var[c] += partial;
    }
  }
  for (int64_t c = 0; c < channels; ++c) var[c] /= m;
}

template <bool kFma>
void BnNormalizeAvx2(int64_t rows, int64_t channels, int64_t spatial,
                     const float* x, const float* mean, const float* inv_std,
                     const float* gamma, const float* beta, float* xhat,
                     float* y) {
  if (spatial == 1) {
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t base = r * channels;
      int64_t c = 0;
      for (; c + 8 <= channels; c += 8) {
        const __m256 xh = _mm256_mul_ps(
            _mm256_sub_ps(_mm256_loadu_ps(x + base + c),
                          _mm256_loadu_ps(mean + c)),
            _mm256_loadu_ps(inv_std + c));
        if (xhat != nullptr) _mm256_storeu_ps(xhat + base + c, xh);
        _mm256_storeu_ps(y + base + c,
                         MulAdd<kFma>(_mm256_loadu_ps(gamma + c), xh,
                                      _mm256_loadu_ps(beta + c)));
      }
      for (; c < channels; ++c) {
        const float xh = (x[base + c] - mean[c]) * inv_std[c];
        if (xhat != nullptr) xhat[base + c] = xh;
        y[base + c] = gamma[c] * xh + beta[c];
      }
    }
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      const __m256 mv = _mm256_set1_ps(mean[c]);
      const __m256 sv = _mm256_set1_ps(inv_std[c]);
      const __m256 gv = _mm256_set1_ps(gamma[c]);
      const __m256 bv = _mm256_set1_ps(beta[c]);
      int64_t s = 0;
      for (; s + 8 <= spatial; s += 8) {
        const __m256 xh = _mm256_mul_ps(
            _mm256_sub_ps(_mm256_loadu_ps(x + base + s), mv), sv);
        if (xhat != nullptr) _mm256_storeu_ps(xhat + base + s, xh);
        _mm256_storeu_ps(y + base + s, MulAdd<kFma>(gv, xh, bv));
      }
      for (; s < spatial; ++s) {
        const float xh = (x[base + s] - mean[c]) * inv_std[c];
        if (xhat != nullptr) xhat[base + s] = xh;
        y[base + s] = gamma[c] * xh + beta[c];
      }
    }
  }
}

template <bool kFma>
void BnBackwardReduceAvx2(int64_t rows, int64_t channels, int64_t spatial,
                          const float* dy, const float* xhat, float* sum_dy,
                          float* sum_dy_xhat) {
  if (spatial == 1) {
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t base = r * channels;
      int64_t c = 0;
      for (; c + 8 <= channels; c += 8) {
        const __m256 dyv = _mm256_loadu_ps(dy + base + c);
        _mm256_storeu_ps(sum_dy + c,
                         _mm256_add_ps(_mm256_loadu_ps(sum_dy + c), dyv));
        _mm256_storeu_ps(sum_dy_xhat + c,
                         MulAdd<kFma>(dyv, _mm256_loadu_ps(xhat + base + c),
                                      _mm256_loadu_ps(sum_dy_xhat + c)));
      }
      for (; c < channels; ++c) {
        sum_dy[c] += dy[base + c];
        sum_dy_xhat[c] += dy[base + c] * xhat[base + c];
      }
    }
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      __m256 acc_dy = _mm256_setzero_ps();
      __m256 acc_dyx = _mm256_setzero_ps();
      int64_t s = 0;
      for (; s + 8 <= spatial; s += 8) {
        const __m256 dyv = _mm256_loadu_ps(dy + base + s);
        acc_dy = _mm256_add_ps(acc_dy, dyv);
        acc_dyx = MulAdd<kFma>(dyv, _mm256_loadu_ps(xhat + base + s),
                               acc_dyx);
      }
      float p_dy = LaneSum(acc_dy);
      float p_dyx = LaneSum(acc_dyx);
      for (; s < spatial; ++s) {
        p_dy += dy[base + s];
        p_dyx += dy[base + s] * xhat[base + s];
      }
      sum_dy[c] += p_dy;
      sum_dy_xhat[c] += p_dyx;
    }
  }
}

void BnBackwardInputAvx2(int64_t rows, int64_t channels, int64_t spatial,
                         const float* dy, const float* xhat,
                         const float* gamma, const float* inv_std,
                         const float* sum_dy, const float* sum_dy_xhat,
                         float inv_m, float* dx) {
  // Scalar association order: (gamma*inv_std) * ((dy - sum_dy*inv_m) -
  // (xhat*sum_dy_xhat)*inv_m); the per-channel products are hoisted
  // (same value every element), the xhat product is not.
  const __m256 invm = _mm256_set1_ps(inv_m);
  if (spatial == 1) {
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t base = r * channels;
      int64_t c = 0;
      for (; c + 8 <= channels; c += 8) {
        const __m256 gi = _mm256_mul_ps(_mm256_loadu_ps(gamma + c),
                                        _mm256_loadu_ps(inv_std + c));
        const __m256 t1 = _mm256_mul_ps(_mm256_loadu_ps(sum_dy + c), invm);
        const __m256 sdx = _mm256_loadu_ps(sum_dy_xhat + c);
        const __m256 v = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_loadu_ps(xhat + base + c), sdx), invm);
        const __m256 w = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_loadu_ps(dy + base + c), t1), v);
        _mm256_storeu_ps(dx + base + c, _mm256_mul_ps(gi, w));
      }
      for (; c < channels; ++c) {
        dx[base + c] = gamma[c] * inv_std[c] *
                       (dy[base + c] - sum_dy[c] * inv_m -
                        xhat[base + c] * sum_dy_xhat[c] * inv_m);
      }
    }
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      const __m256 gi = _mm256_set1_ps(gamma[c] * inv_std[c]);
      const __m256 t1 = _mm256_set1_ps(sum_dy[c] * inv_m);
      const __m256 sdx = _mm256_set1_ps(sum_dy_xhat[c]);
      int64_t s = 0;
      for (; s + 8 <= spatial; s += 8) {
        const __m256 v = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_loadu_ps(xhat + base + s), sdx), invm);
        const __m256 w = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_loadu_ps(dy + base + s), t1), v);
        _mm256_storeu_ps(dx + base + s, _mm256_mul_ps(gi, w));
      }
      for (; s < spatial; ++s) {
        dx[base + s] = gamma[c] * inv_std[c] *
                       (dy[base + s] - sum_dy[c] * inv_m -
                        xhat[base + s] * sum_dy_xhat[c] * inv_m);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Elementwise activations. Comparisons use ordered-quiet predicates so
// NaN falls through to the identity branch exactly as `x < 0` does in
// scalar; -0.0f compares equal to 0.0f in both, so sign handling also
// matches.

void ReluAvx2(int64_t n, const float* x, float* y) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 neg = _mm256_cmp_ps(xv, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(y + i, _mm256_andnot_ps(neg, xv));
  }
  for (; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void ReluBwdAvx2(int64_t n, const float* x, const float* dy, float* dx) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 off = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero,
                                     _CMP_LE_OQ);
    _mm256_storeu_ps(dx + i, _mm256_andnot_ps(off, _mm256_loadu_ps(dy + i)));
  }
  for (; i < n; ++i) dx[i] = x[i] <= 0.0f ? 0.0f : dy[i];
}

void LeakyReluAvx2(int64_t n, float slope, const float* x, float* y) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sv = _mm256_set1_ps(slope);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 neg = _mm256_cmp_ps(xv, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(y + i,
                     _mm256_blendv_ps(xv, _mm256_mul_ps(xv, sv), neg));
  }
  for (; i < n; ++i) y[i] = x[i] < 0.0f ? x[i] * slope : x[i];
}

void LeakyReluBwdAvx2(int64_t n, float slope, const float* x, const float* dy,
                      float* dx) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sv = _mm256_set1_ps(slope);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 off = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero,
                                     _CMP_LE_OQ);
    const __m256 dyv = _mm256_loadu_ps(dy + i);
    _mm256_storeu_ps(dx + i,
                     _mm256_blendv_ps(dyv, _mm256_mul_ps(dyv, sv), off));
  }
  for (; i < n; ++i) dx[i] = x[i] <= 0.0f ? dy[i] * slope : dy[i];
}

template <bool kFma>
void TanhBwdAvx2(int64_t n, const float* y, const float* dy, float* dx) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    __m256 t;
    if constexpr (kFma) {
      t = _mm256_fnmadd_ps(yv, yv, one);
    } else {
      t = _mm256_sub_ps(one, _mm256_mul_ps(yv, yv));
    }
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), t));
  }
  for (; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void SigmoidBwdAvx2(int64_t n, const float* y, const float* dy, float* dx) {
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    const __m256 t = _mm256_mul_ps(yv, _mm256_sub_ps(one, yv));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), t));
  }
  for (; i < n; ++i) dx[i] = dy[i] * (y[i] * (1.0f - y[i]));
}

template <bool kFma>
Backend MakeAvx2Backend(const char* name) {
  return Backend{
      name,
      kFma,
      GemmNnAvx2<kFma>,
      GemmNtAvx2<kFma>,
      GemmTnAvx2<kFma>,
      Im2ColAvx2,
      Col2ImAvx2,
      BnMomentsAvx2<kFma>,
      BnNormalizeAvx2<kFma>,
      BnBackwardReduceAvx2<kFma>,
      BnBackwardInputAvx2,
      ReluAvx2,
      ReluBwdAvx2,
      LeakyReluAvx2,
      LeakyReluBwdAvx2,
      TanhFwdLibm,
      TanhBwdAvx2<kFma>,
      SigmoidFwdLibm,
      SigmoidBwdAvx2,
  };
}

}  // namespace

const Backend* Avx2CompiledBackend(bool fma) {
  static const Backend no_fma = MakeAvx2Backend<false>("avx2");
  static const Backend with_fma = MakeAvx2Backend<true>("avx2fma");
  return fma ? &with_fma : &no_fma;
}

}  // namespace kernels
}  // namespace tablegan

#else  // !(__AVX2__ && __FMA__)

namespace tablegan {
namespace kernels {

const Backend* Avx2CompiledBackend(bool /*fma*/) { return nullptr; }

}  // namespace kernels
}  // namespace tablegan

#endif
