// The scalar reference backend. The GEMM and im2col/col2im bodies are
// the pre-dispatch kernels from tensor/matmul.cc and tensor/im2col.cc,
// and the BatchNorm/activation loops reproduce the per-element float
// expressions from nn/batch_norm.cc and nn/activations.cc — moved, not
// rewritten. Built without implicit FP contraction like every TU, it is
// the strict reference the AVX2 backend is held to bit for bit.

#include <algorithm>
#include <cmath>

#include "tensor/kernels/blocking.h"
#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace kernels {
namespace {

// Inner kernel: row-major C[m,n] += alpha * A[m,k] * B[k,n], cache-
// blocked over k and n. The j-loop is a contiguous fused multiply-add
// that the compiler auto-vectorizes.
void GemmNn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            const float* b, float* c) {
  for (int64_t k0 = 0; k0 < k; k0 += kGemmBlockK) {
    const int64_t k1 = std::min(k, k0 + kGemmBlockK);
    for (int64_t n0 = 0; n0 < n; n0 += kGemmBlockN) {
      const int64_t n1 = std::min(n, n0 + kGemmBlockN);
      for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float av = alpha * arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + kk * n;
          for (int64_t j = n0; j < n1; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

// C[m,n] += A[m,k] * B[n,k]^T, cache-blocked over the B rows (j) and the
// shared depth (l) so a kNtBlockJ x kNtBlockL tile of B stays hot across
// all rows of A. Per element the l0 tiles accumulate in ascending order,
// which is independent of how the i range is partitioned across threads.
void GemmNt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
            float* c, bool accumulate) {
  if (!accumulate) {
    for (int64_t i = 0; i < m; ++i) std::fill(c + i * n, c + i * n + n, 0.0f);
  }
  for (int64_t l0 = 0; l0 < k; l0 += kNtBlockL) {
    const int64_t l1 = std::min(k, l0 + kNtBlockL);
    for (int64_t j0 = 0; j0 < n; j0 += kNtBlockJ) {
      const int64_t j1 = std::min(n, j0 + kNtBlockJ);
      for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t j = j0; j < j1; ++j) {
          const float* brow = b + j * k;
          float acc = 0.0f;
          for (int64_t l = l0; l < l1; ++l) acc += arow[l] * brow[l];
          crow[j] += acc;
        }
      }
    }
  }
}

// C rows [r0, r1) of C[m,n] += A[k,m]^T * B[k,n]. The l loop stays
// outermost exactly as in the serial kernel, so each element accumulates
// its k terms in ascending order regardless of the row partition.
void GemmTn(int64_t r0, int64_t r1, int64_t m, int64_t n, int64_t k,
            const float* a, const float* b, float* c) {
  for (int64_t l = 0; l < k; ++l) {
    const float* arow = a + l * m;
    const float* brow = b + l * n;
    for (int64_t i = r0; i < r1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void Im2ColScalar(const ops::Conv2dGeometry& g, const float* img,
                  float* cols) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t out_spatial = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* channel = img + c * g.in_h * g.in_w;
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = cols + row * out_spatial;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + ky - g.padding;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kx - g.padding;
            const bool inside =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            out_row[y * ow + x] = inside ? channel[iy * g.in_w + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2ImScalar(const ops::Conv2dGeometry& g, const float* cols,
                  float* img) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t out_spatial = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    float* channel = img + c * g.in_h * g.in_w;
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row = cols + row * out_spatial;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + ky - g.padding;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kx - g.padding;
            if (ix < 0 || ix >= g.in_w) continue;
            channel[iy * g.in_w + ix] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

// Per-channel accumulation in (row, channel, spatial) element order —
// the order nn::BatchNorm's ForEachByChannel visits elements in.
void BnMoments(int64_t rows, int64_t channels, int64_t spatial,
               const float* x, float* mean, float* var) {
  const float m = static_cast<float>(rows * spatial);
  std::fill(mean, mean + channels, 0.0f);
  std::fill(var, var + channels, 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* px = x + (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) mean[c] += px[s];
    }
  }
  for (int64_t c = 0; c < channels; ++c) mean[c] /= m;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* px = x + (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        const float d = px[s] - mean[c];
        var[c] += d * d;
      }
    }
  }
  for (int64_t c = 0; c < channels; ++c) var[c] /= m;
}

void BnNormalize(int64_t rows, int64_t channels, int64_t spatial,
                 const float* x, const float* mean, const float* inv_std,
                 const float* gamma, const float* beta, float* xhat,
                 float* y) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        const float xh = (x[base + s] - mean[c]) * inv_std[c];
        if (xhat != nullptr) xhat[base + s] = xh;
        y[base + s] = gamma[c] * xh + beta[c];
      }
    }
  }
}

void BnBackwardReduce(int64_t rows, int64_t channels, int64_t spatial,
                      const float* dy, const float* xhat, float* sum_dy,
                      float* sum_dy_xhat) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        sum_dy[c] += dy[base + s];
        sum_dy_xhat[c] += dy[base + s] * xhat[base + s];
      }
    }
  }
}

void BnBackwardInput(int64_t rows, int64_t channels, int64_t spatial,
                     const float* dy, const float* xhat, const float* gamma,
                     const float* inv_std, const float* sum_dy,
                     const float* sum_dy_xhat, float inv_m, float* dx) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t base = (r * channels + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        dx[base + s] = gamma[c] * inv_std[c] *
                       (dy[base + s] - sum_dy[c] * inv_m -
                        xhat[base + s] * sum_dy_xhat[c] * inv_m);
      }
    }
  }
}

void Relu(int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void ReluBwd(int64_t n, const float* x, const float* dy, float* dx) {
  for (int64_t i = 0; i < n; ++i) dx[i] = x[i] <= 0.0f ? 0.0f : dy[i];
}

void LeakyRelu(int64_t n, float slope, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? x[i] * slope : x[i];
}

void LeakyReluBwd(int64_t n, float slope, const float* x, const float* dy,
                  float* dx) {
  for (int64_t i = 0; i < n; ++i) {
    dx[i] = x[i] <= 0.0f ? dy[i] * slope : dy[i];
  }
}

void TanhBwd(int64_t n, const float* y, const float* dy, float* dx) {
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void SigmoidBwd(int64_t n, const float* y, const float* dy, float* dx) {
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (y[i] * (1.0f - y[i]));
}

}  // namespace

// libm forwards, shared with the avx2 backend (see kernels.h: there is
// no bit-identical vector tanh/exp, so every backend calls libm).
void TanhFwdLibm(int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void SigmoidFwdLibm(int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

const Backend& Scalar() {
  static const Backend backend = {
      "scalar",
      /*fma=*/false,
      GemmNn,
      GemmNt,
      GemmTn,
      Im2ColScalar,
      Col2ImScalar,
      BnMoments,
      BnNormalize,
      BnBackwardReduce,
      BnBackwardInput,
      Relu,
      ReluBwd,
      LeakyRelu,
      LeakyReluBwd,
      TanhFwdLibm,
      TanhBwd,
      SigmoidFwdLibm,
      SigmoidBwd,
  };
  return backend;
}

}  // namespace kernels
}  // namespace tablegan
