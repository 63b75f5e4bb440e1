#include "nn/spectral_norm.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/matmul.h"

namespace tablegan {
namespace nn {
namespace {

// Normalizes `t` in place to unit L2 norm and returns the pre-scaling
// norm. The accumulation runs in double so the estimate is stable for
// the wide conv matrices ([out, in*k*k]).
float NormalizeInPlace(Tensor* t) {
  double sum = 0.0;
  for (int64_t i = 0; i < t->size(); ++i) {
    sum += static_cast<double>((*t)[i]) * (*t)[i];
  }
  const float norm = static_cast<float>(std::sqrt(sum));
  const float inv = norm > 1e-12f ? 1.0f / norm : 0.0f;
  for (int64_t i = 0; i < t->size(); ++i) (*t)[i] *= inv;
  return norm;
}

}  // namespace

SpectralNormRegularizer::SpectralNormRegularizer(
    const std::vector<Tensor*>& params, const std::vector<Tensor*>& grads,
    float weight, int power_iters, uint64_t seed)
    : weight_(weight), power_iters_(power_iters) {
  TABLEGAN_CHECK(params.size() == grads.size());
  TABLEGAN_CHECK(power_iters >= 1);
  Rng rng(seed);
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor* w = params[i];
    if (w->rank() != 2 || w->dim(0) < 1 || w->dim(1) < 1) continue;
    Item item;
    item.w = w;
    item.grad = grads[i];
    item.u = Tensor({1, w->dim(0)});
    item.u.FillUniform(-1.0f, 1.0f, &rng);
    NormalizeInPlace(&item.u);
    item.v = Tensor({1, w->dim(1)});
    item.v.SetZero();
    items_.push_back(std::move(item));
  }
}

float SpectralNormRegularizer::Apply() {
  float penalty = 0.0f;
  for (Item& item : items_) {
    const Tensor& w = *item.w;
    // Safe uninitialized: the beta=0 GEMM below overwrites it.
    Tensor uw = Tensor::Uninitialized({1, w.dim(1)});
    for (int iter = 0; iter < power_iters_; ++iter) {
      // v <- normalize(u W)    ([1, out] x [out, in])
      ops::Gemm(false, false, 1.0f, item.u, w, 0.0f, &uw);
      item.v = uw;
      NormalizeInPlace(&item.v);
      // u <- normalize(v W^T)  ([1, in] x [in, out]); the pre-scaling
      // norm IS the singular-value estimate: ||W v|| for unit v.
      ops::Gemm(false, true, 1.0f, item.v, w, 0.0f, &item.u);
      item.sigma = NormalizeInPlace(&item.u);
    }
    // grad += weight * sigma * u^T v  (rank-1 outer product).
    ops::Gemm(true, false, weight_ * item.sigma, item.u, item.v, 1.0f,
              item.grad);
    penalty += 0.5f * weight_ * item.sigma * item.sigma;
  }
  return penalty;
}

std::vector<Tensor*> SpectralNormRegularizer::StateTensors() {
  std::vector<Tensor*> out;
  out.reserve(items_.size() * 2);
  for (Item& item : items_) {
    out.push_back(&item.u);
    out.push_back(&item.v);
  }
  return out;
}

}  // namespace nn
}  // namespace tablegan
