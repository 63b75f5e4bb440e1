#ifndef TABLEGAN_NN_SPECTRAL_NORM_H_
#define TABLEGAN_NN_SPECTRAL_NORM_H_

#include <vector>

#include "common/random.h"
#include "tensor/tensor.h"

namespace tablegan {
namespace nn {

/// Spectral-norm-style weight regularization (loss-mode kSpectralNorm,
/// DESIGN.md §15): penalizes (weight/2) * sigma(W)^2 for every rank-2
/// weight matrix it was bound to, where sigma(W) is the largest singular
/// value estimated by power iteration. Apply() adds the penalty gradient
///
///   d/dW (weight/2 * sigma^2) = weight * sigma * u v^T
///
/// into the matching gradient tensor (u, v the leading singular pair,
/// treated as constants — the standard power-iteration estimator of
/// Miyato et al.). Unlike a full spectral-norm reparameterization this
/// leaves the forward pass untouched, so it composes with the existing
/// DCGAN loss without touching any layer.
///
/// The u/v vectors persist across steps (warm start: one iteration per
/// step tracks the slowly-moving leading pair) and are checkpoint state:
/// StateTensors() exposes them in binding order for the v5 training
/// section.
class SpectralNormRegularizer {
 public:
  /// Binds every rank-2 tensor of `params` (with its same-index
  /// `grads` partner). Rank-1 biases and BatchNorm scales are skipped.
  /// `seed` initializes the u vectors deterministically.
  SpectralNormRegularizer(const std::vector<Tensor*>& params,
                          const std::vector<Tensor*>& grads, float weight,
                          int power_iters, uint64_t seed);

  /// Runs `power_iters` iterations per bound weight and accumulates the
  /// penalty gradients. Returns the total penalty value
  /// sum_W (weight/2) * sigma(W)^2 for telemetry.
  float Apply();

  /// Largest-singular-value estimate of bound weight `i` as of the last
  /// Apply() (0 before the first call).
  float sigma(size_t i) const { return items_[i].sigma; }
  size_t num_weights() const { return items_.size(); }

  /// Power-iteration state (u then v per weight, binding order) for
  /// checkpointing: a resumed run continues the same trajectory.
  std::vector<Tensor*> StateTensors();

 private:
  struct Item {
    Tensor* w;     // [out, in]
    Tensor* grad;  // same shape
    Tensor u;      // [1, out]
    Tensor v;      // [1, in]
    float sigma = 0.0f;
  };

  std::vector<Item> items_;
  float weight_;
  int power_iters_;
};

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_SPECTRAL_NORM_H_
