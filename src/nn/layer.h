#ifndef TABLEGAN_NN_LAYER_H_
#define TABLEGAN_NN_LAYER_H_

#include <string>
#include <vector>

#include "common/logging.h"
#include "tensor/tensor.h"

namespace tablegan {
namespace nn {

/// Base class of every neural-network layer.
///
/// Layers follow a strict caller protocol: one Forward() followed by at
/// most one Backward() on the same activation (layers cache whatever they
/// need for the backward pass during Forward). Parameter gradients
/// *accumulate* across Backward() calls until ZeroGrad(); this is what
/// lets table-GAN back-propagate the generator loss through a frozen
/// discriminator/classifier and later discard those gradients.
///
/// Memory model: Forward/Backward allocate their output and gradient
/// buffers directly. A buffer whose every element the layer writes
/// starts uninitialized (Tensor::Uninitialized); one the layer
/// accumulates into (a Col2Im target) starts zeroed (DESIGN.md §10).
/// Infer never touches mutable scratch — it stays const, cache-free and
/// safe to call concurrently.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `training` selects batch statistics in
  /// BatchNorm; inference uses running statistics.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// Stateless inference: numerically identical to Forward(input, false)
  /// but const and cache-free, so concurrent Infer calls on one layer
  /// from different threads are safe (parameters are only read). This is
  /// what lets TableGan row-shard generator sampling and discriminator
  /// scoring across worker threads without cloning networks. Layers that
  /// never serve the inference path keep the default, which aborts.
  virtual Tensor Infer(const Tensor& input) const;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput for the cached forward activation.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Learnable parameters and matching gradient buffers (same order,
  /// same shapes). Default: none.
  virtual std::vector<Tensor*> Parameters() { return {}; }
  virtual std::vector<Tensor*> Gradients() { return {}; }

  /// Non-learnable persistent state (e.g. BatchNorm running statistics)
  /// that model serialization must capture alongside Parameters().
  virtual std::vector<Tensor*> Buffers() { return {}; }

  /// Human-readable layer name for debugging ("Conv2d(1->64,k4,s2,p1)").
  virtual std::string name() const = 0;

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (Tensor* g : Gradients()) g->SetZero();
  }

};

inline Tensor Layer::Infer(const Tensor& input) const {
  (void)input;
  TABLEGAN_CHECK(false) << name() << " has no stateless inference path";
  return Tensor();
}

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_LAYER_H_
