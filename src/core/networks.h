#ifndef TABLEGAN_CORE_NETWORKS_H_
#define TABLEGAN_CORE_NETWORKS_H_

#include <memory>

#include "common/random.h"
#include "nn/sequential.h"

namespace tablegan {
namespace core {

/// Discriminator / classifier network split into a convolutional feature
/// stack and a logits head (paper Fig. 2): the flattened activations
/// between them are the "extracted features" f that the information loss
/// compares (Eq. 2-3). The classifier shares this architecture (§4.1.3).
struct TwoPartNet {
  std::unique_ptr<nn::Sequential> features;  // convs ... Flatten
  std::unique_ptr<nn::Sequential> head;      // Dense(feature_dim, 1) logits
  int64_t feature_dim = 0;

  /// Convenience: full forward to logits.
  Tensor ForwardLogits(const Tensor& input, bool training) {
    return head->Forward(features->Forward(input, training), training);
  }

  /// Backward from a logits gradient through head then features; returns
  /// the input gradient. Parameter gradients accumulate (nn::Layer).
  Tensor Backward(const Tensor& grad_logits) {
    return features->Backward(head->Backward(grad_logits));
  }

  /// Stateless inference to logits (see nn::Layer::Infer): const and
  /// cache-free, safe to call concurrently over disjoint row shards.
  Tensor InferLogits(const Tensor& input) const {
    return head->Infer(features->Infer(input));
  }

  void ZeroGrad() {
    features->ZeroGrad();
    head->ZeroGrad();
  }

  std::vector<Tensor*> Parameters();
  std::vector<Tensor*> Gradients();
};

/// DCGAN discriminator for a side x side single-channel record matrix:
/// stride-2 4x4 convs doubling channels each stage down to 2x2 spatial,
/// LeakyReLU everywhere, BatchNorm on all but the first conv, then
/// Flatten + Dense sigmoid head (trained on logits). `head_outputs` > 1
/// builds the multi-task classifier head of paper §4.2.3 (one sigmoid
/// per label over the shared trunk).
TwoPartNet BuildDiscriminator(int side, int base_channels, Rng* rng,
                              int head_outputs = 1);

/// DCGAN generator: Dense projection of the latent vector to a
/// 2x2x(base_channels * 2^(stages-1)) tensor, BatchNorm + ReLU, then
/// stride-2 4x4 transposed convs halving channels up to side x side,
/// tanh output matching the [-1, 1] record encoding.
std::unique_ptr<nn::Sequential> BuildGenerator(int side, int latent_dim,
                                               int base_channels, Rng* rng);

/// Number of stride-2 stages for a given side (side must be a power of
/// two >= 4): log2(side) - 1, so the deepest tensor is 2x2.
int NumStages(int side);

}  // namespace core
}  // namespace tablegan

#endif  // TABLEGAN_CORE_NETWORKS_H_
