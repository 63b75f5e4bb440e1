#ifndef E2EBENCH_NN_REPLAY_H_
#define E2EBENCH_NN_REPLAY_H_

#include <map>
#include <string>

#include "trace.h"

namespace e2ebench {

/// Network shape of a workload's model.
struct NetShape {
  int side = 4;
  int latent_dim = 100;
  int base_channels = 32;
  int batch = 64;
};

/// Replays the layer calls of one table-GAN training step from outside
/// the trainer: builds the generator and discriminator with
/// core::BuildGenerator / BuildDiscriminator at `shape`, then times every
/// layer's Forward and Backward (median of several repetitions), one Adam
/// step over both networks, and the generator's stateless Infer at
/// `infer_rows` rows. Writes into `layer`:
///   nn.{G,D}.{dense,convT,conv}.{fwd_ms,bwd_ms,gflops} summed per layer
///   type (layers absent from a network are not written),
///   nn.{G,D}.elementwise_ms (BatchNorm, activations, reshapes; fwd+bwd),
///   nn.adam_ms, nn.step_ms, nn.step_gflop and nn.G.infer_ms.
/// FLOPs are computed from layer shapes (2 per multiply-add; backward
/// counted as twice forward), not counted by the kernels. Per-layer
/// detail is printed as report lines.
///
/// nn.step_ms and nn.step_gflop weight the replayed passes by how often
/// the paper's training step (DCGAN loss, information loss and
/// classifier on) runs them per mini-batch: generator 2 forward + 1
/// backward; discriminator 4 forward + 3 backward; the classifier, which
/// has the discriminator's architecture, 2 forward + 2 backward.
/// nn.step_ms counts only the conv, conv-transpose and dense layers.
void ReplayNetworks(const NetShape& shape, int infer_rows, Tracer* tracer,
                    std::map<std::string, double>* layer);

}  // namespace e2ebench

#endif  // E2EBENCH_NN_REPLAY_H_
