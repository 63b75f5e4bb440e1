#ifndef TABLEGAN_NN_CONV2D_H_
#define TABLEGAN_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/conv_chunk.h"
#include "nn/layer.h"
#include "tensor/im2col.h"

namespace tablegan {
namespace nn {

/// Strided 2-D convolution over NCHW tensors, implemented as im2col +
/// one GEMM per batch chunk. This is the discriminator/classifier
/// building block of the DCGAN architecture (paper §4.1.1).
class Conv2d : public Layer {
 public:
  /// Weight shape [out_channels, in_channels * k * k]; bias [out_channels]
  /// (omitted when `bias` is false, as DCGAN does before BatchNorm).
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, bool bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Infer(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Tensor*> Parameters() override;
  std::vector<Tensor*> Gradients() override;
  std::string name() const override;

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  /// Checked geometry of `input` (rank 4, in_channels_ channels).
  ops::Conv2dGeometry InputGeometry(const Tensor& input) const;

  /// The shared Forward/Infer lowering: per FixedChunks chunk, im2col
  /// each sample into its column block, one GEMM, then a scatter back to
  /// NCHW with the bias added. Writes every element of `output`.
  void Lower(const ops::Conv2dGeometry& g, const Tensor& input,
             Tensor* output) const;

  int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;

  Tensor cached_input_;   // saved by Forward for the backward pass

  GradPartials partials_;  // per-chunk dW / db of Backward
};

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_CONV2D_H_
