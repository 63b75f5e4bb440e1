#ifndef TABLEGAN_NN_CONV_TRANSPOSE2D_H_
#define TABLEGAN_NN_CONV_TRANSPOSE2D_H_

#include <string>
#include <vector>

#include "nn/conv_chunk.h"
#include "nn/layer.h"
#include "tensor/im2col.h"

namespace tablegan {
namespace nn {

/// Strided transposed (fractionally-strided / "de-") convolution over
/// NCHW tensors — the generator building block of the DCGAN architecture
/// (paper §4.1.2). Output side = (in-1)*stride - 2*padding + kernel.
///
/// The forward pass is exactly the data-gradient of a Conv2d whose input
/// is this layer's output, which lets us reuse Im2Col/Col2Im.
class ConvTranspose2d : public Layer {
 public:
  /// Weight shape [in_channels, out_channels * k * k]; bias [out_channels].
  ConvTranspose2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
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
  /// Checked geometry of the *output* image for `input` (rank 4,
  /// in_channels_ channels), in Conv2dGeometry terms.
  ops::Conv2dGeometry OutputGeometry(const Tensor& input) const;

  /// The shared Forward/Infer lowering: per FixedChunks chunk, gather the
  /// input channel-major, one GEMM, then col2im per sample with the bias
  /// added. `output` must start zeroed.
  void Lower(const ops::Conv2dGeometry& g, const Tensor& input,
             Tensor* output) const;

  int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;

  Tensor cached_input_;

  GradPartials partials_;  // per-chunk dW / db of Backward
};

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_CONV_TRANSPOSE2D_H_
