#include "nn/conv_transpose2d.h"

#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "tensor/matmul.h"

namespace tablegan {
namespace nn {

// Threading model mirrors Conv2d: batch-parallel over a FixedChunks
// partition of the sample dimension, one GEMM per chunk for the forward
// and input-gradient passes, and weight/bias gradients accumulated per
// sample into per-chunk partials that are reduced in chunk order — so
// results are bitwise identical at any thread count.

ConvTranspose2d::ConvTranspose2d(int64_t in_channels, int64_t out_channels,
                                 int64_t kernel, int64_t stride,
                                 int64_t padding, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({in_channels, out_channels * kernel * kernel}),
      bias_({bias ? out_channels : 0}),
      grad_weight_({in_channels, out_channels * kernel * kernel}),
      grad_bias_({bias ? out_channels : 0}) {}

ops::Conv2dGeometry ConvTranspose2d::OutputGeometry(
    const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() == 4 && input.dim(1) == in_channels_)
      << "ConvTranspose2d input " << ShapeToString(input.shape());
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = (in_h - 1) * stride_ - 2 * padding_ + kernel_;
  const int64_t out_w = (in_w - 1) * stride_ - 2 * padding_ + kernel_;
  ops::Conv2dGeometry g{out_channels_, out_h, out_w, kernel_, stride_,
                        padding_};
  TABLEGAN_CHECK(g.out_h() == in_h && g.out_w() == in_w)
      << "incompatible transposed-conv geometry";
  return g;
}

void ConvTranspose2d::Lower(const ops::Conv2dGeometry& g, const Tensor& input,
                            Tensor* output) const {
  const int64_t patch = g.patch_size(), in_spatial = g.out_h() * g.out_w();
  const int64_t in_sample = in_channels_ * in_spatial;
  const int64_t out_sample = out_channels_ * g.in_h * g.in_w;
  const FixedChunks chunks(input.dim(0), kDefaultBatchChunks);
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = chunks.begin(c), cnt = chunks.end(c) - b;
      const int64_t width = cnt * in_spatial;
      ConvScratch& s =
          ThreadConvScratch(patch, in_channels_, in_spatial, cnt);
      for (int64_t j = 0; j < cnt; ++j) {
        ToColumnBlock(in_channels_, in_spatial, width,
                      input.data() + (b + j) * in_sample,
                      s.mat.data() + j * in_spatial);
      }
      // cols = W^T * x for the whole chunk; output = col2im(cols).
      ops::RawGemmTN(patch, width, in_channels_, weight_.data(),
                     s.mat.data(), s.cols.data(), /*accumulate=*/false);
      for (int64_t j = 0; j < cnt; ++j) {
        float* out = output->data() + (b + j) * out_sample;
        FromColumnBlock(patch, in_spatial, width,
                        s.cols.data() + j * in_spatial, s.sample.data());
        ops::Col2Im(g, s.sample.data(), out);
        if (has_bias_) {
          AddChannelBias(out_channels_, g.in_h * g.in_w, bias_.data(), out);
        }
      }
    }
  });
}

Tensor ConvTranspose2d::Forward(const Tensor& input, bool /*training*/) {
  const ops::Conv2dGeometry g = OutputGeometry(input);
  cached_input_ = input;
  // Col2Im accumulates into the output, so it starts zeroed.
  Tensor output({input.dim(0), out_channels_, g.in_h, g.in_w});
  Lower(g, input, &output);
  return output;
}

Tensor ConvTranspose2d::Infer(const Tensor& input) const {
  const ops::Conv2dGeometry g = OutputGeometry(input);
  Tensor output({input.dim(0), out_channels_, g.in_h, g.in_w});
  Lower(g, input, &output);
  return output;
}

Tensor ConvTranspose2d::Backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  TABLEGAN_CHECK(!input.empty()) << "Backward before Forward";
  const int64_t n = input.dim(0);
  const ops::Conv2dGeometry g = OutputGeometry(input);
  const int64_t in_spatial = g.out_h() * g.out_w();
  const int64_t out_spatial = g.in_h * g.in_w;
  TABLEGAN_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_channels_ &&
                 grad_output.dim(2) == g.in_h && grad_output.dim(3) == g.in_w);

  // Every sample slice of grad_input is fully overwritten by the scatter
  // after the chunk GEMM, so it is safe uninitialized.
  Tensor grad_input = Tensor::Uninitialized(input.shape());
  const int64_t patch = g.patch_size();
  const int64_t in_sample = in_channels_ * in_spatial;
  const int64_t out_sample = out_channels_ * out_spatial;
  const FixedChunks chunks(n, kDefaultBatchChunks);
  partials_.Resize(chunks.count, grad_weight_,
                   has_bias_ ? &grad_bias_ : nullptr);
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = chunks.begin(c), cnt = chunks.end(c) - b;
      const int64_t width = cnt * in_spatial;
      ConvScratch& s =
          ThreadConvScratch(patch, in_channels_, in_spatial, cnt);
      partials_.Zero(c);
      for (int64_t j = 0; j < cnt; ++j) {
        const float* go = grad_output.data() + (b + j) * out_sample;
        // cols = im2col(dOut) over the *output* geometry.
        ops::Im2Col(g, go, s.sample.data());
        // dW_c += x * cols^T one sample at a time, which keeps the
        // gradient's accumulation order.
        ops::RawGemmNT(in_channels_, patch, in_spatial,
                       input.data() + (b + j) * in_sample, s.sample.data(),
                       partials_.dw(c), /*accumulate=*/true);
        if (has_bias_) {
          AccumulateChannelSums(out_channels_, out_spatial, go,
                                partials_.db(c));
        }
        ToColumnBlock(patch, in_spatial, width, s.sample.data(),
                      s.cols.data() + j * in_spatial);
      }
      // dX = W * cols for the whole chunk, then back to NCHW.
      ops::RawGemmNN(in_channels_, width, patch, weight_.data(),
                     s.cols.data(), s.mat.data(), /*accumulate=*/false);
      for (int64_t j = 0; j < cnt; ++j) {
        FromColumnBlock(in_channels_, in_spatial, width,
                        s.mat.data() + j * in_spatial,
                        grad_input.data() + (b + j) * in_sample);
      }
    }
  });
  partials_.CombineInto(&grad_weight_, has_bias_ ? &grad_bias_ : nullptr);
  return grad_input;
}

std::vector<Tensor*> ConvTranspose2d::Parameters() {
  std::vector<Tensor*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

std::vector<Tensor*> ConvTranspose2d::Gradients() {
  std::vector<Tensor*> p{&grad_weight_};
  if (has_bias_) p.push_back(&grad_bias_);
  return p;
}

std::string ConvTranspose2d::name() const {
  std::ostringstream os;
  os << "ConvTranspose2d(" << in_channels_ << "->" << out_channels_ << ",k"
     << kernel_ << ",s" << stride_ << ",p" << padding_ << ")";
  return os.str();
}

}  // namespace nn
}  // namespace tablegan
