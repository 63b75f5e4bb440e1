#include "nn/conv2d.h"

#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "tensor/matmul.h"

namespace tablegan {
namespace nn {

// Threading model: every pass runs batch-parallel over a FixedChunks
// partition of the sample dimension and lowers each chunk to one GEMM
// (nn/conv_chunk.h). Chunk boundaries depend only on the batch size, and
// the weight/bias gradients accumulate sample by sample into per-chunk
// partials that are combined serially in chunk order — so results are
// bitwise identical at any thread count.

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({bias ? out_channels : 0}),
      grad_weight_({out_channels, in_channels * kernel * kernel}),
      grad_bias_({bias ? out_channels : 0}) {}

ops::Conv2dGeometry Conv2d::InputGeometry(const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() == 4 && input.dim(1) == in_channels_)
      << "Conv2d input " << ShapeToString(input.shape());
  ops::Conv2dGeometry g{in_channels_, input.dim(2), input.dim(3), kernel_,
                        stride_, padding_};
  TABLEGAN_CHECK(g.out_h() > 0 && g.out_w() > 0);
  return g;
}

void Conv2d::Lower(const ops::Conv2dGeometry& g, const Tensor& input,
                   Tensor* output) const {
  const int64_t patch = g.patch_size(), spatial = g.out_h() * g.out_w();
  const int64_t in_sample = in_channels_ * g.in_h * g.in_w;
  const int64_t out_sample = out_channels_ * spatial;
  const FixedChunks chunks(input.dim(0), kDefaultBatchChunks);
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = chunks.begin(c), cnt = chunks.end(c) - b;
      const int64_t width = cnt * spatial;
      ConvScratch& s = ThreadConvScratch(patch, out_channels_, spatial, cnt);
      for (int64_t j = 0; j < cnt; ++j) {
        ops::Im2Col(g, input.data() + (b + j) * in_sample, s.sample.data());
        ToColumnBlock(patch, spatial, width, s.sample.data(),
                      s.cols.data() + j * spatial);
      }
      // out = W * cols for the whole chunk, then back to NCHW.
      ops::RawGemmNN(out_channels_, width, patch, weight_.data(),
                     s.cols.data(), s.mat.data(), /*accumulate=*/false);
      for (int64_t j = 0; j < cnt; ++j) {
        float* out = output->data() + (b + j) * out_sample;
        FromColumnBlock(out_channels_, spatial, width,
                        s.mat.data() + j * spatial, out);
        if (has_bias_) {
          AddChannelBias(out_channels_, spatial, bias_.data(), out);
        }
      }
    }
  });
}

Tensor Conv2d::Forward(const Tensor& input, bool /*training*/) {
  const ops::Conv2dGeometry g = InputGeometry(input);
  cached_input_ = input;
  // Safe uninitialized: Lower writes every element.
  Tensor output = Tensor::Uninitialized(
      {input.dim(0), out_channels_, g.out_h(), g.out_w()});
  Lower(g, input, &output);
  return output;
}

Tensor Conv2d::Infer(const Tensor& input) const {
  const ops::Conv2dGeometry g = InputGeometry(input);
  Tensor output({input.dim(0), out_channels_, g.out_h(), g.out_w()});
  Lower(g, input, &output);
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  TABLEGAN_CHECK(!input.empty()) << "Backward before Forward";
  const int64_t n = input.dim(0);
  const ops::Conv2dGeometry g = InputGeometry(input);
  const int64_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  TABLEGAN_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_channels_ &&
                 grad_output.dim(2) == oh && grad_output.dim(3) == ow);

  // Col2Im accumulates into its target, so grad_input starts zeroed.
  Tensor grad_input(input.shape());
  const int64_t patch = g.patch_size();
  const int64_t in_sample = in_channels_ * g.in_h * g.in_w;
  const int64_t out_sample = out_channels_ * spatial;
  const FixedChunks chunks(n, kDefaultBatchChunks);
  partials_.Resize(chunks.count, grad_weight_,
                   has_bias_ ? &grad_bias_ : nullptr);
  ParallelFor(chunks.count, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const int64_t b = chunks.begin(c), cnt = chunks.end(c) - b;
      const int64_t width = cnt * spatial;
      ConvScratch& s = ThreadConvScratch(patch, out_channels_, spatial, cnt);
      partials_.Zero(c);
      for (int64_t j = 0; j < cnt; ++j) {
        const float* go = grad_output.data() + (b + j) * out_sample;
        // dW_c += dOut * cols^T one sample at a time, which keeps the
        // gradient's accumulation order (recompute cols; cheaper than
        // caching N copies).
        ops::Im2Col(g, input.data() + (b + j) * in_sample, s.sample.data());
        ops::RawGemmNT(out_channels_, patch, spatial, go, s.sample.data(),
                       partials_.dw(c), /*accumulate=*/true);
        if (has_bias_) {
          AccumulateChannelSums(out_channels_, spatial, go, partials_.db(c));
        }
        ToColumnBlock(out_channels_, spatial, width, go,
                      s.mat.data() + j * spatial);
      }
      // dCols = W^T * dOut for the whole chunk; dInput = col2im(dCols).
      ops::RawGemmTN(patch, width, out_channels_, weight_.data(),
                     s.mat.data(), s.cols.data(), /*accumulate=*/false);
      for (int64_t j = 0; j < cnt; ++j) {
        FromColumnBlock(patch, spatial, width, s.cols.data() + j * spatial,
                        s.sample.data());
        ops::Col2Im(g, s.sample.data(),
                    grad_input.data() + (b + j) * in_sample);
      }
    }
  });
  partials_.CombineInto(&grad_weight_, has_bias_ ? &grad_bias_ : nullptr);
  return grad_input;
}

std::vector<Tensor*> Conv2d::Parameters() {
  std::vector<Tensor*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

std::vector<Tensor*> Conv2d::Gradients() {
  std::vector<Tensor*> p{&grad_weight_};
  if (has_bias_) p.push_back(&grad_bias_);
  return p;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << in_channels_ << "->" << out_channels_ << ",k" << kernel_
     << ",s" << stride_ << ",p" << padding_ << ")";
  return os.str();
}

}  // namespace nn
}  // namespace tablegan
