#include "nn/conv_chunk.h"

#include <algorithm>

namespace tablegan {
namespace nn {

ConvScratch& ThreadConvScratch(int64_t patch, int64_t channels,
                               int64_t spatial, int64_t cnt) {
  static thread_local ConvScratch scratch;
  scratch.sample.ResizeUninitialized({patch, spatial});
  scratch.cols.ResizeUninitialized({patch, cnt * spatial});
  scratch.mat.ResizeUninitialized({channels, cnt * spatial});
  return scratch;
}

void ToColumnBlock(int64_t rows, int64_t width, int64_t ld,
                   const float* block, float* mat) {
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(block + r * width, width, mat + r * ld);
  }
}

void FromColumnBlock(int64_t rows, int64_t width, int64_t ld,
                     const float* mat, float* block) {
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(mat + r * ld, width, block + r * width);
  }
}

void AddChannelBias(int64_t channels, int64_t spatial, const float* bias,
                    float* slice) {
  for (int64_t ch = 0; ch < channels; ++ch) {
    const float b = bias[ch];
    float* row = slice + ch * spatial;
    for (int64_t s = 0; s < spatial; ++s) row[s] += b;
  }
}

void AccumulateChannelSums(int64_t channels, int64_t spatial,
                           const float* grad, float* db) {
  for (int64_t ch = 0; ch < channels; ++ch) {
    const float* row = grad + ch * spatial;
    float acc = 0.0f;
    for (int64_t s = 0; s < spatial; ++s) acc += row[s];
    db[ch] += acc;
  }
}

void GradPartials::Resize(int64_t count, const Tensor& grad_weight,
                          const Tensor* grad_bias) {
  count_ = count;
  if (static_cast<int64_t>(dw_.size()) < count) {
    dw_.resize(static_cast<size_t>(count));
    db_.resize(static_cast<size_t>(count));
  }
  for (int64_t c = 0; c < count; ++c) {
    dw_[static_cast<size_t>(c)].ResizeUninitialized(grad_weight.shape());
    db_[static_cast<size_t>(c)].ResizeUninitialized(
        {grad_bias != nullptr ? grad_bias->size() : 0});
  }
}

void GradPartials::Zero(int64_t c) {
  dw_[static_cast<size_t>(c)].SetZero();
  db_[static_cast<size_t>(c)].SetZero();
}

void GradPartials::CombineInto(Tensor* grad_weight, Tensor* grad_bias) const {
  for (int64_t c = 0; c < count_; ++c) {
    const float* p = dw_[static_cast<size_t>(c)].data();
    float* gw = grad_weight->data();
    for (int64_t i = 0; i < grad_weight->size(); ++i) gw[i] += p[i];
    if (grad_bias != nullptr) {
      const float* pb = db_[static_cast<size_t>(c)].data();
      float* gb = grad_bias->data();
      for (int64_t i = 0; i < grad_bias->size(); ++i) gb[i] += pb[i];
    }
  }
}

}  // namespace nn
}  // namespace tablegan
