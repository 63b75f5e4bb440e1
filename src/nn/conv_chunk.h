#ifndef TABLEGAN_NN_CONV_CHUNK_H_
#define TABLEGAN_NN_CONV_CHUNK_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace tablegan {
namespace nn {

// Batched convolution lowering shared by Conv2d and ConvTranspose2d
// (DESIGN.md §7). A FixedChunks chunk of `cnt` samples is lowered to one
// GEMM whose columns are the chunk's samples side by side: sample j owns
// the column block [j * spatial, (j + 1) * spatial) of every operand.
// Each GEMM output element is the same ascending-k dot product as in a
// per-sample GEMM (the kernels' bits do not depend on column position,
// DESIGN.md §12), so batching does not change any result bit.

/// Lowering scratch of one chunk. Every element is written before it is
/// read, so the contents never affect a result.
struct ConvScratch {
  Tensor sample;  // [patch, spatial]: one sample's im2col block
  Tensor cols;    // [patch, cnt * spatial]: the chunk's patch columns
  Tensor mat;     // [channels, cnt * spatial]: the chunk's activations
};

/// The calling thread's scratch, resized for a chunk of `cnt` samples.
/// Per-thread storage keeps Infer safe for concurrent callers, bounds
/// the memory by the thread count, and only grows, so the training
/// passes stop allocating after warmup.
ConvScratch& ThreadConvScratch(int64_t patch, int64_t channels,
                               int64_t spatial, int64_t cnt);

/// Copies the dense [rows, width] `block` into the first `width` columns
/// of `mat`, whose rows are `ld` floats apart.
void ToColumnBlock(int64_t rows, int64_t width, int64_t ld,
                   const float* block, float* mat);
/// The inverse copy: `width` columns of `mat` (row stride `ld`) into the
/// dense [rows, width] `block`.
void FromColumnBlock(int64_t rows, int64_t width, int64_t ld,
                     const float* mat, float* block);

/// slice[ch, s] += bias[ch] over a dense [channels, spatial] slice.
void AddChannelBias(int64_t channels, int64_t spatial, const float* bias,
                    float* slice);
/// db[ch] += sum_s grad[ch, s], each channel summed in ascending s first.
void AccumulateChannelSums(int64_t channels, int64_t spatial,
                           const float* grad, float* db);

/// Per-chunk weight / bias gradient partials. Samples accumulate into
/// their chunk's partial one at a time, and the partials are combined
/// serially in chunk order — the fixed reduction order that keeps the
/// gradients independent of the thread count.
class GradPartials {
 public:
  /// Sizes `count` partials shaped like `grad_weight` / `grad_bias`
  /// (grad_bias may be null). Call single-threaded, before the parallel
  /// region; contents are unspecified until Zero.
  void Resize(int64_t count, const Tensor& grad_weight,
              const Tensor* grad_bias);
  /// Zeroes chunk c's partials; called by the chunk's own task.
  void Zero(int64_t c);
  float* dw(int64_t c) { return dw_[static_cast<size_t>(c)].data(); }
  float* db(int64_t c) { return db_[static_cast<size_t>(c)].data(); }
  /// grad_weight (+ grad_bias) += every partial, in chunk order.
  void CombineInto(Tensor* grad_weight, Tensor* grad_bias) const;

 private:
  int64_t count_ = 0;
  std::vector<Tensor> dw_, db_;
};

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_CONV_CHUNK_H_
