#ifndef TABLEGAN_TENSOR_TENSOR_H_
#define TABLEGAN_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace tablegan {

/// Allocator identical to std::allocator<T> except that value-less
/// construct() default-initializes, so vector::resize leaves new floats
/// uninitialized instead of zero-filling. This is the uninitialized-alloc
/// path for buffers that are fully overwritten before being read.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// Dense float32 N-dimensional array with row-major contiguous storage
/// and value semantics (copy = deep copy).
///
/// This is the numeric substrate the neural-network framework is built
/// on; it intentionally supports only what the library needs: shape
/// manipulation, fills, random init, and raw data access. Heavier
/// numeric kernels live in tensor_ops.h / matmul.h / im2col.h.
class Tensor {
 public:
  /// Backing storage. The default-init allocator makes resize() skip
  /// zero-filling; Tensor's public constructors still zero-fill to keep
  /// the historical "tensors start at zero" semantics — only
  /// Uninitialized()/ResizeUninitialized() skip it.
  using Storage = std::vector<float, DefaultInitAllocator<float>>;

  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-filled tensor of the given shape. All dims must be >= 0.
  explicit Tensor(std::vector<int64_t> shape);
  Tensor(std::initializer_list<int64_t> shape)
      : Tensor(std::vector<int64_t>(shape)) {}

  /// Factory helpers -------------------------------------------------
  static Tensor Zeros(std::vector<int64_t> shape) {
    return Tensor(std::move(shape));
  }
  /// Uninitialized contents — for buffers that are fully overwritten.
  static Tensor Uninitialized(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  static Tensor FromVector(std::vector<int64_t> shape,
                           std::vector<float> values);
  /// I.i.d. U[lo, hi).
  static Tensor Uniform(std::vector<int64_t> shape, float lo, float hi,
                        Rng* rng);
  /// I.i.d. N(mean, stddev^2).
  static Tensor Normal(std::vector<int64_t> shape, float mean, float stddev,
                       Rng* rng);

  /// Shape ------------------------------------------------------------
  const std::vector<int64_t>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const { return shape_[static_cast<size_t>(i)]; }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  /// Returns a tensor with the same data and a new shape of equal size.
  Tensor Reshaped(std::vector<int64_t> new_shape) const;

  /// Reshapes in place to `shape`, leaving any *new* elements
  /// uninitialized (existing elements up to min(old, new) size are
  /// preserved by vector::resize, but callers must not rely on that —
  /// treat the whole tensor as scratch to overwrite). Reuses the current
  /// capacity, so repeated calls with steady shapes never allocate.
  void ResizeUninitialized(const std::vector<int64_t>& shape);

  /// Element access ----------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// 2-D indexed access (rank must be 2).
  float& at2(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at2(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// 4-D indexed access (rank must be 4, NCHW).
  float& at4(int64_t n, int64_t c, int64_t h, int64_t w) {
    return data_[static_cast<size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
    return data_[static_cast<size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  /// Mutators ----------------------------------------------------------
  void Fill(float value);
  void SetZero() { Fill(0.0f); }
  /// In-place i.i.d. U[lo, hi) fill — same draw sequence as Uniform().
  void FillUniform(float lo, float hi, Rng* rng);

  /// True iff shapes are identical (not broadcast-compatible).
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Debug string like "Tensor[2, 3] {...}" (first few elements).
  std::string DebugString() const;

 private:
  std::vector<int64_t> shape_;
  Storage data_;
};

/// Number of elements implied by `shape`; checks non-negative dims.
int64_t ShapeSize(const std::vector<int64_t>& shape);

/// "[d0, d1, ...]"
std::string ShapeToString(const std::vector<int64_t>& shape);

}  // namespace tablegan

#endif  // TABLEGAN_TENSOR_TENSOR_H_
