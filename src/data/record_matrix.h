#ifndef TABLEGAN_DATA_RECORD_MATRIX_H_
#define TABLEGAN_DATA_RECORD_MATRIX_H_

#include "common/status.h"
#include "tensor/tensor.h"

namespace tablegan {
namespace data {

/// Converts normalized records to the square-matrix form table-GAN trains
/// on and back (paper §3.2 step 1): a record of `a` values is zero-padded
/// to side*side cells and reshaped to a side×side single-channel image.
class RecordMatrixCodec {
 public:
  /// `num_attributes` values per record; `side` must be a power of two
  /// with side*side >= num_attributes (see ChooseSide).
  RecordMatrixCodec(int num_attributes, int side);

  /// Smallest power-of-two side (>= 4, so the DCGAN pyramid has at least
  /// one stride-2 stage) whose square holds `num_attributes` values.
  static int ChooseSide(int num_attributes);

  /// OK iff `side` is a power of two in [4, 32768] whose square holds
  /// `num_attributes` >= 1 values — the constructor's precondition, as a
  /// Status for sides that come from options or model files.
  static Status Validate(int num_attributes, int side);

  int num_attributes() const { return num_attributes_; }
  int side() const { return side_; }

  /// [n, a] record tensor -> [n, 1, side, side] image tensor.
  Result<Tensor> ToMatrices(const Tensor& records) const;

  /// [n, 1, side, side] image tensor -> [n, a] record tensor (padding
  /// cells are dropped).
  Result<Tensor> FromMatrices(const Tensor& matrices) const;

 private:
  int num_attributes_;
  int side_;
};

}  // namespace data
}  // namespace tablegan

#endif  // TABLEGAN_DATA_RECORD_MATRIX_H_
