#include "data/record_matrix.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace tablegan {
namespace data {

RecordMatrixCodec::RecordMatrixCodec(int num_attributes, int side)
    : num_attributes_(num_attributes), side_(side) {
  const Status valid = Validate(num_attributes, side);
  TABLEGAN_CHECK(valid.ok()) << valid.message();
}

Status RecordMatrixCodec::Validate(int num_attributes, int side) {
  if (num_attributes < 1) {
    return Status::InvalidArgument("record width must be >= 1");
  }
  if (side < 4 || side > (1 << 15) || (side & (side - 1)) != 0) {
    return Status::InvalidArgument(
        "side must be a power of two in [4, 32768], got " +
        std::to_string(side));
  }
  if (static_cast<int64_t>(side) * side < num_attributes) {
    return Status::InvalidArgument(
        "side too small for encoded record width: " + std::to_string(side) +
        "x" + std::to_string(side) + " matrix cannot hold " +
        std::to_string(num_attributes) + " cells");
  }
  return Status::OK();
}

int RecordMatrixCodec::ChooseSide(int num_attributes) {
  int side = 4;
  while (side * side < num_attributes) side *= 2;
  return side;
}

Result<Tensor> RecordMatrixCodec::ToMatrices(const Tensor& records) const {
  if (records.rank() != 2 || records.dim(1) != num_attributes_) {
    return Status::InvalidArgument("expected [n, " +
                                   std::to_string(num_attributes_) +
                                   "] records, got " +
                                   ShapeToString(records.shape()));
  }
  const int64_t n = records.dim(0);
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const int64_t pad = cells - num_attributes_;
  Tensor out({n, 1, side_, side_});
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * cells, records.data() + i * num_attributes_,
                sizeof(float) * static_cast<size_t>(num_attributes_));
    // The discriminator sees every cell: the padding beyond the
    // attributes must be exactly zero (paper §3.2). Zero it explicitly
    // rather than relying on Tensor's zero-construction, so a future
    // uninitialized-allocation optimization cannot leak garbage here.
    if (pad > 0) {
      std::memset(out.data() + i * cells + num_attributes_, 0,
                  sizeof(float) * static_cast<size_t>(pad));
    }
  }
  TABLEGAN_DCHECK(pad == 0 || out[cells - 1] == 0.0f);
  return out;
}

Result<Tensor> RecordMatrixCodec::FromMatrices(const Tensor& matrices) const {
  if (matrices.rank() != 4 || matrices.dim(1) != 1 ||
      matrices.dim(2) != side_ || matrices.dim(3) != side_) {
    return Status::InvalidArgument("expected [n, 1, " +
                                   std::to_string(side_) + ", " +
                                   std::to_string(side_) + "] matrices, got " +
                                   ShapeToString(matrices.shape()));
  }
  const int64_t n = matrices.dim(0);
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  Tensor out({n, num_attributes_});
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * num_attributes_, matrices.data() + i * cells,
                sizeof(float) * static_cast<size_t>(num_attributes_));
  }
  return out;
}

}  // namespace data
}  // namespace tablegan
