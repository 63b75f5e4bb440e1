#include "nn/reshape.h"

#include <sstream>
#include <utility>

namespace tablegan {
namespace nn {

Reshape::Reshape(std::vector<int64_t> sample_shape)
    : sample_shape_(std::move(sample_shape)),
      sample_size_(ShapeSize(sample_shape_)) {}

Tensor Reshape::Forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  TABLEGAN_CHECK(input.rank() >= 1);
  const int64_t n = input.dim(0);
  TABLEGAN_CHECK(input.size() == n * sample_size_)
      << "Reshape: sample size mismatch for "
      << ShapeToString(input.shape());
  std::vector<int64_t> out_shape{n};
  out_shape.insert(out_shape.end(), sample_shape_.begin(),
                   sample_shape_.end());
  return input.Reshaped(std::move(out_shape));
}

Tensor Reshape::Infer(const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() >= 1);
  const int64_t n = input.dim(0);
  TABLEGAN_CHECK(input.size() == n * sample_size_)
      << "Reshape: sample size mismatch for "
      << ShapeToString(input.shape());
  std::vector<int64_t> out_shape{n};
  out_shape.insert(out_shape.end(), sample_shape_.begin(),
                   sample_shape_.end());
  return input.Reshaped(std::move(out_shape));
}

Tensor Reshape::Backward(const Tensor& grad_output) {
  return grad_output.Reshaped(cached_input_shape_);
}

std::string Reshape::name() const {
  std::ostringstream os;
  os << "Reshape(" << ShapeToString(sample_shape_) << ")";
  return os.str();
}

Tensor Flatten::Forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  TABLEGAN_CHECK(input.rank() >= 2);
  const int64_t n = input.dim(0);
  return input.Reshaped({n, input.size() / n});
}

Tensor Flatten::Infer(const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() >= 2);
  const int64_t n = input.dim(0);
  return input.Reshaped({n, input.size() / n});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  return grad_output.Reshaped(cached_input_shape_);
}

}  // namespace nn
}  // namespace tablegan
