#include "nn/dense.h"

#include <sstream>

#include "tensor/matmul.h"

namespace tablegan {
namespace nn {

Dense::Dense(int64_t in_features, int64_t out_features, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_({out_features, in_features}),
      bias_({bias ? out_features : 0}),
      grad_weight_({out_features, in_features}),
      grad_bias_({bias ? out_features : 0}) {}

Tensor Dense::Forward(const Tensor& input, bool /*training*/) {
  TABLEGAN_CHECK(input.rank() == 2 && input.dim(1) == in_features_)
      << "Dense input " << ShapeToString(input.shape());
  cached_input_ = input;
  const int64_t n = input.dim(0);
  // Safe uninitialized: Gemm with beta == 0 zeroes C before accumulating.
  Tensor output = Tensor::Uninitialized({n, out_features_});
  // y = x * W^T
  ops::Gemm(false, true, 1.0f, input, weight_, 0.0f, &output);
  if (has_bias_) {
    for (int64_t i = 0; i < n; ++i) {
      float* row = output.data() + i * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) row[j] += bias_[j];
    }
  }
  return output;
}

Tensor Dense::Infer(const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() == 2 && input.dim(1) == in_features_)
      << "Dense input " << ShapeToString(input.shape());
  const int64_t n = input.dim(0);
  Tensor output({n, out_features_});
  // y = x * W^T
  ops::Gemm(false, true, 1.0f, input, weight_, 0.0f, &output);
  if (has_bias_) {
    for (int64_t i = 0; i < n; ++i) {
      float* row = output.data() + i * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) row[j] += bias_[j];
    }
  }
  return output;
}

Tensor Dense::Backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  TABLEGAN_CHECK(!input.empty()) << "Backward before Forward";
  const int64_t n = input.dim(0);
  TABLEGAN_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_features_);
  // dW += dY^T * X
  ops::Gemm(true, false, 1.0f, grad_output, input, 1.0f, &grad_weight_);
  if (has_bias_) {
    for (int64_t i = 0; i < n; ++i) {
      const float* row = grad_output.data() + i * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) grad_bias_[j] += row[j];
    }
  }
  // dX = dY * W
  Tensor grad_input = Tensor::Uninitialized({n, in_features_});
  ops::Gemm(false, false, 1.0f, grad_output, weight_, 0.0f, &grad_input);
  return grad_input;
}

std::vector<Tensor*> Dense::Parameters() {
  std::vector<Tensor*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

std::vector<Tensor*> Dense::Gradients() {
  std::vector<Tensor*> p{&grad_weight_};
  if (has_bias_) p.push_back(&grad_bias_);
  return p;
}

std::string Dense::name() const {
  std::ostringstream os;
  os << "Dense(" << in_features_ << "->" << out_features_ << ")";
  return os.str();
}

}  // namespace nn
}  // namespace tablegan
