#include "nn/activations.h"

#include <cmath>

#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace nn {

// Forward/Backward write every element of an uninitialized buffer
// through the dispatched elementwise kernels, which keep the original
// per-element float expressions. The cached activations are
// copy-assigned members: their capacity is reused across steps, so
// steady-state caching does not allocate. Infer reuses the same kernels
// in place (`y` may alias `x` per the backend contract).

Tensor ReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::Active().relu(out.size(), input.data(), out.data());
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::Active().relu_bwd(grad.size(), cached_input_.data(),
                             grad_output.data(), grad.data());
  return grad;
}

Tensor ReLU::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::Active().relu(out.size(), out.data(), out.data());
  return out;
}

Tensor LeakyReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::Active().leaky_relu(out.size(), negative_slope_, input.data(),
                               out.data());
  return out;
}

Tensor LeakyReLU::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::Active().leaky_relu_bwd(grad.size(), negative_slope_,
                                   cached_input_.data(), grad_output.data(),
                                   grad.data());
  return grad;
}

Tensor LeakyReLU::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::Active().leaky_relu(out.size(), negative_slope_, out.data(),
                               out.data());
  return out;
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::Active().tanh_fwd(out.size(), input.data(), out.data());
  cached_output_ = out;
  return out;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::Active().tanh_bwd(grad.size(), cached_output_.data(),
                             grad_output.data(), grad.data());
  return grad;
}

Tensor Tanh::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::Active().tanh_fwd(out.size(), out.data(), out.data());
  return out;
}

Tensor Sigmoid::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = Tensor::Uninitialized(input.shape());
  kernels::Active().sigmoid_fwd(out.size(), input.data(), out.data());
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Tensor::Uninitialized(grad_output.shape());
  kernels::Active().sigmoid_bwd(grad.size(), cached_output_.data(),
                                grad_output.data(), grad.data());
  return grad;
}

Tensor Sigmoid::Infer(const Tensor& input) const {
  Tensor out = input;
  kernels::Active().sigmoid_fwd(out.size(), out.data(), out.data());
  return out;
}

}  // namespace nn
}  // namespace tablegan
