#include "nn/batch_norm.h"

#include <cmath>
#include <sstream>

#include "tensor/kernels/kernels.h"

namespace tablegan {
namespace nn {
namespace {

// Iterates a NCHW or NF tensor grouping elements by feature/channel `c`.
// Calls fn(c, element_index) for every element. Used by the cold paths;
// the hot moment/normalize/backward loops go through the dispatched
// kernels, which walk elements in this same (row, channel, spatial)
// order.
template <typename Fn>
void ForEachByChannel(const std::vector<int64_t>& shape, Fn fn) {
  if (shape.size() == 2) {
    const int64_t n = shape[0], f = shape[1];
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < f; ++c) fn(c, i * f + c);
    }
  } else {
    const int64_t n = shape[0], ch = shape[1], spatial = shape[2] * shape[3];
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < ch; ++c) {
        const int64_t base = (i * ch + c) * spatial;
        for (int64_t s = 0; s < spatial; ++s) fn(c, base + s);
      }
    }
  }
}

int64_t ElementsPerChannel(const std::vector<int64_t>& shape) {
  if (shape.size() == 2) return shape[0];
  return shape[0] * shape[2] * shape[3];
}

// The [rows, channels, spatial] view the kernels operate on; an NF
// tensor is spatial == 1.
void ChannelView(const std::vector<int64_t>& shape, int64_t* rows,
                 int64_t* channels, int64_t* spatial) {
  *rows = shape[0];
  *channels = shape[1];
  *spatial = shape.size() == 2 ? 1 : shape[2] * shape[3];
}

}  // namespace

BatchNorm::BatchNorm(int64_t num_features, float eps, float momentum)
    : num_features_(num_features),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor::Full({num_features}, 1.0f)),
      beta_({num_features}),
      grad_gamma_({num_features}),
      grad_beta_({num_features}),
      running_mean_({num_features}),
      running_var_(Tensor::Full({num_features}, 1.0f)) {}

Tensor BatchNorm::Forward(const Tensor& input, bool training) {
  TABLEGAN_CHECK(input.rank() == 2 || input.rank() == 4)
      << "BatchNorm input " << ShapeToString(input.shape());
  // Both layouts (NF and NCHW) carry the feature/channel count in dim 1.
  const int64_t features = input.dim(1);
  TABLEGAN_CHECK(features == num_features_)
      << name() << " expects " << num_features_ << " features, got "
      << features << " for input " << ShapeToString(input.shape());
  cached_shape_ = input.shape();
  cached_training_ = training;
  const int64_t m = ElementsPerChannel(input.shape());
  TABLEGAN_CHECK(m > 0);
  int64_t rows, channels, spatial;
  ChannelView(input.shape(), &rows, &channels, &spatial);

  // Member scratch replaces the per-call mean/var tensors; the moments
  // kernel writes every element, so stale pool contents are harmless.
  Tensor& mean = mean_scratch_;
  Tensor& var = var_scratch_;
  if (training) {
    mean.ResizeUninitialized({num_features_});
    var.ResizeUninitialized({num_features_});
    kernels::Active().bn_moments(rows, channels, spatial, input.data(),
                                 mean.data(), var.data());
    for (int64_t c = 0; c < num_features_; ++c) {
      running_mean_[c] = momentum_ * running_mean_[c] +
                         (1.0f - momentum_) * mean[c];
      running_var_[c] = momentum_ * running_var_[c] +
                        (1.0f - momentum_) * var[c];
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  cached_inv_std_.ResizeUninitialized({num_features_});
  for (int64_t c = 0; c < num_features_; ++c) {
    cached_inv_std_[c] = 1.0f / std::sqrt(var[c] + eps_);
  }
  cached_xhat_.ResizeUninitialized(input.shape());
  Tensor output = Tensor::Uninitialized(input.shape());
  kernels::Active().bn_normalize(rows, channels, spatial, input.data(),
                                 mean.data(), cached_inv_std_.data(),
                                 gamma_.data(), beta_.data(),
                                 cached_xhat_.data(), output.data());
  return output;
}

Tensor BatchNorm::Infer(const Tensor& input) const {
  TABLEGAN_CHECK(input.rank() == 2 || input.rank() == 4)
      << "BatchNorm input " << ShapeToString(input.shape());
  const int64_t features = input.dim(1);
  TABLEGAN_CHECK(features == num_features_)
      << name() << " expects " << num_features_ << " features, got "
      << features << " for input " << ShapeToString(input.shape());
  // Same arithmetic and evaluation order as Forward(input, false), minus
  // the backward-pass caches.
  Tensor inv_std({num_features_});
  for (int64_t c = 0; c < num_features_; ++c) {
    inv_std[c] = 1.0f / std::sqrt(running_var_[c] + eps_);
  }
  int64_t rows, channels, spatial;
  ChannelView(input.shape(), &rows, &channels, &spatial);
  Tensor output(input.shape());
  kernels::Active().bn_normalize(rows, channels, spatial, input.data(),
                                 running_mean_.data(), inv_std.data(),
                                 gamma_.data(), beta_.data(),
                                 /*xhat=*/nullptr, output.data());
  return output;
}

Tensor BatchNorm::Backward(const Tensor& grad_output) {
  TABLEGAN_CHECK(grad_output.shape() == cached_shape_);
  const int64_t m = ElementsPerChannel(cached_shape_);
  int64_t rows, channels, spatial;
  ChannelView(cached_shape_, &rows, &channels, &spatial);

  Tensor& sum_dy = sum_dy_;
  Tensor& sum_dy_xhat = sum_dy_xhat_;
  sum_dy.ResizeUninitialized({num_features_});
  sum_dy.SetZero();
  sum_dy_xhat.ResizeUninitialized({num_features_});
  sum_dy_xhat.SetZero();
  kernels::Active().bn_backward_reduce(rows, channels, spatial,
                                       grad_output.data(),
                                       cached_xhat_.data(), sum_dy.data(),
                                       sum_dy_xhat.data());
  for (int64_t c = 0; c < num_features_; ++c) {
    grad_beta_[c] += sum_dy[c];
    grad_gamma_[c] += sum_dy_xhat[c];
  }

  // Fully overwritten in both branches below, so uninitialized is safe.
  Tensor grad_input = Tensor::Uninitialized(cached_shape_);
  if (cached_training_) {
    const float inv_m = 1.0f / static_cast<float>(m);
    kernels::Active().bn_backward_input(
        rows, channels, spatial, grad_output.data(), cached_xhat_.data(),
        gamma_.data(), cached_inv_std_.data(), sum_dy.data(),
        sum_dy_xhat.data(), inv_m, grad_input.data());
  } else {
    // Inference-mode statistics are constants w.r.t. the input. Cold
    // path (only reached by explicit eval-mode backward), kept local.
    ForEachByChannel(cached_shape_, [&](int64_t c, int64_t i) {
      grad_input[i] = gamma_[c] * cached_inv_std_[c] * grad_output[i];
    });
  }
  return grad_input;
}

std::vector<Tensor*> BatchNorm::Parameters() { return {&gamma_, &beta_}; }

std::vector<Tensor*> BatchNorm::Gradients() {
  return {&grad_gamma_, &grad_beta_};
}

std::string BatchNorm::name() const {
  std::ostringstream os;
  os << "BatchNorm(" << num_features_ << ")";
  return os.str();
}

}  // namespace nn
}  // namespace tablegan
