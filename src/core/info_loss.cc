#include "core/info_loss.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace tablegan {
namespace core {

InfoLossState::InfoLossState(int64_t feature_dim, float ewma_weight,
                             float delta_mean, float delta_sd)
    : feature_dim_(feature_dim),
      w_(ewma_weight),
      delta_mean_(delta_mean),
      delta_sd_(delta_sd),
      x_mean_({feature_dim}),
      x_sd_({feature_dim}),
      z_mean_({feature_dim}),
      z_sd_({feature_dim}) {}

void InfoLossState::UpdateStatistics(const Tensor& real_features,
                                     const Tensor& fake_features) {
  TABLEGAN_CHECK(real_features.rank() == 2 &&
                 real_features.dim(1) == feature_dim_);
  TABLEGAN_CHECK(fake_features.rank() == 2 &&
                 fake_features.dim(1) == feature_dim_);
  // Member scratch + Into-variants keep this allocation-free after the
  // first batch while reproducing the allocating forms bit for bit.
  ops::ColumnMeanInto(real_features, &rx_mean_);
  ops::ColumnStdInto(real_features, &rx_sd_, &col_mean_scratch_);
  const Tensor& rx_mean = rx_mean_;
  const Tensor& rx_sd = rx_sd_;
  ops::ColumnMeanInto(fake_features, &batch_fake_mean_);
  ops::ColumnStdInto(fake_features, &batch_fake_sd_, &col_mean_scratch_);
  batch_fake_features_ = fake_features;

  // First batch seeds the moving averages directly (Algorithm 2
  // initializes them to zero; seeding avoids a long zero-bias warmup).
  const float w = initialized_ ? w_ : 0.0f;
  last_batch_weight_ = 1.0f - w;
  initialized_ = true;
  for (int64_t j = 0; j < feature_dim_; ++j) {
    x_mean_[j] = w * x_mean_[j] + (1.0f - w) * rx_mean[j];
    x_sd_[j] = w * x_sd_[j] + (1.0f - w) * rx_sd[j];
    z_mean_[j] = w * z_mean_[j] + (1.0f - w) * batch_fake_mean_[j];
    z_sd_[j] = w * z_sd_[j] + (1.0f - w) * batch_fake_sd_[j];
  }
}

namespace {
constexpr float kNormEps = 1e-6f;
}  // namespace

float InfoLossState::l_mean() const {
  ops::SubInto(x_mean_, z_mean_, &diff_scratch_);
  return ops::Norm2(diff_scratch_) / (ops::Norm2(x_mean_) + kNormEps);
}

float InfoLossState::l_sd() const {
  ops::SubInto(x_sd_, z_sd_, &diff_scratch_);
  return ops::Norm2(diff_scratch_) / (ops::Norm2(x_sd_) + kNormEps);
}

float InfoLossState::Loss() const {
  return std::max(0.0f, l_mean() - delta_mean_) +
         std::max(0.0f, l_sd() - delta_sd_);
}

Tensor InfoLossState::GradFakeFeatures() const {
  TABLEGAN_CHECK(!batch_fake_features_.empty())
      << "GradFakeFeatures before UpdateStatistics";
  const int64_t n = batch_fake_features_.dim(0);

  // d max(0, ||x_mean - z_mean||/||x_mean|| - delta) / d z_mean
  //   = -(x_mean - z_mean) / (||x_mean - z_mean|| * ||x_mean||)
  // when the hinge is active (||x_mean|| is constant w.r.t. z).
  const float lm = l_mean();
  const float ls = l_sd();
  const float x_mean_norm = ops::Norm2(x_mean_) + kNormEps;
  const float x_sd_norm = ops::Norm2(x_sd_) + kNormEps;
  const float mean_gap = lm * x_mean_norm;  // raw ||x_mean - z_mean||
  const float sd_gap = ls * x_sd_norm;
  const bool mean_active = lm > delta_mean_ && mean_gap > 1e-12f;
  const bool sd_active = ls > delta_sd_ && sd_gap > 1e-12f;
  // Inactive hinges return a zero gradient; the active path overwrites
  // every element, so uninitialized memory is safe there.
  if (!mean_active && !sd_active) return Tensor({n, feature_dim_});
  Tensor grad = Tensor::Uninitialized({n, feature_dim_});

  // The gradient flows through this batch's statistics at full weight:
  // the EWMA (Alg. 2 lines 10-13) smooths the *value* of the global
  // statistics, but attenuating the gradient by (1-w) = 0.01 would make
  // the information loss ~100x weaker than the other generator losses
  // and the hinge margins would never engage. We therefore differentiate
  // as if z_mean/z_sd were the batch statistics (their EWMA update
  // direction), which is what the reference TensorFlow implementation's
  // autodiff does through the current mini-batch.
  const float batch_w = 1.0f;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t j = 0; j < feature_dim_; ++j) {
    float g_mean = 0.0f, g_sd = 0.0f;
    if (mean_active) {
      g_mean = -(x_mean_[j] - z_mean_[j]) / (mean_gap * x_mean_norm) *
               batch_w * inv_n;
    }
    if (sd_active && batch_fake_sd_[j] > 1e-8f) {
      g_sd = -(x_sd_[j] - z_sd_[j]) / (sd_gap * x_sd_norm) * batch_w;
    }
    for (int64_t i = 0; i < n; ++i) {
      float g = g_mean;
      if (g_sd != 0.0f) {
        // d sd_j / d f_ij = (f_ij - mean_j) / (n * sd_j)
        g += g_sd * (batch_fake_features_.at2(i, j) - batch_fake_mean_[j]) *
             inv_n / batch_fake_sd_[j];
      }
      grad.at2(i, j) = g;
    }
  }
  return grad;
}

}  // namespace core
}  // namespace tablegan
