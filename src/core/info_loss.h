#ifndef TABLEGAN_CORE_INFO_LOSS_H_
#define TABLEGAN_CORE_INFO_LOSS_H_

#include "tensor/tensor.h"

namespace tablegan {
namespace core {

/// The information loss of paper §4.2.2 / Algorithm 2 lines 10-13: the
/// hinge-thresholded discrepancy between moving-average first- and
/// second-order statistics of discriminator features on real vs.
/// synthetic records,
///
///   L_info^G = max(0, L_mean - delta_mean) + max(0, L_sd - delta_sd).
///
/// delta_mean / delta_sd are the privacy knobs: larger margins stop the
/// generator from matching the original statistics too closely.
///
/// Adaptation (documented in DESIGN.md): the discrepancies are
/// *relative* L2 distances, ||f^X - f^Z|| / ||f^X||, rather than the raw
/// norms of Eq. 2-3. The raw norm scales with the feature dimension and
/// activation magnitude (it sits at 4-8 for our CPU-sized networks), so
/// the paper's margins 0.1 / 0.2 would never engage; the relative form
/// is scale-free and spans (0, ~1], restoring the intended semantics of
/// those margin values.
class InfoLossState {
 public:
  InfoLossState(int64_t feature_dim, float ewma_weight, float delta_mean,
                float delta_sd);

  /// Updates the four EWMA statistics from this batch's real/synthetic
  /// feature matrices ([n, feature_dim] each).
  void UpdateStatistics(const Tensor& real_features,
                        const Tensor& fake_features);

  /// Current loss value (after UpdateStatistics for this batch).
  float Loss() const;

  /// Gradient of L_info w.r.t. the *synthetic* feature matrix used in
  /// the most recent UpdateStatistics call. The gradient flows through
  /// this batch's contribution (weight 1-w) to the synthetic EWMA mean
  /// and standard deviation.
  Tensor GradFakeFeatures() const;

  float l_mean() const;  // ||f_mean^X - f_mean^Z|| / ||f_mean^X||
  float l_sd() const;    // ||f_sd^X - f_sd^Z|| / ||f_sd^X||

  /// EWMA state for checkpointing: x_mean, x_sd, z_mean, z_sd. The
  /// batch-local gradient cache is intentionally excluded — it is
  /// rebuilt by the first UpdateStatistics call after resume, before
  /// any Loss()/GradFakeFeatures() use.
  std::vector<Tensor*> EwmaTensors() {
    return {&x_mean_, &x_sd_, &z_mean_, &z_sd_};
  }
  bool initialized() const { return initialized_; }
  void set_initialized(bool v) { initialized_ = v; }

 private:
  int64_t feature_dim_;
  float w_, delta_mean_, delta_sd_;
  bool initialized_ = false;
  float last_batch_weight_ = 1.0f;  // 1-w applied to the latest batch
  Tensor x_mean_, x_sd_, z_mean_, z_sd_;  // EWMA statistics (Alg. 2)
  // Batch-dependent cache for the gradient.
  Tensor batch_fake_features_;
  Tensor batch_fake_mean_, batch_fake_sd_;
  // Reusable per-batch scratch (fully overwritten on every use);
  // diff_scratch_ is mutable because the const l_mean()/l_sd() accessors
  // stage their subtraction in it.
  Tensor rx_mean_, rx_sd_, col_mean_scratch_;
  mutable Tensor diff_scratch_;
};

}  // namespace core
}  // namespace tablegan

#endif  // TABLEGAN_CORE_INFO_LOSS_H_
