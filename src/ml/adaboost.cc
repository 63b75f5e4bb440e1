#include "ml/adaboost.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tablegan {
namespace ml {

Status AdaBoostClassifier::Fit(const MlData& data) {
  const int64_t n = data.num_rows();
  if (n == 0) return Status::InvalidArgument("empty training data");
  stages_.clear();
  alphas_.clear();
  std::vector<double> weights(static_cast<size_t>(n),
                              1.0 / static_cast<double>(n));
  // Every stage examines all features at the root of the same x, so the
  // root's sort orders are computed once and shared by every stage.
  const internal_tree::RootOrders root_orders =
      internal_tree::ComputeRootOrders(data);
  Rng rng(options_.seed);
  for (int t = 0; t < options_.num_estimators; ++t) {
    TreeOptions topt;
    topt.max_depth = options_.base_max_depth;
    topt.seed = rng.NextUint64();
    DecisionTreeClassifier stump(topt);
    TABLEGAN_RETURN_NOT_OK(stump.FitWeighted(data, weights, &root_orders));

    double err = 0.0;
    std::vector<int> preds(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      preds[static_cast<size_t>(i)] = stump.Predict(data.x[static_cast<size_t>(i)]);
      if (preds[static_cast<size_t>(i)] !=
          static_cast<int>(data.y[static_cast<size_t>(i)])) {
        err += weights[static_cast<size_t>(i)];
      }
    }
    err = std::clamp(err, 1e-10, 1.0 - 1e-10);
    if (err >= 0.5 && t > 0) break;  // no better than chance: stop boosting
    const double alpha = options_.learning_rate * 0.5 *
                         std::log((1.0 - err) / err);
    // Reweight: misclassified samples up, correct ones down.
    double wsum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const bool wrong = preds[static_cast<size_t>(i)] !=
                         static_cast<int>(data.y[static_cast<size_t>(i)]);
      weights[static_cast<size_t>(i)] *= std::exp(wrong ? alpha : -alpha);
      wsum += weights[static_cast<size_t>(i)];
    }
    for (double& w : weights) w /= wsum;
    stages_.push_back(std::move(stump));
    alphas_.push_back(alpha);
  }
  if (stages_.empty()) {
    return Status::Internal("AdaBoost produced no usable stage");
  }
  return Status::OK();
}

double AdaBoostClassifier::PredictProba(const std::vector<double>& x) const {
  TABLEGAN_CHECK(!stages_.empty()) << "predict before fit";
  double score = 0.0, norm = 0.0;
  for (size_t t = 0; t < stages_.size(); ++t) {
    const int pred = stages_[t].Predict(x);
    score += alphas_[t] * (pred == 1 ? 1.0 : -1.0);
    norm += std::fabs(alphas_[t]);
  }
  if (norm <= 0.0) return 0.5;
  // Squash the margin in [-1,1] to a probability.
  return 0.5 * (score / norm) + 0.5;
}

}  // namespace ml
}  // namespace tablegan
