#ifndef TABLEGAN_ML_MLP_H_
#define TABLEGAN_ML_MLP_H_

#include <memory>
#include <vector>

#include "ml/model.h"
#include "nn/sequential.h"

namespace tablegan {
namespace ml {

struct MlpOptions {
  std::vector<int> hidden_sizes = {32};
  float learning_rate = 1e-3f;
  int epochs = 30;
  int batch_size = 64;
  uint64_t seed = 17;
};

/// Multi-layer perceptron classifier built on the nn substrate (Dense +
/// ReLU, Adam, fused sigmoid BCE). One of the paper's four
/// model-compatibility classifiers; also used as a membership-attack
/// model (§4.5). Features are standardized internally.
class MlpClassifier : public Classifier {
 public:
  explicit MlpClassifier(MlpOptions options = {}) : options_(options) {}

  Status Fit(const MlData& data) override;
  double PredictProba(const std::vector<double>& x) const override;
  /// One batched, const Sequential::Infer over all rows, safe to call
  /// from several threads; PredictProba is its one-row case.
  std::vector<double> PredictProbaAll(const MlData& data) const override;

 private:
  MlpOptions options_;
  StandardScaler scaler_;
  std::unique_ptr<nn::Sequential> net_;
};

}  // namespace ml
}  // namespace tablegan

#endif  // TABLEGAN_ML_MLP_H_
