#ifndef TABLEGAN_ML_MODEL_H_
#define TABLEGAN_ML_MODEL_H_

#include <vector>

#include "common/status.h"
#include "ml/ml_data.h"

namespace tablegan {
namespace ml {

/// Binary classifier interface (labels are 0/1 doubles in MlData::y).
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual Status Fit(const MlData& data) = 0;

  /// P(y = 1 | x).
  virtual double PredictProba(const std::vector<double>& x) const = 0;

  /// PredictProba of every row. A model may override it with a batched
  /// path, which must return the same bits as the per-row calls.
  virtual std::vector<double> PredictProbaAll(const MlData& data) const {
    std::vector<double> out;
    out.reserve(data.x.size());
    for (const auto& row : data.x) out.push_back(PredictProba(row));
    return out;
  }

  int Predict(const std::vector<double>& x) const {
    return PredictProba(x) >= 0.5 ? 1 : 0;
  }

  /// Predict of every row, through PredictProbaAll.
  std::vector<int> PredictAll(const MlData& data) const {
    std::vector<int> out;
    out.reserve(data.x.size());
    for (double p : PredictProbaAll(data)) out.push_back(p >= 0.5 ? 1 : 0);
    return out;
  }
};

/// Real-valued regressor interface.
class Regressor {
 public:
  virtual ~Regressor() = default;

  virtual Status Fit(const MlData& data) = 0;
  virtual double Predict(const std::vector<double>& x) const = 0;

  std::vector<double> PredictAll(const MlData& data) const {
    std::vector<double> out;
    out.reserve(data.x.size());
    for (const auto& row : data.x) out.push_back(Predict(row));
    return out;
  }
};

}  // namespace ml
}  // namespace tablegan

#endif  // TABLEGAN_ML_MODEL_H_
