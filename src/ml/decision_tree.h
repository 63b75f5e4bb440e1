#ifndef TABLEGAN_ML_DECISION_TREE_H_
#define TABLEGAN_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "ml/model.h"

namespace tablegan {
namespace ml {

/// CART hyper-parameters (shared by the classifier and regressor, and by
/// the forest/AdaBoost ensembles that wrap trees).
struct TreeOptions {
  int max_depth = 10;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Features examined per split; 0 means all (sqrt(f) is typical for
  /// random forests).
  int max_features = 0;
  uint64_t seed = 1;
};

namespace internal_tree {

struct Node {
  int feature = -1;          // -1 = leaf
  double threshold = 0.0;    // go left iff x[feature] <= threshold
  double value = 0.0;        // leaf: P(y=1) for classifiers, mean for regr.
  std::unique_ptr<Node> left, right;
};

/// A row index with its value of the feature being sorted on; split
/// search sorts these contiguous pairs instead of chasing the per-row
/// vectors of MlData::x.
struct KeyIndex {
  double key;
  int64_t index;
};

/// The root split's per-feature scan orders: by_feature[f] holds every
/// row sorted by feature f, each sort starting from the previous
/// feature's order exactly as the root split search does. They depend
/// only on x, so an ensemble that fits many trees on one table
/// (AdaBoost) computes them once. They are valid for trees that examine
/// every feature at the root (max_features 0 or >= the feature count).
struct RootOrders {
  std::vector<std::vector<KeyIndex>> by_feature;
};

RootOrders ComputeRootOrders(const MlData& data);

/// Shared CART builder. `classification` selects Gini impurity with
/// probability leaves; otherwise variance reduction with mean leaves.
/// `weights` supports AdaBoost; pass nullptr for uniform weights.
/// `root_orders`, when given, must come from ComputeRootOrders(data) and
/// replaces the root's sorts with the same orders.
std::unique_ptr<Node> BuildTree(const MlData& data,
                                const std::vector<double>* weights,
                                const TreeOptions& options,
                                bool classification,
                                const RootOrders* root_orders = nullptr);

double Evaluate(const Node* node, const std::vector<double>& x);

}  // namespace internal_tree

/// CART decision-tree classifier (scikit-learn's DecisionTreeClassifier
/// analogue in the paper's model-compatibility grid).
class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions options = {})
      : options_(options) {}

  Status Fit(const MlData& data) override;
  /// Weighted fit, used by AdaBoost; `root_orders` as in BuildTree.
  Status FitWeighted(const MlData& data, const std::vector<double>& weights,
                     const internal_tree::RootOrders* root_orders = nullptr);
  double PredictProba(const std::vector<double>& x) const override;

 private:
  TreeOptions options_;
  std::unique_ptr<internal_tree::Node> root_;
};

/// CART decision-tree regressor.
class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeOptions options = {})
      : options_(options) {}

  Status Fit(const MlData& data) override;
  double Predict(const std::vector<double>& x) const override;

 private:
  TreeOptions options_;
  std::unique_ptr<internal_tree::Node> root_;
};

}  // namespace ml
}  // namespace tablegan

#endif  // TABLEGAN_ML_DECISION_TREE_H_
