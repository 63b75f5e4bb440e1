#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace tablegan {
namespace ml {
namespace internal_tree {
namespace {

// Sorts `rows` by feature f from their current order. std::sort's
// permutation depends only on its comparison outcomes, which are those
// of comparing x[i][f] directly, so the order (ties included) is the
// same as sorting bare indices by that key.
void SortByFeature(const MlData& data, int f, std::vector<KeyIndex>* rows) {
  for (KeyIndex& r : *rows) {
    r.key = data.x[static_cast<size_t>(r.index)][static_cast<size_t>(f)];
  }
  std::sort(rows->begin(), rows->end(),
            [](const KeyIndex& a, const KeyIndex& b) { return a.key < b.key; });
}

struct Builder {
  const MlData& data;
  const std::vector<double>* weights;  // nullptr = uniform
  const TreeOptions& options;
  bool classification;
  const RootOrders* root_orders;  // nullptr = sort at the root too
  Rng rng;

  double Weight(int64_t i) const {
    return weights ? (*weights)[static_cast<size_t>(i)] : 1.0;
  }

  // Leaf statistic: weighted P(y=1) or weighted mean.
  double LeafValue(const std::vector<int64_t>& idx) const {
    double wsum = 0.0, ysum = 0.0;
    for (int64_t i : idx) {
      const double w = Weight(i);
      wsum += w;
      ysum += w * data.y[static_cast<size_t>(i)];
    }
    return wsum > 0.0 ? ysum / wsum : 0.0;
  }

  // Impurity of a (weighted) node: Gini for classification, variance for
  // regression. Both are computable from (wsum, ysum, y2sum).
  static double Impurity(double wsum, double ysum, double y2sum,
                         bool classification) {
    if (wsum <= 0.0) return 0.0;
    if (classification) {
      const double p = ysum / wsum;
      return 2.0 * p * (1.0 - p);
    }
    const double mean = ysum / wsum;
    return std::max(0.0, y2sum / wsum - mean * mean);
  }

  struct Split {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  // Scans one feature's sorted rows for the best boundary, updating
  // `best`. (wsum, ysum, y2sum) are the node's totals.
  void ScanFeature(const std::vector<KeyIndex>& sorted, int f, double wsum,
                   double ysum, double y2sum, double parent, Split* best) {
    double lw = 0.0, ly = 0.0, ly2 = 0.0;
    int64_t left_count = 0;
    for (size_t k = 0; k + 1 < sorted.size(); ++k) {
      const int64_t i = sorted[k].index;
      const double w = Weight(i);
      const double y = data.y[static_cast<size_t>(i)];
      lw += w;
      ly += w * y;
      ly2 += w * y * y;
      ++left_count;
      const double xv = sorted[k].key;
      const double xn = sorted[k + 1].key;
      if (xv == xn) continue;  // no boundary between equal values
      const int64_t right_count =
          static_cast<int64_t>(sorted.size()) - left_count;
      if (left_count < options.min_samples_leaf ||
          right_count < options.min_samples_leaf) {
        continue;
      }
      const double rw = wsum - lw, ry = ysum - ly, ry2 = y2sum - ly2;
      const double child =
          (lw * Impurity(lw, ly, ly2, classification) +
           rw * Impurity(rw, ry, ry2, classification)) /
          wsum;
      const double gain = parent - child;
      if (gain > best->gain + 1e-12) {
        best->feature = f;
        best->threshold = 0.5 * (xv + xn);
        best->gain = gain;
      }
    }
  }

  Split FindBestSplit(const std::vector<int64_t>& idx, bool root) {
    const int num_features = data.num_features();
    std::vector<int> features(static_cast<size_t>(num_features));
    std::iota(features.begin(), features.end(), 0);
    int to_try = num_features;
    if (options.max_features > 0 && options.max_features < num_features) {
      rng.Shuffle(&features);
      to_try = options.max_features;
    }

    double wsum = 0.0, ysum = 0.0, y2sum = 0.0;
    for (int64_t i : idx) {
      const double w = Weight(i);
      const double y = data.y[static_cast<size_t>(i)];
      wsum += w;
      ysum += w * y;
      y2sum += w * y * y;
    }
    const double parent = Impurity(wsum, ysum, y2sum, classification);

    Split best;
    if (root && root_orders != nullptr) {
      for (int f = 0; f < num_features; ++f) {
        ScanFeature(root_orders->by_feature[static_cast<size_t>(f)], f, wsum,
                    ysum, y2sum, parent, &best);
      }
      return best;
    }
    // Each feature's sort starts from the previous feature's order.
    std::vector<KeyIndex> sorted(idx.size());
    for (size_t k = 0; k < idx.size(); ++k) sorted[k].index = idx[k];
    for (int fi = 0; fi < to_try; ++fi) {
      const int f = features[static_cast<size_t>(fi)];
      SortByFeature(data, f, &sorted);
      ScanFeature(sorted, f, wsum, ysum, y2sum, parent, &best);
    }
    return best;
  }

  std::unique_ptr<Node> Build(std::vector<int64_t> idx, int depth) {
    auto node = std::make_unique<Node>();
    node->value = LeafValue(idx);
    const bool too_deep = depth >= options.max_depth;
    const bool too_small =
        static_cast<int>(idx.size()) < options.min_samples_split;
    if (too_deep || too_small) return node;

    Split split = FindBestSplit(idx, depth == 0);
    if (split.feature < 0) return node;

    std::vector<int64_t> left_idx, right_idx;
    for (int64_t i : idx) {
      if (data.x[static_cast<size_t>(i)][static_cast<size_t>(split.feature)] <=
          split.threshold) {
        left_idx.push_back(i);
      } else {
        right_idx.push_back(i);
      }
    }
    if (left_idx.empty() || right_idx.empty()) return node;

    node->feature = split.feature;
    node->threshold = split.threshold;
    node->left = Build(std::move(left_idx), depth + 1);
    node->right = Build(std::move(right_idx), depth + 1);
    return node;
  }
};

}  // namespace

RootOrders ComputeRootOrders(const MlData& data) {
  RootOrders orders;
  std::vector<KeyIndex> rows(static_cast<size_t>(data.num_rows()));
  for (size_t k = 0; k < rows.size(); ++k) {
    rows[k].index = static_cast<int64_t>(k);
  }
  for (int f = 0; f < data.num_features(); ++f) {
    SortByFeature(data, f, &rows);
    orders.by_feature.push_back(rows);
  }
  return orders;
}

std::unique_ptr<Node> BuildTree(const MlData& data,
                                const std::vector<double>* weights,
                                const TreeOptions& options,
                                bool classification,
                                const RootOrders* root_orders) {
  TABLEGAN_CHECK(data.num_rows() > 0) << "empty training data";
  if (root_orders != nullptr) {
    TABLEGAN_CHECK(options.max_features == 0 ||
                   options.max_features >= data.num_features())
        << "root orders need every feature examined at the root";
    TABLEGAN_CHECK(root_orders->by_feature.size() ==
                       static_cast<size_t>(data.num_features()) &&
                   (root_orders->by_feature.empty() ||
                    root_orders->by_feature[0].size() ==
                        static_cast<size_t>(data.num_rows())))
        << "root orders from another table";
  }
  Builder builder{data,           weights,    options,
                  classification, root_orders, Rng(options.seed)};
  std::vector<int64_t> idx(static_cast<size_t>(data.num_rows()));
  std::iota(idx.begin(), idx.end(), int64_t{0});
  return builder.Build(std::move(idx), 0);
}

double Evaluate(const Node* node, const std::vector<double>& x) {
  while (node->feature >= 0) {
    node = x[static_cast<size_t>(node->feature)] <= node->threshold
               ? node->left.get()
               : node->right.get();
  }
  return node->value;
}

}  // namespace internal_tree

Status DecisionTreeClassifier::Fit(const MlData& data) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  root_ = internal_tree::BuildTree(data, nullptr, options_, true);
  return Status::OK();
}

Status DecisionTreeClassifier::FitWeighted(
    const MlData& data, const std::vector<double>& weights,
    const internal_tree::RootOrders* root_orders) {
  if (data.num_rows() == 0 ||
      weights.size() != static_cast<size_t>(data.num_rows())) {
    return Status::InvalidArgument("bad weighted fit inputs");
  }
  root_ = internal_tree::BuildTree(data, &weights, options_, true,
                                   root_orders);
  return Status::OK();
}

double DecisionTreeClassifier::PredictProba(
    const std::vector<double>& x) const {
  TABLEGAN_CHECK(root_ != nullptr) << "predict before fit";
  return internal_tree::Evaluate(root_.get(), x);
}

Status DecisionTreeRegressor::Fit(const MlData& data) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  root_ = internal_tree::BuildTree(data, nullptr, options_, false);
  return Status::OK();
}

double DecisionTreeRegressor::Predict(const std::vector<double>& x) const {
  TABLEGAN_CHECK(root_ != nullptr) << "predict before fit";
  return internal_tree::Evaluate(root_.get(), x);
}

}  // namespace ml
}  // namespace tablegan
