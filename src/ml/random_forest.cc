#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"

namespace tablegan {
namespace ml {

Status RandomForestClassifier::Fit(const MlData& data) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  trees_.clear();
  Rng rng(options_.seed);
  const int64_t n = data.num_rows();
  const int64_t sample_n = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(n) * options_.subsample));
  TreeOptions topt = options_.tree;
  if (topt.max_features == 0) {
    topt.max_features = std::max(
        1, static_cast<int>(
               std::sqrt(static_cast<double>(data.num_features()))));
  }
  // Draw every bootstrap sample and tree seed first, in the serial order,
  // so the fits below can run on the pool in any order with the same bits.
  const auto num_trees = static_cast<size_t>(std::max(0, options_.num_trees));
  std::vector<std::vector<size_t>> rows(num_trees);
  std::vector<DecisionTreeClassifier> trees;
  trees.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    rows[t].resize(static_cast<size_t>(sample_n));
    for (size_t& j : rows[t]) {
      j = static_cast<size_t>(rng.NextUint64(static_cast<uint64_t>(n)));
    }
    topt.seed = rng.NextUint64();
    trees.emplace_back(topt);
  }
  std::vector<Status> fitted(num_trees);
  ParallelFor(static_cast<int64_t>(num_trees), 1, [&](int64_t t0, int64_t t1) {
    for (auto t = static_cast<size_t>(t0); t < static_cast<size_t>(t1); ++t) {
      MlData boot;
      boot.x.reserve(rows[t].size());
      boot.y.reserve(rows[t].size());
      for (size_t j : rows[t]) {
        boot.x.push_back(data.x[j]);
        boot.y.push_back(data.y[j]);
      }
      fitted[t] = trees[t].Fit(boot);
    }
  });
  // The first failure in tree order, whatever order the fits ran in.
  for (const Status& status : fitted) TABLEGAN_RETURN_NOT_OK(status);
  trees_ = std::move(trees);
  return Status::OK();
}

double RandomForestClassifier::PredictProba(
    const std::vector<double>& x) const {
  TABLEGAN_CHECK(!trees_.empty()) << "predict before fit";
  double acc = 0.0;
  for (const auto& tree : trees_) acc += tree.PredictProba(x);
  return acc / static_cast<double>(trees_.size());
}

}  // namespace ml
}  // namespace tablegan
