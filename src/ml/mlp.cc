#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace tablegan {
namespace ml {

Status MlpClassifier::Fit(const MlData& data) {
  const int64_t n = data.num_rows();
  if (n == 0) return Status::InvalidArgument("empty training data");
  const int f = data.num_features();
  scaler_.Fit(data);
  const MlData scaled = scaler_.TransformAll(data);

  Rng rng(options_.seed);
  net_ = std::make_unique<nn::Sequential>();
  int in = f;
  for (int h : options_.hidden_sizes) {
    net_->Emplace<nn::Dense>(in, h);
    net_->Emplace<nn::ReLU>();
    in = h;
  }
  net_->Emplace<nn::Dense>(in, 1);  // logits head
  nn::XavierInitialize(net_.get(), &rng);

  nn::Adam optimizer(net_->Parameters(), net_->Gradients(),
                     options_.learning_rate, 0.9f, 0.999f);
  const int64_t batch = std::min<int64_t>(options_.batch_size, n);
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (int64_t start = 0; start + batch <= n; start += batch) {
      Tensor xb({batch, f});
      Tensor yb({batch, 1});
      for (int64_t b = 0; b < batch; ++b) {
        const auto& row = scaled.x[static_cast<size_t>(
            order[static_cast<size_t>(start + b)])];
        for (int j = 0; j < f; ++j) {
          xb.at2(b, j) = static_cast<float>(row[static_cast<size_t>(j)]);
        }
        yb[b] = static_cast<float>(
            scaled.y[static_cast<size_t>(order[static_cast<size_t>(start + b)])]);
      }
      Tensor logits = net_->Forward(xb, /*training=*/true);
      Tensor grad;
      nn::SigmoidBceWithLogits(logits, yb, &grad);
      net_->ZeroGrad();
      net_->Backward(grad);
      optimizer.Step();
    }
  }
  return Status::OK();
}

double MlpClassifier::PredictProba(const std::vector<double>& x) const {
  MlData one;
  one.x.push_back(x);
  return PredictProbaAll(one)[0];
}

// Infer is const and writes no layer state, so threads may predict on one
// model at once. GEMM rows are computed independently, so a row's
// probability has the same bits in a batch of any size.
std::vector<double> MlpClassifier::PredictProbaAll(const MlData& data) const {
  TABLEGAN_CHECK(net_ != nullptr) << "predict before fit";
  if (data.x.empty()) return {};
  const auto f = static_cast<int64_t>(data.x[0].size());
  Tensor xb({static_cast<int64_t>(data.x.size()), f});
  for (size_t i = 0; i < data.x.size(); ++i) {
    const std::vector<double> scaled = scaler_.Transform(data.x[i]);
    for (int64_t j = 0; j < f; ++j) {
      xb.at2(static_cast<int64_t>(i), j) =
          static_cast<float>(scaled[static_cast<size_t>(j)]);
    }
  }
  const Tensor logits = net_->Infer(xb);
  std::vector<double> out(static_cast<size_t>(logits.size()));
  for (int64_t i = 0; i < logits.size(); ++i) {
    out[static_cast<size_t>(i)] =
        1.0 / (1.0 + std::exp(-static_cast<double>(logits[i])));
  }
  return out;
}

}  // namespace ml
}  // namespace tablegan
