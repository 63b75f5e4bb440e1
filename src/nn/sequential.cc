#include "nn/sequential.h"

#include <sstream>

namespace tablegan {
namespace nn {

// The first layer consumes the caller's tensor directly (no upfront deep
// copy); each move-assignment below frees the previous activation.

Tensor Sequential::Forward(const Tensor& input, bool training) {
  if (layers_.empty()) return input;
  Tensor x = layers_.front()->Forward(input, training);
  for (size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i]->Forward(x, training);
  }
  return x;
}

Tensor Sequential::Infer(const Tensor& input) const {
  if (layers_.empty()) return input;
  Tensor x = layers_.front()->Infer(input);
  for (size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->Infer(x);
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  if (layers_.empty()) return grad_output;
  Tensor g = layers_.back()->Backward(grad_output);
  for (size_t i = layers_.size() - 1; i-- > 0;) {
    g = layers_[i]->Backward(g);
  }
  return g;
}

std::vector<Tensor*> Sequential::Parameters() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::Gradients() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->Gradients()) out.push_back(g);
  }
  return out;
}

std::vector<Tensor*> Sequential::Buffers() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* b : layer->Buffers()) out.push_back(b);
  }
  return out;
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "Sequential[";
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i) os << ", ";
    os << layers_[i]->name();
  }
  os << "]";
  return os.str();
}

}  // namespace nn
}  // namespace tablegan
