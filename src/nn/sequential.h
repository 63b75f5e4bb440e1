#ifndef TABLEGAN_NN_SEQUENTIAL_H_
#define TABLEGAN_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.h"

namespace tablegan {
namespace nn {

/// Ordered container of layers. Forward applies layers front-to-back;
/// Backward applies them back-to-front. Owns its layers.
///
/// The table-GAN networks are built as Sequentials; the discriminator is
/// split into a feature stack and a head so the information loss can tap
/// the flattened features (see core/networks.h).
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer and returns a borrowed pointer to it (valid for the
  /// lifetime of the Sequential).
  template <typename L, typename... Args>
  L* Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void Append(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Infer(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Tensor*> Parameters() override;
  std::vector<Tensor*> Gradients() override;
  std::vector<Tensor*> Buffers() override;
  std::string name() const override;

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer* layer(int i) { return layers_[static_cast<size_t>(i)].get(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace nn
}  // namespace tablegan

#endif  // TABLEGAN_NN_SEQUENTIAL_H_
