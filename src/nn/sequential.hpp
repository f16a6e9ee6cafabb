// Ordered container of layers trained as a unit.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace s2a::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Constructs a layer in place and appends it; returns a reference so
  /// callers can keep handles to specific layers.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void append(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  Tensor forward(const Tensor& x) override;
  /// Moves each activation from layer to layer through Layer::infer.
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::size_t macs_per_sample() const override;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Lifetime backing-block allocations across all layers' kernel
  /// arenas (slots included). Training loops assert this stops growing
  /// after the first couple of steps — the zero-steady-state-allocation
  /// invariant of the GEMM forward/backward kernels.
  std::size_t scratch_growth_count() const;
  /// Total doubles reserved across all layers' kernel arenas.
  std::size_t scratch_capacity() const;

 private:
  std::vector<LayerPtr> layers_;
};

/// Standard MLP builder: Dense(+activation) stacks, linear final layer.
/// `hidden` lists the hidden widths; activation is Tanh when `tanh_act`
/// is true, ReLU otherwise.
Sequential make_mlp(int in, const std::vector<int>& hidden, int out, Rng& rng,
                    bool tanh_act = false);

}  // namespace s2a::nn
