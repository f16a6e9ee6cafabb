#include "nn/sequential.hpp"

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "util/check.hpp"
#include "util/scratch_arena.hpp"

namespace s2a::nn {

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& l : layers_) h = l->forward(h);
  return h;
}

Tensor Sequential::infer(Tensor x) {
  for (auto& l : layers_) x = l->infer(std::move(x));
  return x;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
  return g;
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* p : l->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* g : l->grads()) out.push_back(g);
  return out;
}

std::size_t Sequential::scratch_growth_count() const {
  std::size_t total = 0;
  for (const auto& l : layers_)
    if (const util::ScratchArena* a = l->scratch())
      total += a->total_growth_count();
  return total;
}

std::size_t Sequential::scratch_capacity() const {
  std::size_t total = 0;
  for (const auto& l : layers_)
    if (const util::ScratchArena* a = l->scratch())
      total += a->total_capacity();
  return total;
}

std::size_t Sequential::macs_per_sample() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->macs_per_sample();
  return n;
}

Sequential make_mlp(int in, const std::vector<int>& hidden, int out, Rng& rng,
                    bool tanh_act) {
  S2A_CHECK(in > 0 && out > 0);
  Sequential net;
  int prev = in;
  for (int h : hidden) {
    net.emplace<Dense>(prev, h, rng);
    if (tanh_act)
      net.emplace<Tanh>();
    else
      net.emplace<ReLU>();
    prev = h;
  }
  net.emplace<Dense>(prev, out, rng);
  return net;
}

}  // namespace s2a::nn
