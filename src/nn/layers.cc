#include "nn/layers.h"

#include <cmath>

namespace deepst {
namespace nn {
namespace {

// Kaiming-uniform-ish fan-in initialization, as PyTorch's default.
Tensor InitWeight(int64_t out_dim, int64_t in_dim, util::Rng* rng) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_dim));
  return Tensor::Uniform({out_dim, in_dim}, -bound, bound, rng);
}

Tensor InitBias(int64_t out_dim, int64_t in_dim, util::Rng* rng) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_dim));
  return Tensor::Uniform({out_dim}, -bound, bound, rng);
}

VarPtr Activate(const VarPtr& x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return ops::Relu(x);
    case Activation::kLeakyRelu:
      return ops::LeakyRelu(x, kLeakyReluSlope);
    case Activation::kTanh:
      return ops::Tanh(x);
    case Activation::kSigmoid:
      return ops::Sigmoid(x);
  }
  return x;
}

}  // namespace

LinearLayer::LinearLayer(int64_t in_dim, int64_t out_dim, util::Rng* rng,
                         bool bias)
    : in_dim_(in_dim), out_dim_(out_dim) {
  w_ = AddParameter("weight", InitWeight(out_dim, in_dim, rng));
  if (bias) b_ = AddParameter("bias", InitBias(out_dim, in_dim, rng));
}

VarPtr LinearLayer::Forward(const VarPtr& x) const {
  return ops::Linear(x, w_, b_);
}

Mlp::Mlp(const std::vector<int64_t>& dims, Activation activation,
         util::Rng* rng)
    : activation_(activation) {
  DEEPST_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(
        std::make_unique<LinearLayer>(dims[i], dims[i + 1], rng));
    AddSubmodule("fc" + std::to_string(i), layers_.back().get());
  }
}

VarPtr Mlp::Forward(const VarPtr& x) const {
  return ForwardOutput(ForwardHidden(x));
}

VarPtr Mlp::ForwardHidden(const VarPtr& x) const {
  VarPtr h = x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    h = Activate(layers_[i]->Forward(h), activation_);
  }
  return h;
}

VarPtr Mlp::ForwardOutput(const VarPtr& h) const {
  return layers_.back()->Forward(h);
}

EmbeddingLayer::EmbeddingLayer(int64_t vocab, int64_t dim, util::Rng* rng)
    : vocab_(vocab), dim_(dim) {
  table_ = AddParameter(
      "table", Tensor::Gaussian({vocab, dim}, 0.0f,
                                1.0f / std::sqrt(static_cast<float>(dim)),
                                rng));
}

VarPtr EmbeddingLayer::Forward(const std::vector<int>& ids) const {
  return ops::EmbeddingLookup(table_, ids);
}

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  w_ih_ = AddParameter("w_ih", InitWeight(3 * hidden_dim, input_dim, rng));
  w_hh_ = AddParameter("w_hh", InitWeight(3 * hidden_dim, hidden_dim, rng));
  b_ih_ = AddParameter("b_ih", InitBias(3 * hidden_dim, hidden_dim, rng));
  b_hh_ = AddParameter("b_hh", InitBias(3 * hidden_dim, hidden_dim, rng));
}

VarPtr GruCell::Step(const VarPtr& x, const VarPtr& h) const {
  namespace o = ops;
  const int64_t hd = hidden_dim_;
  VarPtr gi = o::Linear(x, w_ih_, b_ih_);  // [B, 3H]
  VarPtr gh = o::Linear(h, w_hh_, b_hh_);  // [B, 3H]
  VarPtr i_r = o::SliceCols(gi, 0, hd);
  VarPtr i_z = o::SliceCols(gi, hd, hd);
  VarPtr i_n = o::SliceCols(gi, 2 * hd, hd);
  VarPtr h_r = o::SliceCols(gh, 0, hd);
  VarPtr h_z = o::SliceCols(gh, hd, hd);
  VarPtr h_n = o::SliceCols(gh, 2 * hd, hd);
  VarPtr r = o::Sigmoid(o::Add(i_r, h_r));
  VarPtr z = o::Sigmoid(o::Add(i_z, h_z));
  VarPtr n = o::Tanh(o::Add(i_n, o::Mul(r, h_n)));
  // h' = (1 - z) * n + z * h
  return o::Add(o::Mul(o::RSubScalar(1.0f, z), n), o::Mul(z, h));
}

StackedGru::StackedGru(int64_t input_dim, int64_t hidden_dim, int num_layers,
                       util::Rng* rng)
    : hidden_dim_(hidden_dim) {
  DEEPST_CHECK_GE(num_layers, 1);
  for (int l = 0; l < num_layers; ++l) {
    const int64_t in = (l == 0) ? input_dim : hidden_dim;
    cells_.push_back(std::make_unique<GruCell>(in, hidden_dim, rng));
    AddSubmodule("layer" + std::to_string(l), cells_.back().get());
  }
}

VarPtr StackedGru::Step(const VarPtr& x, std::vector<VarPtr>* state) const {
  DEEPST_CHECK_EQ(state->size(), cells_.size());
  VarPtr input = x;
  for (size_t l = 0; l < cells_.size(); ++l) {
    VarPtr new_h = cells_[l]->Step(input, (*state)[l]);
    (*state)[l] = new_h;
    input = new_h;
  }
  return input;
}

std::vector<VarPtr> StackedGru::InitialState(int64_t batch) const {
  std::vector<VarPtr> state;
  state.reserve(cells_.size());
  for (size_t l = 0; l < cells_.size(); ++l) {
    state.push_back(Constant(Tensor::Zeros({batch, hidden_dim_})));
  }
  return state;
}

}  // namespace nn
}  // namespace deepst
