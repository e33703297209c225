#ifndef DEEPST_NN_LAYERS_H_
#define DEEPST_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "nn/module.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace deepst {
namespace nn {

// Fully-connected layer: y = x @ W^T + b.
class LinearLayer : public Module {
 public:
  LinearLayer(int64_t in_dim, int64_t out_dim, util::Rng* rng,
              bool bias = true);

  VarPtr Forward(const VarPtr& x) const;

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }

  // Raw weight views for the graph-free inference path (nn/infer).
  const Tensor& weight() const { return w_->value(); }
  const Tensor* bias() const { return b_ ? &b_->value() : nullptr; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  VarPtr w_;
  VarPtr b_;  // null when bias=false
};

enum class Activation { kNone, kRelu, kLeakyRelu, kTanh, kSigmoid };
// Negative slope of Activation::kLeakyRelu.
inline constexpr float kLeakyReluSlope = 0.01f;

// Multi-layer perceptron with a shared hidden trunk; hidden layers use
// `activation`, the output layer is linear.
class Mlp : public Module {
 public:
  // dims = {in, h1, ..., out}; at least {in, out}.
  Mlp(const std::vector<int64_t>& dims, Activation activation,
      util::Rng* rng);

  VarPtr Forward(const VarPtr& x) const;
  // Forward through hidden layers only (the shared trunk), useful when two
  // heads branch off one trunk (mu / logvar in the paper's traffic encoder).
  VarPtr ForwardHidden(const VarPtr& x) const;
  // Applies only the last (output) layer.
  VarPtr ForwardOutput(const VarPtr& h) const;

  // Layer views for the graph-free inference path (nn/infer).
  size_t num_layers() const { return layers_.size(); }
  const LinearLayer& layer(size_t i) const { return *layers_[i]; }
  Activation activation() const { return activation_; }

 private:
  std::vector<std::unique_ptr<LinearLayer>> layers_;
  Activation activation_;
};

// Token embedding table.
class EmbeddingLayer : public Module {
 public:
  EmbeddingLayer(int64_t vocab, int64_t dim, util::Rng* rng);

  VarPtr Forward(const std::vector<int>& ids) const;

  int64_t dim() const { return dim_; }
  int64_t vocab() const { return vocab_; }
  const VarPtr& table() const { return table_; }

 private:
  int64_t vocab_;
  int64_t dim_;
  VarPtr table_;
};

// Single GRU cell (PyTorch gate layout: reset, update, new).
//   r = sigmoid(x W_ir^T + b_ir + h W_hr^T + b_hr)
//   z = sigmoid(x W_iz^T + b_iz + h W_hz^T + b_hz)
//   n = tanh(x W_in^T + b_in + r * (h W_hn^T + b_hn))
//   h' = (1 - z) * n + z * h
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng* rng);

  // x: [B, In], h: [B, H] -> [B, H].
  VarPtr Step(const VarPtr& x, const VarPtr& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }
  int64_t input_dim() const { return input_dim_; }

  // Raw weight views for the graph-free inference path (nn/infer).
  const Tensor& w_ih() const { return w_ih_->value(); }
  const Tensor& w_hh() const { return w_hh_->value(); }
  const Tensor& b_ih() const { return b_ih_->value(); }
  const Tensor& b_hh() const { return b_hh_->value(); }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  VarPtr w_ih_;  // [3H, In]
  VarPtr w_hh_;  // [3H, H]
  VarPtr b_ih_;  // [3H]
  VarPtr b_hh_;  // [3H]
};

// Stack of GRU cells; layer l feeds layer l+1 (paper uses a 3-layer stack).
class StackedGru : public Module {
 public:
  StackedGru(int64_t input_dim, int64_t hidden_dim, int num_layers,
             util::Rng* rng);

  // One time step. `state` holds one [B, H] hidden per layer; it is updated
  // in place. Returns the top layer's new hidden state.
  VarPtr Step(const VarPtr& x, std::vector<VarPtr>* state) const;

  // Fresh all-zero state for batch size B.
  std::vector<VarPtr> InitialState(int64_t batch) const;

  int num_layers() const { return static_cast<int>(cells_.size()); }
  int64_t hidden_dim() const { return hidden_dim_; }
  const GruCell& cell(int layer) const {
    return *cells_[static_cast<size_t>(layer)];
  }

 private:
  int64_t hidden_dim_;
  std::vector<std::unique_ptr<GruCell>> cells_;
};

}  // namespace nn
}  // namespace deepst

#endif  // DEEPST_NN_LAYERS_H_
