#ifndef DEEPST_CORE_DESTINATION_PROXY_H_
#define DEEPST_CORE_DESTINATION_PROXY_H_

#include <memory>
#include <vector>

#include "geo/point.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace deepst {
namespace core {

// The paper's adjoint generative model for destinations (Section IV-C):
//   pi ~ Categorical(eta),    x ~ Normal(M pi, diag(S pi)),
// with proxy embedding f_x(x) = W pi. The posterior q(pi | x) is an MLP
// encoder trained through the Gumbel-Softmax relaxation.
//
// Coordinates are normalized into roughly [-1, 1] via an affine map fitted
// to the network bounding box so that the proxy means M live on a sane
// scale.
class DestinationProxyModel : public nn::Module {
 public:
  DestinationProxyModel(int num_proxies, int dest_dim,
                        const geo::BoundingBox& bounds, int mlp_hidden,
                        util::Rng* rng);

  int num_proxies() const { return num_proxies_; }

  // Normalizes raw coordinates into model space, [B, 2].
  nn::Tensor NormalizeDestinations(const std::vector<geo::Point>& dests) const;

  // q(pi|x) logits, [B, K].
  nn::VarPtr EncodeLogits(const nn::Tensor& x_normalized) const;

  // Differentiable Gumbel-Softmax sample of pi, [B, K].
  nn::VarPtr SamplePi(const nn::VarPtr& logits, float tau,
                      util::Rng* rng) const;

  // Hard one-hot of the posterior mode (MAP prediction), [B, K]; constant.
  nn::VarPtr ModePi(const nn::VarPtr& logits) const;

  // Proxy embedding W pi, [B, dest_dim].
  nn::VarPtr Embed(const nn::VarPtr& pi) const;

  // Sum over batch rows of row_weights[b] * log N(x_b; M pi_b, diag(S pi_b)),
  // scalar. x is the *normalized* destination tensor.
  nn::VarPtr DestinationLogProb(const nn::Tensor& x_normalized,
                                const nn::VarPtr& pi,
                                const nn::Tensor& row_weights) const;

  // KL(q(pi|x) || Uniform(K)) summed over the batch, scalar.
  nn::VarPtr Kl(const nn::VarPtr& logits) const;

  // Learned proxy means mapped back to world coordinates (inspection /
  // examples).
  std::vector<geo::Point> ProxyCentersWorld() const;

  // Index of the proxy a destination is allocated to (posterior mode).
  int AllocateProxy(const geo::Point& dest) const;

  // Raw views for the graph-free inference path (core/infer): the q(pi|x)
  // encoder and the proxy embedding table W^T, [K, dest_dim].
  const nn::Mlp& encoder() const { return *encoder_; }
  const nn::Tensor& embeddings() const { return embeddings_->value(); }

 private:
  int num_proxies_;
  geo::Point center_;
  double scale_;
  std::unique_ptr<nn::Mlp> encoder_;  // 2 -> hidden -> K
  nn::VarPtr means_;                  // M^T, [K, 2] in normalized space
  nn::VarPtr raw_vars_;               // S^T before softplus, [K, 2]
  nn::VarPtr embeddings_;             // W^T, [K, dest_dim]
};

}  // namespace core
}  // namespace deepst

#endif  // DEEPST_CORE_DESTINATION_PROXY_H_
