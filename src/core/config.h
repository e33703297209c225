#ifndef DEEPST_CORE_CONFIG_H_
#define DEEPST_CORE_CONFIG_H_

#include <cstdint>

#include "nn/infer/precision.h"

namespace deepst {
namespace core {

// How the model represents the trip destination (paper Section IV-C and the
// CSSRNN baseline of Section V-A).
enum class DestinationMode {
  // K-destination proxies with the adjoint generative model (DeepST).
  kProxies,
  // Embedding of the exact final road segment, assumed known in advance
  // (the CSSRNN baseline [7]).
  kFinalSegment,
  // No destination information (the vanilla RNN baseline).
  kNone,
};

// Hyperparameters of DeepST and its ablations. Defaults are scaled-down
// versions of the paper's Section V-A settings (hidden 256 -> 64 etc.) so
// CPU training converges in seconds-to-minutes; EXPERIMENTS.md documents the
// mapping.
struct DeepSTConfig {
  // -- Architecture ----------------------------------------------------------
  int segment_embedding_dim = 32;  // input token embedding
  int gru_hidden = 64;             // paper: 256
  int gru_layers = 2;              // paper: 3
  int dest_dim = 32;               // n_x, paper: 128
  int traffic_dim = 16;            // |c|, paper: 256
  int num_proxies = 64;            // K, paper: 500-1000
  int cnn_channels = 12;           // conv block width, paper unspecified
  int mlp_hidden = 64;             // hidden size of all MLPs, paper: 256

  // -- Explanatory factors (ablation switches) --------------------------------
  bool use_traffic = true;  // false -> DeepST-C
  DestinationMode destination_mode = DestinationMode::kProxies;
  // Ablation: feed the posterior mean instead of a reparameterized sample of
  // c during training (reduces input noise at the cost of a biased ELBO).
  bool deterministic_traffic_latent = false;

  // -- Training --------------------------------------------------------------
  float gumbel_tau = 0.66f;  // Gumbel-Softmax temperature
  // Paper Eq. 7 literally multiplies the destination log-likelihood by the
  // route length (sum over i of a term independent of i); false uses the
  // unscaled variant (ablation).
  bool dest_loss_length_scaled = true;
  // Weight of the destination reconstruction + KL block relative to the
  // route term.
  float dest_loss_weight = 1.0f;
  // Down-weighted KL (beta-VAE style): with the full ELBO weight the latents
  // over-regularize at this data scale (see EXPERIMENTS.md calibration
  // notes).
  float kl_weight = 0.1f;
  // Train the softmax over all N_max slots (paper: unmasked; the data pushes
  // mass onto the valid ones). When true, invalid slots are masked to -inf
  // during training (ablation).
  bool mask_invalid_slots = false;
  // Scheduled sampling (the paper's "future work" on accumulated generation
  // errors): with this probability a training step's input token is replaced
  // by the model's own previous prediction, when that prediction shares the
  // true segment's end vertex (so the step target stays well defined).
  // 0 disables.
  float scheduled_sampling_prob = 0.0f;

  // -- Generation (Algorithm 2) -----------------------------------------------
  // Deterministic stop: end generation once the projection distance of the
  // destination onto the current segment is below this. The paper's sampled
  // Bernoulli stop with f_s = 1/(1 + d_km) is used when sample_stop=true.
  double stop_distance_m = 500.0;
  bool sample_stop = false;
  int max_route_steps = 80;
  // Width of the beam search used to return the highest-likelihood route
  // (Section IV-D: "in the prediction stage only the one with the highest
  // likelihood score will be returned"). 1 = greedy.
  int beam_width = 4;
  // Use posterior means / modes for latents at prediction (deterministic);
  // when false, sample as in Algorithm 2.
  bool map_prediction = true;
  // Packed weight precision of the fast path's GEMV kernels (CLI
  // --precision double|bf16|int8). double is bitwise the PR 3 baseline;
  // bf16/int8 trade exactness for bandwidth and are accuracy-parity-gated
  // (docs/inference.md). The autodiff *Reference predictors ignore it.
  nn::infer::Precision infer_precision = nn::infer::Precision::kDouble;
  // Build K-major panel sidecars into the shared packed weights so batched
  // (beam / multi-query) GEMVs run through the register-blocked GEMM
  // micro-kernels (docs/inference.md "GEMM blocking"). Blocked results are
  // bitwise identical to the per-element kernels at every precision, so
  // this only changes speed; off reproduces the PR 8 kernel schedule
  // exactly (the bench A/B baseline).
  bool gemm_blocking = true;
  // Entry budget of the transition-distribution memo cache shared across
  // the session pool (CLI --memo-capacity); 0 disables memoization. Hits
  // are bitwise identical to recomputing, so this only changes speed.
  int64_t memo_cache_capacity = 16384;

  uint64_t seed = 1234;

  // Compute threads for the nn backend during model construction and
  // prediction. 0 leaves the process-wide backend untouched; N >= 1 installs
  // an N-thread backend (1 = serial). Thread count never changes results.
  int num_threads = 0;
};

}  // namespace core
}  // namespace deepst

#endif  // DEEPST_CORE_CONFIG_H_
