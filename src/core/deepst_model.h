#ifndef DEEPST_CORE_DEEPST_MODEL_H_
#define DEEPST_CORE_DEEPST_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/destination_proxy.h"
#include "core/traffic_encoder.h"
#include "nn/infer/memo.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/serialize.h"
#include "roadnet/road_network.h"
#include "traffic/overlay.h"
#include "traffic/snapshot.h"
#include "traj/types.h"

namespace deepst {
namespace core {

namespace infer {
class InferenceSession;
struct SharedInferWeights;
}  // namespace infer

// A route prediction / scoring query: initial road segment, rough
// destination coordinate, start time (used to look up the real-time traffic
// tensor). `final_segment` is only consulted by the CSSRNN-style
// DestinationMode::kFinalSegment, which assumes the exact last road segment
// is known in advance.
struct RouteQuery {
  roadnet::SegmentId origin = roadnet::kInvalidSegment;
  geo::Point destination;
  double start_time_s = 0.0;
  roadnet::SegmentId final_segment = roadnet::kInvalidSegment;
  // Point-based origin for queries that arrive as raw coordinates: when
  // `origin` is kInvalidSegment and this is set, the serving layer snaps to
  // the nearest segment via the spatial index.
  bool has_origin_point = false;
  geo::Point origin_point;
  // Counterfactual what-if scenario: deterministic edits applied to a copy
  // of the query's pinned traffic snapshot ("close these cells", "scale
  // corridor speeds"). Empty = score/predict against reality. The serving
  // layer validates it and refuses it on variants without traffic.
  traffic::TrafficOverlay overlay;
};

// Degraded-context switches consumed by the MakeContext overload. Each
// substitutes a well-defined prior for an unavailable input, reproducing the
// paper's ablations at serving time: traffic_prior_mean serves DeepST-C
// behavior (c fixed at the standard-normal prior mean, exactly zero since
// gamma has no bias), uniform_proxy serves the DeepST-pi uniform proxy
// mixture (pi = 1/K) when the destination coordinate is unusable. Both are
// deterministic: no rng draws, bitwise reproducible.
struct ContextOptions {
  bool traffic_prior_mean = false;
  bool uniform_proxy = false;
  // Pinned snapshot override: when set, traffic tensors come from this
  // cache instead of the model's construction-time default. The serving
  // layer passes the generation it pinned at admission (SnapshotStore), so
  // the whole query reads one immutable epoch no matter when swaps land.
  // Must share the model cache's grid. Null = model default.
  traffic::TrafficTensorCache* traffic_cache = nullptr;
  // What-if edit applied to a copy of each traffic tensor the query reads
  // (never to the pinned base). Null/empty = no edit. Ignored when
  // traffic_prior_mean substitutes the zero prior -- there is no observed
  // tensor to edit.
  const traffic::TrafficOverlay* overlay = nullptr;
};

// Loss diagnostics for one minibatch (per-trip averages).
struct LossStats {
  double total = 0.0;
  double route_ce = 0.0;      // negative route log-likelihood
  double dest_nll = 0.0;      // negative destination log-likelihood
  double kl_traffic = 0.0;
  double kl_proxy = 0.0;
  int num_transitions = 0;
};

// Latent/context terms fixed for a whole query, reused across the generation
// loop and across candidate routes in scoring.
struct PredictionContext {
  bool has_dest = false;
  nn::Tensor dest_term;  // [1, N_max] additive logit bias
  nn::Tensor dest_repr;  // [1, dest_dim] f_x = W pi, fed to the GRU input
  bool has_traffic = false;
  nn::Tensor traffic_term;  // [1, N_max]
  nn::Tensor traffic_repr;  // [1, traffic_dim] c
  geo::Point destination;
};

// -- Cross-query batching work items -------------------------------------------
// One prediction / scoring query inside a coalesced batch. The serve
// daemon's scheduler fills these from *different* clients and runs them
// through one padded batch on a single leased session; per item the result
// is bitwise identical to the corresponding single-query call (see
// core/infer/session.h for the kernel-level argument).
struct PredictItem {
  const PredictionContext* ctx = nullptr;
  roadnet::SegmentId origin = roadnet::kInvalidSegment;
  double deadline_ms = 0.0;  // per-item wall budget; 0 disables
  bool budget_hit = false;   // out: deadline returned best-so-far
  traj::Route route;         // out
};
struct ScoreItem {
  const PredictionContext* ctx = nullptr;
  const std::vector<traj::Route>* routes = nullptr;
  std::vector<double> scores;  // out; same conventions as ScoreRoutes
};

// DeepST (Section IV): a deep probabilistic generative model of routes,
//   P(r_{i+1} | r_{1:i}, x, c) = softmax(alpha^T h_i + beta^T W pi + gamma^T c)
// over the neighbor slots of r_i, trained by maximizing the ELBO of Eq. 7
// with reparameterized Gaussian traffic latents and Gumbel-Softmax proxy
// latents. Ablations via DeepSTConfig: use_traffic=false gives DeepST-C;
// destination_mode selects proxies (DeepST) / known final segment (CSSRNN)
// / none (vanilla RNN).
class DeepSTModel : public nn::Module {
 public:
  // `traffic_cache` provides the shared per-slot traffic tensors; required
  // when config.use_traffic, ignored otherwise. The cache must outlive the
  // model and must cover both training and query times.
  DeepSTModel(const roadnet::RoadNetwork& net, const DeepSTConfig& config,
              traffic::TrafficTensorCache* traffic_cache);
  ~DeepSTModel() override;

  // O(params) construction from a saved parameter snapshot: the model is
  // built under nn::ScopedDeferInit (storage allocated, no random draws --
  // random init over a 100k-segment city costs more than the copy that
  // immediately overwrites it), then `params` is applied by name. Fails if
  // any parameter is missing or shape-mismatched, so a half-initialized
  // model never escapes.
  static util::StatusOr<std::unique_ptr<DeepSTModel>> LoadFromParams(
      const roadnet::RoadNetwork& net, const DeepSTConfig& config,
      traffic::TrafficTensorCache* traffic_cache,
      const std::vector<nn::NamedTensor>& params);
  // Same, reading the snapshot from an nn::SaveParameters file.
  static util::StatusOr<std::unique_ptr<DeepSTModel>> LoadFromFile(
      const roadnet::RoadNetwork& net, const DeepSTConfig& config,
      traffic::TrafficTensorCache* traffic_cache, const std::string& path);

  // -- Training ---------------------------------------------------------------
  // Scalar ELBO-derived loss (mean per trip) for a minibatch; backward-able.
  // `training=false` switches to evaluation behavior: MAP latents instead of
  // samples and batch-norm running statistics (used for validation CE).
  nn::VarPtr Loss(const std::vector<const traj::Trip*>& batch, util::Rng* rng,
                  LossStats* stats = nullptr, bool training = true);

  // -- Prediction (Algorithm 2) -------------------------------------------------
  // Generation and scoring run on the graph-free inference engine
  // (core/infer), which agrees with the autodiff *Reference methods below
  // within 1e-5 (docs/inference.md). All prediction/scoring entry points are
  // safe to call concurrently: each call leases a scratch session from a
  // mutex-guarded pool.
  PredictionContext MakeContext(const RouteQuery& query, util::Rng* rng);
  // Degraded-context variant: substitutes priors for the inputs flagged in
  // `options` (see ContextOptions) and computes the rest normally.
  PredictionContext MakeContext(const RouteQuery& query, util::Rng* rng,
                                const ContextOptions& options);
  // Most-likely-route generation: beam search of config.beam_width when
  // map_prediction (a greedy step loop when beam_width == 1), sampled per
  // Algorithm 2 otherwise. ServingContext runs the beam at every width
  // (PredictRoutesBeamMulti); greedy and a width-1 beam differ only where
  // two valid slots tie (docs/inference.md).
  traj::Route PredictRoute(const PredictionContext& ctx,
                           roadnet::SegmentId origin, util::Rng* rng);
  traj::Route PredictRoute(const RouteQuery& query, util::Rng* rng);

  // -- Route likelihood score (Section IV-E) -------------------------------------
  // log prod_i P(r_{i+1} | r_{1:i}, W pi, c); -inf for non-contiguous routes.
  double ScoreRoute(const PredictionContext& ctx, const traj::Route& route);
  double ScoreRoute(const RouteQuery& query, const traj::Route& route,
                    util::Rng* rng);
  // Scores a whole candidate set as one padded batch (one GRU step per
  // position for all candidates at once). Bitwise identical to calling
  // ScoreRoute per route; routes shorter than 2 segments score 0,
  // non-contiguous ones -inf.
  std::vector<double> ScoreRoutes(const PredictionContext& ctx,
                                  const std::vector<traj::Route>& routes);
  // Log-likelihood of `continuation` given that `prefix` was already
  // traveled: the GRU state is warmed over the prefix (unscored), then the
  // continuation's transitions are scored. continuation.front() must equal
  // prefix.back() when the prefix is non-empty (route recovery scores gap
  // candidates this way, keeping DeepST's sequential memory in play).
  double ScoreContinuation(const PredictionContext& ctx,
                           const traj::Route& prefix,
                           const traj::Route& continuation);
  // Batched variant: warms the shared prefix once, then scores every
  // candidate continuation as one padded batch. Bitwise identical to
  // calling ScoreContinuation per candidate.
  std::vector<double> ScoreContinuations(
      const PredictionContext& ctx, const traj::Route& prefix,
      const std::vector<traj::Route>& candidates);

  // -- Cross-query batched entry points (serve scheduler) ------------------------
  // Run every item through ONE leased session: the beam of beam_width (1
  // included) as one lock-step batch, or item by item on `rng` under
  // sample_stop, whose stops draw from it (`rng` must then be non-null).
  // A positive item deadline caps wall time: the search always completes
  // at least one expansion step, checks the clock between steps, and
  // returns the best hypothesis so far when the budget runs out (setting
  // the item's budget_hit). Each item's result is bitwise identical to a
  // one-item call.
  void PredictRoutesBeamMulti(std::vector<PredictItem>* items,
                              util::Rng* rng = nullptr);
  void ScoreRoutesMulti(std::vector<ScoreItem>* items);

  // -- Autodiff reference implementations ---------------------------------------
  // The original graph-building paths, kept as the specification the fast
  // path is parity-tested against (tests/inference_test.cc) and benchmarked
  // against (bench_micro --inference_sweep).
  traj::Route PredictRouteReference(const PredictionContext& ctx,
                                    roadnet::SegmentId origin,
                                    util::Rng* rng);
  traj::Route PredictRouteBeamReference(const PredictionContext& ctx,
                                        roadnet::SegmentId origin,
                                        util::Rng* rng,
                                        double deadline_ms = 0.0,
                                        bool* budget_hit = nullptr);
  double ScoreRouteReference(const PredictionContext& ctx,
                             const traj::Route& route);
  double ScoreContinuationReference(const PredictionContext& ctx,
                                    const traj::Route& prefix,
                                    const traj::Route& continuation);

  const DeepSTConfig& config() const { return config_; }
  const roadnet::RoadNetwork& network() const { return net_; }
  DestinationProxyModel* proxy_model() { return proxy_.get(); }
  const DestinationProxyModel* proxy_model() const { return proxy_.get(); }
  // Traffic cache backing MakeContext (null when !config.use_traffic). The
  // serving layer reads its staleness signals to pick between live traffic
  // and the prior-mean fallback.
  traffic::TrafficTensorCache* traffic_cache() { return traffic_cache_; }

  // Raw-weight views consumed by the graph-free engine (core/infer).
  const nn::EmbeddingLayer& segment_embedding() const { return *segment_emb_; }
  const nn::StackedGru& gru() const { return *gru_; }
  const nn::LinearLayer& alpha_layer() const { return *alpha_; }

  // Weights packed once and shared read-only by every pooled session; built
  // lazily on the first session construction, rebuilt after
  // RetirePooledSessions. The build also packs the K-major GEMM panel
  // sidecars (forward.h), so batched beam/scoring steps run the
  // register-blocked kernel. Never null.
  std::shared_ptr<const infer::SharedInferWeights> shared_infer_weights()
      const;

  // Transition-distribution memo cache shared across the session pool; null
  // when config.memo_cache_capacity == 0. Hits replay kernel outputs
  // bitwise, so callers only observe it through speed and the counters.
  nn::infer::TransitionMemoCache* transition_memo() const {
    return memo_.get();
  }
  // Counter snapshot (zeros with epoch/capacity 0 when disabled); surfaced
  // through ServeMetrics and `deepst serve` stats.
  nn::infer::MemoStats transition_memo_stats() const;
  // Counters of the traffic posterior memo (docs/inference.md, "Traffic
  // posterior memo"): on exactly when the transition memo is and the model
  // reads traffic; zeros with capacity 0 otherwise.
  nn::infer::MemoStats traffic_posterior_memo_stats() const;
  // Wholesale memo invalidation: call after mutating weights in place or
  // swapping the traffic snapshot wiring. O(1) epoch bump; queries already
  // in flight keep the epoch they pinned at context-preparation time.
  // RetirePooledSessions also invalidates (its contract is "scratch state
  // may be stale"), covering the serve watchdog path.
  void InvalidateTransitionCache();

  // Number of pooled inference sessions currently alive (test/debug hook;
  // grows up to the peak number of concurrent prediction calls).
  size_t num_pooled_sessions();

  // Retires the session pool: pooled sessions are destroyed now, and every
  // session currently leased out is dropped instead of re-pooled when its
  // lease ends. Also drops every piece of inference state derived from the
  // weights (packed weights, both memos). The serve watchdog calls this to
  // recycle scratch state a hung or fault-poisoned worker may have left
  // behind, without touching the threads themselves, and Trainer::Fit calls
  // it once the weights are final; subsequent calls build fresh sessions on
  // demand.
  void RetirePooledSessions();
  // Sessions currently leased out (zero once a drain completes; the chaos
  // soak asserts no lease is ever leaked).
  int64_t outstanding_session_leases() const;

 private:
  // Next-slot logits [B, N_max] for the current hidden state plus context
  // terms.
  nn::VarPtr StepLogits(const nn::VarPtr& h, const nn::VarPtr& dest_term,
                        const nn::VarPtr& traffic_term) const;
  // Builds the per-trip context for a batch; appends ELBO pieces (KLs,
  // destination log-lik) to `extra_loss_terms`.
  //
  // Implementation note (deviation from the paper's Eq. in IV-A, documented
  // in DESIGN.md): besides the additive logit biases beta^T W pi and
  // gamma^T c, the representations W pi and c are concatenated to the GRU
  // input at every step. A purely additive slot bias that is constant across
  // steps cannot condition the *direction* of the next transition on the
  // destination -- slot semantics change with the current segment -- so the
  // interaction pathway has to reach the recurrent state; CSSRNN [7] does
  // the same.
  struct BatchContext {
    nn::VarPtr dest_term;     // [B, N_max] logit bias; null if unused
    nn::VarPtr dest_repr;     // [B, dest_dim]; null if unused
    nn::VarPtr traffic_term;  // [B, N_max]; null if unused
    nn::VarPtr traffic_repr;  // [B, traffic_dim]; null if unused
  };
  // `traffic_cache` overrides the construction-time cache (pinned snapshot
  // serving); `overlay` applies a what-if edit to a copy of each unique
  // traffic tensor. Training passes neither. `inference` (set by
  // MakeContextImpl only, so Loss keeps the autodiff path and its gradients
  // in training and validation) builds the destination representation off
  // the graph (InferDestRepr) and reads the traffic posterior through
  // posterior_memo_.
  BatchContext MakeBatchContext(const std::vector<const traj::Trip*>& batch,
                                util::Rng* rng, bool training,
                                std::vector<nn::VarPtr>* extra_loss_terms,
                                LossStats* stats,
                                traffic::TrafficTensorCache* traffic_cache =
                                    nullptr,
                                const traffic::TrafficOverlay* overlay =
                                    nullptr,
                                bool inference = false);
  // W pi for one normalized destination row, bitwise the evaluation-mode
  // composition EncodeLogits -> ModePi (or SamplePi) -> Embed, with the
  // proxy logits from the packed encoder (SharedInferWeights).
  nn::VarPtr InferDestRepr(const nn::Tensor& x_norm, util::Rng* rng);
  // Evaluation-mode posterior of the single tensor in `tensors`, from the
  // memo when it holds those exact bytes, else encoded and inserted.
  TrafficPosterior MemoizedPosterior(
      const std::vector<const nn::Tensor*>& tensors);
  // MakeContext body parameterized on the snapshot source and overlay; the
  // public overloads delegate here.
  PredictionContext MakeContextImpl(const RouteQuery& query, util::Rng* rng,
                                    traffic::TrafficTensorCache* traffic_cache,
                                    const traffic::TrafficOverlay* overlay);

  // Lease management for the graph-free engine: every prediction/scoring
  // call takes a session exclusively (sessions own scratch state), returning
  // it when done so the buffers stay warm for the next call.
  std::unique_ptr<infer::InferenceSession> AcquireSession();
  // Returns a session to the pool -- unless the pool generation advanced
  // since `generation` (RetirePooledSessions ran while it was leased), in
  // which case the stale session is destroyed instead.
  void ReleaseSession(std::unique_ptr<infer::InferenceSession> session,
                      uint64_t generation);
  class SessionLease;

  const roadnet::RoadNetwork& net_;
  DeepSTConfig config_;
  traffic::TrafficTensorCache* traffic_cache_;
  util::Rng init_rng_;

  std::unique_ptr<nn::EmbeddingLayer> segment_emb_;
  std::unique_ptr<nn::StackedGru> gru_;
  std::unique_ptr<nn::LinearLayer> alpha_;  // H -> N_max
  std::unique_ptr<nn::LinearLayer> beta_;   // dest_dim -> N_max
  std::unique_ptr<nn::LinearLayer> gamma_;  // traffic_dim -> N_max
  std::unique_ptr<DestinationProxyModel> proxy_;
  std::unique_ptr<nn::EmbeddingLayer> final_segment_emb_;  // CSSRNN mode
  std::unique_ptr<TrafficEncoder> traffic_encoder_;

  std::mutex session_mu_;
  std::vector<std::unique_ptr<infer::InferenceSession>> session_pool_;
  std::atomic<uint64_t> session_generation_{0};
  std::atomic<int64_t> outstanding_leases_{0};
  // Lazily-built packed weights shared by pooled sessions (see
  // shared_infer_weights()); reset on RetirePooledSessions so rebuilt
  // sessions repack from the current float parameters.
  mutable std::mutex weights_mu_;
  mutable std::shared_ptr<const infer::SharedInferWeights> shared_weights_;
  std::unique_ptr<nn::infer::TransitionMemoCache> memo_;
  // MakeContext's traffic posterior (mu, logvar) keyed by the bytes of the
  // input tensor; invalidated on retirement. Null when memo_ is, or when
  // the model reads no traffic.
  std::unique_ptr<nn::infer::TransitionMemoCache> posterior_memo_;
};

// Log-probability of transitioning into neighbor slot `slot`, normalized
// over the *valid* neighbor slots of the current segment only. Training uses
// the unmasked N_max-way softmax (the paper's choice), but likelihood
// scoring and generation both restrict to true neighbors (Algorithm 2 draws
// from the adjacent road segments), so the measure must renormalize
// accordingly -- otherwise mass leaked onto invalid slots (which varies with
// out-degree) biases cross-route comparisons. Shared by the autodiff
// reference path and the graph-free engine so both normalize identically.
double ValidSlotLogProb(const float* logits_row, int num_valid, int slot);

// The slot-independent part of ValidSlotLogProb for one logits row: the max
// valid logit and the log of the exp-sum against it. The beam loops build
// one per hypothesis instead of renormalizing per candidate slot; LogProb
// is the same expression, so it is bitwise ValidSlotLogProb.
struct ValidSlotNormalizer {
  ValidSlotNormalizer(const float* logits_row, int num_valid);
  double LogProb(const float* logits_row, int slot) const {
    return logits_row[slot] - mx - log_denom;
  }
  double mx = 0.0;
  double log_denom = 0.0;
};

// Shared stop rule of the generative process: the paper's
// f_s(r, x) = 1 / (1 + ||p(x, r) - x||_2) Bernoulli parameter (distance in
// km). Deterministic mode stops once the projection distance drops below
// config.stop_distance_m.
bool ShouldStop(const roadnet::RoadNetwork& net, const geo::Point& dest,
                roadnet::SegmentId segment, const DeepSTConfig& config,
                util::Rng* rng);

}  // namespace core
}  // namespace deepst

#endif  // DEEPST_CORE_DEEPST_MODEL_H_
