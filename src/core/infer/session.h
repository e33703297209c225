#ifndef DEEPST_CORE_INFER_SESSION_H_
#define DEEPST_CORE_INFER_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/deepst_model.h"
#include "nn/infer/forward.h"
#include "nn/infer/memo.h"
#include "util/stopwatch.h"

namespace deepst {
namespace core {
namespace infer {

// Model weights packed once for the GEMV fast path and shared read-only by
// every pooled session (packing happens at most once per model generation,
// not per session — "pack at pool construction"). The GEMV weights are
// exact doubles with K-major panels (nn::infer::PackedMatrix). The
// embedding table is not packed: it is gathered, not multiplied, so each
// step widens the rows it needs straight from the model's float table
// (exactly) instead of keeping an O(num_segments) double copy. That table
// and the biases are read through tensor pointers into the model, which
// must outlive the view.
//
// The proxy encoder q(pi|x) is packed too, output-major in exact float:
// MakeContext computes the proxy logits from it (nn::infer::MlpView),
// bitwise the autodiff encoder's.
struct SharedInferWeights {
  nn::infer::GruStackView gru;
  nn::infer::PackedMatrix alpha_w;   // [N_max, H]
  nn::infer::MlpView proxy_encoder;  // 2 -> hidden -> K; empty w/o proxies
  // Packed operand bytes: the GEMV weights plus the proxy encoder pack.
  size_t packed_weight_bytes = 0;
  // Bytes of the K-major panel sidecars of the blocked GEMM path. Panels
  // duplicate the full blocks of each matrix in streaming order, so this is
  // close to a second copy of the GEMV weights — reported separately for
  // footprint accounting.
  size_t packed_panel_bytes = 0;

  static std::shared_ptr<const SharedInferWeights> Build(
      const DeepSTModel& model);
};

// Graph-free inference engine for one DeepSTModel. A session owns every
// scratch buffer the generation and scoring loops need (a nn::infer::Arena
// plus fixed-capacity hypothesis pools whose size depends on the beam width
// and max_route_steps, never on the network), so after warmup a call makes
// no heap allocation beyond the result it returns. Sessions are NOT
// thread-safe; DeepSTModel keeps a mutex-guarded pool of them and leases
// one per call, which is what makes the public model API safe under
// EvaluatePredictionParallel.
//
// One engine serves every call. Each call folds its contexts into rows of
// the per-query bias blocks (PrepareContexts) and steps a padded batch whose
// rows each read their own query's row (StepBatch's row_ctx, the kernels'
// bias_row). Single-query calls are batches over one context: PredictRoute's
// beam runs PredictRoutesBeamMulti on a one-item vector, ScoreRoutes runs
// ScoreRoutesMulti on one item. The kernels are row-local, so a query's
// result is bitwise the same whatever else shares its batch. Only
// PredictRoute keeps a step loop of its own, for greedy (beam_width 1) and
// sampled (!map_prediction) generation.
//
// Semantics mirror the model's *Reference methods exactly: the same valid-
// slot renormalization, visit guards, beam bookkeeping and ShouldStop rng
// call order. The visit guard scans the hypothesis' own route (which holds
// exactly the visited set) where the reference keeps a per-segment bitmap.
// Numerics differ from the reference only through the forward kernels'
// 8-lane accumulation (~1e-7 per logit, parity-tested at 1e-5); the fast
// path itself is bitwise identical for every thread count and batch
// composition.
//
// Per-query precomputation (PrepareContexts): the GRU input is
// [token_embedding, dest_repr, traffic_repr] where the context part is
// constant for a whole query, so its layer-0 input-to-hidden product
// (+ b_ih) is folded into a per-query bias and each step only multiplies
// the embedding columns. Likewise alpha's bias, dest_term and traffic_term
// collapse into one per-query logit bias row. The per-step GEMV weights are
// packed once per model (SharedInferWeights), and the generation paths sit
// behind the model's TransitionMemoCache, a (context, token-prefix) keyed
// cache of post-step logits + hidden state whose hits replay kernel outputs
// bitwise.
class InferenceSession {
 public:
  explicit InferenceSession(const DeepSTModel* model);

  // Counterparts of the DeepSTModel prediction API (same contracts).
  traj::Route PredictRoute(const PredictionContext& ctx,
                           roadnet::SegmentId origin, util::Rng* rng);
  double ScoreRoute(const PredictionContext& ctx, const traj::Route& route);

  // Batched scoring: all candidates advance through one padded
  // [batch, max_len] sequence of GRU steps. Results are bitwise identical
  // to scoring each route individually through this session.
  std::vector<double> ScoreRoutes(const PredictionContext& ctx,
                                  const std::vector<traj::Route>& routes);
  // Shared-prefix variant for recovery: warms the state over `prefix` once
  // (batch 1), broadcasts it, then scores all continuations as one batch.
  std::vector<double> ScoreContinuations(
      const PredictionContext& ctx, const traj::Route& prefix,
      const std::vector<traj::Route>& candidates);

  // -- Cross-query batching (the serve daemon's scheduler) --------------------
  // Work items are core::PredictItem / core::ScoreItem (deepst_model.h).
  // Each item carries its own context; the queries share every padded GRU
  // step.
  //
  // Lock-step beam search over several queries: every expansion step runs
  // one padded StepBatch across all live hypotheses of all queries. A query
  // whose deadline expires drops out of the batch with its best hypothesis
  // so far; the others keep stepping. The beam's only rng use is
  // ShouldStop, which draws only under sample_stop; such a call takes
  // exactly one item and a non-null rng (checked), so the stops are drawn
  // in the reference's beam order. Without sample_stop nothing is drawn and
  // batch composition cannot perturb any stream.
  void PredictRoutesBeamMulti(std::vector<PredictItem>* items,
                              util::Rng* rng = nullptr);
  // Batched scoring across queries: every candidate route of every item
  // advances through one padded [rows, max_len] step sequence. Bitwise
  // identical per item to ScoreRoutes(*item.ctx, *item.routes).
  void ScoreRoutesMulti(std::vector<ScoreItem>* items);

  // Number of scratch-storage growths so far; constant across calls once
  // the session is warm (the zero-allocation steady state).
  int64_t arena_grow_count() const { return arena_.grow_count(); }
  // Growths of the non-arena step scratch (gathered embeddings and the
  // per-layer double state mirrors). Reserved once per call at the max
  // batch (ResetState / beam setup), so like arena_grow_count this is
  // constant once the session is warm — StepBatch itself never resizes.
  int64_t scratch_grow_count() const { return scratch_grow_count_; }

 private:
  // Scratch arena slot map. Per-layer slots follow the fixed block.
  enum Slot {
    kCtxIh = 0,     // [Q, 3H] layer-0 context input product + b_ih
    kLogitBias,     // [Q, N_max] alpha bias + dest_term + traffic_term
    kGi,            // [B, 3H]
    kGh,            // [B, 3H]
    kLogits,        // [B, N_max]
    kHitLogits,     // [rows, N_max] memo-hit staging (beam paths)
    kPerLayer,      // first of 3 slots per GRU layer: state, gather, hit
  };
  int StateSlotIndex(int layer) const { return kPerLayer + 3 * layer; }
  int GatherSlotIndex(int layer) const { return kPerLayer + 3 * layer + 1; }
  int HitSlotIndex(int layer) const { return kPerLayer + 3 * layer + 2; }
  nn::Tensor* StateSlot(int layer) { return arena_.Get(StateSlotIndex(layer)); }
  nn::Tensor* GatherSlot(int layer) {
    return arena_.Get(GatherSlotIndex(layer));
  }
  // Memo-hit staging rows: a probe that hits writes the cached post-step
  // state here (row-indexed like GatherSlot), bypassing StepBatch entirely.
  nn::Tensor* HitSlot(int layer) { return arena_.Get(HitSlotIndex(layer)); }

  // Folds context q into row q of kCtxIh ([Q, 3H]) and kLogitBias
  // ([Q, N_max]) and pins the memo epoch. Each row comes from its own
  // context alone, so it is bitwise the same in every batch.
  void PrepareContexts(const std::vector<const PredictionContext*>& ctxs);
  // Re-shapes the per-layer state slots to [batch, H] and zero-fills them
  // (float slots and their double mirrors alike).
  void ResetState(int64_t batch);
  // Grow-only reservation of the step scratch (embd_ / dstate_) for up to
  // `batch` rows; called once per public call at the max batch so StepBatch
  // never reallocates.
  void EnsureStepScratch(int64_t batch);
  // Beam-path setup for `rows` = queries x width hypotheses: sizes every
  // per-step slot, the gather rows and their double mirrors, and the memo-
  // hit staging for all rows at once, and zeroes the gather rows the roots
  // start from. Beam steps batch a varying number of live hypotheses;
  // sizing for the most up front keeps the storage independent of the order
  // in which step sizes arrive, so no step grows anything.
  void ResetBeamScratch(int64_t rows);
  // Route storage reserved per hypothesis: origin + max_route_steps + 1.
  size_t RouteCapacity() const;
  // One batched GRU step: reads tokens, updates the state slots in place
  // and (when `want_logits`) fills kLogits with [batch, N_max] rows. Row b
  // reads the context biases of query row_ctx[b]; a null row_ctx reads
  // query 0 for every row.
  void StepBatch(const int* tokens, const int* row_ctx, int64_t batch,
                 bool want_logits);

  // One beam-search hypothesis; fixed-capacity, reused across calls. The
  // route doubles as the loop guard's visited set (see OnRoute).
  struct Hyp {
    traj::Route route;
    double log_prob = 0.0;
    bool done = false;
    int src_row = -1;  // row in the stepped batch this hyp's state lives in
    int hit_src = -1;  // memo-hit staging row when the step was cached
    // Memo key of this hypothesis: ctx signature mixed with every token fed
    // so far (i.e. the full route); identifies the post-step logits/state.
    nn::infer::MemoKey key;

    double Score() const;
  };
  void CopyHyp(const Hyp& src, Hyp* dst);
  // Scores one padded batch of routes, row b under row_ctx[b]'s context
  // (StepBatch's convention). Transitions before `first_scored` were already
  // stepped (ScoreContinuations' shared prefix) and are not scored. Every
  // row holds at least two segments: a finished row re-feeds its
  // second-to-last one.
  void ScorePaddedBatch(const std::vector<const traj::Route*>& rows,
                        const int* row_ctx, size_t first_scored,
                        std::vector<double>* out);

  // Per-query beam bookkeeping for PredictRoutesBeamMulti: fixed-capacity
  // pools (width beams, width * (width + 1) candidates), grown once to the
  // largest batch seen.
  struct QueryBeam {
    std::vector<Hyp> beams;
    std::vector<Hyp> pool;
    size_t pool_size = 0;
    std::vector<int> pool_order;
    std::vector<int> active_row;  // beam index -> batch row or -1
    std::vector<int> hit_row;     // beam index -> memo staging row or -1
    int num_beams = 0;
    bool finished = false;
    util::Stopwatch watch;  // per-item deadline budget
  };
  void EnsureQueryBeams(size_t count);
  // Copies the best hypothesis (preferring completed ones, like the
  // reference's epilogue) into the item's route.
  void FinalizeQuery(const QueryBeam& qb, PredictItem* item);

  // -- Memoization plumbing (memo_ == nullptr disables everything) -----------
  // Context signature: hash of the exact context tensor bytes (so a traffic
  // or destination change produces disjoint keys by construction).
  nn::infer::MemoKey ContextKey(const PredictionContext& ctx) const;
  // Layer-state pointer scratch for memo Lookup/Insert: points state_ptrs_
  // at row `row` of every layer's HitSlot / StateSlot.
  float* const* HitStatePtrs(int64_t row);
  float* const* BatchStatePtrs(int64_t row);

  const DeepSTModel* model_;
  const roadnet::RoadNetwork& net_;
  const DeepSTConfig& config_;
  // Packed weights shared across the model's session pool (see
  // SharedInferWeights); the references below alias *weights_.
  std::shared_ptr<const SharedInferWeights> weights_shared_;
  const nn::infer::GruStackView& gru_;
  const nn::Tensor* emb_table_;              // [V, emb_dim] float, in place
  const nn::infer::PackedMatrix& alpha_w_;   // [N_max, H]
  const nn::Tensor* alpha_b_;                // [N_max]
  int64_t emb_dim_;
  int64_t nmax_;
  // Shared transition memo cache (null = disabled). The epoch is pinned per
  // call in PrepareContexts, so a wholesale invalidation mid-query keeps
  // this query's view self-consistent and its insertions dead on arrival.
  nn::infer::TransitionMemoCache* memo_;
  uint64_t memo_epoch_ = 0;
  std::vector<nn::infer::MemoKey> ctx_keys_;  // per-query signatures
  std::vector<float*> state_ptrs_;            // [layers] pointer scratch

  nn::infer::Arena arena_;
  // Double-precision activation scratch fed to the GEMV kernels: gathered
  // token embeddings, the persistent per-layer double mirrors of the float
  // hidden states, and the per-query context vector. dstate_[l] always
  // equals ToDouble(StateSlot(l)) for the active rows — refreshed once per
  // layer per step (after GruGates), instead of converting every GEMV
  // operand — and dgather_[l] mirrors GatherSlot(l) the same way through
  // the beam keep phase (double->double row copies are exact, so the
  // mirrors carry the same values ToDouble would produce). Grow-only via
  // EnsureStepScratch / ResetBeamScratch.
  std::vector<double> embd_;                  // [B, emb_dim]
  std::vector<std::vector<double>> dstate_;   // per layer: [B, H]
  std::vector<std::vector<double>> dgather_;  // per layer: [rows, H]
  int64_t scratch_grow_count_ = 0;
  std::vector<double> ctxd_;  // [ctx_dim]
  std::vector<std::pair<double, int>> ranked_;  // slot ranking scratch
  std::vector<int> tokens_;
  std::vector<double> weights_;            // sampled-prediction scratch
  std::vector<const traj::Route*> rows_;   // batched-scoring row set
  std::vector<int> row_ctx_;               // batch row -> query index
  std::vector<int> row_index_;             // batch row -> index in its query
  std::vector<double> batch_out_;
  std::vector<const PredictionContext*> ctx_ptrs_;
  std::vector<QueryBeam> query_beams_;
  std::vector<traj::Route> fulls_;         // prefix + continuation scratch
  // The one-item batches PredictRoute's beam and ScoreRoutes run.
  std::vector<PredictItem> one_predict_;
  std::vector<ScoreItem> one_score_;
};

}  // namespace infer
}  // namespace core
}  // namespace deepst

#endif  // DEEPST_CORE_INFER_SESSION_H_
