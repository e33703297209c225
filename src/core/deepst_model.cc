#include "core/deepst_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "core/infer/session.h"
#include "nn/backend.h"
#include "nn/ops.h"
#include "util/fault_injector.h"
#include "util/stopwatch.h"

namespace deepst {
namespace core {

namespace o = nn::ops;
using roadnet::SegmentId;

namespace {
// Entries of the traffic posterior memo. One entry per distinct traffic
// tensor in use: a slot's tensor, its what-if variants and, across swaps,
// the generations still pinned. 1024 keeps 2-way set conflicts rare for the
// ~100 slots a day of queries spans, at 2 x traffic_dim floats per entry.
constexpr int64_t kPosteriorMemoEntries = 1024;
}  // namespace

DeepSTModel::DeepSTModel(const roadnet::RoadNetwork& net,
                         const DeepSTConfig& config,
                         traffic::TrafficTensorCache* traffic_cache)
    : net_(net),
      config_(config),
      traffic_cache_(traffic_cache),
      init_rng_(config.seed) {
  DEEPST_CHECK(net.finalized());
  if (config.num_threads > 0) nn::SetBackendThreads(config.num_threads);
  util::Rng* rng = &init_rng_;
  const int nmax = net.MaxOutDegree();
  DEEPST_CHECK_GE(nmax, 2);

  segment_emb_ = std::make_unique<nn::EmbeddingLayer>(
      net.num_segments(), config.segment_embedding_dim, rng);
  int gru_input_dim = config.segment_embedding_dim;
  if (config.destination_mode != DestinationMode::kNone) {
    gru_input_dim += config.dest_dim;
  }
  if (config.use_traffic) gru_input_dim += config.traffic_dim;
  gru_ = std::make_unique<nn::StackedGru>(gru_input_dim, config.gru_hidden,
                                          config.gru_layers, rng);
  alpha_ = std::make_unique<nn::LinearLayer>(config.gru_hidden, nmax, rng);
  AddSubmodule("segment_emb", segment_emb_.get());
  AddSubmodule("gru", gru_.get());
  AddSubmodule("alpha", alpha_.get());

  switch (config.destination_mode) {
    case DestinationMode::kProxies:
      proxy_ = std::make_unique<DestinationProxyModel>(
          config.num_proxies, config.dest_dim, net.bounds(),
          config.mlp_hidden, rng);
      beta_ = std::make_unique<nn::LinearLayer>(config.dest_dim, nmax, rng,
                                                /*bias=*/false);
      AddSubmodule("proxy", proxy_.get());
      AddSubmodule("beta", beta_.get());
      break;
    case DestinationMode::kFinalSegment:
      final_segment_emb_ = std::make_unique<nn::EmbeddingLayer>(
          net.num_segments(), config.dest_dim, rng);
      beta_ = std::make_unique<nn::LinearLayer>(config.dest_dim, nmax, rng,
                                                /*bias=*/false);
      AddSubmodule("final_segment_emb", final_segment_emb_.get());
      AddSubmodule("beta", beta_.get());
      break;
    case DestinationMode::kNone:
      break;
  }

  if (config.use_traffic) {
    DEEPST_CHECK_MSG(traffic_cache != nullptr,
                     "use_traffic requires a traffic cache");
    traffic_encoder_ = std::make_unique<TrafficEncoder>(
        traffic_cache->rows(), traffic_cache->cols(), config.cnn_channels,
        config.traffic_dim, config.mlp_hidden, rng);
    gamma_ = std::make_unique<nn::LinearLayer>(config.traffic_dim, nmax, rng,
                                               /*bias=*/false);
    AddSubmodule("traffic_encoder", traffic_encoder_.get());
    AddSubmodule("gamma", gamma_.get());
  }

  if (config.memo_cache_capacity > 0) {
    memo_ = std::make_unique<nn::infer::TransitionMemoCache>(
        nmax, config.gru_layers, config.gru_hidden,
        config.memo_cache_capacity);
    if (config.use_traffic) {
      // An entry is (mu, logvar): mu in the "logits" row, logvar as the
      // single "layer" of state.
      posterior_memo_ = std::make_unique<nn::infer::TransitionMemoCache>(
          config.traffic_dim, 1, config.traffic_dim, kPosteriorMemoEntries);
    }
  }
}

DeepSTModel::~DeepSTModel() = default;

util::StatusOr<std::unique_ptr<DeepSTModel>> DeepSTModel::LoadFromParams(
    const roadnet::RoadNetwork& net, const DeepSTConfig& config,
    traffic::TrafficTensorCache* traffic_cache,
    const std::vector<nn::NamedTensor>& params) {
  std::unique_ptr<DeepSTModel> model;
  {
    nn::ScopedDeferInit defer_init;
    model = std::make_unique<DeepSTModel>(net, config, traffic_cache);
  }
  DEEPST_RETURN_IF_ERROR(nn::ApplyNamedTensors(model.get(), params));
  return model;
}

util::StatusOr<std::unique_ptr<DeepSTModel>> DeepSTModel::LoadFromFile(
    const roadnet::RoadNetwork& net, const DeepSTConfig& config,
    traffic::TrafficTensorCache* traffic_cache, const std::string& path) {
  std::unique_ptr<DeepSTModel> model;
  {
    nn::ScopedDeferInit defer_init;
    model = std::make_unique<DeepSTModel>(net, config, traffic_cache);
  }
  DEEPST_RETURN_IF_ERROR(nn::LoadParameters(model.get(), path));
  return model;
}

std::unique_ptr<infer::InferenceSession> DeepSTModel::AcquireSession() {
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    if (!session_pool_.empty()) {
      std::unique_ptr<infer::InferenceSession> session =
          std::move(session_pool_.back());
      session_pool_.pop_back();
      return session;
    }
  }
  return std::make_unique<infer::InferenceSession>(this);
}

void DeepSTModel::ReleaseSession(
    std::unique_ptr<infer::InferenceSession> session, uint64_t generation) {
  // A retire that ran while this session was leased makes it stale: its
  // scratch state may reflect whatever the (possibly hung) query left
  // behind, so destroy it here instead of re-pooling.
  if (generation != session_generation_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(session_mu_);
  session_pool_.push_back(std::move(session));
}

size_t DeepSTModel::num_pooled_sessions() {
  std::lock_guard<std::mutex> lock(session_mu_);
  return session_pool_.size();
}

void DeepSTModel::RetirePooledSessions() {
  std::vector<std::unique_ptr<infer::InferenceSession>> doomed;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    session_generation_.fetch_add(1, std::memory_order_acq_rel);
    doomed.swap(session_pool_);
  }
  // Retirement's contract is "derived inference state may be stale": drop
  // the packed weights so replacement sessions repack from the current
  // float parameters, and invalidate the memo caches for the same reason.
  // Sessions already leased out keep their (possibly stale) shared_ptr and
  // pinned epoch, finish self-consistently, and are dropped on release.
  {
    std::lock_guard<std::mutex> lock(weights_mu_);
    shared_weights_.reset();
  }
  InvalidateTransitionCache();
  if (posterior_memo_ != nullptr) posterior_memo_->Invalidate();
  // Session destructors run outside the lock.
}

std::shared_ptr<const infer::SharedInferWeights>
DeepSTModel::shared_infer_weights() const {
  std::lock_guard<std::mutex> lock(weights_mu_);
  if (shared_weights_ == nullptr) {
    shared_weights_ = infer::SharedInferWeights::Build(*this);
  }
  return shared_weights_;
}

nn::infer::MemoStats DeepSTModel::transition_memo_stats() const {
  if (memo_ == nullptr) return nn::infer::MemoStats();
  return memo_->stats();
}

void DeepSTModel::InvalidateTransitionCache() {
  if (memo_ != nullptr) memo_->Invalidate();
}

nn::infer::MemoStats DeepSTModel::traffic_posterior_memo_stats() const {
  if (posterior_memo_ == nullptr) return nn::infer::MemoStats();
  return posterior_memo_->stats();
}

int64_t DeepSTModel::outstanding_session_leases() const {
  return outstanding_leases_.load(std::memory_order_relaxed);
}

// RAII lease: returns the session to the pool at scope exit so its warm
// scratch buffers are reused by the next call.
class DeepSTModel::SessionLease {
 public:
  explicit SessionLease(DeepSTModel* model)
      : model_(model),
        generation_(
            model->session_generation_.load(std::memory_order_acquire)),
        session_(model->AcquireSession()) {
    model_->outstanding_leases_.fetch_add(1, std::memory_order_relaxed);
  }
  ~SessionLease() {
    // Leases unwind through query failures (the serving layer converts the
    // exception to a Status), so the destructor must neither leak the slot
    // nor throw during unwind. If returning the session fails (pool
    // push_back allocation), drop it: a fresh one is created on demand.
    try {
      model_->ReleaseSession(std::move(session_), generation_);
    } catch (...) {
    }
    model_->outstanding_leases_.fetch_sub(1, std::memory_order_relaxed);
  }
  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;
  infer::InferenceSession* operator->() { return session_.get(); }

 private:
  DeepSTModel* model_;
  uint64_t generation_;
  std::unique_ptr<infer::InferenceSession> session_;
};

nn::VarPtr DeepSTModel::StepLogits(const nn::VarPtr& h,
                                   const nn::VarPtr& dest_term,
                                   const nn::VarPtr& traffic_term) const {
  nn::VarPtr logits = alpha_->Forward(h);
  if (dest_term != nullptr) logits = o::Add(logits, dest_term);
  if (traffic_term != nullptr) logits = o::Add(logits, traffic_term);
  return logits;
}

namespace {

// Concatenates the token embedding with per-trip context representations to
// form the GRU step input (see the BatchContext implementation note).
nn::VarPtr GruInput(const nn::VarPtr& emb, const nn::VarPtr& dest_repr,
                    const nn::VarPtr& traffic_repr) {
  std::vector<nn::VarPtr> parts = {emb};
  if (dest_repr != nullptr) parts.push_back(dest_repr);
  if (traffic_repr != nullptr) parts.push_back(traffic_repr);
  if (parts.size() == 1) return emb;
  return o::ConcatCols(parts);
}

}  // namespace

DeepSTModel::BatchContext DeepSTModel::MakeBatchContext(
    const std::vector<const traj::Trip*>& batch, util::Rng* rng,
    bool training, std::vector<nn::VarPtr>* extra_loss_terms,
    LossStats* stats, traffic::TrafficTensorCache* traffic_cache,
    const traffic::TrafficOverlay* overlay, bool inference) {
  const int64_t bsz = static_cast<int64_t>(batch.size());
  BatchContext ctx;

  // -- Destination term --------------------------------------------------------
  if (config_.destination_mode == DestinationMode::kProxies) {
    std::vector<geo::Point> dests;
    nn::Tensor row_weights({bsz});
    dests.reserve(batch.size());
    for (int64_t b = 0; b < bsz; ++b) {
      const traj::Trip* trip = batch[static_cast<size_t>(b)];
      dests.push_back(trip->destination);
      const double w = config_.dest_loss_length_scaled
                           ? static_cast<double>(trip->route.size()) - 1.0
                           : 1.0;
      row_weights[b] = static_cast<float>(std::max(w, 1.0));
    }
    nn::Tensor x_norm = proxy_->NormalizeDestinations(dests);
    nn::VarPtr logits_pi;
    nn::VarPtr pi;
    if (inference) {
      ctx.dest_repr = InferDestRepr(x_norm, rng);
    } else {
      logits_pi = proxy_->EncodeLogits(x_norm);
      pi = training ? proxy_->SamplePi(logits_pi, config_.gumbel_tau, rng)
                    : (config_.map_prediction
                           ? proxy_->ModePi(logits_pi)
                           : proxy_->SamplePi(logits_pi, config_.gumbel_tau,
                                              rng));
      ctx.dest_repr = proxy_->Embed(pi);
    }
    ctx.dest_term = beta_->Forward(ctx.dest_repr);
    if (extra_loss_terms != nullptr) {
      // Eq. 7: + log P(x | pi, M, S) (weighted), - 2 KL(q(pi|x) || P(pi)).
      nn::VarPtr dest_lp =
          proxy_->DestinationLogProb(x_norm, pi, row_weights);
      nn::VarPtr kl_pi = proxy_->Kl(logits_pi);
      extra_loss_terms->push_back(
          o::ScalarMul(dest_lp, -config_.dest_loss_weight));
      extra_loss_terms->push_back(
          o::ScalarMul(kl_pi, 2.0f * config_.kl_weight));
      if (stats != nullptr) {
        stats->dest_nll = -dest_lp->value()[0] / static_cast<double>(bsz);
        stats->kl_proxy = kl_pi->value()[0] / static_cast<double>(bsz);
      }
    }
  } else if (config_.destination_mode == DestinationMode::kFinalSegment) {
    std::vector<int> finals;
    finals.reserve(batch.size());
    for (const traj::Trip* trip : batch) {
      finals.push_back(static_cast<int>(trip->route.back()));
    }
    ctx.dest_repr = final_segment_emb_->Forward(finals);
    ctx.dest_term = beta_->Forward(ctx.dest_repr);
  }

  // -- Traffic term -------------------------------------------------------------
  if (config_.use_traffic) {
    // Unique traffic slots in the batch share one encoded tensor (paper
    // Section IV-D). The cache is the pinned snapshot when the serving
    // layer passed one, the construction-time default otherwise.
    traffic::TrafficTensorCache* cache =
        traffic_cache != nullptr ? traffic_cache : traffic_cache_;
    std::map<int, int> slot_to_index;
    std::vector<const nn::Tensor*> unique_tensors;
    std::vector<nn::Tensor> overlaid;  // what-if copies (never the base)
    std::vector<int> trip_slot_index(batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
      const int slot = cache->SlotOf(batch[b]->start_time_s);
      auto [it, inserted] =
          slot_to_index.emplace(slot, static_cast<int>(unique_tensors.size()));
      if (inserted) {
        unique_tensors.push_back(
            &cache->TensorForTime(batch[b]->start_time_s));
      }
      trip_slot_index[b] = it->second;
    }
    if (overlay != nullptr && !overlay->empty()) {
      overlaid.reserve(unique_tensors.size());
      for (const nn::Tensor* base : unique_tensors) {
        overlaid.push_back(
            traffic::ApplyOverlay(*base, cache->grid(), *overlay));
      }
      for (size_t i = 0; i < overlaid.size(); ++i) {
        unique_tensors[i] = &overlaid[i];
      }
    }
    TrafficPosterior post =
        inference && posterior_memo_ != nullptr
            ? MemoizedPosterior(unique_tensors)
            : traffic_encoder_->Encode(unique_tensors, training);
    // Gather per-trip posterior params, then reparameterize per trip.
    nn::VarPtr mu_b = o::EmbeddingLookup(post.mu, trip_slot_index);
    nn::VarPtr logvar_b = o::EmbeddingLookup(post.logvar, trip_slot_index);
    nn::VarPtr c;
    const bool sample =
        training ? !config_.deterministic_traffic_latent
                 : !config_.map_prediction;
    if (sample) {
      c = o::GaussianReparameterize(mu_b, logvar_b, rng);
    } else {
      c = mu_b;
    }
    ctx.traffic_repr = c;
    ctx.traffic_term = gamma_->Forward(c);
    if (extra_loss_terms != nullptr) {
      nn::VarPtr kl_c = o::KlStandardNormal(mu_b, logvar_b);
      extra_loss_terms->push_back(o::ScalarMul(kl_c, config_.kl_weight));
      if (stats != nullptr) {
        stats->kl_traffic = kl_c->value()[0] / static_cast<double>(bsz);
      }
    }
  }
  return ctx;
}

nn::VarPtr DeepSTModel::InferDestRepr(const nn::Tensor& x_norm,
                                      util::Rng* rng) {
  DEEPST_CHECK_EQ(x_norm.dim(0), 1);
  const std::shared_ptr<const infer::SharedInferWeights> weights =
      shared_infer_weights();
  const nn::infer::MlpView& encoder = weights->proxy_encoder;
  const int64_t k = encoder.out_dim();
  nn::Tensor logits({1, k});
  encoder.Forward(x_norm.data(), logits.data());
  if (!config_.map_prediction) {
    // Same logits, same SamplePi: the rng draws are the graph path's.
    return proxy_->Embed(proxy_->SamplePi(nn::Constant(std::move(logits)),
                                          config_.gumbel_tau, rng));
  }
  // ModePi's first-max argmax. Embed of that one-hot row is GemmAcc over a
  // zeroed [1, dest_dim] row that skips the zero entries of pi, i.e.
  // 0.0f + 1.0f * W[best][j] per element: a row gather, no [1, K] one-hot
  // and no matmul.
  const float* lv = logits.data();
  int64_t best = 0;
  for (int64_t c = 1; c < k; ++c) {
    if (lv[c] > lv[best]) best = c;
  }
  const nn::Tensor& table = proxy_->embeddings();
  const int64_t dim = table.dim(1);
  const float* row = table.data() + best * dim;
  nn::Tensor repr({1, dim});
  for (int64_t j = 0; j < dim; ++j) repr[j] = 0.0f + 1.0f * row[j];
  return nn::Constant(std::move(repr));
}

TrafficPosterior DeepSTModel::MemoizedPosterior(
    const std::vector<const nn::Tensor*>& tensors) {
  // MakeContextImpl's batch is one trip, so there is one tensor to encode;
  // a miss encodes it alone exactly as the unmemoized path does.
  DEEPST_CHECK_EQ(tensors.size(), 1u);
  const nn::Tensor& traffic = *tensors[0];
  const nn::infer::MemoKey key = nn::infer::HashBytesKey(
      traffic.data(), static_cast<size_t>(traffic.numel()) * sizeof(float),
      nn::infer::MemoKey());
  // The epoch is pinned before encoding, so a posterior computed from
  // weights that a concurrent retirement replaced is never served.
  const uint64_t epoch = posterior_memo_->current_epoch();
  nn::Tensor mu({1, config_.traffic_dim});
  nn::Tensor logvar({1, config_.traffic_dim});
  float* const logvar_out[] = {logvar.data()};
  if (posterior_memo_->Lookup(key, epoch, mu.data(), logvar_out)) {
    return {nn::Constant(std::move(mu)), nn::Constant(std::move(logvar))};
  }
  TrafficPosterior post =
      traffic_encoder_->Encode(tensors, /*training=*/false);
  const float* const logvar_in[] = {post.logvar->value().data()};
  posterior_memo_->Insert(key, epoch, post.mu->value().data(), logvar_in);
  return post;
}

nn::VarPtr DeepSTModel::Loss(const std::vector<const traj::Trip*>& batch,
                             util::Rng* rng, LossStats* stats,
                             bool training) {
  DEEPST_CHECK(!batch.empty());
  const int64_t bsz = static_cast<int64_t>(batch.size());
  const int nmax = net_.MaxOutDegree();

  std::vector<nn::VarPtr> extra_terms;
  BatchContext ctx =
      MakeBatchContext(batch, rng, training, &extra_terms, stats);

  // Sequence tensors: step t consumes token r_t and predicts the slot of
  // r_{t+1}.
  int64_t max_steps = 0;
  for (const traj::Trip* trip : batch) {
    DEEPST_CHECK_GE(trip->route.size(), 2u);
    max_steps = std::max(max_steps,
                         static_cast<int64_t>(trip->route.size()) - 1);
  }
  int total_transitions = 0;

  auto state = gru_->InitialState(bsz);
  std::vector<nn::VarPtr> step_losses;
  // Scheduled sampling state: the model's previous-step argmax prediction
  // per trip (kInvalidSegment when unavailable).
  std::vector<SegmentId> prev_prediction(batch.size(),
                                         roadnet::kInvalidSegment);
  const bool scheduled =
      training && config_.scheduled_sampling_prob > 0.0f;
  for (int64_t t = 0; t < max_steps; ++t) {
    std::vector<int> tokens(batch.size(), 0);
    std::vector<int> targets(batch.size(), 0);
    std::vector<float> weights(batch.size(), 0.0f);
    nn::Tensor mask;
    if (config_.mask_invalid_slots) mask = nn::Tensor::Zeros({bsz, nmax});
    for (size_t b = 0; b < batch.size(); ++b) {
      const traj::Route& route = batch[b]->route;
      if (t + 1 >= static_cast<int64_t>(route.size())) continue;
      SegmentId cur = route[static_cast<size_t>(t)];
      const SegmentId nxt = route[static_cast<size_t>(t) + 1];
      // Scheduled sampling: substitute the model's own last prediction when
      // it still admits the true next segment (same end vertex), exposing
      // the recurrent state to its own mistakes.
      if (scheduled && prev_prediction[b] != roadnet::kInvalidSegment &&
          prev_prediction[b] != cur &&
          net_.NeighborSlot(prev_prediction[b], nxt) >= 0 &&
          rng->Bernoulli(config_.scheduled_sampling_prob)) {
        cur = prev_prediction[b];
      }
      const int slot = net_.NeighborSlot(cur, nxt);
      DEEPST_CHECK_GE(slot, 0);
      tokens[b] = static_cast<int>(cur);
      targets[b] = slot;
      weights[b] = 1.0f;
      ++total_transitions;
      if (config_.mask_invalid_slots) {
        const int deg = net_.OutDegree(cur);
        for (int s = deg; s < nmax; ++s) {
          mask.at(static_cast<int64_t>(b), s) = -1e9f;
        }
      }
    }
    nn::VarPtr x = GruInput(segment_emb_->Forward(tokens), ctx.dest_repr,
                            ctx.traffic_repr);
    nn::VarPtr h = gru_->Step(x, &state);
    nn::VarPtr logits = StepLogits(h, ctx.dest_term, ctx.traffic_term);
    if (config_.mask_invalid_slots) {
      logits = o::Add(logits, nn::Constant(mask));
    }
    if (scheduled) {
      // Record per-trip argmax predictions for the next step's substitution.
      const nn::Tensor& lv = logits->value();
      for (size_t b = 0; b < batch.size(); ++b) {
        if (weights[b] == 0.0f) {
          prev_prediction[b] = roadnet::kInvalidSegment;
          continue;
        }
        const SegmentId cur = static_cast<SegmentId>(tokens[b]);
        const auto& outs = net_.OutSegments(cur);
        int best = 0;
        for (int s = 1; s < static_cast<int>(outs.size()); ++s) {
          if (lv.at(static_cast<int64_t>(b), s) >
              lv.at(static_cast<int64_t>(b), best)) {
            best = s;
          }
        }
        prev_prediction[b] = outs[static_cast<size_t>(best)];
      }
    }
    step_losses.push_back(o::CrossEntropyLoss(logits, targets, weights));
  }

  nn::VarPtr route_ce = step_losses[0];
  for (size_t i = 1; i < step_losses.size(); ++i) {
    route_ce = o::Add(route_ce, step_losses[i]);
  }
  nn::VarPtr total = route_ce;
  for (const auto& term : extra_terms) total = o::Add(total, term);
  total = o::ScalarMul(total, 1.0f / static_cast<float>(bsz));

  if (stats != nullptr) {
    stats->total = total->value()[0];
    stats->route_ce = route_ce->value()[0] / static_cast<double>(bsz);
    stats->num_transitions = total_transitions;
  }
  return total;
}

PredictionContext DeepSTModel::MakeContext(const RouteQuery& query,
                                           util::Rng* rng) {
  return MakeContextImpl(query, rng, nullptr, nullptr);
}

PredictionContext DeepSTModel::MakeContextImpl(
    const RouteQuery& query, util::Rng* rng,
    traffic::TrafficTensorCache* traffic_cache,
    const traffic::TrafficOverlay* overlay) {
  // Inference-only forward: no tape nodes, so the extracted context tensors
  // never anchor parameter subgraphs.
  nn::NoGradGuard no_grad;
  // Reuse the batch-context machinery with a synthetic single-trip batch.
  traj::Trip probe;
  probe.destination = query.destination;
  probe.start_time_s = query.start_time_s;
  // Route only consulted for its final segment (CSSRNN mode) and length
  // scaling (not used at prediction).
  const SegmentId final_seg =
      query.final_segment != roadnet::kInvalidSegment ? query.final_segment
                                                      : query.origin;
  probe.route = {query.origin, final_seg};
  if (config_.destination_mode == DestinationMode::kFinalSegment) {
    DEEPST_CHECK_MSG(query.final_segment != roadnet::kInvalidSegment,
                     "kFinalSegment mode requires query.final_segment");
  }
  std::vector<const traj::Trip*> batch = {&probe};
  BatchContext ctx =
      MakeBatchContext(batch, rng, /*training=*/false, nullptr, nullptr,
                       traffic_cache, overlay, /*inference=*/true);

  PredictionContext out;
  out.destination = query.destination;
  if (ctx.dest_term != nullptr) {
    out.has_dest = true;
    out.dest_term = ctx.dest_term->value();
    out.dest_repr = ctx.dest_repr->value();
  }
  if (ctx.traffic_term != nullptr) {
    out.has_traffic = true;
    out.traffic_term = ctx.traffic_term->value();
    out.traffic_repr = ctx.traffic_repr->value();
  }
  return out;
}

PredictionContext DeepSTModel::MakeContext(const RouteQuery& query,
                                           util::Rng* rng,
                                           const ContextOptions& options) {
  const bool drop_traffic = options.traffic_prior_mean && config_.use_traffic;
  const bool uniform =
      options.uniform_proxy &&
      config_.destination_mode == DestinationMode::kProxies;
  // Prior-mean substitution never reads a tensor, so the overlay has
  // nothing to edit and is dropped (the serving layer accounts for this).
  const traffic::TrafficOverlay* overlay =
      drop_traffic ? nullptr : options.overlay;
  if (!drop_traffic && !uniform) {
    return MakeContextImpl(query, rng, options.traffic_cache, overlay);
  }

  nn::NoGradGuard no_grad;
  // The destination and traffic parts of the context are independent (the
  // proxy term depends only on the destination, the traffic term only on
  // the start time), so the regular path computes whatever is not being
  // overridden. When the destination is the unusable input, it must never
  // reach the proxy encoder -- run the regular path on a safe placeholder
  // and overwrite its destination outputs below.
  RouteQuery safe = query;
  if (uniform) {
    const geo::BoundingBox& box = net_.bounds();
    safe.destination = geo::Point{(box.min.x + box.max.x) * 0.5,
                                  (box.min.y + box.max.y) * 0.5};
  }
  PredictionContext out =
      MakeContextImpl(safe, rng, options.traffic_cache, overlay);
  out.destination = query.destination;

  if (drop_traffic) {
    // Prior-mean substitution: c is a standard-normal latent, so its prior
    // mean is the zero vector; gamma has no bias, so gamma(0) == 0 exactly
    // and the logit term vanishes -- bitwise DeepST-C behavior. The tensors
    // keep their shapes (the GRU input width includes traffic_dim).
    out.has_traffic = true;
    out.traffic_repr = nn::Tensor::Zeros({1, config_.traffic_dim});
    out.traffic_term = nn::Tensor::Zeros({1, net_.MaxOutDegree()});
  }
  if (uniform) {
    // Uniform proxy mixture: pi = 1/K over all proxies, embedded through the
    // learned W so the representation stays on the trained manifold.
    const int k = proxy_->num_proxies();
    nn::Tensor pi({1, k});
    const float w = 1.0f / static_cast<float>(k);
    for (int i = 0; i < k; ++i) pi[i] = w;
    nn::VarPtr repr = proxy_->Embed(nn::Constant(pi));
    out.has_dest = true;
    out.dest_repr = repr->value();
    out.dest_term = beta_->Forward(repr)->value();
  }
  return out;
}

ValidSlotNormalizer::ValidSlotNormalizer(const float* logits_row,
                                         int num_valid)
    : mx(logits_row[0]) {
  for (int s = 1; s < num_valid; ++s) {
    mx = std::max(mx, static_cast<double>(logits_row[s]));
  }
  double denom = 0.0;
  for (int s = 0; s < num_valid; ++s) {
    denom += std::exp(logits_row[s] - mx);
  }
  log_denom = std::log(denom);
}

double ValidSlotLogProb(const float* logits_row, int num_valid, int slot) {
  DEEPST_CHECK(slot >= 0 && slot < num_valid);
  return ValidSlotNormalizer(logits_row, num_valid).LogProb(logits_row, slot);
}

namespace {

// One hypothesis of the beam search.
struct Beam {
  traj::Route route;
  std::vector<nn::VarPtr> state;
  std::vector<bool> visited;  // loop guard, indexed by SegmentId
  double log_prob = 0.0;
  bool done = false;

  // Mildly length-normalized score: sqrt normalization trades off the
  // short-route bias of raw sums against the long-route bias of means.
  double Score() const {
    const size_t n = route.size() > 1 ? route.size() - 1 : 1;
    return log_prob / std::sqrt(static_cast<double>(n));
  }
};

}  // namespace

traj::Route DeepSTModel::PredictRouteBeamReference(const PredictionContext& ctx,
                                                   SegmentId origin,
                                                   util::Rng* rng,
                                                   double deadline_ms,
                                                   bool* budget_hit) {
  nn::NoGradGuard no_grad;
  if (budget_hit != nullptr) *budget_hit = false;
  util::Stopwatch deadline_sw;
  const int width = config_.beam_width;
  nn::VarPtr dest_term =
      ctx.has_dest ? nn::Constant(ctx.dest_term) : nullptr;
  nn::VarPtr dest_repr =
      ctx.has_dest ? nn::Constant(ctx.dest_repr) : nullptr;
  nn::VarPtr traffic_term =
      ctx.has_traffic ? nn::Constant(ctx.traffic_term) : nullptr;
  nn::VarPtr traffic_repr =
      ctx.has_traffic ? nn::Constant(ctx.traffic_repr) : nullptr;

  std::vector<Beam> beams(1);
  beams[0].route = {origin};
  beams[0].state = gru_->InitialState(1);
  beams[0].visited.assign(static_cast<size_t>(net_.num_segments()), false);
  beams[0].visited[static_cast<size_t>(origin)] = true;

  for (int step = 0; step < config_.max_route_steps; ++step) {
    std::vector<Beam> pool;
    bool any_active = false;
    for (Beam& beam : beams) {
      if (beam.done) {
        pool.push_back(std::move(beam));
        continue;
      }
      const SegmentId cur = beam.route.back();
      const auto& outs = net_.OutSegments(cur);
      if (outs.empty()) {
        beam.done = true;
        pool.push_back(std::move(beam));
        continue;
      }
      any_active = true;
      auto state = beam.state;
      nn::VarPtr x = GruInput(segment_emb_->Forward({static_cast<int>(cur)}),
                              dest_repr, traffic_repr);
      nn::VarPtr h = gru_->Step(x, &state);
      nn::VarPtr logits = StepLogits(h, dest_term, traffic_term);
      // Expand the top-`width` valid slots, skipping already-visited
      // segments (generated routes, like real trips, are loopless). Log
      // probabilities are normalized over the valid slots so beams remain
      // comparable across segments of different out-degree.
      const int deg = static_cast<int>(outs.size());
      std::vector<std::pair<double, int>> ranked;
      for (int s = 0; s < deg; ++s) {
        if (beam.visited[static_cast<size_t>(outs[static_cast<size_t>(s)])]) {
          continue;
        }
        ranked.emplace_back(ValidSlotLogProb(logits->value().data(), deg, s),
                            s);
      }
      if (ranked.empty()) {  // boxed in: terminate this hypothesis
        beam.done = true;
        pool.push_back(std::move(beam));
        continue;
      }
      std::sort(ranked.rbegin(), ranked.rend());
      const int expand = std::min<int>(width, static_cast<int>(ranked.size()));
      for (int e = 0; e < expand; ++e) {
        Beam next = beam;
        next.state = state;
        next.log_prob += ranked[static_cast<size_t>(e)].first;
        const SegmentId seg =
            outs[static_cast<size_t>(ranked[static_cast<size_t>(e)].second)];
        next.route.push_back(seg);
        next.visited[static_cast<size_t>(seg)] = true;
        next.done = ShouldStop(net_, ctx.destination, seg, config_, rng);
        pool.push_back(std::move(next));
      }
    }
    // Keep the best `width` hypotheses by normalized score.
    std::sort(pool.begin(), pool.end(), [](const Beam& a, const Beam& b) {
      return a.Score() > b.Score();
    });
    if (static_cast<int>(pool.size()) > width) {
      pool.resize(static_cast<size_t>(width));
    }
    beams = std::move(pool);
    if (!any_active) break;
    const bool all_done = std::all_of(beams.begin(), beams.end(),
                                      [](const Beam& b) { return b.done; });
    if (all_done) break;
    // Deadline budget: checked only between completed expansion steps, so
    // at least one step always runs and the returned route is always a
    // valid (possibly short) hypothesis.
    if (deadline_ms > 0.0 && deadline_sw.ElapsedMillis() >= deadline_ms) {
      if (budget_hit != nullptr) *budget_hit = true;
      break;
    }
  }
  // Prefer completed hypotheses.
  const Beam* best = nullptr;
  for (const Beam& b : beams) {
    if (!b.done) continue;
    if (best == nullptr || b.Score() > best->Score()) best = &b;
  }
  if (best == nullptr) {
    for (const Beam& b : beams) {
      if (best == nullptr || b.Score() > best->Score()) best = &b;
    }
  }
  DEEPST_CHECK(best != nullptr);
  return best->route;
}

traj::Route DeepSTModel::PredictRouteReference(const PredictionContext& ctx,
                                               SegmentId origin,
                                               util::Rng* rng) {
  nn::NoGradGuard no_grad;
  DEEPST_CHECK(origin >= 0 && origin < net_.num_segments());
  if (config_.map_prediction && config_.beam_width > 1) {
    return PredictRouteBeamReference(ctx, origin, rng);
  }
  traj::Route route = {origin};
  auto state = gru_->InitialState(1);
  nn::VarPtr dest_term =
      ctx.has_dest ? nn::Constant(ctx.dest_term) : nullptr;
  nn::VarPtr dest_repr =
      ctx.has_dest ? nn::Constant(ctx.dest_repr) : nullptr;
  nn::VarPtr traffic_term =
      ctx.has_traffic ? nn::Constant(ctx.traffic_term) : nullptr;
  nn::VarPtr traffic_repr =
      ctx.has_traffic ? nn::Constant(ctx.traffic_repr) : nullptr;

  std::vector<bool> visited(static_cast<size_t>(net_.num_segments()), false);
  visited[static_cast<size_t>(origin)] = true;
  SegmentId cur = origin;
  for (int step = 0; step < config_.max_route_steps; ++step) {
    const auto& outs = net_.OutSegments(cur);
    if (outs.empty()) break;
    nn::VarPtr x = GruInput(segment_emb_->Forward({static_cast<int>(cur)}),
                            dest_repr, traffic_repr);
    nn::VarPtr h = gru_->Step(x, &state);
    nn::VarPtr logits = StepLogits(h, dest_term, traffic_term);
    const nn::Tensor& lv = logits->value();
    // Restrict the choice to the true neighbors of `cur` (Algorithm 2 draws
    // from the adjacent road segments) that have not been visited yet
    // (loop guard).
    int best = -1;
    if (config_.map_prediction) {
      for (int s = 0; s < static_cast<int>(outs.size()); ++s) {
        if (visited[static_cast<size_t>(outs[static_cast<size_t>(s)])]) {
          continue;
        }
        if (best < 0 || lv[s] > lv[best]) best = s;
      }
    } else {
      std::vector<double> w(outs.size(), 0.0);
      double mx = -1e30;
      bool any = false;
      for (size_t s = 0; s < outs.size(); ++s) {
        if (visited[static_cast<size_t>(outs[s])]) continue;
        mx = std::max(mx, static_cast<double>(lv[static_cast<int64_t>(s)]));
        any = true;
      }
      if (any) {
        for (size_t s = 0; s < outs.size(); ++s) {
          if (visited[static_cast<size_t>(outs[s])]) continue;
          w[s] = std::exp(lv[static_cast<int64_t>(s)] - mx);
        }
        best = rng->Categorical(w);
      }
    }
    if (best < 0) break;  // boxed in by visited segments
    const SegmentId next = outs[static_cast<size_t>(best)];
    route.push_back(next);
    visited[static_cast<size_t>(next)] = true;
    if (ShouldStop(net_, ctx.destination, next, config_, rng)) break;
    cur = next;
  }
  return route;
}

traj::Route DeepSTModel::PredictRoute(const RouteQuery& query,
                                      util::Rng* rng) {
  PredictionContext ctx = MakeContext(query, rng);
  return PredictRoute(ctx, query.origin, rng);
}

double DeepSTModel::ScoreContinuationReference(
    const PredictionContext& ctx, const traj::Route& prefix,
    const traj::Route& continuation) {
  nn::NoGradGuard no_grad;
  if (prefix.empty()) return ScoreRouteReference(ctx, continuation);
  DEEPST_CHECK(!continuation.empty());
  DEEPST_CHECK_EQ(continuation.front(), prefix.back());
  traj::Route full = prefix;
  full.insert(full.end(), continuation.begin() + 1, continuation.end());
  if (!net_.ValidateRoute(full).ok()) {
    return -std::numeric_limits<double>::infinity();
  }
  nn::VarPtr dest_term =
      ctx.has_dest ? nn::Constant(ctx.dest_term) : nullptr;
  nn::VarPtr dest_repr =
      ctx.has_dest ? nn::Constant(ctx.dest_repr) : nullptr;
  nn::VarPtr traffic_term =
      ctx.has_traffic ? nn::Constant(ctx.traffic_term) : nullptr;
  nn::VarPtr traffic_repr =
      ctx.has_traffic ? nn::Constant(ctx.traffic_repr) : nullptr;
  auto state = gru_->InitialState(1);
  double log_lik = 0.0;
  // Transitions before the gap warm the state but are not scored.
  const size_t first_scored = prefix.size() - 1;
  for (size_t i = 0; i + 1 < full.size(); ++i) {
    nn::VarPtr x =
        GruInput(segment_emb_->Forward({static_cast<int>(full[i])}),
                 dest_repr, traffic_repr);
    nn::VarPtr h = gru_->Step(x, &state);
    if (i < first_scored) continue;
    nn::VarPtr logits = StepLogits(h, dest_term, traffic_term);
    const int slot = net_.NeighborSlot(full[i], full[i + 1]);
    DEEPST_CHECK_GE(slot, 0);
    log_lik += ValidSlotLogProb(logits->value().data(),
                                net_.OutDegree(full[i]), slot);
  }
  return log_lik;
}

double DeepSTModel::ScoreRouteReference(const PredictionContext& ctx,
                                        const traj::Route& route) {
  nn::NoGradGuard no_grad;
  if (route.size() < 2) return 0.0;
  if (!net_.ValidateRoute(route).ok()) {
    return -std::numeric_limits<double>::infinity();
  }
  nn::VarPtr dest_term =
      ctx.has_dest ? nn::Constant(ctx.dest_term) : nullptr;
  nn::VarPtr dest_repr =
      ctx.has_dest ? nn::Constant(ctx.dest_repr) : nullptr;
  nn::VarPtr traffic_term =
      ctx.has_traffic ? nn::Constant(ctx.traffic_term) : nullptr;
  nn::VarPtr traffic_repr =
      ctx.has_traffic ? nn::Constant(ctx.traffic_repr) : nullptr;
  auto state = gru_->InitialState(1);
  double log_lik = 0.0;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    nn::VarPtr x =
        GruInput(segment_emb_->Forward({static_cast<int>(route[i])}),
                 dest_repr, traffic_repr);
    nn::VarPtr h = gru_->Step(x, &state);
    nn::VarPtr logits = StepLogits(h, dest_term, traffic_term);
    const int slot = net_.NeighborSlot(route[i], route[i + 1]);
    DEEPST_CHECK_GE(slot, 0);
    log_lik += ValidSlotLogProb(logits->value().data(),
                                net_.OutDegree(route[i]), slot);
  }
  return log_lik;
}

double DeepSTModel::ScoreRoute(const RouteQuery& query,
                               const traj::Route& route, util::Rng* rng) {
  PredictionContext ctx = MakeContext(query, rng);
  return ScoreRoute(ctx, route);
}

// -- Graph-free engine entry points ----------------------------------------------
// Each call leases a session; single-query calls run as one-item or
// one-context batches of the session's one engine.

traj::Route DeepSTModel::PredictRoute(const PredictionContext& ctx,
                                      SegmentId origin, util::Rng* rng) {
  SessionLease session(this);
  util::ThrowIfFaultPoint("infer.query");
  return session->PredictRoute(ctx, origin, rng);
}

traj::Route DeepSTModel::PredictRouteBeam(const PredictionContext& ctx,
                                          SegmentId origin, util::Rng* rng,
                                          double deadline_ms,
                                          bool* budget_hit) {
  SessionLease session(this);
  util::ThrowIfFaultPoint("infer.query");
  return session->PredictRouteBeam(ctx, origin, rng, deadline_ms, budget_hit);
}

double DeepSTModel::ScoreRoute(const PredictionContext& ctx,
                               const traj::Route& route) {
  SessionLease session(this);
  util::ThrowIfFaultPoint("infer.query");
  return session->ScoreRoute(ctx, route);
}

std::vector<int> DeepSTModel::TopSlotsAlongRoute(const PredictionContext& ctx,
                                                 const traj::Route& route) {
  // Harness entry point: measures the graph-free engine's raw kernels (the
  // thing whose precision is being evaluated), so no fault point here.
  SessionLease session(this);
  std::vector<int> slots;
  session->TopSlotsAlongRoute(ctx, route, &slots);
  return slots;
}

std::vector<double> DeepSTModel::ScoreRoutes(
    const PredictionContext& ctx, const std::vector<traj::Route>& routes) {
  SessionLease session(this);
  util::ThrowIfFaultPoint("infer.query");
  return session->ScoreRoutes(ctx, routes);
}

double DeepSTModel::ScoreContinuation(const PredictionContext& ctx,
                                      const traj::Route& prefix,
                                      const traj::Route& continuation) {
  return ScoreContinuations(ctx, prefix, {continuation}).front();
}

std::vector<double> DeepSTModel::ScoreContinuations(
    const PredictionContext& ctx, const traj::Route& prefix,
    const std::vector<traj::Route>& candidates) {
  SessionLease session(this);
  util::ThrowIfFaultPoint("infer.query");
  return session->ScoreContinuations(ctx, prefix, candidates);
}

void DeepSTModel::PredictRoutesBeamMulti(std::vector<PredictItem>* items,
                                         util::Rng* rng) {
  if (items->empty()) return;
  SessionLease session(this);
  util::ThrowIfFaultPoint("infer.query");
  if (!config_.sample_stop) {
    // The beam draws nothing (map_prediction only selects how PredictRoute
    // generates), so every item steps in one lock-step batch.
    session->PredictRoutesBeamMulti(items, rng);
    return;
  }
  // Sampled stops draw from the shared rng in each query's beam order: one
  // item at a time keeps the draws in that order.
  for (PredictItem& item : *items) {
    item.route = session->PredictRouteBeam(*item.ctx, item.origin, rng,
                                           item.deadline_ms, &item.budget_hit);
  }
}

void DeepSTModel::ScoreRoutesMulti(std::vector<ScoreItem>* items) {
  if (items->empty()) return;
  SessionLease session(this);
  util::ThrowIfFaultPoint("infer.query");
  session->ScoreRoutesMulti(items);
}

bool ShouldStop(const roadnet::RoadNetwork& net, const geo::Point& dest,
                SegmentId segment, const DeepSTConfig& config,
                util::Rng* rng) {
  const double dist_m = net.ProjectToSegment(dest, segment).distance;
  if (config.sample_stop) {
    // Paper: s ~ Bernoulli(1 / (1 + d)) with d in km.
    const double f_s = 1.0 / (1.0 + dist_m / 1000.0);
    return rng->Bernoulli(f_s);
  }
  // Deterministic policy: stop when the destination projects very close to
  // the current segment, or when we are within the stop radius and every
  // possible continuation would move away from the destination (arrival at
  // the locally closest segment).
  if (dist_m <= 0.4 * config.stop_distance_m) return true;
  if (dist_m > config.stop_distance_m) return false;
  for (roadnet::SegmentId nxt : net.OutSegments(segment)) {
    if (net.ProjectToSegment(dest, nxt).distance < dist_m) return false;
  }
  return true;
}

}  // namespace core
}  // namespace deepst
