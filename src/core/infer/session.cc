#include "core/infer/session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.h"
#include "util/stopwatch.h"

namespace deepst {
namespace core {
namespace infer {

using roadnet::SegmentId;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Loop guard of Algorithm 2: generation never re-enters a segment already on
// the route being generated. The route holds exactly that set, in at most
// max_route_steps + 1 entries, so a scan costs O(route) per candidate slot
// and a hypothesis needs no O(num_segments) visited bitmap.
bool OnRoute(const traj::Route& route, SegmentId segment) {
  return std::find(route.begin(), route.end(), segment) != route.end();
}
}  // namespace

double InferenceSession::Hyp::Score() const {
  const size_t n = route.size() > 1 ? route.size() - 1 : 1;
  return log_prob / std::sqrt(static_cast<double>(n));
}

std::shared_ptr<const SharedInferWeights> SharedInferWeights::Build(
    const DeepSTModel& model) {
  auto w = std::make_shared<SharedInferWeights>();
  const int64_t emb_dim = model.segment_embedding().dim();
  w->gru = nn::infer::GruStackView::Of(model.gru(), emb_dim);
  const nn::Tensor& aw = model.alpha_layer().weight();
  w->alpha_w = nn::infer::PackedMatrix::Pack(aw.data(), aw.dim(0), aw.dim(1),
                                             aw.dim(1));
  // K-major panel sidecars for the blocked GEMM path: batched (beam /
  // multi-query) GEMVs route through the register-blocked micro-kernel.
  // Built once here, shared like the rest of the packed weights.
  w->alpha_w.BuildPanels();
  for (nn::infer::GruCellView& cell : w->gru.cells) {
    cell.w_ih.BuildPanels();
    cell.w_hh.BuildPanels();
  }
  if (const DestinationProxyModel* proxy = model.proxy_model()) {
    w->proxy_encoder = nn::infer::MlpView::Of(proxy->encoder());
  }
  w->packed_weight_bytes =
      w->alpha_w.PackedBytes() + w->proxy_encoder.PackedBytes();
  w->packed_panel_bytes = w->alpha_w.PanelBytes();
  for (const nn::infer::GruCellView& cell : w->gru.cells) {
    w->packed_weight_bytes += cell.w_ih.PackedBytes() +
                              cell.w_hh.PackedBytes() +
                              cell.w_ih_ctx.size() * sizeof(double);
    w->packed_panel_bytes += cell.w_ih.PanelBytes() + cell.w_hh.PanelBytes();
  }
  return w;
}

InferenceSession::InferenceSession(const DeepSTModel* model)
    : model_(model),
      net_(model->network()),
      config_(model->config()),
      weights_shared_(model->shared_infer_weights()),
      gru_(weights_shared_->gru),
      emb_table_(&model->segment_embedding().table()->value()),
      alpha_w_(weights_shared_->alpha_w),
      alpha_b_(model->alpha_layer().bias()),
      emb_dim_(model->segment_embedding().dim()),
      nmax_(model->network().MaxOutDegree()),
      memo_(model->transition_memo()),
      arena_(kPerLayer + 3 * model->gru().num_layers()) {
  state_ptrs_.resize(static_cast<size_t>(gru_.num_layers()), nullptr);
  dstate_.resize(static_cast<size_t>(gru_.num_layers()));
  dgather_.resize(static_cast<size_t>(gru_.num_layers()));
  ranked_.reserve(static_cast<size_t>(nmax_));
  one_predict_.resize(1);
  one_predict_[0].route.reserve(RouteCapacity());
  one_score_.resize(1);
}

size_t InferenceSession::RouteCapacity() const {
  return static_cast<size_t>(config_.max_route_steps) + 2;
}

nn::infer::MemoKey InferenceSession::ContextKey(
    const PredictionContext& ctx) const {
  // Seed with the context-presence flags, then fold the exact bytes of
  // every context tensor that feeds the cached computation. The destination
  // *point* is deliberately not hashed: it only drives ShouldStop, which
  // runs outside the cached step.
  nn::infer::MemoKey k;
  k = nn::infer::MixKey(k, (ctx.has_dest ? 1u : 0u) |
                               (ctx.has_traffic ? 2u : 0u));
  if (ctx.has_dest) {
    k = nn::infer::HashBytesKey(
        ctx.dest_term.data(),
        static_cast<size_t>(ctx.dest_term.numel()) * sizeof(float), k);
    k = nn::infer::HashBytesKey(
        ctx.dest_repr.data(),
        static_cast<size_t>(ctx.dest_repr.numel()) * sizeof(float), k);
  }
  if (ctx.has_traffic) {
    k = nn::infer::HashBytesKey(
        ctx.traffic_term.data(),
        static_cast<size_t>(ctx.traffic_term.numel()) * sizeof(float), k);
    k = nn::infer::HashBytesKey(
        ctx.traffic_repr.data(),
        static_cast<size_t>(ctx.traffic_repr.numel()) * sizeof(float), k);
  }
  return k;
}

float* const* InferenceSession::HitStatePtrs(int64_t row) {
  const int64_t hd = gru_.hidden_dim;
  for (int l = 0; l < gru_.num_layers(); ++l) {
    state_ptrs_[static_cast<size_t>(l)] = HitSlot(l)->data() + row * hd;
  }
  return state_ptrs_.data();
}

float* const* InferenceSession::BatchStatePtrs(int64_t row) {
  const int64_t hd = gru_.hidden_dim;
  for (int l = 0; l < gru_.num_layers(); ++l) {
    state_ptrs_[static_cast<size_t>(l)] = StateSlot(l)->data() + row * hd;
  }
  return state_ptrs_.data();
}

void InferenceSession::PrepareContexts(
    const std::vector<const PredictionContext*>& ctxs) {
  const int64_t q_count = static_cast<int64_t>(ctxs.size());
  const nn::infer::GruCellView& cell0 = gru_.cells[0];
  const int64_t h3 = 3 * cell0.hidden_dim;
  nn::Tensor* ctx_ih = arena_.Acquire(kCtxIh, q_count, h3);
  nn::Tensor* lb = arena_.Acquire(kLogitBias, q_count, nmax_);
  const float* ab = alpha_b_ != nullptr ? alpha_b_->data() : nullptr;
  if (memo_ != nullptr) {
    // Queries pin the memo epoch they start with (see TransitionMemoCache);
    // one pinned epoch serves the whole batch. A query's context signature
    // depends on its context alone, so its keys are the same in every batch.
    memo_epoch_ = memo_->current_epoch();
    ctx_keys_.resize(static_cast<size_t>(q_count));
    for (int64_t q = 0; q < q_count; ++q) {
      ctx_keys_[static_cast<size_t>(q)] =
          ContextKey(*ctxs[static_cast<size_t>(q)]);
    }
  }
  for (int64_t q = 0; q < q_count; ++q) {
    const PredictionContext& ctx = *ctxs[static_cast<size_t>(q)];
    const int64_t dest_dim = ctx.has_dest ? ctx.dest_repr.dim(1) : 0;
    const int64_t traffic_dim = ctx.has_traffic ? ctx.traffic_repr.dim(1) : 0;
    const int64_t ctx_dim = dest_dim + traffic_dim;
    DEEPST_CHECK_EQ(emb_dim_ + ctx_dim, cell0.input_dim);
    ctxd_.resize(static_cast<size_t>(ctx_dim));
    if (dest_dim > 0) {
      nn::infer::ToDouble(ctx.dest_repr.data(), ctxd_.data(), dest_dim);
    }
    if (traffic_dim > 0) {
      nn::infer::ToDouble(ctx.traffic_repr.data(), ctxd_.data() + dest_dim,
                          traffic_dim);
    }
    // Layer-0 split input: fold the context's input-to-hidden product and
    // b_ih into one per-query bias row; steps then only multiply the
    // embedding columns of w_ih.
    nn::infer::LinearForward(ctxd_.data(), ctx_dim, cell0.w_ih_ctx.data(),
                             ctx_dim, cell0.b_ih->data(), nullptr,
                             ctx_ih->data() + q * h3, 1, ctx_dim, h3);
    // alpha bias + additive context logit terms, one row per query.
    const float* dt = ctx.has_dest ? ctx.dest_term.data() : nullptr;
    const float* tt = ctx.has_traffic ? ctx.traffic_term.data() : nullptr;
    float* lbp = lb->data() + q * nmax_;
    for (int64_t j = 0; j < nmax_; ++j) {
      float v = ab != nullptr ? ab[j] : 0.0f;
      if (dt != nullptr) v += dt[j];
      if (tt != nullptr) v += tt[j];
      lbp[j] = v;
    }
  }
}

void InferenceSession::EnsureStepScratch(int64_t batch) {
  const size_t emb_need = static_cast<size_t>(batch * emb_dim_);
  if (embd_.size() < emb_need) {
    embd_.resize(emb_need);
    ++scratch_grow_count_;
  }
  const size_t st_need = static_cast<size_t>(batch * gru_.hidden_dim);
  for (std::vector<double>& d : dstate_) {
    if (d.size() < st_need) {
      d.resize(st_need);
      ++scratch_grow_count_;
    }
  }
}

void InferenceSession::ResetBeamScratch(int64_t rows) {
  const int64_t hd = gru_.hidden_dim;
  EnsureStepScratch(rows);
  arena_.Acquire(kGi, rows, 3 * hd);
  arena_.Acquire(kGh, rows, 3 * hd);
  arena_.Acquire(kLogits, rows, nmax_);
  const size_t gather_need = static_cast<size_t>(rows * hd);
  for (int l = 0; l < gru_.num_layers(); ++l) {
    arena_.Acquire(StateSlotIndex(l), rows, hd);
    arena_.Acquire(GatherSlotIndex(l), rows, hd)->Fill(0.0f);
    std::vector<double>& dg = dgather_[static_cast<size_t>(l)];
    if (dg.size() < gather_need) {
      dg.resize(gather_need);
      ++scratch_grow_count_;
    }
    std::fill_n(dg.data(), gather_need, 0.0);
  }
  if (memo_ != nullptr) {
    // Hit staging: a probe that hits writes the cached logits/state into
    // the hypothesis' own row and skips the step.
    arena_.Acquire(kHitLogits, rows, nmax_);
    for (int l = 0; l < gru_.num_layers(); ++l) {
      arena_.Acquire(HitSlotIndex(l), rows, hd);
    }
  }
}

void InferenceSession::ResetState(int64_t batch) {
  EnsureStepScratch(batch);
  const size_t n = static_cast<size_t>(batch * gru_.hidden_dim);
  for (int l = 0; l < gru_.num_layers(); ++l) {
    arena_.Acquire(StateSlotIndex(l), batch, gru_.hidden_dim)->Fill(0.0f);
    std::fill_n(dstate_[static_cast<size_t>(l)].data(), n, 0.0);
  }
}

void InferenceSession::StepBatch(const int* tokens, const int* row_ctx,
                                 int64_t batch, bool want_logits) {
  // Invariant: on entry dstate_[l] holds the double image of StateSlot(l)
  // for every active row (ResetState zeroes both; the beam gather and memo
  // paths refresh it). Each layer's GEMVs then read the mirror directly and
  // the mirror is re-converted once after GruGates — one ToDouble per layer
  // per step instead of one per GEMV operand.
  //
  // Only the layer-0 input bias and the logit bias are per query (row_ctx
  // picks each row's bias row); every other operand is query-independent,
  // so each row's arithmetic is that of a batch under its own context.
  const nn::infer::GruCellView& cell0 = gru_.cells[0];
  const int64_t hd = gru_.hidden_dim;
  const int64_t h3 = 3 * hd;
  DEEPST_DCHECK(embd_.size() >= static_cast<size_t>(batch * emb_dim_));
  for (int64_t b = 0; b < batch; ++b) {
    nn::infer::ToDouble(
        emb_table_->data() + static_cast<int64_t>(tokens[b]) * emb_dim_,
        embd_.data() + b * emb_dim_, emb_dim_);
  }
  nn::Tensor* gi = arena_.Acquire(kGi, batch, h3);
  nn::Tensor* gh = arena_.Acquire(kGh, batch, h3);
  nn::Tensor* h0 = StateSlot(0);
  nn::infer::GemvForward(embd_.data(), emb_dim_, cell0.w_ih,
                         arena_.Get(kCtxIh)->data(), row_ctx, gi->data(),
                         batch, h3);
  nn::infer::GemvForward(dstate_[0].data(), hd, cell0.w_hh,
                         cell0.b_hh->data(), nullptr, gh->data(), batch, h3);
  nn::infer::GruGates(*gi, *gh, *h0, h0);
  nn::infer::ToDouble(h0->data(), dstate_[0].data(), batch * hd);
  for (int l = 1; l < gru_.num_layers(); ++l) {
    const nn::infer::GruCellView& cell = gru_.cells[static_cast<size_t>(l)];
    nn::Tensor* h = StateSlot(l);
    nn::infer::GemvForward(dstate_[static_cast<size_t>(l - 1)].data(), hd,
                           cell.w_ih, cell.b_ih->data(), nullptr, gi->data(),
                           batch, h3);
    nn::infer::GemvForward(dstate_[static_cast<size_t>(l)].data(), hd,
                           cell.w_hh, cell.b_hh->data(), nullptr, gh->data(),
                           batch, h3);
    nn::infer::GruGates(*gi, *gh, *h, h);
    nn::infer::ToDouble(h->data(), dstate_[static_cast<size_t>(l)].data(),
                        batch * hd);
  }
  if (want_logits) {
    nn::Tensor* logits = arena_.Acquire(kLogits, batch, nmax_);
    nn::infer::GemvForward(
        dstate_[static_cast<size_t>(gru_.num_layers() - 1)].data(), hd,
        alpha_w_, arena_.Get(kLogitBias)->data(), row_ctx, logits->data(),
        batch, nmax_);
  }
}

traj::Route InferenceSession::PredictRoute(const PredictionContext& ctx,
                                           SegmentId origin, util::Rng* rng) {
  DEEPST_CHECK(origin >= 0 && origin < net_.num_segments());
  if (config_.map_prediction && config_.beam_width > 1) {
    PredictItem& item = one_predict_[0];
    item.ctx = &ctx;
    item.origin = origin;
    item.deadline_ms = 0.0;
    PredictRoutesBeamMulti(&one_predict_, rng);
    return item.route;
  }
  ctx_ptrs_.assign(1, &ctx);
  PrepareContexts(ctx_ptrs_);
  ResetState(1);
  traj::Route route;
  route.reserve(RouteCapacity());
  route.push_back(origin);
  SegmentId cur = origin;
  // Memo key chain: ctx signature mixed with every token fed so far. A hit
  // replays the cached logits and post-step state bitwise, so the rest of
  // the loop (and the rng stream in sampling mode) is oblivious to it.
  nn::infer::MemoKey key;
  if (memo_ != nullptr) key = ctx_keys_[0];
  for (int step = 0; step < config_.max_route_steps; ++step) {
    const auto& outs = net_.OutSegments(cur);
    if (outs.empty()) break;
    const int token = static_cast<int>(cur);
    if (memo_ != nullptr) {
      key = nn::infer::MixKey(key, static_cast<uint64_t>(token));
      nn::Tensor* lt = arena_.Acquire(kLogits, 1, nmax_);
      if (!memo_->Lookup(key, memo_epoch_, lt->data(), BatchStatePtrs(0))) {
        StepBatch(&token, nullptr, 1, /*want_logits=*/true);
        memo_->Insert(key, memo_epoch_, arena_.Get(kLogits)->data(),
                      BatchStatePtrs(0));
      } else {
        // The hit replayed float state directly into the state slots, so
        // the double mirrors are stale; re-convert the one live row.
        for (int l = 0; l < gru_.num_layers(); ++l) {
          nn::infer::ToDouble(StateSlot(l)->data(),
                              dstate_[static_cast<size_t>(l)].data(),
                              gru_.hidden_dim);
        }
      }
    } else {
      StepBatch(&token, nullptr, 1, /*want_logits=*/true);
    }
    const float* lv = arena_.Get(kLogits)->data();
    int best = -1;
    if (config_.map_prediction) {
      for (int s = 0; s < static_cast<int>(outs.size()); ++s) {
        if (OnRoute(route, outs[static_cast<size_t>(s)])) continue;
        if (best < 0 || lv[s] > lv[best]) best = s;
      }
    } else {
      weights_.assign(outs.size(), 0.0);
      double mx = -1e30;
      bool any = false;
      for (size_t s = 0; s < outs.size(); ++s) {
        if (OnRoute(route, outs[s])) continue;
        mx = std::max(mx, static_cast<double>(lv[s]));
        any = true;
      }
      if (any) {
        for (size_t s = 0; s < outs.size(); ++s) {
          if (OnRoute(route, outs[s])) continue;
          weights_[s] = std::exp(lv[s] - mx);
        }
        best = rng->Categorical(weights_);
      }
    }
    if (best < 0) break;  // boxed in by visited segments
    const SegmentId next = outs[static_cast<size_t>(best)];
    route.push_back(next);
    if (ShouldStop(net_, ctx.destination, next, config_, rng)) break;
    cur = next;
  }
  return route;
}

void InferenceSession::CopyHyp(const Hyp& src, Hyp* dst) {
  dst->route.assign(src.route.begin(), src.route.end());
  dst->log_prob = src.log_prob;
  dst->done = src.done;
  dst->src_row = src.src_row;
  dst->hit_src = src.hit_src;
  dst->key = src.key;
}

void InferenceSession::EnsureQueryBeams(size_t count) {
  if (query_beams_.size() >= count) return;
  const size_t width = static_cast<size_t>(std::max(config_.beam_width, 1));
  const size_t old = query_beams_.size();
  query_beams_.resize(count);
  for (size_t q = old; q < count; ++q) {
    QueryBeam& qb = query_beams_[q];
    qb.beams.resize(width);
    qb.pool.resize(width * (width + 1));
    for (Hyp& h : qb.beams) h.route.reserve(RouteCapacity());
    for (Hyp& h : qb.pool) h.route.reserve(RouteCapacity());
    qb.pool_order.reserve(width * (width + 1));
    qb.active_row.reserve(width);
    qb.hit_row.reserve(width);
  }
  // Batch-row scratch at its largest (every hypothesis of every query
  // stepped at once), so no step of any call at this batch size grows it.
  tokens_.reserve(count * width);
  row_ctx_.reserve(count * width);
}

void InferenceSession::FinalizeQuery(const QueryBeam& qb, PredictItem* item) {
  const Hyp* best = nullptr;
  for (int i = 0; i < qb.num_beams; ++i) {
    const Hyp& b = qb.beams[static_cast<size_t>(i)];
    if (!b.done) continue;
    if (best == nullptr || b.Score() > best->Score()) best = &b;
  }
  if (best == nullptr) {
    for (int i = 0; i < qb.num_beams; ++i) {
      const Hyp& b = qb.beams[static_cast<size_t>(i)];
      if (best == nullptr || b.Score() > best->Score()) best = &b;
    }
  }
  DEEPST_CHECK(best != nullptr);
  item->route = best->route;
}

void InferenceSession::PredictRoutesBeamMulti(std::vector<PredictItem>* items,
                                              util::Rng* rng) {
  const int64_t q_count = static_cast<int64_t>(items->size());
  if (q_count == 0) return;
  // ShouldStop is the beam's only rng use and draws only under sample_stop.
  // Lock-step queries would interleave those draws, so a drawing call runs
  // one query, whose stops are then drawn in the reference's beam order.
  DEEPST_CHECK(!config_.sample_stop || (q_count == 1 && rng != nullptr));
  const int width = std::max(config_.beam_width, 1);
  const int64_t hd = gru_.hidden_dim;

  ctx_ptrs_.clear();
  for (PredictItem& item : *items) {
    DEEPST_CHECK(item.origin >= 0 && item.origin < net_.num_segments());
    item.budget_hit = false;
    ctx_ptrs_.push_back(item.ctx);
  }
  PrepareContexts(ctx_ptrs_);
  EnsureQueryBeams(static_cast<size_t>(q_count));
  // Gather and hit staging row for (query q, beam i) is q*width + i.
  ResetBeamScratch(q_count * width);
  for (int64_t q = 0; q < q_count; ++q) {
    QueryBeam& qb = query_beams_[static_cast<size_t>(q)];
    const SegmentId origin = (*items)[static_cast<size_t>(q)].origin;
    Hyp& root = qb.beams[0];
    root.route.clear();
    root.route.push_back(origin);
    root.log_prob = 0.0;
    root.done = false;
    root.src_row = -1;
    root.hit_src = -1;
    if (memo_ != nullptr) root.key = ctx_keys_[static_cast<size_t>(q)];
    qb.num_beams = 1;
    qb.finished = false;
    qb.watch.Reset();
  }

  int64_t live = q_count;
  for (int step = 0; step < config_.max_route_steps && live > 0; ++step) {
    // Pass 1: probe the memo per expandable hypothesis of every live query,
    // then one padded GRU step over the misses; row_ctx_ routes each row to
    // its query's context biases.
    tokens_.clear();
    row_ctx_.clear();
    for (int64_t q = 0; q < q_count; ++q) {
      QueryBeam& qb = query_beams_[static_cast<size_t>(q)];
      if (qb.finished) continue;
      qb.active_row.assign(static_cast<size_t>(qb.num_beams), -1);
      qb.hit_row.assign(static_cast<size_t>(qb.num_beams), -1);
      for (int i = 0; i < qb.num_beams; ++i) {
        const Hyp& b = qb.beams[static_cast<size_t>(i)];
        if (b.done) continue;
        if (net_.OutSegments(b.route.back()).empty()) continue;
        if (memo_ != nullptr) {
          const nn::infer::MemoKey sk = nn::infer::MixKey(
              b.key, static_cast<uint64_t>(b.route.back()));
          const int64_t hr = q * width + i;
          if (memo_->Lookup(sk, memo_epoch_,
                            arena_.Get(kHitLogits)->data() + hr * nmax_,
                            HitStatePtrs(hr))) {
            qb.hit_row[static_cast<size_t>(i)] = static_cast<int>(hr);
            continue;
          }
        }
        qb.active_row[static_cast<size_t>(i)] =
            static_cast<int>(tokens_.size());
        tokens_.push_back(static_cast<int>(b.route.back()));
        row_ctx_.push_back(static_cast<int>(q));
      }
    }
    const int64_t active = static_cast<int64_t>(tokens_.size());
    if (active > 0) {
      for (int l = 0; l < gru_.num_layers(); ++l) {
        nn::Tensor* st = arena_.Acquire(StateSlotIndex(l), active, hd);
        const nn::Tensor* bs = GatherSlot(l);
        const double* bd = dgather_[static_cast<size_t>(l)].data();
        double* sd = dstate_[static_cast<size_t>(l)].data();
        for (int64_t q = 0; q < q_count; ++q) {
          const QueryBeam& qb = query_beams_[static_cast<size_t>(q)];
          if (qb.finished) continue;
          for (int i = 0; i < qb.num_beams; ++i) {
            const int a = qb.active_row[static_cast<size_t>(i)];
            if (a < 0) continue;
            std::copy_n(bs->data() + (q * width + i) * hd, hd,
                        st->data() + static_cast<int64_t>(a) * hd);
            std::copy_n(bd + (q * width + i) * hd, hd,
                        sd + static_cast<int64_t>(a) * hd);
          }
        }
      }
      StepBatch(tokens_.data(), row_ctx_.data(), active,
                /*want_logits=*/true);
      if (memo_ != nullptr) {
        for (int64_t q = 0; q < q_count; ++q) {
          const QueryBeam& qb = query_beams_[static_cast<size_t>(q)];
          if (qb.finished) continue;
          for (int i = 0; i < qb.num_beams; ++i) {
            const int a = qb.active_row[static_cast<size_t>(i)];
            if (a < 0) continue;
            const Hyp& b = qb.beams[static_cast<size_t>(i)];
            memo_->Insert(
                nn::infer::MixKey(b.key,
                                  static_cast<uint64_t>(b.route.back())),
                memo_epoch_,
                arena_.Get(kLogits)->data() + static_cast<int64_t>(a) * nmax_,
                BatchStatePtrs(a));
          }
        }
      }
    }
    const float* logits = active > 0 ? arena_.Get(kLogits)->data() : nullptr;
    const float* hit_logits =
        memo_ != nullptr ? arena_.Get(kHitLogits)->data() : nullptr;

    // Pass 2: per-query expansion, keep, and termination. Expansion runs in
    // beam order, so ShouldStop draws in the reference's order.
    for (int64_t q = 0; q < q_count; ++q) {
      QueryBeam& qb = query_beams_[static_cast<size_t>(q)];
      if (qb.finished) continue;
      PredictItem& item = (*items)[static_cast<size_t>(q)];
      bool q_any_active = false;
      qb.pool_size = 0;
      for (int i = 0; i < qb.num_beams; ++i) {
        Hyp& beam = qb.beams[static_cast<size_t>(i)];
        if (beam.done) {
          beam.src_row = -1;
          beam.hit_src = -1;
          CopyHyp(beam, &qb.pool[qb.pool_size++]);
          continue;
        }
        const SegmentId cur = beam.route.back();
        const auto& outs = net_.OutSegments(cur);
        if (outs.empty()) {
          beam.done = true;
          beam.src_row = -1;
          beam.hit_src = -1;
          CopyHyp(beam, &qb.pool[qb.pool_size++]);
          continue;
        }
        q_any_active = true;
        const int a = qb.active_row[static_cast<size_t>(i)];
        const int hr = qb.hit_row[static_cast<size_t>(i)];
        const float* lrow =
            hr >= 0 ? hit_logits + static_cast<int64_t>(hr) * nmax_
                    : logits + static_cast<int64_t>(a) * nmax_;
        const int deg = static_cast<int>(outs.size());
        const ValidSlotNormalizer norm(lrow, deg);
        ranked_.clear();
        for (int s = 0; s < deg; ++s) {
          if (OnRoute(beam.route, outs[static_cast<size_t>(s)])) continue;
          ranked_.emplace_back(norm.LogProb(lrow, s), s);
        }
        if (ranked_.empty()) {  // boxed in: terminate this hypothesis
          beam.done = true;
          beam.src_row = -1;
          beam.hit_src = -1;
          CopyHyp(beam, &qb.pool[qb.pool_size++]);
          continue;
        }
        std::sort(ranked_.rbegin(), ranked_.rend());
        const int expand =
            std::min<int>(width, static_cast<int>(ranked_.size()));
        for (int e = 0; e < expand; ++e) {
          Hyp& nxt = qb.pool[qb.pool_size++];
          CopyHyp(beam, &nxt);
          nxt.src_row = a;
          nxt.hit_src = hr;
          if (memo_ != nullptr) {
            nxt.key = nn::infer::MixKey(beam.key, static_cast<uint64_t>(cur));
          }
          nxt.log_prob += ranked_[static_cast<size_t>(e)].first;
          const SegmentId seg = outs[static_cast<size_t>(
              ranked_[static_cast<size_t>(e)].second)];
          nxt.route.push_back(seg);
          nxt.done = ShouldStop(net_, item.ctx->destination, seg, config_,
                                rng);
        }
      }

      // Keep the best `width` hypotheses by normalized score; gather the
      // survivors' stepped states back into the per-beam state rows.
      qb.pool_order.resize(qb.pool_size);
      std::iota(qb.pool_order.begin(), qb.pool_order.end(), 0);
      std::sort(qb.pool_order.begin(), qb.pool_order.end(),
                [&qb](int x, int y) {
                  return qb.pool[static_cast<size_t>(x)].Score() >
                         qb.pool[static_cast<size_t>(y)].Score();
                });
      const int keep = std::min<int>(width, static_cast<int>(qb.pool_size));
      for (int w = 0; w < keep; ++w) {
        const Hyp& src = qb.pool[static_cast<size_t>(qb.pool_order[w])];
        CopyHyp(src, &qb.beams[static_cast<size_t>(w)]);
        if (src.src_row >= 0) {
          // Stepped row: the double mirror already holds its exact image, so
          // a double->double copy carries the same values ToDouble would.
          for (int l = 0; l < gru_.num_layers(); ++l) {
            std::copy_n(StateSlot(l)->data() +
                            static_cast<int64_t>(src.src_row) * hd,
                        hd, GatherSlot(l)->data() + (q * width + w) * hd);
            std::copy_n(dstate_[static_cast<size_t>(l)].data() +
                            static_cast<int64_t>(src.src_row) * hd,
                        hd, dgather_[static_cast<size_t>(l)].data() +
                                (q * width + w) * hd);
          }
        } else if (src.hit_src >= 0) {
          // Memo-hit row: only float state exists; convert it for the mirror.
          for (int l = 0; l < gru_.num_layers(); ++l) {
            const float* hs = HitSlot(l)->data() +
                              static_cast<int64_t>(src.hit_src) * hd;
            std::copy_n(hs, hd,
                        GatherSlot(l)->data() + (q * width + w) * hd);
            nn::infer::ToDouble(hs,
                                dgather_[static_cast<size_t>(l)].data() +
                                    (q * width + w) * hd,
                                hd);
          }
        }
      }
      qb.num_beams = keep;

      // The reference's termination order: boxed-in, then all-done, then
      // the per-item deadline, checked only between completed steps so at
      // least one step always runs.
      bool q_done = !q_any_active;
      if (!q_done) {
        bool all_done = true;
        for (int i = 0; i < qb.num_beams; ++i) {
          if (!qb.beams[static_cast<size_t>(i)].done) all_done = false;
        }
        q_done = all_done;
        if (!q_done && item.deadline_ms > 0.0 &&
            qb.watch.ElapsedMillis() >= item.deadline_ms) {
          item.budget_hit = true;
          q_done = true;
        }
      }
      if (q_done) {
        qb.finished = true;
        --live;
        FinalizeQuery(qb, &item);
      }
    }
  }
  // Queries that ran out the step budget with live hypotheses.
  for (int64_t q = 0; q < q_count; ++q) {
    QueryBeam& qb = query_beams_[static_cast<size_t>(q)];
    if (qb.finished) continue;
    qb.finished = true;
    FinalizeQuery(qb, &(*items)[static_cast<size_t>(q)]);
  }
}

void InferenceSession::ScoreRoutesMulti(std::vector<ScoreItem>* items) {
  ctx_ptrs_.clear();
  rows_.clear();
  row_ctx_.clear();
  row_index_.clear();
  for (size_t i = 0; i < items->size(); ++i) {
    ScoreItem& item = (*items)[i];
    const std::vector<traj::Route>& routes = *item.routes;
    item.scores.assign(routes.size(), 0.0);
    for (size_t j = 0; j < routes.size(); ++j) {
      if (routes[j].size() < 2) continue;  // score 0 by convention
      if (!net_.ValidateRoute(routes[j]).ok()) {
        item.scores[j] = kNegInf;
        continue;
      }
      rows_.push_back(&routes[j]);
      row_ctx_.push_back(static_cast<int>(i));
      row_index_.push_back(static_cast<int>(j));
    }
    ctx_ptrs_.push_back(item.ctx);
  }
  if (rows_.empty()) return;
  PrepareContexts(ctx_ptrs_);
  ResetState(static_cast<int64_t>(rows_.size()));
  batch_out_.assign(rows_.size(), 0.0);
  ScorePaddedBatch(rows_, row_ctx_.data(), 0, &batch_out_);
  for (size_t b = 0; b < rows_.size(); ++b) {
    (*items)[static_cast<size_t>(row_ctx_[b])]
        .scores[static_cast<size_t>(row_index_[b])] = batch_out_[b];
  }
}

void InferenceSession::ScorePaddedBatch(
    const std::vector<const traj::Route*>& rows, const int* row_ctx,
    size_t first_scored, std::vector<double>* out) {
  const int64_t batch = static_cast<int64_t>(rows.size());
  size_t max_len = 0;
  for (const traj::Route* r : rows) {
    DEEPST_DCHECK(r->size() >= 2);
    max_len = std::max(max_len, r->size());
  }
  tokens_.resize(static_cast<size_t>(batch));
  for (size_t t = first_scored; t + 1 < max_len; ++t) {
    for (int64_t b = 0; b < batch; ++b) {
      const traj::Route& r = *rows[static_cast<size_t>(b)];
      // Finished rows re-feed their last input token; their state keeps
      // evolving but nothing more is recorded for them, and every kernel is
      // row-local, so the padding never affects other rows.
      const size_t i = std::min(t, r.size() - 2);
      tokens_[static_cast<size_t>(b)] = static_cast<int>(r[i]);
    }
    StepBatch(tokens_.data(), row_ctx, batch, /*want_logits=*/true);
    const float* logits = arena_.Get(kLogits)->data();
    for (int64_t b = 0; b < batch; ++b) {
      const traj::Route& r = *rows[static_cast<size_t>(b)];
      if (t + 1 >= r.size()) continue;
      const int slot = net_.NeighborSlot(r[t], r[t + 1]);
      DEEPST_DCHECK(slot >= 0);
      (*out)[static_cast<size_t>(b)] += ValidSlotLogProb(
          logits + b * nmax_, net_.OutDegree(r[t]), slot);
    }
  }
}

double InferenceSession::ScoreRoute(const PredictionContext& ctx,
                                    const traj::Route& route) {
  if (route.size() < 2) return 0.0;
  if (!net_.ValidateRoute(route).ok()) return kNegInf;
  ctx_ptrs_.assign(1, &ctx);
  PrepareContexts(ctx_ptrs_);
  ResetState(1);
  rows_.assign(1, &route);
  batch_out_.assign(1, 0.0);
  ScorePaddedBatch(rows_, nullptr, 0, &batch_out_);
  return batch_out_[0];
}

std::vector<double> InferenceSession::ScoreRoutes(
    const PredictionContext& ctx, const std::vector<traj::Route>& routes) {
  ScoreItem& item = one_score_[0];
  item.ctx = &ctx;
  item.routes = &routes;
  ScoreRoutesMulti(&one_score_);
  return item.scores;
}

std::vector<double> InferenceSession::ScoreContinuations(
    const PredictionContext& ctx, const traj::Route& prefix,
    const std::vector<traj::Route>& candidates) {
  if (prefix.empty()) return ScoreRoutes(ctx, candidates);
  std::vector<double> result(candidates.size(), 0.0);
  if (fulls_.size() < candidates.size()) fulls_.resize(candidates.size());
  rows_.clear();
  row_index_.clear();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const traj::Route& cont = candidates[i];
    DEEPST_CHECK(!cont.empty());
    DEEPST_CHECK_EQ(cont.front(), prefix.back());
    traj::Route& full = fulls_[i];
    full.assign(prefix.begin(), prefix.end());
    full.insert(full.end(), cont.begin() + 1, cont.end());
    if (!net_.ValidateRoute(full).ok()) {
      result[i] = kNegInf;
      continue;
    }
    // A one-segment prefix continued by {prefix.back()} has no transition:
    // score 0 like ScoreRoutes' short routes, and keep it out of the padded
    // batch, whose finished rows re-feed their second-to-last segment.
    if (full.size() < 2) continue;
    rows_.push_back(&full);
    row_index_.push_back(static_cast<int>(i));
  }
  if (rows_.empty()) return result;
  ctx_ptrs_.assign(1, &ctx);
  PrepareContexts(ctx_ptrs_);
  // The prefix is shared: warm the state once at batch 1, then broadcast
  // the warmed rows to every candidate.
  ResetState(1);
  const size_t first_scored = prefix.size() - 1;
  for (size_t t = 0; t < first_scored; ++t) {
    const int token = static_cast<int>(prefix[t]);
    StepBatch(&token, nullptr, 1, /*want_logits=*/false);
  }
  const int64_t batch = static_cast<int64_t>(rows_.size());
  const int64_t hd = gru_.hidden_dim;
  EnsureStepScratch(batch);
  for (int l = 0; l < gru_.num_layers(); ++l) {
    nn::Tensor* warm = arena_.Acquire(GatherSlotIndex(l), 1, hd);
    std::copy_n(StateSlot(l)->data(), hd, warm->data());
    nn::Tensor* st = arena_.Acquire(StateSlotIndex(l), batch, hd);
    double* sd = dstate_[static_cast<size_t>(l)].data();
    for (int64_t b = 0; b < batch; ++b) {
      std::copy_n(warm->data(), hd, st->data() + b * hd);
      // Broadcast the warmed row's double mirror alongside (row 0 is
      // current after the warm steps; double copies are exact).
      if (b > 0) std::copy_n(sd, hd, sd + b * hd);
    }
  }
  batch_out_.assign(rows_.size(), 0.0);
  ScorePaddedBatch(rows_, nullptr, first_scored, &batch_out_);
  for (size_t b = 0; b < rows_.size(); ++b) {
    result[static_cast<size_t>(row_index_[b])] = batch_out_[b];
  }
  return result;
}

}  // namespace infer
}  // namespace core
}  // namespace deepst
