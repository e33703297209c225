#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>

#include "core/checkpoint.h"
#include "nn/arena.h"
#include "nn/backend.h"
#include "nn/conv_ops.h"
#include "nn/serialize.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace deepst {
namespace core {
namespace {

// Trips sorted by route length, then chunked -- batches have homogeneous
// lengths so padding is cheap. Built once per dataset; per-epoch shuffling
// permutes only the batch visit order (see Fit).
std::vector<std::vector<const traj::Trip*>> MakeBatches(
    const std::vector<const traj::TripRecord*>& data, int batch_size) {
  // Trips with fewer than two segments have no transition to predict.
  std::vector<const traj::Trip*> trips;
  trips.reserve(data.size());
  for (const auto* rec : data) {
    if (rec->trip.route.size() >= 2) trips.push_back(&rec->trip);
  }
  std::stable_sort(trips.begin(), trips.end(),
                   [](const traj::Trip* a, const traj::Trip* b) {
                     return a->route.size() < b->route.size();
                   });
  std::vector<std::vector<const traj::Trip*>> batches;
  for (size_t i = 0; i < trips.size(); i += static_cast<size_t>(batch_size)) {
    const size_t end = std::min(trips.size(), i + static_cast<size_t>(batch_size));
    batches.emplace_back(trips.begin() + static_cast<long>(i),
                         trips.begin() + static_cast<long>(end));
  }
  return batches;
}

bool AllParamsFinite(const DeepSTModel& model) {
  for (const auto& p : model.Parameters()) {
    if (!p.var->value().AllFinite()) return false;
  }
  return true;
}

// Deterministic per-shard rng sub-stream: a pure function of the batch seed
// and the shard index (same derivation idiom as EvaluateRouteCe's per-batch
// streams), so sampling is independent of which thread runs the shard.
uint64_t ShardSeed(uint64_t batch_seed, int64_t shard) {
  return batch_seed ^
         (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(shard) + 1));
}

}  // namespace

// Data-parallel batch engine. RunBatch splits the minibatch into fixed
// micro-shards, fans forward+backward out over the backend's workers, and
// reduces per-shard gradients into the parameters in ascending shard order
// (nn::AccumulateShardGrads), so the accumulated gradient — and with it the
// whole training trajectory — is bitwise identical for every thread count.
//
// Every resource is per shard *slot*, not per thread: shard s of every batch
// reuses slot s's arena, gradient sink and batch-norm log no matter which
// worker runs it, which keeps the recycling pools closed (a tensor leased
// from slot s's arena is always returned to it) and the steady state
// allocation-free once shapes are warm.
class Trainer::ShardEngine {
 public:
  ShardEngine(DeepSTModel* model, int shard_size)
      : model_(model), shard_size_(shard_size) {
    DEEPST_CHECK_GT(shard_size_, 0);
    nn::BindParamSlots(model_->Parameters());
  }

  // Accumulates the batch-mean gradient into the model's parameter grads
  // (+=; callers zero beforehand) and returns the batch's loss stats,
  // combined in shard order.
  LossStats RunBatch(const std::vector<const traj::Trip*>& batch,
                     uint64_t batch_seed) {
    const int64_t bsz = static_cast<int64_t>(batch.size());
    DEEPST_CHECK_GT(bsz, 0);
    const int64_t nshards = (bsz + shard_size_ - 1) / shard_size_;
    while (static_cast<int64_t>(slots_.size()) < nshards) {
      slots_.push_back(std::make_unique<ShardSlot>());
    }
    const size_t nparams = model_->Parameters().size();

    nn::GetBackend()->Run(nshards, [&](int64_t s) {
      ShardSlot& slot = *slots_[static_cast<size_t>(s)];
      const int64_t begin = s * shard_size_;
      const int64_t end = std::min<int64_t>(bsz, begin + shard_size_);
      slot.trips.assign(batch.begin() + begin, batch.begin() + end);
      slot.grads.Bind(nparams);
      slot.grads.Begin();
      slot.bn_log.Clear();
      util::Rng rng(ShardSeed(batch_seed, s));
      // Activate the slot's sinks on whichever thread runs this shard: ops
      // lease graph nodes and tensor storage from the arena, parameter
      // grad() calls land in the private shard sink, and batch-norm
      // running-stat updates are logged for ordered replay.
      nn::ScopedAutodiffArena arena_scope(&slot.arena);
      nn::ScopedGradShard grad_scope(&slot.grads);
      nn::ops::ScopedBnStatsLog bn_scope(&slot.bn_log);
      slot.arena.BeginStep();
      LossStats stats;
      nn::VarPtr loss = model_->Loss(slot.trips, &rng, &stats,
                                     /*training=*/true);
      // Loss is the mean over the shard's trips; seeding backward with
      // (shard size / batch size) makes the shard gradients sum exactly to
      // the batch-mean gradient.
      nn::Backward(loss, static_cast<float>(end - begin) /
                             static_cast<float>(bsz));
      slot.stats = stats;
    });

    // Deterministic reduction: ascending shard order throughout.
    shard_ptrs_.clear();
    for (int64_t s = 0; s < nshards; ++s) {
      shard_ptrs_.push_back(&slots_[static_cast<size_t>(s)]->grads);
    }
    nn::AccumulateShardGrads(model_->Parameters(), shard_ptrs_);
    LossStats total;
    for (int64_t s = 0; s < nshards; ++s) {
      const ShardSlot& slot = *slots_[static_cast<size_t>(s)];
      slot.bn_log.Apply();
      const double w = static_cast<double>(slot.trips.size()) /
                       static_cast<double>(bsz);
      total.total += slot.stats.total * w;
      total.route_ce += slot.stats.route_ce * w;
      total.dest_nll += slot.stats.dest_nll * w;
      total.kl_traffic += slot.stats.kl_traffic * w;
      total.kl_proxy += slot.stats.kl_proxy * w;
      total.num_transitions += slot.stats.num_transitions;
    }
    return total;
  }

  Trainer::ArenaCounters counters() const {
    Trainer::ArenaCounters c;
    for (const auto& slot : slots_) {
      c.buffer_misses += slot->arena.buffer_miss_count();
      c.node_growths += slot->arena.node_grow_count();
    }
    return c;
  }

 private:
  struct ShardSlot {
    nn::AutodiffArena arena;
    nn::GradShard grads;
    nn::ops::BnStatsLog bn_log;
    std::vector<const traj::Trip*> trips;
    LossStats stats;
  };

  DeepSTModel* model_;
  int shard_size_;
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  std::vector<const nn::GradShard*> shard_ptrs_;
};

Trainer::Trainer(DeepSTModel* model, const TrainerConfig& config)
    : model_(model), config_(config) {
  DEEPST_CHECK(model != nullptr);
}

Trainer::~Trainer() = default;

Trainer::ShardEngine* Trainer::engine() {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<ShardEngine>(model_, config_.micro_shard_size);
  }
  return engine_.get();
}

Trainer::ArenaCounters Trainer::arena_counters() const {
  return engine_ == nullptr ? ArenaCounters{} : engine_->counters();
}

LossStats Trainer::ComputeBatchGradients(
    const std::vector<const traj::Trip*>& batch, uint64_t batch_seed) {
  model_->ZeroGrad();
  if (config_.micro_shard_size > 0) {
    return engine()->RunBatch(batch, batch_seed);
  }
  util::Rng rng(batch_seed);
  LossStats stats;
  nn::VarPtr loss = model_->Loss(batch, &rng, &stats);
  nn::Backward(loss);
  return stats;
}

TrainResult Trainer::Fit(
    const std::vector<const traj::TripRecord*>& train,
    const std::vector<const traj::TripRecord*>& validation) {
  DEEPST_CHECK(!train.empty());
  // However Fit returns, no inference state derived from the weights it
  // found (packed weights, transition and posterior memos) may outlive it.
  struct RetireOnExit {
    DeepSTModel* model;
    ~RetireOnExit() { model->RetirePooledSessions(); }
  } retire_on_exit{model_};
  nn::ScopedBackendThreads scoped_threads(config_.num_threads);
  util::Rng rng(config_.seed);
  nn::Adam optimizer(model_->Parameters(), config_.learning_rate);

  // Sort/bucket once; epochs only permute the visit order below.
  const auto batches = MakeBatches(train, config_.batch_size);
  if (batches.empty()) {
    DEEPST_LOG(Warning)
        << "no trainable trips (every route has < 2 segments); skipping fit";
    return TrainResult{};
  }
  std::vector<size_t> batch_order(batches.size());
  const bool sharded = config_.micro_shard_size > 0;

  TrainResult result;
  util::Stopwatch total_watch;
  double best_val = std::numeric_limits<double>::infinity();
  int since_best = 0;
  int retries_used = 0;
  int epoch = 0;
  std::vector<nn::NamedTensor> best_params;
  std::vector<nn::NamedTensor> best_buffers;

  std::unique_ptr<CheckpointManager> ckpts;
  if (!config_.checkpoint_dir.empty()) {
    ckpts = std::make_unique<CheckpointManager>(config_.checkpoint_dir);
  }
  const int every = config_.checkpoint_every <= 0 ? 1 : config_.checkpoint_every;

  // Freezes the full training state as of the start of epoch `next_epoch`.
  // The same snapshot serves the on-disk checkpoints and the in-memory
  // divergence rollback.
  auto snapshot = [&](int next_epoch) {
    TrainingCheckpoint ckpt;
    ckpt.next_epoch = next_epoch;
    ckpt.best_epoch = result.best_epoch;
    ckpt.best_val = best_val;
    ckpt.since_best = since_best;
    ckpt.retries_used = retries_used;
    ckpt.rng = rng.GetState();
    ckpt.history = result.epochs;
    ckpt.optimizer = optimizer.ExportState();
    ckpt.params = nn::SnapshotParameters(*model_);
    ckpt.best_params = best_params;
    ckpt.buffers = nn::SnapshotBuffers(*model_);
    ckpt.best_buffers = best_buffers;
    return ckpt;
  };
  auto restore = [&](const TrainingCheckpoint& ckpt) -> util::Status {
    DEEPST_RETURN_IF_ERROR(nn::ApplyNamedTensors(model_, ckpt.params));
    DEEPST_RETURN_IF_ERROR(nn::ApplyNamedBuffers(model_, ckpt.buffers));
    DEEPST_RETURN_IF_ERROR(optimizer.ImportState(ckpt.optimizer));
    rng.SetState(ckpt.rng);
    result.epochs = ckpt.history;
    result.best_epoch = static_cast<int>(ckpt.best_epoch);
    best_val = ckpt.best_val;
    since_best = static_cast<int>(ckpt.since_best);
    retries_used = static_cast<int>(ckpt.retries_used);
    best_params = ckpt.best_params;
    best_buffers = ckpt.best_buffers;
    epoch = static_cast<int>(ckpt.next_epoch);
    return util::Status::Ok();
  };

  if (config_.resume && ckpts != nullptr) {
    std::string path;
    auto loaded = ckpts->LoadLatestGood(&path);
    if (loaded.ok()) {
      util::Status s = restore(loaded.value());
      if (!s.ok()) {
        // A checkpoint for a different model/optimizer: fail instead of
        // silently retraining from scratch over the operator's run.
        result.status = s;
        return result;
      }
      result.start_epoch = epoch;
      if (config_.verbose) {
        DEEPST_LOG(Info) << "resumed from " << path << " at epoch " << epoch;
      }
    } else if (config_.verbose) {
      DEEPST_LOG(Info) << "no usable checkpoint ("
                       << loaded.status().message()
                       << "); training from scratch";
    }
  }

  TrainingCheckpoint last_good = snapshot(epoch);

  bool stop_early = false;
  while (epoch < config_.max_epochs && !stop_early) {
    util::Stopwatch epoch_watch;
    // Shuffle the identity permutation each epoch: the rng draw count and
    // the resulting order match the old per-epoch MakeBatches rebuild
    // exactly (a fresh sorted list shuffled once), so training trajectories
    // and checkpoint resume stay bitwise identical — without re-sorting the
    // dataset every epoch.
    std::iota(batch_order.begin(), batch_order.end(), size_t{0});
    rng.Shuffle(&batch_order);
    double loss_sum = 0.0;
    double ce_sum = 0.0;
    int64_t transitions = 0;
    int64_t trips = 0;
    bool stop_signal = false;
    for (const size_t bi : batch_order) {
      if (config_.stop_requested && config_.stop_requested()) {
        stop_signal = true;
        break;
      }
      const auto& batch = batches[bi];
      optimizer.ZeroGrad();
      LossStats stats;
      if (sharded) {
        // One sequential draw per batch keeps the main stream's rng
        // bookkeeping identical for every thread count (and checkpoints
        // keep resuming it at epoch boundaries); the shards derive their
        // own sub-streams from it.
        const uint64_t batch_seed = rng.NextUint64();
        stats = engine()->RunBatch(batch, batch_seed);
      } else {
        nn::VarPtr loss = model_->Loss(batch, &rng, &stats);
        nn::Backward(loss);
      }
      optimizer.ClipGradNorm(config_.grad_clip);
      optimizer.Step();
      loss_sum += stats.total * static_cast<double>(batch.size());
      ce_sum += stats.route_ce * static_cast<double>(batch.size());
      transitions += stats.num_transitions;
      trips += static_cast<int64_t>(batch.size());
    }
    if (stop_signal) {
      // Graceful stop (SIGTERM/SIGINT): discard the partial epoch so the
      // flushed checkpoint is exactly the epoch-boundary state a resume
      // would continue from -- a restart replays the interrupted epoch from
      // its start, keeping the run bitwise identical to one that was never
      // interrupted.
      (void)restore(last_good);
      result.interrupted = true;
      if (ckpts != nullptr) {
        util::Status s = ckpts->WriteLatest(last_good);
        if (!s.ok()) {
          DEEPST_LOG(Warning) << "final checkpoint flush failed: "
                              << s.ToString();
        }
      }
      if (config_.verbose) {
        DEEPST_LOG(Info) << "stop requested; flushed checkpoint at epoch "
                            "boundary "
                         << epoch;
      }
      break;
    }
    const double train_seconds = epoch_watch.ElapsedSeconds();

    EpochStats es;
    es.epoch = epoch;
    es.train_loss = loss_sum / static_cast<double>(trips);
    // ce_sum accumulated per-trip route CE; renormalize per transition.
    es.train_route_ce =
        ce_sum / std::max<double>(1.0, static_cast<double>(transitions));
    es.transitions = transitions;
    es.transitions_per_sec =
        train_seconds > 0.0 ? static_cast<double>(transitions) / train_seconds
                            : 0.0;

    // Divergence guard: non-finite loss/params or a loss spike rolls the run
    // back to the last good epoch boundary and retries with a smaller step.
    double guard_loss = es.train_loss;
    if (config_.divergence_loss_hook) {
      guard_loss =
          config_.divergence_loss_hook(epoch, retries_used, es.train_loss);
    }
    const double prev_loss =
        result.epochs.empty() ? std::numeric_limits<double>::quiet_NaN()
                              : result.epochs.back().train_loss;
    bool diverged = !std::isfinite(guard_loss);
    if (!diverged && std::isfinite(prev_loss)) {
      diverged = guard_loss - prev_loss >
                 config_.divergence_spike_factor *
                     std::max(1.0, std::abs(prev_loss));
    }
    if (!diverged) diverged = !AllParamsFinite(*model_);
    if (diverged) {
      if (retries_used >= config_.divergence_max_retries) {
        (void)restore(last_good);
        result.status = util::Status::Internal(
            "training diverged at epoch " + std::to_string(es.epoch) +
            " after " + std::to_string(retries_used) +
            " rollback retries; model left at last good epoch boundary");
        DEEPST_LOG(Warning) << result.status.ToString();
        break;
      }
      const int retries_after = retries_used + 1;
      (void)restore(last_good);
      retries_used = retries_after;
      const float backed_off = optimizer.lr() * config_.divergence_lr_backoff;
      optimizer.set_lr(backed_off);
      // Future rollbacks must resurrect the reduced rate, not the original.
      last_good.retries_used = retries_after;
      last_good.optimizer.lr = backed_off;
      DEEPST_LOG(Warning) << "divergence at epoch " << es.epoch
                          << " (loss " << guard_loss
                          << "); rolled back, lr -> " << backed_off
                          << " (retry " << retries_after << "/"
                          << config_.divergence_max_retries << ")";
      continue;
    }

    es.val_route_ce =
        validation.empty() ? 0.0 : EvaluateRouteCe(validation);
    es.seconds = epoch_watch.ElapsedSeconds();
    result.epochs.push_back(es);
    if (config_.verbose) {
      DEEPST_LOG(Info) << "epoch " << epoch << " train_loss "
                       << es.train_loss << " train_ce/step "
                       << es.train_route_ce << " val_ce/step "
                       << es.val_route_ce << " (" << es.seconds << "s, "
                       << static_cast<int64_t>(es.transitions_per_sec)
                       << " transitions/s)";
    }

    const double val_metric =
        validation.empty() ? es.train_route_ce : es.val_route_ce;
    bool improved = false;
    if (val_metric < best_val - 1e-4) {
      best_val = val_metric;
      result.best_epoch = epoch;
      since_best = 0;
      best_params = nn::SnapshotParameters(*model_);
      best_buffers = nn::SnapshotBuffers(*model_);
      improved = true;
    } else if (++since_best >= config_.patience) {
      if (config_.verbose) {
        DEEPST_LOG(Info) << "early stopping at epoch " << epoch;
      }
      stop_early = true;
    }

    ++epoch;
    last_good = snapshot(epoch);
    if (ckpts != nullptr) {
      if (epoch % every == 0 || stop_early || epoch >= config_.max_epochs) {
        util::Status s = ckpts->WriteLatest(last_good);
        if (!s.ok()) {
          DEEPST_LOG(Warning) << "checkpoint write failed: " << s.ToString();
        }
      }
      if (improved) {
        util::Status s = ckpts->WriteBest(last_good);
        if (!s.ok()) {
          DEEPST_LOG(Warning) << "best-checkpoint write failed: "
                              << s.ToString();
        }
      }
    }
  }

  // Leave the model at the best-validation epoch's weights. Early stopping
  // runs `patience` epochs past the optimum, and even a full run rarely ends
  // on its best epoch, so returning the last epoch's weights (the old
  // behavior) silently shipped a worse model.
  if (!best_params.empty()) {
    (void)nn::ApplyNamedTensors(model_, best_params);
    (void)nn::ApplyNamedBuffers(model_, best_buffers);
  }
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

double Trainer::EvaluateRouteCe(
    const std::vector<const traj::TripRecord*>& data) {
  if (data.empty()) return 0.0;
  nn::ScopedBackendThreads scoped_threads(config_.num_threads);
  auto batches = MakeBatches(data, config_.batch_size);
  if (batches.empty()) return 0.0;
  // Batches are independent forward passes (MAP latents, batch-norm running
  // stats; the graph is built but never backwarded), so they fan out over the
  // backend. Each batch gets its own rng stream derived statelessly from its
  // index, so the draws -- and thus the CE -- are the same for every thread
  // count; under the default map_prediction config evaluation consumes no
  // randomness at all.
  const uint64_t eval_seed = config_.seed ^ 0xe4a1ULL;
  const int64_t nbatches = static_cast<int64_t>(batches.size());
  std::vector<double> ce(batches.size(), 0.0);
  std::vector<int64_t> transitions(batches.size(), 0);
  nn::GetBackend()->Run(nbatches, [&](int64_t i) {
    util::Rng rng(eval_seed ^
                  (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(i) + 1)));
    LossStats stats;
    nn::VarPtr loss = model_->Loss(batches[static_cast<size_t>(i)], &rng,
                                   &stats, /*training=*/false);
    (void)loss;
    ce[static_cast<size_t>(i)] =
        stats.route_ce * static_cast<double>(batches[static_cast<size_t>(i)].size());
    transitions[static_cast<size_t>(i)] = stats.num_transitions;
  });
  // Combine in batch order: the sum is independent of task scheduling.
  double ce_sum = 0.0;
  int64_t total_transitions = 0;
  for (int64_t i = 0; i < nbatches; ++i) {
    ce_sum += ce[static_cast<size_t>(i)];
    total_transitions += transitions[static_cast<size_t>(i)];
  }
  return ce_sum / std::max<double>(1.0, static_cast<double>(total_transitions));
}

}  // namespace core
}  // namespace deepst
