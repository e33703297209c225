#ifndef DEEPST_CORE_TRAINER_H_
#define DEEPST_CORE_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/deepst_model.h"
#include "nn/optimizer.h"
#include "traj/types.h"
#include "util/status.h"

namespace deepst {
namespace core {

// Training configuration (Algorithm 1 + the paper's Section V-A settings,
// scaled down).
struct TrainerConfig {
  int batch_size = 64;    // paper: 128
  int max_epochs = 35;    // paper: 15 (our scaled model needs more passes)
  float learning_rate = 3e-3f;
  float grad_clip = 10.0f;
  // Early stopping: stop after `patience` epochs without validation
  // improvement (paper uses early stopping on the validation set).
  int patience = 7;
  bool verbose = true;
  uint64_t seed = 99;
  // Compute threads for training, kernels and batch-parallel evaluation. 0
  // leaves the process-wide nn::Backend untouched; N >= 1 installs an
  // N-thread backend for the duration of the call (scoped: Fit/Evaluate
  // restore the previous backend on return; 1 = serial). Results are
  // bitwise identical for every value (see docs/parallelism.md).
  int num_threads = 0;
  // Data-parallel micro-sharding (docs/training-perf.md): each minibatch is
  // split into fixed shards of this many trips; shards run forward+backward
  // concurrently on the backend's workers — each with a deterministically
  // derived rng sub-stream and a private gradient sink — and are reduced in
  // ascending shard order, so trained parameters are bitwise identical for
  // every thread count. Shard graphs build inside recycling arenas, so the
  // epoch loop allocates nothing at steady state.
  //
  // Opt-in (0 = off, the single-graph tape per batch): sharding keeps every
  // thread count bitwise identical to every other, but it is a *different*
  // training trajectory than the unsharded one — latent draws come from
  // per-shard rng sub-streams and the traffic conv pipeline normalizes over
  // shard-local batch statistics — so it is not enabled behind anyone's
  // back. Enable together with num_threads for multi-core speedups
  // (16 pairs well with batch_size 64 on 4 cores).
  int micro_shard_size = 0;

  // --- Crash safety (docs/checkpointing.md) --------------------------------
  // Directory for the rotating latest/prev/best checkpoint files; empty
  // disables on-disk checkpointing (the in-memory divergence guard below
  // still runs).
  std::string checkpoint_dir;
  // Write a `latest` checkpoint every N completed epochs (plus always at the
  // end of training); <= 0 means every epoch.
  int checkpoint_every = 1;
  // Resume from the newest good checkpoint in checkpoint_dir; when none is
  // usable, trains from scratch. A resumed run continues the RNG stream,
  // optimizer moments, and early-stopping state, so it is bitwise identical
  // to an uninterrupted run with the same seed.
  bool resume = false;

  // --- Divergence guard ----------------------------------------------------
  // An epoch is diverged when its training loss is non-finite, any parameter
  // goes non-finite, or the loss jumps by more than
  // spike_factor * max(1, |previous epoch loss|). A diverged epoch is rolled
  // back to the last good state and retried with the learning rate scaled by
  // divergence_lr_backoff, at most divergence_max_retries times per run;
  // after that Fit restores the last good parameters and returns an error
  // status instead of corrupting the run.
  double divergence_spike_factor = 10.0;
  float divergence_lr_backoff = 0.5f;
  int divergence_max_retries = 3;
  // Test hook: maps (epoch, retries_used, observed loss) to the loss the
  // divergence guard sees. Used by tests to inject NaN; leave empty in
  // production.
  std::function<double(int, int, double)> divergence_loss_hook;

  // --- Graceful stop -------------------------------------------------------
  // Polled between minibatches. When it returns true, the partial epoch is
  // rolled back to the last epoch boundary (so the state on disk is exactly
  // what a crash-resume would continue from -- bitwise parity preserved), a
  // final `latest` checkpoint is flushed, and Fit returns with
  // TrainResult.interrupted set. `deepst train` wires this to the
  // SIGTERM/SIGINT flag (util/shutdown.h), sharing the serve daemon's
  // signal plumbing.
  std::function<bool()> stop_requested;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;      // mean per-trip loss
  double train_route_ce = 0.0;  // mean per-transition route CE
  double val_route_ce = 0.0;    // mean per-transition validation CE
  double seconds = 0.0;         // wall-clock for the epoch (incl. validation)
  int64_t transitions = 0;      // route transitions trained on this epoch
  // Training throughput: transitions / training wall-clock (the batch loop
  // only, excluding validation).
  double transitions_per_sec = 0.0;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double total_seconds = 0.0;
  int best_epoch = 0;
  // First epoch this Fit call actually executed (> 0 after a resume; the
  // earlier entries of `epochs` come from the checkpoint history).
  int start_epoch = 0;
  // Non-OK when training had to stop (e.g. the divergence retry budget was
  // exhausted). The model then holds the last good / best parameters, never
  // non-finite ones.
  util::Status status;
  // True when config.stop_requested ended the run early (a final checkpoint
  // was flushed; resume continues from the last completed epoch).
  bool interrupted = false;
};

// Minibatch SGD driver for DeepSTModel (Algorithm 1). Trips are bucketed by
// route length to limit padding waste (once, up front), and batch order is
// shuffled per epoch. After Fit returns, the model holds the parameters of
// the best-validation epoch (not the last epoch's), and its next prediction
// rebuilds every piece of inference state from them (Fit ends with
// DeepSTModel::RetirePooledSessions).
class Trainer {
 public:
  Trainer(DeepSTModel* model, const TrainerConfig& config);
  ~Trainer();

  TrainResult Fit(const std::vector<const traj::TripRecord*>& train,
                  const std::vector<const traj::TripRecord*>& validation);

  // Mean per-transition route cross-entropy on a dataset (no grad).
  double EvaluateRouteCe(const std::vector<const traj::TripRecord*>& data);

  // Test/diagnostic hook: zeroes the model's gradients, then accumulates the
  // gradients of one batch — through the sharded engine when
  // config.micro_shard_size > 0, else through the legacy single-graph tape
  // with util::Rng(batch_seed). No optimizer step. Returns the batch's loss
  // stats.
  LossStats ComputeBatchGradients(const std::vector<const traj::Trip*>& batch,
                                  uint64_t batch_seed);

  // Steady-state allocation telemetry of the sharded engine, summed over its
  // shard slots (zero while no sharded batch ran yet). Counters that stay
  // flat across further batches/epochs mean the autodiff arenas reached the
  // zero-allocation steady state (docs/training-perf.md).
  struct ArenaCounters {
    int64_t buffer_misses = 0;
    int64_t node_growths = 0;
  };
  ArenaCounters arena_counters() const;

 private:
  class ShardEngine;
  ShardEngine* engine();  // lazily constructed sharded-training engine

  DeepSTModel* model_;
  TrainerConfig config_;
  std::unique_ptr<ShardEngine> engine_;
};

}  // namespace core
}  // namespace deepst

#endif  // DEEPST_CORE_TRAINER_H_
