// Prepare step, worlds: generates the two cities and their datasets and
// trains the served weights. Deterministic in its inputs; run.py caches the
// outputs under a key derived from src/, this file, common.h and the build
// file.
#include <algorithm>
#include <cstdio>

#include "baselines/neural_router.h"
#include "common.h"
#include "core/trainer.h"
#include "eval/world.h"
#include "nn/serialize.h"
#include "roadnet/io.h"
#include "traj/io.h"

namespace perfbench {

util::StatusOr<WorldSpec> WorldByName(const std::string& name) {
  WorldSpec w;
  w.name = name;
  if (name == "mini") {
    const eval::WorldConfig cfg = eval::ChengduMiniWorld();
    w.train_days = cfg.train_days;
    w.val_days = cfg.val_days;
    w.traffic_cell_m = cfg.traffic_cell_m;
    w.train_epochs = 35;
  } else if (name == "full") {
    const eval::WorldConfig cfg = eval::ChengduFullWorld();
    w.train_days = cfg.train_days;
    w.val_days = cfg.val_days;
    w.traffic_cell_m = cfg.traffic_cell_m;
    w.train_epochs = 35;
  } else {
    return util::Status::InvalidArgument("unknown world '" + name + "'");
  }
  return w;
}

core::DeepSTConfig ServedModelConfig(int num_segments) {
  core::DeepSTConfig base;
  base.num_proxies = std::max(16, num_segments / 6);
  return baselines::DeepStConfigOf(base);
}

util::Status PrepareWorld(const WorldSpec& spec, const std::string& out_dir,
                          int threads) {
  const eval::WorldConfig cfg = spec.name == "full"
                                    ? eval::ChengduFullWorld()
                                    : eval::ChengduMiniWorld();
  eval::World world(cfg);
  DEEPST_RETURN_IF_ERROR(roadnet::SaveRoadNetworkV3(
      world.net(), CityPath(out_dir), &world.index()));
  DEEPST_RETURN_IF_ERROR(
      traj::SaveDatasetV3(world.records(), DatasetPath(out_dir)));

  core::DeepSTModel model(world.net(),
                          ServedModelConfig(world.net().num_segments()),
                          world.traffic_cache());
  core::TrainerConfig tcfg;
  tcfg.max_epochs = spec.train_epochs;
  tcfg.num_threads = threads;
  tcfg.micro_shard_size = 16;
  tcfg.verbose = false;
  core::Trainer trainer(&model, tcfg);
  const core::TrainResult result =
      trainer.Fit(world.split().train, world.split().validation);
  DEEPST_RETURN_IF_ERROR(result.status);
  std::fprintf(stderr,
               "prepared world %s: %d segments, %zu trips, trained %zu "
               "epochs in %.1f s\n",
               spec.name.c_str(), world.net().num_segments(),
               world.records().size(), result.epochs.size(),
               result.total_seconds);
  return nn::SaveParameters(model, ModelPath(out_dir));
}

}  // namespace perfbench
