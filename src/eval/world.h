#ifndef DEEPST_EVAL_WORLD_H_
#define DEEPST_EVAL_WORLD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "eval/metrics.h"
#include "nn/backend.h"
#include "roadnet/grid_city.h"
#include "roadnet/spatial_index.h"
#include "traffic/congestion_field.h"
#include "traffic/snapshot.h"
#include "traj/dataset.h"
#include "traj/generator.h"
#include "traj/segment_stats.h"

namespace deepst {
namespace eval {

// Everything an experiment needs: a synthetic city, its traffic, a multi-day
// trip dataset with temporal splits, the shared per-slot traffic tensors and
// historical segment statistics. Substitutes for the paper's
// Chengdu/Harbin data pipelines (DESIGN.md).
struct WorldConfig {
  std::string name = "city";
  roadnet::GridCityConfig city;
  // When set, the network comes from the full-scale generator
  // (BuildChengduFull) and `city` is ignored.
  std::optional<roadnet::ChengduFullConfig> full_city;
  traffic::CongestionConfig traffic;
  traj::GeneratorConfig generator;
  int train_days = 6;
  int val_days = 2;
  double traffic_cell_m = 350.0;
  double slot_seconds = 1200.0;    // 20 min (paper V-A)
  double window_seconds = 1800.0;  // delta = 30 min (paper V-A)
};

// Scaled-down analogues of the paper's two datasets. `scale` in (0, 1]
// shrinks trip counts (for quick tests / DEEPST_FAST runs).
WorldConfig ChengduMiniWorld(double scale = 1.0);
WorldConfig HarbinMiniWorld(double scale = 1.0);

// Full-scale city (> 100k segments; see ChengduFullCityConfig). Trip counts
// stay modest by default -- the point of this world is the network scale,
// which exercises the mmap v3 format and the spatial index at scale.
// Constructing the World still generates trips over the whole city; for
// network-only workloads build the city directly via BuildChengduFull.
WorldConfig ChengduFullWorld(double scale = 1.0);

// Reads the DEEPST_FAST env var; when set benches shrink their workloads.
bool FastMode();

class World {
 public:
  explicit World(const WorldConfig& config);

  const WorldConfig& config() const { return config_; }
  const roadnet::RoadNetwork& net() const { return *net_; }
  const roadnet::SpatialIndex& index() const { return *index_; }
  const traffic::CongestionField& field() const { return *field_; }
  const std::vector<traj::TripRecord>& records() const { return records_; }
  const traj::DatasetSplit& split() const { return split_; }
  traffic::TrafficTensorCache* traffic_cache() { return cache_.get(); }
  const traj::SegmentStatsTable& segment_stats() const { return *stats_; }

 private:
  WorldConfig config_;
  std::unique_ptr<roadnet::RoadNetwork> net_;
  std::unique_ptr<roadnet::SpatialIndex> index_;
  std::unique_ptr<traffic::CongestionField> field_;
  std::vector<traj::TripRecord> records_;
  traj::DatasetSplit split_;
  std::unique_ptr<traffic::TrafficTensorCache> cache_;
  std::unique_ptr<traj::SegmentStatsTable> stats_;
};

// Builds + trains one DeepST-family model on the world's training split.
std::unique_ptr<core::DeepSTModel> TrainModel(
    World* world, const core::DeepSTConfig& model_config,
    const core::TrainerConfig& trainer_config,
    core::TrainResult* result = nullptr);

// Default model/trainer configs sized for the mini worlds.
core::DeepSTConfig DefaultModelConfig(const World& world);
core::TrainerConfig DefaultTrainerConfig();

// Builds the standard query for predicting a test trip's route.
core::RouteQuery QueryFor(const traj::Trip& trip);

// Evaluates a prediction function over (at most `max_trips` of) the test
// split; `predict` maps a query to a route.
struct EvalResult {
  double recall_at_n = 0.0;
  double accuracy = 0.0;
  int num_trips = 0;
  // Per-distance-bucket accuracy (Fig. 7); -1 for empty buckets.
  std::vector<double> bucket_accuracy;
  std::vector<int> bucket_counts;
};

// Test-split trips with a scorable route (>= 2 segments), capped at
// `max_trips`, in split order.
std::vector<const traj::TripRecord*> EligibleTestTrips(const World& world,
                                                       int max_trips);

// Folds per-trip predictions into metrics, in trip order (so the result is
// independent of how the predictions were scheduled).
EvalResult AccumulateEval(const World& world,
                          const std::vector<const traj::TripRecord*>& trips,
                          const std::vector<traj::Route>& predicted);

// Sequential evaluation. `predict` maps a query to a route and may carry
// mutable state (it is called once per eligible trip, in split order).
template <typename PredictFn>
EvalResult EvaluatePrediction(const World& world, PredictFn&& predict,
                              int max_trips) {
  const auto trips = EligibleTestTrips(world, max_trips);
  std::vector<traj::Route> predicted(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    predicted[i] = predict(QueryFor(trips[i]->trip));
  }
  return AccumulateEval(world, trips, predicted);
}

// Parallel evaluation over the global nn::Backend. `predict` is called as
// predict(query, &rng) from concurrent tasks, so it must be stateless apart
// from the rng; each trip's rng stream is derived from (seed, trip index)
// alone, making the result identical for every thread count. Metrics are
// accumulated in trip order after all predictions complete.
template <typename PredictFn>
EvalResult EvaluatePredictionParallel(const World& world, PredictFn&& predict,
                                      int max_trips, uint64_t seed) {
  const auto trips = EligibleTestTrips(world, max_trips);
  std::vector<traj::Route> predicted(trips.size());
  nn::GetBackend()->Run(static_cast<int64_t>(trips.size()), [&](int64_t i) {
    util::Rng rng(seed ^
                  (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(i) + 1)));
    predicted[static_cast<size_t>(i)] =
        predict(QueryFor(trips[static_cast<size_t>(i)]->trip), &rng);
  });
  return AccumulateEval(world, trips, predicted);
}

}  // namespace eval
}  // namespace deepst

#endif  // DEEPST_EVAL_WORLD_H_
