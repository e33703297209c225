#include "core/trainer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/neural_router.h"
#include "eval/world.h"
#include "nn/serialize.h"
#include "traj/segment_stats.h"

namespace deepst {
namespace core {
namespace {

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "trainer-test-world";
    cfg.city.rows = 7;
    cfg.city.cols = 7;
    cfg.generator.num_days = 4;
    cfg.generator.max_route_m = 6000.0;
    cfg.train_days = 2;
    cfg.val_days = 1;
    return new eval::World(cfg);
  }();
  return *world;
}

DeepSTConfig TinyConfig() {
  DeepSTConfig cfg;
  cfg.gru_hidden = 16;
  cfg.gru_layers = 1;
  cfg.segment_embedding_dim = 8;
  cfg.dest_dim = 8;
  cfg.num_proxies = 8;
  cfg.mlp_hidden = 16;
  cfg.use_traffic = false;
  return cfg;
}

TEST(TrainerTest, EpochStatsPopulated) {
  auto& world = TestWorld();
  DeepSTModel model(world.net(), TinyConfig(), nullptr);
  TrainerConfig tcfg;
  tcfg.max_epochs = 2;
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  auto result = trainer.Fit(world.split().train, world.split().validation);
  ASSERT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) {
    EXPECT_GT(e.train_loss, -1e6);
    EXPECT_GT(e.train_route_ce, 0.0);
    EXPECT_GT(e.val_route_ce, 0.0);
    EXPECT_GT(e.seconds, 0.0);
  }
  EXPECT_GE(result.total_seconds,
            result.epochs[0].seconds + result.epochs[1].seconds - 0.5);
}

TEST(TrainerTest, EarlyStoppingTriggers) {
  // With patience 1 and a huge learning rate the validation CE cannot keep
  // improving for many epochs; training must stop before max_epochs.
  auto& world = TestWorld();
  DeepSTModel model(world.net(), TinyConfig(), nullptr);
  TrainerConfig tcfg;
  tcfg.max_epochs = 30;
  tcfg.patience = 1;
  tcfg.learning_rate = 0.5f;  // destabilizes on purpose
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  auto result = trainer.Fit(world.split().train, world.split().validation);
  EXPECT_LT(result.epochs.size(), 30u);
}

TEST(TrainerTest, BestEpochTracksValidation) {
  auto& world = TestWorld();
  DeepSTModel model(world.net(), TinyConfig(), nullptr);
  TrainerConfig tcfg;
  tcfg.max_epochs = 4;
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  auto result = trainer.Fit(world.split().train, world.split().validation);
  ASSERT_FALSE(result.epochs.empty());
  EXPECT_GE(result.best_epoch, 0);
  EXPECT_LT(result.best_epoch, static_cast<int>(result.epochs.size()));
  // best_epoch's validation CE is the minimum seen.
  double best = 1e18;
  for (const auto& e : result.epochs) best = std::min(best, e.val_route_ce);
  EXPECT_NEAR(result.epochs[static_cast<size_t>(result.best_epoch)]
                  .val_route_ce,
              best, 1e-9);
}

TEST(TrainerTest, FitRestoresBestEpochWeights) {
  // Regression: Fit used to return with the *last* epoch's weights even when
  // an earlier epoch won on validation (early stopping runs `patience`
  // epochs past the optimum by construction). The model must come back at
  // the best epoch: its post-Fit validation CE equals the recorded best
  // epoch's, not the final epoch's.
  auto& world = TestWorld();
  DeepSTModel model(world.net(), TinyConfig(), nullptr);
  TrainerConfig tcfg;
  tcfg.max_epochs = 12;
  tcfg.patience = 2;
  tcfg.learning_rate = 0.05f;  // overshoots, so late epochs get worse
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  auto result = trainer.Fit(world.split().train, world.split().validation);
  ASSERT_FALSE(result.epochs.empty());
  const double post_fit_ce = trainer.EvaluateRouteCe(world.split().validation);
  const auto& best = result.epochs[static_cast<size_t>(result.best_epoch)];
  EXPECT_DOUBLE_EQ(post_fit_ce, best.val_route_ce);
}

TEST(TrainerTest, FitLeavesNoStaleInferenceState) {
  // Regression: a model that predicted before Fit kept the inference state
  // derived from its old weights (packed GEMV weights, transition and
  // traffic-posterior memos) after training changed them. After Fit, it
  // must answer exactly like a fresh model loaded from the trained weights.
  auto& world = TestWorld();
  DeepSTConfig cfg = TinyConfig();
  cfg.use_traffic = true;
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  struct Answers {
    std::vector<traj::Route> routes;
    std::vector<double> scores;
  };
  auto answer = [&world](DeepSTModel* m) {
    Answers out;
    for (const auto* rec : world.split().test) {
      if (out.routes.size() == 6) break;
      const RouteQuery query = eval::QueryFor(rec->trip);
      util::Rng rng(3);
      const PredictionContext ctx = m->MakeContext(query, &rng);
      out.routes.push_back(m->PredictRoute(ctx, query.origin, &rng));
      out.scores.push_back(m->ScoreRoute(ctx, rec->trip.route));
    }
    return out;
  };
  const Answers before = answer(&model);
  TrainerConfig tcfg;
  tcfg.max_epochs = 1;
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  ASSERT_TRUE(
      trainer.Fit(world.split().train, world.split().validation).status.ok());
  const Answers after = answer(&model);

  auto fresh = DeepSTModel::LoadFromParams(world.net(), cfg,
                                           world.traffic_cache(),
                                           nn::SnapshotParameters(model));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(
      nn::ApplyNamedBuffers(fresh.value().get(), nn::SnapshotBuffers(model))
          .ok());
  const Answers expected = answer(fresh.value().get());
  EXPECT_NE(after.scores, before.scores) << "training changed nothing";
  EXPECT_EQ(after.routes, expected.routes);
  EXPECT_EQ(after.scores, expected.scores);
}

TEST(TrainerTest, EvaluateRouteCeDeterministic) {
  auto& world = TestWorld();
  DeepSTModel model(world.net(), TinyConfig(), nullptr);
  TrainerConfig tcfg;
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  const double a = trainer.EvaluateRouteCe(world.split().validation);
  const double b = trainer.EvaluateRouteCe(world.split().validation);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(trainer.EvaluateRouteCe({}), 0.0);
}

TEST(TrainerTest, AllTripsTooShortYieldsEmptyFit) {
  // Single-segment routes carry no transition, so every batch candidate is
  // filtered out and Fit must return cleanly instead of dividing by zero.
  auto& world = TestWorld();
  DeepSTModel model(world.net(), TinyConfig(), nullptr);
  TrainerConfig tcfg;
  tcfg.max_epochs = 3;
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  traj::TripRecord rec;
  rec.trip.route = {0};
  rec.trip.destination = world.net().SegmentEnd(0);
  std::vector<const traj::TripRecord*> data = {&rec, &rec, &rec};
  auto result = trainer.Fit(data, {});
  EXPECT_TRUE(result.epochs.empty());
  EXPECT_EQ(result.best_epoch, 0);
  EXPECT_DOUBLE_EQ(trainer.EvaluateRouteCe(data), 0.0);
}

TEST(TrainerTest, BatchSizeLargerThanDataset) {
  // One epoch with a batch size exceeding the dataset: exactly one batch
  // containing every eligible trip, finite stats.
  auto& world = TestWorld();
  DeepSTModel model(world.net(), TinyConfig(), nullptr);
  TrainerConfig tcfg;
  tcfg.max_epochs = 1;
  tcfg.batch_size = 1000000;
  tcfg.verbose = false;
  Trainer trainer(&model, tcfg);
  auto result = trainer.Fit(world.split().train, world.split().validation);
  ASSERT_EQ(result.epochs.size(), 1u);
  EXPECT_TRUE(std::isfinite(result.epochs[0].train_loss));
  EXPECT_GT(result.epochs[0].train_route_ce, 0.0);
  EXPECT_GT(result.epochs[0].val_route_ce, 0.0);
}

TEST(SegmentStatsTest, ObservedAndFallback) {
  auto& world = TestWorld();
  const auto& stats = world.segment_stats();
  EXPECT_GT(stats.num_observed_segments(), 10);
  int observed = 0;
  for (roadnet::SegmentId s = 0; s < world.net().num_segments(); ++s) {
    EXPECT_GT(stats.MeanTime(s), 0.0);
    EXPECT_GT(stats.TimeVariance(s), 0.0);
    if (stats.stats(s).num_observations > 0) {
      ++observed;
      EXPECT_GT(stats.stats(s).mean_speed_mps, 0.0);
      // Observed mean speed cannot exceed 1.1x the speed limit (simulator
      // jitter bound).
      EXPECT_LE(stats.stats(s).mean_speed_mps,
                world.net().segment(s).speed_limit_mps * 1.15);
    } else {
      // Fallback equals free flow.
      EXPECT_DOUBLE_EQ(stats.MeanTime(s), world.net().FreeFlowTime(s));
    }
  }
  EXPECT_EQ(observed, stats.num_observed_segments());
}

TEST(SegmentStatsTest, RouteAggregatesAreSums) {
  auto& world = TestWorld();
  const auto& stats = world.segment_stats();
  const auto& route = world.split().test.front()->trip.route;
  double mean = 0.0, var = 0.0;
  for (auto s : route) {
    mean += stats.MeanTime(s);
    var += stats.TimeVariance(s);
  }
  EXPECT_DOUBLE_EQ(stats.RouteMeanTime(route), mean);
  EXPECT_DOUBLE_EQ(stats.RouteTimeVariance(route), var);
}

TEST(CheckDeathTest, ShapeMismatchAborts) {
  nn::Tensor a = nn::Tensor::Zeros({2, 2});
  nn::Tensor b = nn::Tensor::Zeros({3});
  EXPECT_DEATH(a.AddInPlace(b), "DEEPST_CHECK failed");
}

}  // namespace
}  // namespace core
}  // namespace deepst
