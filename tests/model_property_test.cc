// Parameterized sweeps over model configurations and map-matching noise
// levels: every configuration must produce finite losses, valid routes and
// usable matches -- the "does not crash / does not emit garbage" contract a
// downstream user relies on when exploring configs.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <type_traits>

#include "core/deepst_model.h"
#include "core/trainer.h"
#include "eval/world.h"
#include "mapmatch/hmm_matcher.h"

namespace deepst {
namespace {

eval::World& SweepWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "sweep-test-world";
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

// -- Model config sweep ---------------------------------------------------------

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no implicit padding: an uninitialised padding byte would make the
// test names change from run to run. `pad` fills that byte and stays false.
struct ModelCase {
  core::DestinationMode dest_mode;
  bool use_traffic;
  bool mask_slots;
  bool length_scaled;
  bool pad;
  int beam;
};
static_assert(std::has_unique_object_representations_v<ModelCase>);

class ModelConfigSweep : public testing::TestWithParam<ModelCase> {};

TEST_P(ModelConfigSweep, LossAndPredictionWellFormed) {
  const ModelCase param = GetParam();
  auto& world = SweepWorld();
  core::DeepSTConfig cfg;
  cfg.gru_hidden = 16;
  cfg.gru_layers = 1;
  cfg.segment_embedding_dim = 8;
  cfg.dest_dim = 8;
  cfg.traffic_dim = 6;
  cfg.num_proxies = 8;
  cfg.cnn_channels = 6;
  cfg.mlp_hidden = 16;
  cfg.destination_mode = param.dest_mode;
  cfg.use_traffic = param.use_traffic;
  cfg.mask_invalid_slots = param.mask_slots;
  cfg.dest_loss_length_scaled = param.length_scaled;
  cfg.beam_width = param.beam;
  core::DeepSTModel model(world.net(), cfg,
                          param.use_traffic ? world.traffic_cache()
                                            : nullptr);

  std::vector<const traj::Trip*> batch;
  for (const auto* rec : world.split().train) {
    if (batch.size() >= 6) break;
    batch.push_back(&rec->trip);
  }
  util::Rng rng(9);
  core::LossStats stats;
  nn::VarPtr loss = model.Loss(batch, &rng, &stats);
  EXPECT_TRUE(std::isfinite(stats.total));
  nn::Backward(loss);

  const auto* rec = world.split().test.front();
  auto route = model.PredictRoute(eval::QueryFor(rec->trip), &rng);
  EXPECT_TRUE(world.net().ValidateRoute(route).ok());
  EXPECT_EQ(route.front(), rec->trip.origin_segment());
  // Loopless decoding.
  std::set<roadnet::SegmentId> unique(route.begin(), route.end());
  EXPECT_EQ(unique.size(), route.size());
  // Scoring is finite for the ground truth.
  EXPECT_TRUE(std::isfinite(
      model.ScoreRoute(eval::QueryFor(rec->trip), rec->trip.route, &rng)));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModelConfigSweep,
    testing::Values(
        ModelCase{core::DestinationMode::kProxies, true, false, true, false,
                  4},
        ModelCase{core::DestinationMode::kProxies, false, false, true, false,
                  1},
        ModelCase{core::DestinationMode::kProxies, true, true, false, false,
                  2},
        ModelCase{core::DestinationMode::kFinalSegment, false, false, true,
                  false, 4},
        ModelCase{core::DestinationMode::kFinalSegment, true, false, false,
                  false, 1},
        ModelCase{core::DestinationMode::kNone, false, false, true, false, 4},
        ModelCase{core::DestinationMode::kNone, true, true, true, false, 2}));

// -- Map matching noise sweep -----------------------------------------------------

struct MatchCase {
  double extra_noise_m;
  double interval_s;
  double min_recall;
};

class MatcherNoiseSweep : public testing::TestWithParam<MatchCase> {};

TEST_P(MatcherNoiseSweep, RecallDegradesGracefully) {
  const MatchCase param = GetParam();
  auto& world = SweepWorld();
  mapmatch::MatcherConfig mcfg;
  mcfg.sigma_gps_m = std::max(20.0, param.extra_noise_m);
  mcfg.candidate_radius_m = 150.0 + 2 * param.extra_noise_m;
  mapmatch::HmmMapMatcher matcher(world.net(), world.index(), mcfg);
  util::Rng rng(31);
  double recall_sum = 0.0;
  int n = 0;
  for (const auto* rec : world.split().test) {
    if (n >= 10) break;
    traj::GpsTrajectory gps =
        traj::DownsampleByInterval(rec->gps, param.interval_s);
    if (gps.size() < 2) continue;
    for (auto& p : gps) {
      p.pos = p.pos + geo::Point{rng.Gaussian(0, param.extra_noise_m),
                                 rng.Gaussian(0, param.extra_noise_m)};
    }
    auto result = matcher.Match(gps);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(world.net().ValidateRoute(result.value().route).ok());
    std::set<roadnet::SegmentId> truth(rec->trip.route.begin(),
                                       rec->trip.route.end());
    std::set<roadnet::SegmentId> got(result.value().route.begin(),
                                     result.value().route.end());
    int common = 0;
    for (auto s : truth) {
      if (got.count(s)) ++common;
    }
    recall_sum += static_cast<double>(common) /
                  static_cast<double>(truth.size());
    ++n;
  }
  ASSERT_GE(n, 5);
  EXPECT_GE(recall_sum / n, param.min_recall);
}

INSTANTIATE_TEST_SUITE_P(
    NoiseLevels, MatcherNoiseSweep,
    testing::Values(MatchCase{0.0, 15.0, 0.85}, MatchCase{15.0, 15.0, 0.7},
                    MatchCase{0.0, 60.0, 0.7}, MatchCase{30.0, 60.0, 0.45},
                    MatchCase{0.0, 180.0, 0.5}));

}  // namespace
}  // namespace deepst
