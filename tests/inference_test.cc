// Coverage of the graph-free inference engine (core/infer): parity with the
// autodiff reference path across every ablation config, beam/greedy
// equivalence, bitwise thread-count invariance, batched-vs-individual
// scoring identity, the zero-allocation steady state, concurrent use of
// the model's session pool, and MakeContext's graph-free proxy term against
// the autodiff composition.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "baselines/neural_router.h"
#include "core/deepst_model.h"
#include "core/infer/session.h"
#include "core/route_ranking.h"
#include "eval/world.h"
#include "nn/backend.h"
#include "nn/infer/forward.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "nn/variable.h"
#include "roadnet/grid_city.h"

namespace deepst {
namespace core {
namespace {

// Fast-path scores accumulate up to ~100 transition terms, each within
// ~1e-7 of the reference (4-lane vs sequential accumulation), so 1e-5
// bounds the end-to-end deviation comfortably.
constexpr double kParityTol = 1e-5;

struct BackendGuard {
  ~BackendGuard() { nn::SetBackendThreads(1); }
};

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "inference-test-world";
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

DeepSTConfig SmallConfig() {
  DeepSTConfig cfg;
  cfg.segment_embedding_dim = 12;
  cfg.gru_hidden = 24;
  cfg.gru_layers = 2;
  cfg.dest_dim = 12;
  cfg.traffic_dim = 8;
  cfg.num_proxies = 8;
  cfg.cnn_channels = 6;
  cfg.mlp_hidden = 24;
  return cfg;
}

// The four paper methods as ablation configs of the shared base.
std::vector<std::pair<std::string, DeepSTConfig>> AblationConfigs() {
  const DeepSTConfig base = SmallConfig();
  return {{"deepst", baselines::DeepStConfigOf(base)},
          {"deepst-c", baselines::DeepStCConfigOf(base)},
          {"cssrnn", baselines::CssrnnConfigOf(base)},
          {"rnn", baselines::RnnConfigOf(base)}};
}

traffic::TrafficTensorCache* CacheFor(const DeepSTConfig& cfg) {
  return cfg.use_traffic ? TestWorld().traffic_cache() : nullptr;
}

std::vector<const traj::TripRecord*> TestTrips(int n) {
  std::vector<const traj::TripRecord*> out;
  for (const auto* rec : TestWorld().split().test) {
    if (static_cast<int>(out.size()) >= n) break;
    if (rec->trip.route.size() >= 3) out.push_back(rec);
  }
  return out;
}

// The single-query beam: a one-item PredictRoutesBeamMulti.
traj::Route BeamRoute(DeepSTModel& model, const PredictionContext& ctx,
                      roadnet::SegmentId origin, util::Rng* rng) {
  std::vector<PredictItem> one(1);
  one[0].ctx = &ctx;
  one[0].origin = origin;
  model.PredictRoutesBeamMulti(&one, rng);
  return std::move(one[0].route);
}

TEST(NoGradGuardTest, DisablesAndRestoresTapeRecording) {
  EXPECT_TRUE(nn::GradEnabled());
  {
    nn::NoGradGuard outer;
    EXPECT_FALSE(nn::GradEnabled());
    {
      nn::NoGradGuard inner;
      EXPECT_FALSE(nn::GradEnabled());
    }
    EXPECT_FALSE(nn::GradEnabled());
  }
  EXPECT_TRUE(nn::GradEnabled());
}

TEST(InferenceParityTest, ScoresMatchReferenceAcrossAblations) {
  auto& world = TestWorld();
  const auto trips = TestTrips(6);
  ASSERT_GE(trips.size(), 3u);
  for (const auto& [name, cfg] : AblationConfigs()) {
    DeepSTModel model(world.net(), cfg, CacheFor(cfg));
    util::Rng rng(21);
    for (const auto* rec : trips) {
      RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx = model.MakeContext(query, &rng);
      const double fast = model.ScoreRoute(ctx, rec->trip.route);
      const double ref = model.ScoreRouteReference(ctx, rec->trip.route);
      EXPECT_TRUE(std::isfinite(fast)) << name;
      EXPECT_NEAR(fast, ref, kParityTol) << name;
      // Continuation scoring: split the route into prefix + gap candidate.
      const traj::Route& route = rec->trip.route;
      const size_t cut = route.size() / 2;
      traj::Route prefix(route.begin(), route.begin() + cut + 1);
      traj::Route cont(route.begin() + cut, route.end());
      EXPECT_NEAR(model.ScoreContinuation(ctx, prefix, cont),
                  model.ScoreContinuationReference(ctx, prefix, cont),
                  kParityTol)
          << name;
    }
  }
}

TEST(InferenceParityTest, PredictedRoutesMatchReferenceAcrossAblations) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  for (const auto& [name, cfg] : AblationConfigs()) {
    DeepSTModel model(world.net(), cfg, CacheFor(cfg));
    util::Rng rng(22);
    for (const auto* rec : trips) {
      RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx = model.MakeContext(query, &rng);
      util::Rng rng_fast(7), rng_ref(7);
      const traj::Route fast = model.PredictRoute(ctx, query.origin, &rng_fast);
      const traj::Route ref =
          model.PredictRouteReference(ctx, query.origin, &rng_ref);
      EXPECT_EQ(fast, ref) << name;
    }
  }
}

bool SameRngState(const util::Rng& a, const util::Rng& b) {
  const util::Rng::State x = a.GetState();
  const util::Rng::State y = b.GetState();
  return std::memcmp(x.s, y.s, sizeof(x.s)) == 0 &&
         x.has_cached_gaussian == y.has_cached_gaussian &&
         (x.has_cached_gaussian == 0 || x.cached_gaussian == y.cached_gaussian);
}

// The configurations whose generation draws from the rng (sampled slots,
// sampled stops) plus the width-1 beam: from equal seeds the fast path makes
// the reference's draws in the reference's order, so routes and the rng's
// end state both match. The batched entry point must make the same draws as
// one one-item call per item on the shared rng.
TEST(InferenceParityTest, RngDrawingConfigsMatchReference) {
  auto& world = TestWorld();
  const auto trips = TestTrips(3);
  ASSERT_EQ(trips.size(), 3u);
  struct Variant {
    const char* name;
    bool map_prediction;
    bool sample_stop;
    int beam_width;
  };
  const Variant variants[] = {{"sampled-slots", false, false, 4},
                              {"sampled-stop", true, true, 4},
                              {"sampled-both", false, true, 4},
                              {"width-1", true, false, 1}};
  for (const auto& [name, base] : AblationConfigs()) {
    for (const Variant& v : variants) {
      DeepSTConfig cfg = base;
      cfg.map_prediction = v.map_prediction;
      cfg.sample_stop = v.sample_stop;
      cfg.beam_width = v.beam_width;
      const std::string label = name + "/" + v.name;
      DeepSTModel model(world.net(), cfg, CacheFor(cfg));
      util::Rng ctx_rng(23);
      std::vector<PredictionContext> ctxs;
      std::vector<roadnet::SegmentId> origins;
      for (const auto* rec : trips) {
        const RouteQuery query = eval::QueryFor(rec->trip);
        ctxs.push_back(model.MakeContext(query, &ctx_rng));
        origins.push_back(query.origin);
      }
      util::Rng seq_rng(11);
      std::vector<traj::Route> sequential;
      for (size_t i = 0; i < trips.size(); ++i) {
        util::Rng fast_rng(5 + i), ref_rng(5 + i);
        EXPECT_EQ(model.PredictRoute(ctxs[i], origins[i], &fast_rng),
                  model.PredictRouteReference(ctxs[i], origins[i], &ref_rng))
            << label << " trip " << i;
        EXPECT_TRUE(SameRngState(fast_rng, ref_rng)) << label << " trip " << i;
        util::Rng beam_rng(17 + i), beam_ref_rng(17 + i);
        EXPECT_EQ(
            BeamRoute(model, ctxs[i], origins[i], &beam_rng),
            model.PredictRouteBeamReference(ctxs[i], origins[i], &beam_ref_rng))
            << label << " trip " << i;
        EXPECT_TRUE(SameRngState(beam_rng, beam_ref_rng))
            << label << " trip " << i;
        sequential.push_back(BeamRoute(model, ctxs[i], origins[i], &seq_rng));
      }
      std::vector<PredictItem> items(trips.size());
      for (size_t i = 0; i < items.size(); ++i) {
        items[i].ctx = &ctxs[i];
        items[i].origin = origins[i];
      }
      util::Rng multi_rng(11);
      model.PredictRoutesBeamMulti(&items, &multi_rng);
      for (size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(items[i].route, sequential[i]) << label << " item " << i;
      }
      EXPECT_TRUE(SameRngState(multi_rng, seq_rng)) << label;
    }
  }
}

TEST(InferenceRegressionTest, BeamWidthOneEqualsGreedy) {
  auto& world = TestWorld();
  const auto trips = TestTrips(6);
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  cfg.beam_width = 1;
  DeepSTModel model(world.net(), cfg, nullptr);
  for (const bool graph : {false, true}) {
    for (uint64_t seed : {3u, 17u, 99u}) {
      util::Rng rng(seed);
      for (const auto* rec : trips) {
        RouteQuery query = eval::QueryFor(rec->trip);
        PredictionContext ctx = model.MakeContext(query, &rng);
        util::Rng rng_greedy(seed + 1), rng_beam(seed + 1);
        const traj::Route greedy =
            graph ? model.PredictRouteReference(ctx, query.origin, &rng_greedy)
                  : model.PredictRoute(ctx, query.origin, &rng_greedy);
        const traj::Route beam =
            graph ? model.PredictRouteBeamReference(ctx, query.origin,
                                                    &rng_beam)
                  : BeamRoute(model, ctx, query.origin, &rng_beam);
        EXPECT_EQ(greedy, beam) << "reference=" << graph << " seed=" << seed;
      }
    }
  }
}

TEST(InferenceDeterminismTest, ThreadCountInvariant) {
  BackendGuard guard;
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  std::vector<traj::Route> routes_by_threads[2];
  std::vector<double> scores_by_threads[2];
  const int thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    nn::SetBackendThreads(thread_counts[t]);
    util::Rng rng(31);
    for (const auto* rec : trips) {
      RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx = model.MakeContext(query, &rng);
      util::Rng prng(5);
      routes_by_threads[t].push_back(
          BeamRoute(model, ctx, query.origin, &prng));
      scores_by_threads[t].push_back(model.ScoreRoute(ctx, rec->trip.route));
    }
  }
  EXPECT_EQ(routes_by_threads[0], routes_by_threads[1]);
  ASSERT_EQ(scores_by_threads[0].size(), scores_by_threads[1].size());
  for (size_t i = 0; i < scores_by_threads[0].size(); ++i) {
    // Bitwise, not approximate: the fast path's chunk boundaries and
    // accumulation order are thread-count independent.
    EXPECT_EQ(scores_by_threads[0][i], scores_by_threads[1][i]);
  }
}

TEST(InferenceBatchTest, BatchedScoresBitwiseEqualIndividual) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(41);
  const auto trips = TestTrips(6);
  ASSERT_GE(trips.size(), 3u);
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  PredictionContext ctx = model.MakeContext(query, &rng);
  // Candidate set with deliberately degenerate rows mixed in: a too-short
  // route (scores 0) and a non-contiguous one (scores -inf).
  std::vector<traj::Route> candidates;
  for (const auto* rec : trips) candidates.push_back(rec->trip.route);
  candidates.push_back({trips[0]->trip.route.front()});
  traj::Route bad = {trips[0]->trip.route.front(),
                     trips[0]->trip.route.front()};
  if (!world.net().AreConsecutive(bad[0], bad[1])) candidates.push_back(bad);
  const std::vector<double> batched = model.ScoreRoutes(ctx, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(batched[i], model.ScoreRoute(ctx, candidates[i])) << i;
  }
}

TEST(InferenceBatchTest, BatchedContinuationsBitwiseEqualIndividual) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  DeepSTModel model(world.net(), cfg, nullptr);
  util::Rng rng(42);
  const auto trips = TestTrips(6);
  const traj::Route& route = trips[0]->trip.route;
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  PredictionContext ctx = model.MakeContext(query, &rng);
  const size_t cut = route.size() / 2;
  traj::Route prefix(route.begin(), route.begin() + cut + 1);
  // Candidates: the true tail plus every distinct one-step continuation.
  std::vector<traj::Route> candidates;
  candidates.emplace_back(route.begin() + cut, route.end());
  for (roadnet::SegmentId next : world.net().OutSegments(prefix.back())) {
    candidates.push_back({prefix.back(), next});
  }
  const std::vector<double> batched =
      model.ScoreContinuations(ctx, prefix, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(batched[i], model.ScoreContinuation(ctx, prefix, candidates[i]))
        << i;
  }
}

// A one-segment prefix continued by {prefix.back()} has no transition and
// scores 0; batched beside longer candidates it must not be padded into
// the step batch (a finished row re-feeds its second-to-last segment,
// which a one-segment row does not have).
TEST(InferenceBatchTest, OneSegmentContinuationScoresZeroInABatch) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(44);
  const auto trips = TestTrips(1);
  ASSERT_EQ(trips.size(), 1u);
  const traj::Route& route = trips[0]->trip.route;
  PredictionContext ctx =
      model.MakeContext(eval::QueryFor(trips[0]->trip), &rng);
  const traj::Route prefix = {route[0]};
  const std::vector<traj::Route> candidates = {
      {route[0]}, {route[0], route[1]}, {route[0], route[1], route[2]}};
  const std::vector<double> batched =
      model.ScoreContinuations(ctx, prefix, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  EXPECT_EQ(batched[0], 0.0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(batched[i], model.ScoreContinuation(ctx, prefix, candidates[i]))
        << i;
    EXPECT_NEAR(batched[i],
                model.ScoreContinuationReference(ctx, prefix, candidates[i]),
                kParityTol)
        << i;
  }
}

TEST(InferenceBatchTest, RankRoutesUsesBatchedScoresConsistently) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(43);
  const auto trips = TestTrips(4);
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  std::vector<traj::Route> candidates;
  for (const auto* rec : trips) candidates.push_back(rec->trip.route);
  util::Rng rng_rank(43);
  const auto ranked = RankRoutes(&model, query, candidates, &rng_rank);
  ASSERT_EQ(ranked.size(), candidates.size());
  util::Rng rng_ctx(43);
  PredictionContext ctx = model.MakeContext(query, &rng_ctx);
  double prob_sum = 0.0;
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].log_likelihood, model.ScoreRoute(ctx, ranked[i].route));
    if (i > 0) {
      EXPECT_GE(ranked[i - 1].log_likelihood, ranked[i].log_likelihood);
    }
    prob_sum += ranked[i].probability;
  }
  EXPECT_NEAR(prob_sum, 1.0, 1e-9);
}

TEST(InferenceArenaTest, ZeroAllocationSteadyState) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(51);
  const auto trips = TestTrips(4);
  ASSERT_GE(trips.size(), 2u);
  infer::InferenceSession session(&model);
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  PredictionContext ctx = model.MakeContext(query, &rng);
  std::vector<traj::Route> candidates;
  for (const auto* rec : trips) candidates.push_back(rec->trip.route);
  // Cross-query items; their route and score vectors are the caller's
  // output buffers, sized once like the serving layer's.
  std::vector<PredictionContext> ctxs;
  std::vector<PredictItem> pitems;
  std::vector<ScoreItem> sitems;
  for (const auto* rec : trips) {
    ctxs.push_back(model.MakeContext(eval::QueryFor(rec->trip), &rng));
  }
  for (size_t i = 0; i < trips.size(); ++i) {
    PredictItem p;
    p.ctx = &ctxs[i];
    p.origin = trips[i]->trip.route.front();
    p.route.reserve(static_cast<size_t>(cfg.max_route_steps) + 1);
    pitems.push_back(std::move(p));
    ScoreItem s;
    s.ctx = &ctxs[i];
    s.routes = &candidates;
    s.scores.reserve(candidates.size());
    sitems.push_back(std::move(s));
  }
  traj::Route route;
  std::vector<double> scores;
  auto run = [&] {
    util::Rng r(9);
    route = session.PredictRoute(ctx, query.origin, &r);
    scores = session.ScoreRoutes(ctx, candidates);
    session.ScoreRoute(ctx, candidates[0]);
    session.PredictRoutesBeamMulti(&pitems);
    session.ScoreRoutesMulti(&sitems);
  };
  // Warmup pass grows the scratch arena to its high-water mark...
  run();
  const int64_t warm = session.arena_grow_count();
  const int64_t warm_scratch = session.scratch_grow_count();
  // ...after which identical work allocates nothing: neither the arena
  // slots nor the session-owned step scratch (embedding staging and the
  // per-layer double-precision state mirrors) grow again.
  run();
  EXPECT_EQ(session.arena_grow_count(), warm);
  EXPECT_EQ(session.scratch_grow_count(), warm_scratch);
  EXPECT_GT(warm_scratch, 0);
#if DEEPST_COUNT_ALLOCS
  // The same property on the heap itself: a warm call allocates nothing
  // beyond the vector it returns by value.
  util::Rng r(9);
  EXPECT_EQ(CountAllocs([&] {
              route = session.PredictRoute(ctx, query.origin, &r);
            }).count,
            1);  // the returned route
  EXPECT_EQ(CountAllocs([&] {
              scores = session.ScoreRoutes(ctx, candidates);
            }).count,
            1);  // the returned scores
  EXPECT_EQ(
      CountAllocs([&] { session.ScoreRoute(ctx, candidates[0]); }).count, 0);
  EXPECT_EQ(
      CountAllocs([&] { session.PredictRoutesBeamMulti(&pitems); }).count, 0);
  EXPECT_EQ(CountAllocs([&] { session.ScoreRoutesMulti(&sitems); }).count,
            0);
#endif  // DEEPST_COUNT_ALLOCS
}

// The session calls ZeroAllocationSteadyState leaves out: PredictRoute's
// step loop (greedy at beam_width 1, sampled without map_prediction) and
// shared-prefix continuation scoring.
TEST(InferenceArenaTest, StepLoopCallsAllocateOnlyTheirResult) {
  auto& world = TestWorld();
  const auto trips = TestTrips(1);
  ASSERT_EQ(trips.size(), 1u);
  const traj::Route& route = trips[0]->trip.route;
  const RouteQuery query = eval::QueryFor(trips[0]->trip);
  const size_t cut = route.size() / 2;
  const traj::Route prefix(route.begin(), route.begin() + cut + 1);
  std::vector<traj::Route> candidates;
  candidates.emplace_back(route.begin() + cut, route.end());
  for (roadnet::SegmentId next : world.net().OutSegments(prefix.back())) {
    candidates.push_back({prefix.back(), next});
  }
  DeepSTConfig greedy = SmallConfig();
  greedy.beam_width = 1;
  DeepSTConfig sampled = SmallConfig();
  sampled.map_prediction = false;
  for (const DeepSTConfig& cfg : {greedy, sampled}) {
    DeepSTModel model(world.net(), cfg, world.traffic_cache());
    infer::InferenceSession session(&model);
    util::Rng rng(52);
    const PredictionContext ctx = model.MakeContext(query, &rng);
    traj::Route predicted;
    std::vector<double> scores;
    auto run = [&] {
      util::Rng r(9);
      predicted = session.PredictRoute(ctx, query.origin, &r);
      scores = session.ScoreContinuations(ctx, prefix, candidates);
    };
    run();
    const int64_t warm = session.arena_grow_count();
    const int64_t warm_scratch = session.scratch_grow_count();
    run();
    EXPECT_EQ(session.arena_grow_count(), warm);
    EXPECT_EQ(session.scratch_grow_count(), warm_scratch);
#if DEEPST_COUNT_ALLOCS
    util::Rng r(9);
    EXPECT_EQ(CountAllocs([&] {
                predicted = session.PredictRoute(ctx, query.origin, &r);
              }).count,
              1);  // the returned route
    EXPECT_EQ(CountAllocs([&] {
                scores = session.ScoreContinuations(ctx, prefix, candidates);
              }).count,
              1);  // the returned scores
#endif  // DEEPST_COUNT_ALLOCS
  }
}

#if DEEPST_COUNT_ALLOCS
// A session's footprint depends on the model's dimensions, the beam width
// and max_route_steps, never on the size of the road network: building one
// and running a first 8-query lock-step beam allocates the same bytes on a
// small and on a much larger city.
TEST(InferenceArenaTest, SessionFootprintIndependentOfCitySize) {
  struct Run {
    int num_segments = 0;
    int max_out_degree = 0;  // sizes the logits rows, so must match
    AllocTally tally;
  };
  auto run_on = [](int grid_size) {
    roadnet::GridCityConfig city = roadnet::ChengduMiniConfig();
    city.rows = grid_size;
    city.cols = grid_size;
    const auto net = roadnet::BuildGridCity(city);
    const DeepSTConfig cfg = baselines::DeepStCConfigOf(SmallConfig());
    DeepSTModel model(*net, cfg, nullptr);
    model.shared_infer_weights();  // packed once per model, not per session
    util::Rng rng(5);
    std::vector<PredictionContext> ctxs;
    std::vector<PredictItem> items;
    const geo::BoundingBox& box = net->bounds();
    for (int q = 0; q < 8; ++q) {
      RouteQuery query;
      query.origin = static_cast<roadnet::SegmentId>(
          (q * 7919) % net->num_segments());
      query.destination = {box.min.x + (box.max.x - box.min.x) * (q + 1) / 9,
                           box.max.y - (box.max.y - box.min.y) * (q + 1) / 9};
      ctxs.push_back(model.MakeContext(query, &rng));
      PredictItem item;
      item.origin = query.origin;
      item.route.reserve(static_cast<size_t>(cfg.max_route_steps) + 1);
      items.push_back(std::move(item));
    }
    for (size_t q = 0; q < items.size(); ++q) items[q].ctx = &ctxs[q];
    Run out;
    out.num_segments = net->num_segments();
    out.max_out_degree = net->MaxOutDegree();
    out.tally = CountAllocs([&] {
      infer::InferenceSession session(&model);
      session.PredictRoutesBeamMulti(&items);
    });
    for (const PredictItem& item : items) EXPECT_GE(item.route.size(), 2u);
    return out;
  };
  const Run small = run_on(14);
  const Run big = run_on(32);
  ASSERT_GT(big.num_segments, 5 * small.num_segments);
  ASSERT_EQ(big.max_out_degree, small.max_out_degree);
  EXPECT_GT(small.tally.bytes, 0);
  EXPECT_EQ(big.tally.bytes, small.tally.bytes)
      << "session bytes scale with the network (" << small.num_segments
      << " -> " << big.num_segments << " segments)";
  EXPECT_EQ(big.tally.count, small.tally.count);
}
#endif  // DEEPST_COUNT_ALLOCS

TEST(InferenceConcurrencyTest, SessionPoolSafeUnderConcurrentCalls) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  DeepSTModel model(world.net(), cfg, nullptr);
  util::Rng rng(61);
  const auto trips = TestTrips(4);
  ASSERT_GE(trips.size(), 2u);
  // Reference results, computed serially.
  std::vector<PredictionContext> ctxs;
  std::vector<traj::Route> expected_routes;
  std::vector<double> expected_scores;
  for (const auto* rec : trips) {
    RouteQuery query = eval::QueryFor(rec->trip);
    ctxs.push_back(model.MakeContext(query, &rng));
    util::Rng prng(3);
    expected_routes.push_back(
        BeamRoute(model, ctxs.back(), query.origin, &prng));
    expected_scores.push_back(model.ScoreRoute(ctxs.back(), rec->trip.route));
  }
  // Hammer the same queries from several threads at once.
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = static_cast<size_t>((w + round) % trips.size());
        RouteQuery query = eval::QueryFor(trips[i]->trip);
        util::Rng prng(3);
        if (BeamRoute(model, ctxs[i], query.origin, &prng) !=
            expected_routes[i]) {
          failures[static_cast<size_t>(w)]++;
        }
        if (model.ScoreRoute(ctxs[i], trips[i]->trip.route) !=
            expected_scores[i]) {
          failures[static_cast<size_t>(w)]++;
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(failures[w], 0) << w;
  // The pool retains one session per peak-concurrent caller at most.
  EXPECT_GE(model.num_pooled_sessions(), 1u);
  EXPECT_LE(model.num_pooled_sessions(), static_cast<size_t>(kThreads));
}

// Lock-step multi-query beam search (the serve daemon's cross-client
// batching substrate) must be bitwise identical, query by query, to running
// each query through the single-query beam.
TEST(InferenceMultiQueryTest, BeamMultiBitwiseEqualsSingleQuery) {
  auto& world = TestWorld();
  const auto trips = TestTrips(5);
  ASSERT_GE(trips.size(), 3u);
  const DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  DeepSTModel model(world.net(), cfg, CacheFor(cfg));
  util::Rng rng(31);
  std::vector<PredictionContext> ctxs;
  std::vector<roadnet::SegmentId> origins;
  std::vector<traj::Route> singles;
  ctxs.reserve(trips.size());
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    ctxs.push_back(model.MakeContext(query, &rng));
    origins.push_back(query.origin);
    util::Rng prng(7);
    singles.push_back(BeamRoute(model, ctxs.back(), query.origin, &prng));
  }
  std::vector<PredictItem> items(trips.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].ctx = &ctxs[i];
    items[i].origin = origins[i];
  }
  model.PredictRoutesBeamMulti(&items);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].route, singles[i]) << "query " << i;
    EXPECT_FALSE(items[i].budget_hit) << "query " << i;
  }
}

// Multi-query padded scoring with heterogeneous candidate counts -- and the
// single-segment (log-likelihood 0) and broken-route (-inf) conventions --
// must match per-query ScoreRoutes bitwise.
TEST(InferenceMultiQueryTest, ScoreMultiBitwiseEqualsSingleQuery) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  ASSERT_GE(trips.size(), 3u);
  const DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  DeepSTModel model(world.net(), cfg, CacheFor(cfg));
  util::Rng rng(32);
  std::vector<PredictionContext> ctxs;
  std::vector<std::vector<traj::Route>> candidates;
  ctxs.reserve(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    const traj::Route& route = trips[i]->trip.route;
    ctxs.push_back(model.MakeContext(eval::QueryFor(trips[i]->trip), &rng));
    std::vector<traj::Route> cands = {route};
    if (i % 2 == 0) {  // heterogeneous counts across queries
      cands.push_back(traj::Route(route.begin(), route.begin() + 2));
      cands.push_back({route.front()});            // size 1 -> 0.0
      cands.push_back({route.front(), route.front()});  // broken -> -inf
    }
    candidates.push_back(std::move(cands));
  }
  std::vector<ScoreItem> items(trips.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].ctx = &ctxs[i];
    items[i].routes = &candidates[i];
  }
  model.ScoreRoutesMulti(&items);
  for (size_t i = 0; i < items.size(); ++i) {
    const std::vector<double> singles = model.ScoreRoutes(ctxs[i],
                                                          candidates[i]);
    ASSERT_EQ(items[i].scores.size(), singles.size()) << "query " << i;
    for (size_t c = 0; c < singles.size(); ++c) {
      EXPECT_EQ(items[i].scores[c], singles[c])
          << "query " << i << " candidate " << c;
    }
  }
}

// Per-item deadlines inside one lock-step batch: an item with an expired
// budget reports budget_hit with a valid best-so-far route, while its
// co-batched neighbor with no deadline finishes untouched.
TEST(InferenceMultiQueryTest, BeamMultiDeadlinesArePerItem) {
  auto& world = TestWorld();
  const auto trips = TestTrips(2);
  ASSERT_EQ(trips.size(), 2u);
  const DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  DeepSTModel model(world.net(), cfg, CacheFor(cfg));
  util::Rng rng(33);
  std::vector<PredictionContext> ctxs;
  std::vector<roadnet::SegmentId> origins;
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    ctxs.push_back(model.MakeContext(query, &rng));
    origins.push_back(query.origin);
  }
  util::Rng prng(7);
  const traj::Route unbudgeted =
      BeamRoute(model, ctxs[1], origins[1], &prng);

  std::vector<PredictItem> items(2);
  items[0].ctx = &ctxs[0];
  items[0].origin = origins[0];
  items[0].deadline_ms = 0.005;  // expires at the first between-step check
  items[1].ctx = &ctxs[1];
  items[1].origin = origins[1];
  model.PredictRoutesBeamMulti(&items);

  EXPECT_TRUE(items[0].budget_hit);
  EXPECT_FALSE(items[0].route.empty());
  EXPECT_EQ(items[0].route.front(), origins[0]);
  EXPECT_TRUE(world.net().ValidateRoute(items[0].route).ok());
  EXPECT_FALSE(items[1].budget_hit);
  EXPECT_EQ(items[1].route, unbudgeted);
}

// -- Graph-free proxy context --------------------------------------------------

bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// A DeepST-C model (proxies, no traffic: the proxy is MakeContext's only
// rng consumer) whose K = 45 fills one output panel of the packed encoder
// and part of a second.
DeepSTConfig ProxyContextConfig() {
  DeepSTConfig cfg = baselines::DeepStCConfigOf(SmallConfig());
  cfg.num_proxies = 45;
  EXPECT_NE(cfg.num_proxies % nn::infer::kOutBlock, 0);
  return cfg;
}

// Destinations spread over the network's box and a margin around it.
std::vector<RouteQuery> RandomDestinationQueries(int n, uint64_t seed) {
  const geo::BoundingBox& box = TestWorld().net().bounds();
  const double w = box.max.x - box.min.x;
  const double h = box.max.y - box.min.y;
  util::Rng rng(seed);
  std::vector<RouteQuery> queries(static_cast<size_t>(n));
  for (RouteQuery& q : queries) {
    q.origin = 0;
    q.destination = {rng.Uniform(box.min.x - 0.1 * w, box.max.x + 0.1 * w),
                     rng.Uniform(box.min.y - 0.1 * h, box.max.y + 0.1 * h)};
  }
  return queries;
}

nn::VarPtr BetaWeight(const DeepSTModel& model) {
  for (const nn::NamedTensor& p : nn::SnapshotParameters(model)) {
    if (p.first == "beta/weight") return nn::Constant(p.second);
  }
  ADD_FAILURE() << "no beta/weight parameter";
  return nullptr;
}

// MakeContext computes W pi off the autodiff graph (packed encoder, first-
// max argmax, row gather); dest_repr and dest_term must equal the
// evaluation-mode composition EncodeLogits -> ModePi -> Embed -> beta
// bitwise, for every destination.
TEST(ProxyContextTest, MapContextIsBitwiseTheAutodiffComposition) {
  const DeepSTConfig cfg = ProxyContextConfig();
  DeepSTModel model(TestWorld().net(), cfg, nullptr);
  const DestinationProxyModel& proxy = *model.proxy_model();
  const nn::VarPtr beta = BetaWeight(model);
  std::set<int> proxies_hit;
  for (const RouteQuery& q : RandomDestinationQueries(300, 81)) {
    util::Rng rng(1);
    const PredictionContext ctx = model.MakeContext(q, &rng);
    nn::NoGradGuard no_grad;
    const nn::VarPtr logits =
        proxy.EncodeLogits(proxy.NormalizeDestinations({q.destination}));
    const nn::VarPtr repr = proxy.Embed(proxy.ModePi(logits));
    const nn::VarPtr term = nn::ops::Linear(repr, beta, nullptr);
    ASSERT_TRUE(ctx.has_dest);
    EXPECT_TRUE(BitwiseEqual(ctx.dest_repr, repr->value()));
    EXPECT_TRUE(BitwiseEqual(ctx.dest_term, term->value()));
    proxies_hit.insert(static_cast<int>(logits->value().ArgMax()));
  }
  // The destinations must exercise more than one proxy row.
  EXPECT_GT(proxies_hit.size(), 3u);
}

// Sampled inference (map_prediction = false) takes the same logits from
// the packed encoder and hands them to SamplePi, so the context equals the
// composition EncodeLogits -> SamplePi -> Embed -> beta bitwise and the rng
// ends in the same state.
TEST(ProxyContextTest, SampledContextMakesTheAutodiffDraws) {
  DeepSTConfig cfg = ProxyContextConfig();
  cfg.map_prediction = false;
  DeepSTModel model(TestWorld().net(), cfg, nullptr);
  const DestinationProxyModel& proxy = *model.proxy_model();
  const nn::VarPtr beta = BetaWeight(model);
  uint64_t seed = 500;
  for (const RouteQuery& q : RandomDestinationQueries(60, 82)) {
    util::Rng fast_rng(++seed), ref_rng(seed);
    const PredictionContext ctx = model.MakeContext(q, &fast_rng);
    nn::NoGradGuard no_grad;
    const nn::VarPtr logits =
        proxy.EncodeLogits(proxy.NormalizeDestinations({q.destination}));
    const nn::VarPtr repr =
        proxy.Embed(proxy.SamplePi(logits, cfg.gumbel_tau, &ref_rng));
    const nn::VarPtr term = nn::ops::Linear(repr, beta, nullptr);
    ASSERT_TRUE(ctx.has_dest);
    EXPECT_TRUE(BitwiseEqual(ctx.dest_repr, repr->value()));
    EXPECT_TRUE(BitwiseEqual(ctx.dest_term, term->value()));
    const util::Rng::State a = fast_rng.GetState();
    const util::Rng::State b = ref_rng.GetState();
    EXPECT_EQ(std::memcmp(a.s, b.s, sizeof(a.s)), 0);
    EXPECT_EQ(a.has_cached_gaussian, b.has_cached_gaussian);
    EXPECT_EQ(a.cached_gaussian, b.cached_gaussian);
  }
}

}  // namespace
}  // namespace core
}  // namespace deepst
