// ServingContext coverage: query validation (nothing malformed reaches the
// model's DEEPST_CHECK abort sites), graceful degradation (traffic prior
// mean, uniform proxy, origin snapping, deadline budget) with bitwise
// determinism, strict-mode refusals, and the session-pool failure paths
// (injected query faults surface as Status and never leak pool slots), and
// the traffic posterior memo behind MakeContext (bitwise hits across
// overlays, swaps and new observations; concurrent use).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/neural_router.h"
#include "core/deepst_model.h"
#include "core/serving.h"
#include "eval/world.h"
#include "traffic/overlay.h"
#include "traffic/store.h"
#include "util/fault_injector.h"

namespace deepst {
namespace core {
namespace {

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "serving-test-world";
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

// Shared model (untrained weights are fine: serving semantics do not depend
// on parameter quality, and construction dominates test time).
DeepSTModel& TestModel() {
  static DeepSTModel* model =
      new DeepSTModel(TestWorld().net(), baselines::DeepStConfigOf(SmallConfig()),
                      TestWorld().traffic_cache());
  return *model;
}

// A test trip whose query has live traffic coverage, so the undegraded path
// is actually exercised.
const traj::TripRecord& CoveredTrip() {
  static const traj::TripRecord* covered = [] {
    for (const auto* rec : TestWorld().split().test) {
      if (rec->trip.route.size() < 3) continue;
      const RouteQuery q = eval::QueryFor(rec->trip);
      if (TestWorld().traffic_cache()->HasObservations(q.start_time_s)) {
        return rec;
      }
    }
    return static_cast<const traj::TripRecord*>(nullptr);
  }();
  EXPECT_NE(covered, nullptr) << "no test trip with traffic coverage";
  return *covered;
}

class ServingTest : public testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::Instance().Reset(); }
};

TEST_F(ServingTest, HappyPathStrictUndegradedAndDeterministic) {
  ServingConfig scfg;
  scfg.strict = true;
  ServingContext serving(&TestModel(), &TestWorld().index(), scfg);
  const RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  auto first = serving.Predict(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().degraded());
  EXPECT_EQ(first.value().degradations, kDegradationNone);
  EXPECT_FALSE(first.value().route.empty());
  EXPECT_TRUE(TestWorld().net().ValidateRoute(first.value().route).ok());
  // Same query, same seed: the served route is bitwise reproducible.
  auto second = serving.Predict(query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().route, second.value().route);
}

TEST_F(ServingTest, MalformedQueriesAreInvalidNotFatal) {
  ServingContext serving(&TestModel(), &TestWorld().index());
  const RouteQuery base = eval::QueryFor(CoveredTrip().trip);
  const double kNan = std::numeric_limits<double>::quiet_NaN();

  RouteQuery bad = base;
  bad.start_time_s = kNan;
  EXPECT_EQ(serving.Predict(bad).status().code(),
            util::Status::Code::kInvalidArgument);
  bad = base;
  bad.start_time_s = -5.0;
  EXPECT_EQ(serving.Predict(bad).status().code(),
            util::Status::Code::kInvalidArgument);
  bad = base;
  bad.start_time_s = 1e300;  // finite, but past the last traffic slot
  EXPECT_EQ(serving.Predict(bad).status().code(),
            util::Status::Code::kInvalidArgument);
  bad = base;
  bad.destination.x = kNan;
  EXPECT_EQ(serving.Predict(bad).status().code(),
            util::Status::Code::kInvalidArgument);
  bad = base;
  bad.origin = TestWorld().net().num_segments() + 17;
  EXPECT_EQ(serving.Predict(bad).status().code(),
            util::Status::Code::kInvalidArgument);
  bad = base;
  bad.origin = roadnet::kInvalidSegment;  // no origin at all
  EXPECT_FALSE(serving.Predict(bad).ok());
}

TEST_F(ServingTest, OffNetworkOriginSnapsViaSpatialIndex) {
  ServingContext serving(&TestModel(), &TestWorld().index());
  RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  const roadnet::SegmentId expected = query.origin;
  // Re-pose the query as raw coordinates just off the origin segment.
  geo::Point near = TestWorld().net().SegmentMidpoint(expected);
  near.y += 3.0;
  query.origin = roadnet::kInvalidSegment;
  query.has_origin_point = true;
  query.origin_point = near;
  auto result = serving.Predict(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().degradations & kDegradationSnappedOrigin);
  EXPECT_TRUE(result.value().degraded());
  EXPECT_FALSE(result.value().route.empty());

  // Strict mode refuses to snap.
  ServingConfig strict_cfg;
  strict_cfg.strict = true;
  ServingContext strict(&TestModel(), &TestWorld().index(), strict_cfg);
  EXPECT_EQ(strict.Predict(query).status().code(),
            util::Status::Code::kFailedPrecondition);

  // A finite point far beyond the snap radius is NotFound.
  query.origin_point = geo::Point{1e7, 1e7};
  EXPECT_EQ(serving.Predict(query).status().code(),
            util::Status::Code::kNotFound);
  // A non-finite point is an invalid query.
  query.origin_point = geo::Point{std::numeric_limits<double>::quiet_NaN(), 0};
  EXPECT_EQ(serving.Predict(query).status().code(),
            util::Status::Code::kInvalidArgument);
}

TEST_F(ServingTest, FarDestinationFallsBackToUniformProxy) {
  ServingContext serving(&TestModel(), &TestWorld().index());
  RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  query.destination = geo::Point{1e6, -1e6};
  auto first = serving.Predict(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.value().degradations & kDegradationUniformProxy);
  EXPECT_TRUE(first.value().degraded());
  EXPECT_FALSE(first.value().route.empty());
  EXPECT_TRUE(TestWorld().net().ValidateRoute(first.value().route).ok());
  // The uniform-proxy fallback is deterministic: bitwise identical routes.
  auto second = serving.Predict(query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().route, second.value().route);

  ServingConfig strict_cfg;
  strict_cfg.strict = true;
  ServingContext strict(&TestModel(), &TestWorld().index(), strict_cfg);
  EXPECT_EQ(strict.Predict(query).status().code(),
            util::Status::Code::kFailedPrecondition);
}

// The degradation parity claim from docs/robustness.md: serving a query with
// no usable traffic snapshot equals running the model with the traffic
// context fixed at the prior mean -- which in turn equals hand-zeroing the
// traffic terms of a normally built context. All three bitwise.
TEST_F(ServingTest, MissingTrafficMatchesPriorMeanContextBitwise) {
  DeepSTModel& model = TestModel();
  ServingContext serving(&model, &TestWorld().index());
  RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  // Far past the last observation: missing AND stale.
  query.start_time_s =
      TestWorld().traffic_cache()->latest_observation_time() + 90000.0;

  auto served = serving.Predict(query);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served.value().degradations & kDegradationTrafficPriorMean);

  // Reference 1: the degraded-context API driven directly.
  ContextOptions options;
  options.traffic_prior_mean = true;
  util::Rng rng1(serving.config().rng_seed);
  PredictionContext degraded = model.MakeContext(query, &rng1, options);
  for (int64_t i = 0; i < degraded.traffic_repr.numel(); ++i) {
    ASSERT_EQ(degraded.traffic_repr[i], 0.0f);
  }
  for (int64_t i = 0; i < degraded.traffic_term.numel(); ++i) {
    ASSERT_EQ(degraded.traffic_term[i], 0.0f);
  }
  const traj::Route direct = model.PredictRoute(degraded, query.origin, &rng1);
  EXPECT_EQ(served.value().route, direct);

  // Reference 2: a normally built context with the traffic terms zeroed by
  // hand scores routes identically to the degraded context.
  util::Rng rng2(serving.config().rng_seed);
  PredictionContext zeroed = model.MakeContext(query, &rng2);
  zeroed.traffic_repr = nn::Tensor::Zeros(zeroed.traffic_repr.shape());
  zeroed.traffic_term = nn::Tensor::Zeros(zeroed.traffic_term.shape());
  const traj::Route& route = CoveredTrip().trip.route;
  EXPECT_EQ(model.ScoreRoute(degraded, route), model.ScoreRoute(zeroed, route));

  // Scoring through the serving layer agrees with the degraded context.
  auto scored = serving.ScoreRoute(query, route);
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  EXPECT_TRUE(scored.value().degradations & kDegradationTrafficPriorMean);
  EXPECT_EQ(scored.value().score, model.ScoreRoute(degraded, route));

  // Strict mode refuses the fallback.
  ServingConfig strict_cfg;
  strict_cfg.strict = true;
  ServingContext strict(&model, &TestWorld().index(), strict_cfg);
  EXPECT_EQ(strict.Predict(query).status().code(),
            util::Status::Code::kFailedPrecondition);
}

TEST_F(ServingTest, DeadlineBudgetReturnsValidRouteWithFlag) {
  // 10us budget: one beam expansion step costs more than this on any
  // machine, so the first between-steps deadline check fires.
  ServingConfig scfg;
  scfg.deadline_ms = 0.01;
  ServingContext serving(&TestModel(), &TestWorld().index(), scfg);
  const RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  auto result = serving.Predict(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Best-so-far under budget is still a well-formed route from the origin.
  EXPECT_FALSE(result.value().route.empty());
  EXPECT_EQ(result.value().route.front(), query.origin);
  EXPECT_TRUE(TestWorld().net().ValidateRoute(result.value().route).ok());
  EXPECT_TRUE(result.value().degradations & kDegradationDeadlineBudget);
  EXPECT_TRUE(result.value().degraded());

  // The budget is explicit per-query configuration, so strict mode honors
  // it rather than refusing (unlike the model-quality fallbacks).
  ServingConfig strict_cfg = scfg;
  strict_cfg.strict = true;
  ServingContext strict(&TestModel(), &TestWorld().index(), strict_cfg);
  auto strict_result = strict.Predict(query);
  ASSERT_TRUE(strict_result.ok()) << strict_result.status().ToString();
  EXPECT_TRUE(strict_result.value().degradations & kDegradationDeadlineBudget);
}

TEST_F(ServingTest, ScoreRouteValidatesInput) {
  ServingContext serving(&TestModel(), &TestWorld().index());
  const RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  EXPECT_EQ(serving.ScoreRoute(query, {}).status().code(),
            util::Status::Code::kInvalidArgument);
  EXPECT_EQ(serving
                .ScoreRoute(query, {0, TestWorld().net().num_segments() + 5})
                .status()
                .code(),
            util::Status::Code::kInvalidArgument);
  auto ok = serving.ScoreRoute(query, CoveredTrip().trip.route);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(std::isfinite(ok.value().score));

  // Scoring works without an origin: it defaults to the route head.
  RouteQuery no_origin = query;
  no_origin.origin = roadnet::kInvalidSegment;
  auto defaulted = serving.ScoreRoute(no_origin, CoveredTrip().trip.route);
  ASSERT_TRUE(defaulted.ok()) << defaulted.status().ToString();
  EXPECT_EQ(defaulted.value().score, ok.value().score);
}

TEST_F(ServingTest, DegradationsToStringNamesEveryAxis) {
  EXPECT_EQ(DegradationsToString(kDegradationNone), "none");
  EXPECT_EQ(DegradationsToString(kDegradationTrafficPriorMean),
            "traffic_prior_mean");
  EXPECT_EQ(DegradationsToString(static_cast<uint8_t>(
                kDegradationUniformProxy | kDegradationSnappedOrigin |
                kDegradationDeadlineBudget)),
            "uniform_proxy+snapped_origin+deadline_budget");
}

TEST_F(ServingTest, InjectedQueryFaultSurfacesAsStatus) {
  ServingContext serving(&TestModel(), &TestWorld().index());
  const RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  util::FaultInjector::Instance().Arm("infer.query",
                                      util::FaultKind::kIoError);
  auto failed = serving.Predict(query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::Status::Code::kInternal);
  EXPECT_NE(failed.status().ToString().find("injected"), std::string::npos);
  // The slot the failing query leased was returned: the next query works.
  util::FaultInjector::Instance().Reset();
  EXPECT_TRUE(serving.Predict(query).ok());
}

// Regression for the pool-slot leak: many threads hitting injected query
// failures concurrently must all get Status back, and the pool must end no
// larger than the number of concurrent queries (leaked slots would show up
// as a session count far above the thread count, or as a deadlock once the
// pool drained). Run under TSan via tools/check_sanitize.sh.
TEST_F(ServingTest, ConcurrentPoolFailuresDoNotLeakSessions) {
  DeepSTModel& model = TestModel();
  ServingContext serving(&model, &TestWorld().index());
  const RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;
  util::FaultInjector::Instance().Arm("infer.query",
                                      util::FaultKind::kIoError,
                                      /*after=*/0, /*count=*/-1);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto result = serving.Predict(query);
        if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), kThreads * kQueriesPerThread);
  EXPECT_LE(model.num_pooled_sessions(), static_cast<size_t>(kThreads));

  // After disarming, the same context serves successfully from every thread.
  util::FaultInjector::Instance().Reset();
  std::atomic<int> successes{0};
  std::vector<std::thread> healthy;
  healthy.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    healthy.emplace_back([&] {
      auto result = serving.Predict(query);
      if (result.ok() && !result.value().route.empty()) {
        successes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : healthy) t.join();
  EXPECT_EQ(successes.load(), kThreads);
  EXPECT_LE(model.num_pooled_sessions(), static_cast<size_t>(2 * kThreads));
}

// Cross-client batch execution must be bitwise identical, request by
// request, to serving the same queries one at a time -- including requests
// that degrade (uniform proxy, stale traffic) and score requests.
TEST_F(ServingTest, ExecuteBatchMatchesSingleQueryBitwise) {
  ServingContext serving(&TestModel(), &TestWorld().index());
  const RouteQuery base = eval::QueryFor(CoveredTrip().trip);

  RouteQuery far_dest = base;
  far_dest.destination = geo::Point{1e6, -1e6};
  RouteQuery stale = base;
  stale.start_time_s =
      TestWorld().traffic_cache()->latest_observation_time() + 90000.0;

  std::vector<ServingRequest> requests(4);
  requests[0].query = base;
  requests[1].query = far_dest;
  requests[2].kind = ServingRequest::Kind::kScore;
  requests[2].query = base;
  requests[2].routes = {CoveredTrip().trip.route, CoveredTrip().trip.route};
  requests[3].query = stale;
  auto batched = serving.ExecuteBatch(&requests);
  ASSERT_EQ(batched.size(), 4u);
  for (const auto& r : batched) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  auto direct0 = serving.Predict(base);
  auto direct1 = serving.Predict(far_dest);
  auto direct2 = serving.ScoreRoute(base, CoveredTrip().trip.route);
  auto direct3 = serving.Predict(stale);
  ASSERT_TRUE(direct0.ok() && direct1.ok() && direct2.ok() && direct3.ok());
  EXPECT_EQ(batched[0].value().route, direct0.value().route);
  EXPECT_EQ(batched[0].value().degradations, kDegradationNone);
  EXPECT_EQ(batched[1].value().route, direct1.value().route);
  EXPECT_TRUE(batched[1].value().degradations & kDegradationUniformProxy);
  ASSERT_EQ(batched[2].value().scores.size(), 2u);
  EXPECT_EQ(batched[2].value().scores[0], direct2.value().score);
  EXPECT_EQ(batched[2].value().scores[1], direct2.value().score);
  EXPECT_EQ(batched[3].value().route, direct3.value().route);
  EXPECT_TRUE(batched[3].value().degradations & kDegradationTrafficPriorMean);
}

// One invalid request in a coalesced batch fails alone; its co-riders are
// untouched. (The injected-exception flavor of isolation is covered at the
// server layer in serve_test.cc.)
TEST_F(ServingTest, ExecuteBatchIsolatesInvalidRequests) {
  ServingContext serving(&TestModel(), &TestWorld().index());
  const RouteQuery base = eval::QueryFor(CoveredTrip().trip);
  std::vector<ServingRequest> requests(3);
  requests[0].query = base;
  requests[1].query = base;
  requests[1].query.origin = TestWorld().net().num_segments() + 99;
  requests[2].query = base;
  auto results = serving.ExecuteBatch(&requests);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(results[1].status().code(),
            util::Status::Code::kInvalidArgument);
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  EXPECT_EQ(results[0].value().route, results[2].value().route);
}

// The context fallbacks a served result reports, for rebuilding its context
// directly on the model.
ContextOptions OptionsFor(const ServingResult& served) {
  ContextOptions options;
  options.traffic_prior_mean =
      (served.degradations & kDegradationTrafficPriorMean) != 0;
  options.uniform_proxy = (served.degradations & kDegradationUniformProxy) != 0;
  return options;
}

// The first `n` test queries with live traffic coverage.
std::vector<RouteQuery> CoveredQueries(size_t n) {
  std::vector<RouteQuery> out;
  for (const auto* rec : TestWorld().split().test) {
    if (out.size() == n) break;
    const RouteQuery q = eval::QueryFor(rec->trip);
    if (TestWorld().traffic_cache()->HasObservations(q.start_time_s)) {
      out.push_back(q);
    }
  }
  EXPECT_EQ(out.size(), n) << "too few covered test queries";
  return out;
}

// When a shared model call throws, only the model stage re-runs, rider by
// rider, on the context and pin each rider took at admission. Two armed
// faults -- one in the shared beam, one in the first rider's re-run -- fail
// that rider alone, and no context is built twice: the traffic posterior
// memo sees one lookup per request, as in a clean batch.
TEST_F(ServingTest, FallbackKeepsEachRidersPinAndContext) {
  DeepSTModel& model = TestModel();
  ServingContext serving(&model, &TestWorld().index());
  std::vector<ServingRequest> requests(4);
  const std::vector<RouteQuery> queries = CoveredQueries(requests.size());
  ASSERT_EQ(queries.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) requests[i].query = queries[i];

  std::vector<ServingRequest> clean_requests = requests;
  int64_t before = model.traffic_posterior_memo_stats().lookups;
  const auto clean = serving.ExecuteBatch(&clean_requests);
  EXPECT_EQ(model.traffic_posterior_memo_stats().lookups - before, 4);

  util::FaultInjector::Instance().Arm("infer.query",
                                      util::FaultKind::kIoError,
                                      /*after=*/0, /*count=*/2);
  before = model.traffic_posterior_memo_stats().lookups;
  const auto results = serving.ExecuteBatch(&requests);
  EXPECT_EQ(model.traffic_posterior_memo_stats().lookups - before, 4);
  int ok = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      EXPECT_EQ(results[i].status().code(), util::Status::Code::kInternal);
      continue;
    }
    ++ok;
    ASSERT_TRUE(clean[i].ok()) << clean[i].status().ToString();
    EXPECT_EQ(results[i].value().route, clean[i].value().route) << i;
  }
  EXPECT_EQ(ok, 3);  // and one Internal
}

// At beam_width 1 a query has one answer: Predict, with a deadline or
// without, and ExecuteBatch all run the width-1 beam. This model's slots 0
// and 1 carry identical logit-head rows, so their logits tie exactly
// wherever both are valid; greedy generation keeps the first maximal slot
// and the beam the last, so greedy answers differently there.
TEST_F(ServingTest, BeamWidthOneServesOneAnswerOnTiedSlots) {
  DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  cfg.beam_width = 1;
  DeepSTModel model(TestWorld().net(), cfg, TestWorld().traffic_cache());
  int copied = 0;
  for (const auto& p : model.Parameters()) {
    if (p.name != "alpha/weight" && p.name != "alpha/bias" &&
        p.name != "beta/weight" && p.name != "gamma/weight") {
      continue;
    }
    nn::Tensor& t = p.var->value();
    const int64_t cols = t.numel() / t.shape()[0];
    std::copy_n(t.data(), cols, t.data() + cols);  // slot 0's row -> slot 1
    ++copied;
  }
  ASSERT_EQ(copied, 4);
  model.RetirePooledSessions();

  ServingContext serving(&model, &TestWorld().index());
  ServingConfig budgeted;
  budgeted.deadline_ms = 1e9;  // never expires
  ServingContext with_deadline(&model, &TestWorld().index(), budgeted);
  std::vector<ServingRequest> requests;
  for (const auto* rec : TestWorld().split().test) {
    requests.emplace_back();
    requests.back().query = eval::QueryFor(rec->trip);
  }
  const auto batched = serving.ExecuteBatch(&requests);
  int greedy_differs = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    const RouteQuery& query = requests[i].query;
    const traj::Route& route = batched[i].value().route;
    const auto plain = serving.Predict(query);
    const auto budget = with_deadline.Predict(query);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(budget.ok()) << budget.status().ToString();
    EXPECT_EQ(plain.value().route, route) << "query " << i;
    EXPECT_EQ(budget.value().route, route) << "query " << i;
    util::Rng rng(serving.config().rng_seed);
    const PredictionContext ctx =
        model.MakeContext(query, &rng, OptionsFor(batched[i].value()));
    greedy_differs += model.PredictRoute(ctx, query.origin, &rng) != route;
  }
  EXPECT_GT(greedy_differs, 0) << "no tie reached: the test shows nothing";
}

// The configs that draw from the rng: sampled generation, and sampled stops
// at beam widths 4 and 1. A predict runs alone on its request's own
// Rng(rng_seed), continuing from MakeContext, and scoring draws nothing; so
// a mixed batch equals the single-query calls and the direct model calls on
// a fresh rng, bit for bit.
TEST_F(ServingTest, RngDrawingConfigsMatchSingleAndDirectCalls) {
  struct Variant {
    const char* name;
    bool map_prediction;
    bool sample_stop;
    int beam_width;
  };
  const Variant variants[] = {{"sampled", false, false, 4},
                              {"sample-stop", true, true, 4},
                              {"sample-stop-width-1", true, true, 1}};
  const std::vector<RouteQuery> queries = CoveredQueries(4);
  const RouteQuery score_query = eval::QueryFor(CoveredTrip().trip);
  const traj::Route& truth = CoveredTrip().trip.route;
  const std::vector<traj::Route> candidates = {
      truth, traj::Route(truth.begin(), truth.begin() + 2)};
  const uint64_t seed = ServingConfig().rng_seed;
  for (const Variant& v : variants) {
    DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
    cfg.map_prediction = v.map_prediction;
    cfg.sample_stop = v.sample_stop;
    cfg.beam_width = v.beam_width;
    DeepSTModel model(TestWorld().net(), cfg, TestWorld().traffic_cache());
    ServingContext serving(&model, &TestWorld().index());
    std::vector<ServingRequest> requests(queries.size() + 1);
    for (size_t i = 0; i < queries.size(); ++i) {
      requests[i].query = queries[i];
    }
    requests[1].deadline_ms = 1e9;  // a deadline that never expires
    ServingRequest& score = requests.back();
    score.kind = ServingRequest::Kind::kScore;
    score.query = score_query;
    score.routes = candidates;
    const auto batched = serving.ExecuteBatch(&requests);

    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
      const ServingResult& got = batched[i].value();
      const auto single = serving.Predict(queries[i]);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ(got.route, single.value().route) << v.name << " request " << i;

      util::Rng rng(seed);
      const PredictionContext ctx =
          model.MakeContext(queries[i], &rng, OptionsFor(got));
      traj::Route direct;
      if (cfg.map_prediction) {
        std::vector<PredictItem> one(1);
        one[0].ctx = &ctx;
        one[0].origin = queries[i].origin;
        model.PredictRoutesBeamMulti(&one, &rng);
        direct = one[0].route;
      } else {
        direct = model.PredictRoute(ctx, queries[i].origin, &rng);
      }
      EXPECT_EQ(got.route, direct) << v.name << " request " << i;
    }

    ASSERT_TRUE(batched.back().ok()) << batched.back().status().ToString();
    const ServingResult& scored = batched.back().value();
    ASSERT_EQ(scored.scores.size(), candidates.size());
    util::Rng rng(seed);
    const PredictionContext ctx =
        model.MakeContext(score_query, &rng, OptionsFor(scored));
    const std::vector<double> direct = model.ScoreRoutes(ctx, candidates);
    for (size_t c = 0; c < candidates.size(); ++c) {
      const auto single = serving.ScoreRoute(score_query, candidates[c]);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ(scored.scores[c], single.value().score) << v.name << " " << c;
      EXPECT_EQ(scored.scores[c], direct[c]) << v.name << " " << c;
    }
  }
}

// Concurrent queries tripping *different* degradation axes: every result
// carries exactly its own axis bits (no cross-query bleed through shared
// state), and the cumulative per-axis totals are exact -- no lost counts
// under contention. Run under TSan via tools/check_sanitize.sh.
TEST_F(ServingTest, ConcurrentDegradationAccountingIsExactAndIsolated) {
  DeepSTModel& model = TestModel();
  ServingContext serving(&model, &TestWorld().index());
  const RouteQuery base = eval::QueryFor(CoveredTrip().trip);
  constexpr int kPerThread = 6;

  RouteQuery clean = base;
  RouteQuery proxy = base;
  proxy.destination = geo::Point{1e6, -1e6};
  RouteQuery stale = base;
  stale.start_time_s =
      TestWorld().traffic_cache()->latest_observation_time() + 90000.0;
  RouteQuery snapped = base;
  geo::Point near = TestWorld().net().SegmentMidpoint(base.origin);
  near.y += 3.0;
  snapped.origin = roadnet::kInvalidSegment;
  snapped.has_origin_point = true;
  snapped.origin_point = near;

  struct Axis {
    RouteQuery query;
    uint8_t expected;
  };
  const std::vector<Axis> axes = {
      {clean, kDegradationNone},
      {proxy, kDegradationUniformProxy},
      {stale, kDegradationTrafficPriorMean},
      {snapped, kDegradationSnappedOrigin},
  };
  std::atomic<int> bitmask_violations{0};
  std::vector<std::thread> threads;
  threads.reserve(axes.size());
  for (const Axis& axis : axes) {
    threads.emplace_back([&serving, &axis, &bitmask_violations] {
      for (int i = 0; i < kPerThread; ++i) {
        auto result = serving.Predict(axis.query);
        if (!result.ok() ||
            result.value().degradations != axis.expected) {
          bitmask_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bitmask_violations.load(), 0);

  const ServingStats stats = serving.stats();
  EXPECT_EQ(stats.queries, static_cast<int64_t>(axes.size()) * kPerThread);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.degraded, 3 * kPerThread);  // every axis but `clean`
  EXPECT_EQ(stats.uniform_proxy, kPerThread);
  EXPECT_EQ(stats.traffic_prior_mean, kPerThread);
  EXPECT_EQ(stats.snapped_origin, kPerThread);
  EXPECT_EQ(stats.deadline_budget, 0);
}

// -- Traffic posterior memo --------------------------------------------------
// MakeContext memoizes the traffic encoder's posterior by the exact bytes of
// the tensor it reads (overlay applied). A model with the memo (the default
// config) and one without it, built from one seed, hold identical weights,
// so every hit must reproduce the memo-free context bit for bit.

bool SameBytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

void ExpectSameContext(const PredictionContext& a,
                       const PredictionContext& b) {
  ASSERT_EQ(a.has_dest, b.has_dest);
  ASSERT_EQ(a.has_traffic, b.has_traffic);
  EXPECT_TRUE(SameBytes(a.dest_term, b.dest_term));
  EXPECT_TRUE(SameBytes(a.dest_repr, b.dest_repr));
  EXPECT_TRUE(SameBytes(a.traffic_term, b.traffic_term));
  EXPECT_TRUE(SameBytes(a.traffic_repr, b.traffic_repr));
}

// Start of the time slot `time_s` falls in, on the world's cache.
double SlotStart(double time_s) {
  const traffic::TrafficTensorCache& cache = *TestWorld().traffic_cache();
  return cache.SlotOf(time_s) * cache.slot_seconds();
}

// Rows inside the traffic window that feeds `query`'s slot, on its origin.
std::vector<traffic::SpeedObservation> RowsFeeding(const RouteQuery& query) {
  const geo::Point at = TestWorld().net().SegmentMidpoint(query.origin);
  const double t = SlotStart(query.start_time_s) - 60.0;
  return {{at, t, 1.5}, {at, t + 10.0, 2.5}, {at, t + 20.0, 0.5}};
}

// A covered test query whose traffic window cannot see RowsFeeding(base).
RouteQuery QueryInOtherSlot(const RouteQuery& base) {
  const traffic::TrafficTensorCache& cache = *TestWorld().traffic_cache();
  const int slot = cache.SlotOf(base.start_time_s);
  for (const auto* rec : TestWorld().split().test) {
    const RouteQuery q = eval::QueryFor(rec->trip);
    if (std::abs(cache.SlotOf(q.start_time_s) - slot) >= 2 &&
        cache.HasObservations(q.start_time_s)) {
      return q;
    }
  }
  ADD_FAILURE() << "no covered test query two slots away";
  return base;
}

class PosteriorMemoTest : public ServingTest {
 protected:
  void Build(DeepSTConfig cfg, traffic::TrafficTensorCache* cache) {
    ASSERT_GT(cfg.memo_cache_capacity, 0);
    warm_ = std::make_unique<DeepSTModel>(TestWorld().net(), cfg, cache);
    cfg.memo_cache_capacity = 0;
    cold_ = std::make_unique<DeepSTModel>(TestWorld().net(), cfg, cache);
    EXPECT_EQ(cold_->traffic_posterior_memo_stats().capacity, 0);
  }
  void Build() {
    Build(baselines::DeepStConfigOf(SmallConfig()),
          TestWorld().traffic_cache());
  }

  // The memo-free model's context, from rng seed 7.
  PredictionContext Cold(const RouteQuery& q, const ContextOptions& o = {}) {
    util::Rng rng(7);
    return cold_->MakeContext(q, &rng, o);
  }

  // Builds `q`'s context on the memoizing model and checks it against the
  // memo-free model: rng draws included, since sampled prediction draws
  // its reparameterized sample after the posterior lookup. `expect_hit`
  // says whether the memo must already hold the tensor's posterior.
  PredictionContext ExpectMatchesCold(const RouteQuery& q, bool expect_hit,
                                      const ContextOptions& o = {}) {
    const nn::infer::MemoStats before = warm_->traffic_posterior_memo_stats();
    util::Rng warm_rng(7);
    util::Rng cold_rng(7);
    PredictionContext ctx = warm_->MakeContext(q, &warm_rng, o);
    const PredictionContext cold = cold_->MakeContext(q, &cold_rng, o);
    const nn::infer::MemoStats after = warm_->traffic_posterior_memo_stats();
    EXPECT_EQ(after.lookups, before.lookups + 1);
    EXPECT_EQ(after.hits, before.hits + (expect_hit ? 1 : 0));
    EXPECT_EQ(after.misses, before.misses + (expect_hit ? 0 : 1));
    ExpectSameContext(ctx, cold);
    EXPECT_EQ(warm_rng.Gaussian(), cold_rng.Gaussian());
    EXPECT_EQ(warm_rng.NextUint64(), cold_rng.NextUint64());
    return ctx;
  }

  std::unique_ptr<DeepSTModel> warm_;
  std::unique_ptr<DeepSTModel> cold_;
};

TEST_F(PosteriorMemoTest, PlainQueryHitIsBitwiseCold) {
  Build();
  const RouteQuery q = eval::QueryFor(CoveredTrip().trip);
  ExpectMatchesCold(q, /*expect_hit=*/false);
  ExpectMatchesCold(q, /*expect_hit=*/true);
  // Another start time in the same slot reads the same tensor.
  RouteQuery same_slot = q;
  same_slot.start_time_s = SlotStart(q.start_time_s) + 1.0;
  ExpectMatchesCold(same_slot, /*expect_hit=*/true);
  const nn::infer::MemoStats stats = warm_->traffic_posterior_memo_stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.capacity, 0);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST_F(PosteriorMemoTest, OverlayKeysOnEditedBytes) {
  Build();
  const RouteQuery q = eval::QueryFor(CoveredTrip().trip);
  const PredictionContext plain = ExpectMatchesCold(q, false);
  const geo::BoundingBox& box = TestWorld().net().bounds();
  traffic::TrafficOverlay overlay;
  overlay.edits.push_back(
      {traffic::OverlayEdit::Kind::kCloseCells, box.min, box.max, 1.0});
  ContextOptions what_if;
  what_if.overlay = &overlay;
  const PredictionContext edited = ExpectMatchesCold(q, false, what_if);
  EXPECT_FALSE(SameBytes(plain.traffic_repr, edited.traffic_repr));
  ExpectMatchesCold(q, true, what_if);
  ExpectMatchesCold(q, true);  // the plain entry is untouched
}

TEST_F(PosteriorMemoTest, SwapMissesOnlyWhereTheSlotChanged) {
  Build();
  traffic::SnapshotStore store(TestWorld().traffic_cache()->Clone(), nullptr);
  const RouteQuery changed = eval::QueryFor(CoveredTrip().trip);
  const RouteQuery unchanged = QueryInOtherSlot(changed);
  ContextOptions gen1;
  traffic::SnapshotPin pin1 = store.Acquire();
  gen1.traffic_cache = pin1.cache();
  const PredictionContext before = ExpectMatchesCold(changed, false, gen1);
  ExpectMatchesCold(unchanged, false, gen1);

  ASSERT_TRUE(store.Ingest(RowsFeeding(changed)).ok());
  ASSERT_EQ(store.SwapNow(), 2u);
  ContextOptions gen2;
  traffic::SnapshotPin pin2 = store.Acquire();
  gen2.traffic_cache = pin2.cache();
  // The new rows change the changed slot's tensor: a miss that returns the
  // new posterior. The other slot's tensor is rebuilt bit for bit in the
  // new generation, so its entry still serves.
  const PredictionContext after = ExpectMatchesCold(changed, false, gen2);
  EXPECT_FALSE(SameBytes(before.traffic_repr, after.traffic_repr));
  ExpectMatchesCold(changed, true, gen2);
  ExpectMatchesCold(unchanged, true, gen2);
  // The pinned old generation still hits its own entry.
  ExpectMatchesCold(changed, true, gen1);
}

TEST_F(PosteriorMemoTest, AddObservationsOnConstructionCacheMisses) {
  const std::unique_ptr<traffic::TrafficTensorCache> cache =
      TestWorld().traffic_cache()->Clone();
  Build(baselines::DeepStConfigOf(SmallConfig()), cache.get());
  const RouteQuery q = eval::QueryFor(CoveredTrip().trip);
  const PredictionContext before = ExpectMatchesCold(q, false);
  ExpectMatchesCold(q, true);
  cache->AddObservations(RowsFeeding(q));
  const PredictionContext after = ExpectMatchesCold(q, false);
  EXPECT_FALSE(SameBytes(before.traffic_repr, after.traffic_repr));
  ExpectMatchesCold(q, true);
}

TEST_F(PosteriorMemoTest, DegradedContextsHitBitwise) {
  Build();
  const RouteQuery q = eval::QueryFor(CoveredTrip().trip);
  ContextOptions prior_mean;
  prior_mean.traffic_prior_mean = true;
  ContextOptions uniform;
  uniform.uniform_proxy = true;
  ExpectMatchesCold(q, false, prior_mean);
  ExpectMatchesCold(q, true, prior_mean);
  ExpectMatchesCold(q, true, uniform);
  ContextOptions both = prior_mean;
  both.uniform_proxy = true;
  ExpectMatchesCold(q, true, both);
}

TEST_F(PosteriorMemoTest, SampledPredictionDrawsTheSameSample) {
  DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  cfg.map_prediction = false;
  Build(cfg, TestWorld().traffic_cache());
  const RouteQuery q = eval::QueryFor(CoveredTrip().trip);
  const PredictionContext first = ExpectMatchesCold(q, false);
  const PredictionContext hit = ExpectMatchesCold(q, true);
  // Same seed, same sample: the draw comes after the lookup either way.
  EXPECT_TRUE(SameBytes(first.traffic_repr, hit.traffic_repr));
  util::Rng other(8);
  EXPECT_FALSE(SameBytes(first.traffic_repr,
                         warm_->MakeContext(q, &other).traffic_repr));
}

TEST_F(PosteriorMemoTest, RetireClearsTheMemo) {
  Build();
  const RouteQuery q = eval::QueryFor(CoveredTrip().trip);
  ExpectMatchesCold(q, false);
  EXPECT_EQ(warm_->traffic_posterior_memo_stats().entries, 1);
  warm_->RetirePooledSessions();
  EXPECT_EQ(warm_->traffic_posterior_memo_stats().entries, 0);
  ExpectMatchesCold(q, false);
}

// Concurrent MakeContext calls share one memo (run under TSan via
// tools/check_sanitize.sh): every context equals its serial reference and
// the counters balance exactly.
TEST_F(PosteriorMemoTest, ConcurrentMakeContextIsBitwiseAndCounted) {
  Build();
  std::vector<RouteQuery> queries;
  std::vector<PredictionContext> expected;
  for (const auto* rec : TestWorld().split().test) {
    queries.push_back(eval::QueryFor(rec->trip));
    expected.push_back(Cold(queries.back()));
    if (queries.size() == 12) break;
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t k = (i + static_cast<size_t>(w) * 5) % queries.size();
          util::Rng rng(7);
          const PredictionContext ctx = warm_->MakeContext(queries[k], &rng);
          if (!SameBytes(ctx.traffic_repr, expected[k].traffic_repr) ||
              !SameBytes(ctx.traffic_term, expected[k].traffic_term) ||
              !SameBytes(ctx.dest_repr, expected[k].dest_repr)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const nn::infer::MemoStats stats = warm_->traffic_posterior_memo_stats();
  EXPECT_EQ(stats.lookups,
            static_cast<int64_t>(kThreads * kRounds * queries.size()));
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_GE(stats.entries, 1);
  EXPECT_LE(stats.entries, static_cast<int64_t>(queries.size()));
  // A thread misses a tensor at most once: it inserts before going on.
  EXPECT_LE(stats.misses, kThreads * stats.entries);
}

}  // namespace
}  // namespace core
}  // namespace deepst
