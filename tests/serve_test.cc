// serve::Server coverage (docs/serving.md): cross-client batching parity
// with direct ServingContext calls, admission control (queue-full shedding
// with a retry-after hint, drain rejections), end-to-end deadlines where
// queue wait counts against the budget, exception isolation inside a
// coalesced batch, the hung-worker watchdog recycling session leases, and
// the zero-leaked-leases invariant after shutdown. The chaos soak
// (tools/check_serve.sh) drives the same machinery through the CLI daemon;
// these tests pin the semantics deterministically.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "baselines/neural_router.h"
#include "core/deepst_model.h"
#include "core/serving.h"
#include "eval/world.h"
#include "serve/server.h"
#include "traffic/snapshot.h"
#include "traffic/store.h"
#include "util/fault_injector.h"

namespace deepst {
namespace serve {
namespace {

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "serve-test-world";
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

core::DeepSTConfig SmallConfig() {
  core::DeepSTConfig cfg;
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

core::DeepSTModel& TestModel() {
  static core::DeepSTModel* model = new core::DeepSTModel(
      TestWorld().net(), baselines::DeepStConfigOf(SmallConfig()),
      TestWorld().traffic_cache());
  return *model;
}

// Distinct test queries with routes long enough to exercise beam search.
std::vector<core::RouteQuery> TestQueries(size_t n) {
  std::vector<core::RouteQuery> queries;
  for (const auto* rec : TestWorld().split().test) {
    if (rec->trip.route.size() < 3) continue;
    queries.push_back(eval::QueryFor(rec->trip));
    if (queries.size() == n) break;
  }
  EXPECT_EQ(queries.size(), n) << "test world too small";
  return queries;
}

core::ServingRequest PredictRequest(const core::RouteQuery& query,
                                    double deadline_ms = 0.0) {
  core::ServingRequest req;
  req.query = query;
  req.deadline_ms = deadline_ms;
  return req;
}

class ServeTest : public testing::Test {
 protected:
  void TearDown() override {
    util::FaultInjector::Instance().Reset();
    EXPECT_EQ(TestModel().outstanding_session_leases(), 0)
        << "a test leaked a session lease";
  }
};

TEST_F(ServeTest, BatchedExecutionMatchesDirectServingBitwise) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(4);

  // Reference: each query served directly, one at a time.
  std::vector<traj::Route> direct;
  for (const auto& q : queries) {
    auto r = serving.Predict(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    direct.push_back(r.value().route);
  }

  ServeOptions opts;
  opts.workers = 2;
  Server server(&serving, opts);
  server.Start();
  std::vector<std::future<util::StatusOr<core::ServingResult>>> futures;
  for (const auto& q : queries) {
    futures.push_back(server.Submit(PredictRequest(q)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().route, direct[i]) << "query " << i;
  }
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.submitted, 4);
  EXPECT_EQ(snap.admitted, 4);
  EXPECT_EQ(snap.completed_ok, 4);
  EXPECT_EQ(snap.failed, 0);
  // Transition-memo counters ride along in the snapshot: the default config
  // memoizes, the accounting invariant holds exactly, and the stats JSON
  // nests them under a "cache" object.
  EXPECT_GT(snap.cache_capacity, 0);
  EXPECT_GT(snap.cache_lookups, 0);
  EXPECT_EQ(snap.cache_hits + snap.cache_misses, snap.cache_lookups);
  EXPECT_NE(snap.ToJson().find("\"cache\""), std::string::npos);
  EXPECT_NE(snap.ToJson().find("\"hits\""), std::string::npos);
  // Batch-shape histogram invariants: every executed (non-empty) batch lands
  // in exactly one log2 bucket, so the bucket sum is positive after traffic
  // and never exceeds the dequeue count; the JSON exports the buckets.
  int64_t shape_total = 0;
  for (int64_t c : snap.batch_shape) {
    EXPECT_GE(c, 0);
    shape_total += c;
  }
  EXPECT_GT(shape_total, 0);
  EXPECT_LE(shape_total, snap.batches);
  EXPECT_NE(snap.ToJson().find("\"batch_shape\""), std::string::npos);
}

TEST_F(ServeTest, ContextCacheCountersRideAlongInSnapshot) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(3);
  const nn::infer::MemoStats before =
      TestModel().traffic_posterior_memo_stats();
  Server server(&serving, ServeOptions());
  server.Start();
  // Each query twice: the second read of a traffic tensor is a memo hit.
  std::vector<std::future<util::StatusOr<core::ServingResult>>> futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& q : queries) {
      futures.push_back(server.Submit(PredictRequest(q)));
    }
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_GE(snap.context_cache_lookups - before.lookups,
            static_cast<int64_t>(futures.size()));
  EXPECT_GT(snap.context_cache_hits, before.hits);
  EXPECT_EQ(snap.context_cache_hits + snap.context_cache_misses,
            snap.context_cache_lookups);
  EXPECT_GE(snap.context_cache_entries, 1);
  EXPECT_LE(snap.context_cache_entries,
            TestModel().traffic_posterior_memo_stats().capacity);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"context_cache\": {\"lookups\": "), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"entries\": "), std::string::npos) << json;
}

TEST_F(ServeTest, ScoreRequestsReturnPerCandidateScores) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto& test = TestWorld().split().test;
  const traj::TripRecord* rec = nullptr;
  for (const auto* r : test) {
    if (r->trip.route.size() >= 3) {
      rec = r;
      break;
    }
  }
  ASSERT_NE(rec, nullptr);
  const core::RouteQuery query = eval::QueryFor(rec->trip);
  auto direct = serving.ScoreRoute(query, rec->trip.route);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Server server(&serving, ServeOptions{});
  server.Start();
  core::ServingRequest req;
  req.kind = core::ServingRequest::Kind::kScore;
  req.query = query;
  req.routes = {rec->trip.route, rec->trip.route};
  auto result = server.Execute(std::move(req));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().scores.size(), 2u);
  EXPECT_EQ(result.value().scores[0], direct.value().score);
  EXPECT_EQ(result.value().scores[1], direct.value().score);
  EXPECT_EQ(result.value().score, direct.value().score);
}

// Requests queued before Start coalesce into one worker batch: the tentpole
// cross-query batching claim, observable through the batch counters.
TEST_F(ServeTest, QueuedRequestsCoalesceIntoOneBatch) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(4);
  ServeOptions opts;
  opts.workers = 1;
  opts.max_batch = 8;
  opts.batch_window_us = 200;
  Server server(&serving, opts);
  std::vector<std::future<util::StatusOr<core::ServingResult>>> futures;
  for (const auto& q : queries) {
    futures.push_back(server.Submit(PredictRequest(q)));
  }
  server.Start();
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().route.empty());
  }
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.batches, 1);
  EXPECT_EQ(snap.batch_requests, 4);
  // The one coalesced batch executed with 4 rows -> log2 bucket 2.
  EXPECT_EQ(snap.batch_shape[2], 1);
  for (size_t b = 0; b < snap.batch_shape.size(); ++b) {
    if (b != 2) EXPECT_EQ(snap.batch_shape[b], 0) << "bucket " << b;
  }
}

TEST_F(ServeTest, ShedsWhenQueueFullWithRetryAfterHint) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(3);
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  Server server(&serving, opts);
  // Workers not started yet: the first two occupy the whole queue.
  auto f0 = server.Submit(PredictRequest(queries[0]));
  auto f1 = server.Submit(PredictRequest(queries[1]));
  auto shed = server.Submit(PredictRequest(queries[2])).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::Status::Code::kResourceExhausted);
  EXPECT_NE(shed.status().ToString().find("retry after"), std::string::npos);
  server.Start();
  EXPECT_TRUE(f0.get().ok());
  EXPECT_TRUE(f1.get().ok());
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.submitted, 3);
  EXPECT_EQ(snap.admitted, 2);
  EXPECT_EQ(snap.shed_queue_full, 1);
  EXPECT_EQ(snap.completed_ok, 2);
}

// Deterministic deadline test: the request sits in the queue (workers not
// started) past its whole budget, so the wait alone -- no execution time at
// all -- expires it. Queue wait counts against the end-to-end deadline.
TEST_F(ServeTest, QueueWaitCountsAgainstDeadline) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(1);
  ServeOptions opts;
  opts.workers = 1;
  Server server(&serving, opts);
  auto future = server.Submit(PredictRequest(queries[0], /*deadline_ms=*/25.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.Start();
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::Status::Code::kDeadlineExceeded);
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.expired_in_queue, 1);
  EXPECT_EQ(snap.completed_ok, 0);
}

// A default deadline from ServeOptions applies to requests that carry none.
TEST_F(ServeTest, DefaultDeadlineStampedOnAdmission) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(1);
  ServeOptions opts;
  opts.workers = 1;
  opts.default_deadline_ms = 25.0;
  Server server(&serving, opts);
  auto future = server.Submit(PredictRequest(queries[0]));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.Start();
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::Status::Code::kDeadlineExceeded);
  server.Shutdown();
}

// One poisoned request must not take down the batch it rode in with: the
// first injected fire fails the whole coalesced batch call, the re-execution
// fallback consumes the second fire on the first request alone, and the
// remaining co-riders complete.
TEST_F(ServeTest, PoisonedRequestFailsAloneInItsBatch) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(4);
  util::FaultInjector::Instance().Arm("infer.query",
                                      util::FaultKind::kIoError,
                                      /*after=*/0, /*count=*/2);
  ServeOptions opts;
  opts.workers = 1;
  opts.max_batch = 8;
  Server server(&serving, opts);
  std::vector<std::future<util::StatusOr<core::ServingResult>>> futures;
  for (const auto& q : queries) {
    futures.push_back(server.Submit(PredictRequest(q)));
  }
  server.Start();
  int ok = 0;
  int failed = 0;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.ok()) {
      EXPECT_FALSE(r.value().route.empty());
      ++ok;
    } else {
      EXPECT_EQ(r.status().code(), util::Status::Code::kInternal);
      ++failed;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(failed, 1);
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.batches, 1);  // one coalesced batch, not four retries
  EXPECT_EQ(snap.completed_ok, 3);
  EXPECT_EQ(snap.failed, 1);
}

TEST_F(ServeTest, DrainRejectsNewWorkAndFinishesAdmitted) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(4);
  ServeOptions opts;
  opts.workers = 2;
  Server server(&serving, opts);
  server.Start();
  std::vector<std::future<util::StatusOr<core::ServingResult>>> futures;
  for (const auto& q : queries) {
    futures.push_back(server.Submit(PredictRequest(q)));
  }
  server.RequestDrain();
  EXPECT_TRUE(server.draining());
  auto rejected = server.Submit(PredictRequest(queries[0])).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            util::Status::Code::kFailedPrecondition);
  // Every admitted request still resolves (finished, never dropped).
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.submitted,
            snap.admitted + snap.shed_queue_full + snap.rejected_draining);
  EXPECT_EQ(snap.admitted, snap.completed_ok + snap.failed);
  EXPECT_EQ(snap.rejected_draining, 1);
  EXPECT_EQ(snap.completed_ok, 4);
}

// A worker stuck inside one query (injected latency spike) trips the
// watchdog: its session leases are recycled via pool-generation retirement
// and a replacement worker keeps the queue draining. The stuck query still
// completes (its stale lease is dropped, not double-freed), nothing leaks.
TEST_F(ServeTest, WatchdogRecyclesHungWorkerAndSpawnsReplacement) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(2);
  util::FaultInjector::Instance().Arm("infer.query",
                                      util::FaultKind::kLatencySpike,
                                      /*after=*/0, /*count=*/1,
                                      /*latency_ms=*/150);
  ServeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;  // the spike pins the first batch only
  opts.batch_window_us = 0;
  opts.watchdog_period_ms = 5.0;
  opts.hung_query_ms = 30.0;
  Server server(&serving, opts);
  server.Start();
  auto slow = server.Submit(PredictRequest(queries[0]));
  // Let the first batch start (and hang) before the second arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto fast = server.Submit(PredictRequest(queries[1]));
  EXPECT_TRUE(slow.get().ok());
  EXPECT_TRUE(fast.get().ok());
  server.Shutdown();
  const MetricsSnapshot snap = server.snapshot();
  EXPECT_GE(snap.watchdog_recycles, 1);
  EXPECT_GE(snap.workers_spawned, 2);  // original + replacement
  EXPECT_EQ(snap.completed_ok, 2);
}

TEST_F(ServeTest, TrafficStatsObjectHoldsStoreInvariants) {
  // Static serving: the traffic object is present but disabled.
  {
    core::ServingContext serving(&TestModel(), &TestWorld().index());
    Server server(&serving, ServeOptions{});
    const MetricsSnapshot snap = server.snapshot();
    EXPECT_FALSE(snap.traffic_enabled);
    EXPECT_NE(snap.ToJson().find("\"traffic\": {\"enabled\": false"),
              std::string::npos);
  }

  // Live serving: counters sampled from the SnapshotStore, with the
  // documented invariants holding at quiescence.
  traffic::SnapshotStore store(TestWorld().traffic_cache()->Clone(), nullptr,
                               traffic::SnapshotStoreConfig{});
  core::ServingContext serving(&TestModel(), &TestWorld().index(), {},
                               &store);
  Server server(&serving, ServeOptions{});
  server.Start();
  const auto queries = TestQueries(2);
  core::ServingRequest ingest;
  ingest.kind = core::ServingRequest::Kind::kIngest;
  ingest.observations = {{{100, 100}, 500.0, 5.0},
                         {{200, 200}, 600.0, 6.0},
                         {{1, 1}, -4.0, 1.0}};  // rejected: negative time
  auto fi = server.Submit(std::move(ingest));
  auto f0 = server.Submit(PredictRequest(queries[0]));
  ASSERT_TRUE(fi.get().ok());
  ASSERT_TRUE(f0.get().ok());
  store.SwapNow();
  auto f1 = server.Submit(PredictRequest(queries[1]));
  ASSERT_TRUE(f1.get().ok());
  server.Shutdown();

  const MetricsSnapshot snap = server.snapshot();
  EXPECT_TRUE(snap.traffic_enabled);
  EXPECT_EQ(snap.traffic_generation, snap.traffic_swaps + 1);
  EXPECT_EQ(snap.traffic_generation, 2);
  EXPECT_EQ(snap.traffic_rows_accepted, 2);
  EXPECT_EQ(snap.traffic_rows_rejected, 1);
  EXPECT_EQ(snap.traffic_rows_pending, 0);  // swap folded everything
  EXPECT_EQ(snap.traffic_pinned_readers, 0);  // drained
  EXPECT_GE(snap.traffic_pinned_high_water, 1);
  EXPECT_GE(snap.traffic_snapshot_age_s, 0.0);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"traffic\": {\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"rows_accepted\": 2"), std::string::npos);
}

TEST_F(ServeTest, ShutdownIsIdempotentAndLeaksNothing) {
  core::ServingContext serving(&TestModel(), &TestWorld().index());
  const auto queries = TestQueries(2);
  Server server(&serving, ServeOptions{});
  server.Start();
  auto f0 = server.Submit(PredictRequest(queries[0]));
  auto f1 = server.Submit(PredictRequest(queries[1]));
  EXPECT_TRUE(f0.get().ok());
  EXPECT_TRUE(f1.get().ok());
  server.Shutdown();
  server.Shutdown();  // second call is a no-op
  EXPECT_EQ(TestModel().outstanding_session_leases(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace deepst
