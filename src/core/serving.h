#ifndef DEEPST_CORE_SERVING_H_
#define DEEPST_CORE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/deepst_model.h"
#include "roadnet/spatial_index.h"
#include "traffic/store.h"
#include "util/status.h"

namespace deepst {
namespace core {

// Ways a query can be served with reduced fidelity instead of failing.
// Values are bitmask flags (a query can degrade along several axes at once).
enum Degradation : uint8_t {
  kDegradationNone = 0,
  // Missing or stale traffic snapshot: c fixed at the prior mean (zero),
  // which is exactly the paper's DeepST-C ablation at serving time.
  kDegradationTrafficPriorMean = 1 << 0,
  // Unresolvable destination proxy (destination far outside the network):
  // uniform proxy mixture pi = 1/K, the DeepST-pi fallback.
  kDegradationUniformProxy = 1 << 1,
  // Off-network point origin snapped to the nearest segment.
  kDegradationSnappedOrigin = 1 << 2,
  // Beam search returned the best hypothesis so far at the deadline.
  kDegradationDeadlineBudget = 1 << 3,
  // A what-if overlay was requested but the traffic snapshot was missing or
  // stale, so the prior-mean fallback served and there was no observed
  // tensor to edit: the scenario was dropped, the answer is reality under
  // the prior. Strict mode never reaches this -- it refuses the prior-mean
  // fallback first, so an overlay can never mask a real degradation.
  kDegradationOverlayDropped = 1 << 4,
};

struct ServingConfig {
  // Strict mode refuses model-quality fallbacks (traffic prior mean,
  // uniform proxy, origin snapping) with FailedPrecondition instead of
  // degrading. The deadline budget is exempt: it is explicit per-query
  // configuration, and its best-so-far result is still reported degraded.
  bool strict = false;
  // Wall-clock budget for route generation; 0 disables the deadline.
  double deadline_ms = 0.0;
  // Traffic snapshots older than this relative to the query time count as
  // stale and trigger the prior-mean fallback.
  double max_snapshot_age_s = 3600.0;
  // A destination may lie this far outside the network bounding box before
  // the proxy encoder is considered unresolvable.
  double bounds_slack_m = 2000.0;
  // Point origins farther than this from any segment are rejected.
  double origin_snap_radius_m = 500.0;
  // Seed for the per-query rng; with the default MAP-prediction config no
  // draws occur and results are bitwise reproducible regardless.
  uint64_t rng_seed = 0x5eed;
};

struct ServingResult {
  traj::Route route;        // Predict only
  double score = 0.0;       // ScoreRoute only (log-likelihood)
  // Multi-candidate scoring (batched score requests): one log-likelihood
  // per candidate route, ScoreRoutes conventions; `score` mirrors the first.
  std::vector<double> scores;
  uint8_t degradations = kDegradationNone;  // bitmask of Degradation
  double latency_ms = 0.0;
  // Traffic generation the query pinned at admission (0 when serving a
  // static snapshot without a SnapshotStore). Every tensor the query read
  // came from exactly this generation.
  uint64_t snapshot_generation = 0;
  // True when a what-if overlay was actually applied (counterfactual
  // answer, not reality).
  bool what_if = false;
  // kIngest only: rows made durable / rows dropped by validation.
  int64_t ingested = 0;
  int64_t ingest_rejected = 0;

  bool degraded() const { return degradations != kDegradationNone; }
};

// Cumulative accounting across every query served through one context.
// Updated atomically per query: concurrent queries tripping different
// degradation axes never lose counts, and each query's own result bitmask
// stays isolated from its neighbors'.
struct ServingStats {
  int64_t queries = 0;      // accepted queries (OK results)
  int64_t failures = 0;     // non-OK outcomes (validation, refusal, execution)
  int64_t degraded = 0;     // OK results with any degradation bit set
  int64_t traffic_prior_mean = 0;
  int64_t uniform_proxy = 0;
  int64_t snapped_origin = 0;
  int64_t deadline_budget = 0;
  int64_t overlay_dropped = 0;
  int64_t what_if = 0;      // OK results answered under an applied overlay
};

// One request inside a coalesced cross-client batch (see ExecuteBatch).
struct ServingRequest {
  enum class Kind { kPredict, kScore, kIngest };
  Kind kind = Kind::kPredict;
  RouteQuery query;
  // kScore: candidate routes (>= 1). Scored as one padded batch.
  std::vector<traj::Route> routes;
  // kIngest: observation rows to make durable and fold into the next
  // snapshot generation. The OK result is the durability ack (WAL append
  // done); per-row validation failures come back counted, not fatal.
  std::vector<traffic::SpeedObservation> observations;
  // Remaining per-request budget (already net of queue wait when the serve
  // daemon forwards it); 0 falls back to config.deadline_ms.
  double deadline_ms = 0.0;
};

// Human-readable names of the set bits, for logs and CLI output.
std::string DegradationsToString(uint8_t degradations);

// Hardened front door for prediction and scoring. Validates every query
// field against the network before the model sees it (the model layer
// DEEPST_CHECKs its preconditions and must never be reached with bad
// input), substitutes well-defined priors for unavailable context inputs,
// and converts in-flight query failures (injected or real) into Status
// instead of letting them escape. Thread-safe: all state is const after
// construction and the model's own prediction API is concurrency-safe.
class ServingContext {
 public:
  // `model` and `index` must outlive the context; `index` must be built
  // over `model->network()`. `store` (optional, must outlive the context)
  // turns on live-snapshot serving: every query pins the store's current
  // generation at admission and reads only that generation (epoch pinning),
  // and kIngest requests become available. Without a store, queries read
  // the model's construction-time cache and kIngest is refused.
  ServingContext(DeepSTModel* model, const roadnet::SpatialIndex* index,
                 const ServingConfig& config = {},
                 traffic::SnapshotStore* store = nullptr);

  // Route generation for one query: a one-request ExecuteBatch, with
  // config.deadline_ms as its budget. Non-OK only for invalid queries (bad
  // ids, non-finite fields), strict-mode refusals, or query execution
  // failures; degradable conditions come back OK with flags set.
  util::StatusOr<ServingResult> Predict(const RouteQuery& query);

  // Log-likelihood of `route` under the query's context: a one-request
  // ExecuteBatch of one candidate (`scores` holds it too). Routes with
  // out-of-range segment ids are invalid queries; contiguity failures score
  // -inf (a well-defined likelihood statement, not an error).
  util::StatusOr<ServingResult> ScoreRoute(const RouteQuery& query,
                                           const traj::Route& route);

  // The one request pipeline; the single-query calls above are batches of
  // one, so a request's result does not depend on what else shares its
  // batch. Stage 1 takes each request once: validate, pin the snapshot
  // generation (admission), resolve, and build the context on the
  // request's own Rng(config.rng_seed). Stage 2 makes the model calls: all
  // score requests as ONE padded scoring batch, and all predict requests
  // as ONE lock-step beam batch when the beam draws nothing (map_prediction
  // without sample_stop). A predict that draws from the rng (sampled stops,
  // sampled generation) runs alone on its request's rng. Execution is
  // exception-isolated twice over: a failure in stage 1 only fails its own
  // slot, and if a model call shared by several requests throws (an
  // injected fault, allocation failure), only stage 2 re-runs, request by
  // request, on the context and pin each request already holds -- so only
  // the poisoned request returns Internal, and one bad request never takes
  // down the batch it rode in with.
  std::vector<util::StatusOr<ServingResult>> ExecuteBatch(
      std::vector<ServingRequest>* requests);

  // Snapshot of the cumulative counters (torn reads across fields are
  // possible but each field is itself a consistent atomic total).
  ServingStats stats() const;

  const ServingConfig& config() const { return config_; }
  // The served model (the serve daemon's watchdog retires its session pool
  // when recycling hung workers' leases).
  DeepSTModel* model() const { return model_; }
  // The live snapshot store, null when serving a static snapshot.
  traffic::SnapshotStore* snapshot_store() const { return store_; }

 private:
  // Validates and resolves the query in place (origin snapping), collecting
  // degradation flags and the context fallbacks to apply. `options` carries
  // the pinned cache in (staleness is judged against the pinned generation)
  // and the overlay out; `what_if` is set when the overlay will apply.
  util::Status ResolveQuery(RouteQuery* query, bool origin_required,
                            ContextOptions* options, uint8_t* degradations,
                            bool* what_if);
  // Pins the store's current generation (no-op pin without a store),
  // pointing `options` at the pinned cache and stamping the generation into
  // `result`. The returned pin must stay alive for the whole query.
  traffic::SnapshotPin PinSnapshot(ContextOptions* options,
                                   ServingResult* result);
  // kIngest execution: validate rows, WAL-append (the ack), queue for the
  // next swap.
  util::StatusOr<ServingResult> ExecuteIngest(const ServingRequest& request);
  // Folds one finished query into the atomic totals.
  void RecordOutcome(const util::StatusOr<ServingResult>& outcome);
  // Candidate-set validation for score requests (out-of-range segment ids
  // are invalid queries; contiguity is the scorer's business).
  util::Status ValidateScoreRoutes(const std::vector<traj::Route>& routes);

  DeepSTModel* model_;
  const roadnet::SpatialIndex* index_;
  ServingConfig config_;
  traffic::SnapshotStore* store_;
  // ServingStats, field by field (see stats()).
  std::atomic<int64_t> n_queries_{0};
  std::atomic<int64_t> n_failures_{0};
  std::atomic<int64_t> n_degraded_{0};
  std::atomic<int64_t> n_traffic_prior_mean_{0};
  std::atomic<int64_t> n_uniform_proxy_{0};
  std::atomic<int64_t> n_snapped_origin_{0};
  std::atomic<int64_t> n_deadline_budget_{0};
  std::atomic<int64_t> n_overlay_dropped_{0};
  std::atomic<int64_t> n_what_if_{0};
};

}  // namespace core
}  // namespace deepst

#endif  // DEEPST_CORE_SERVING_H_
