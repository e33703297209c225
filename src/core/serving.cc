#include "core/serving.h"

#include <cmath>
#include <exception>
#include <utility>

#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace deepst {
namespace core {

namespace {

bool OutsideWithSlack(const geo::BoundingBox& box, const geo::Point& p,
                      double slack_m) {
  return p.x < box.min.x - slack_m || p.x > box.max.x + slack_m ||
         p.y < box.min.y - slack_m || p.y > box.max.y + slack_m;
}

// Runs model code, converting what it throws (injected query faults,
// allocation failure) into the query's Status, so a single bad query can
// never take the process down.
template <typename Fn>
util::Status RunModel(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return util::Status::Internal(
        util::StrFormat("query execution failed: %s", e.what()));
  }
  return util::Status::Ok();
}

// Runs item k of `items` through `call` as a batch of one.
template <typename Item, typename Call>
void RunAlone(std::vector<Item>* items, size_t k, Call&& call) {
  std::vector<Item> one;
  one.push_back(std::move((*items)[k]));
  call(&one);
  (*items)[k] = std::move(one.front());
}

}  // namespace

std::string DegradationsToString(uint8_t degradations) {
  if (degradations == kDegradationNone) return "none";
  std::string out;
  auto append = [&out](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (degradations & kDegradationTrafficPriorMean) append("traffic_prior_mean");
  if (degradations & kDegradationUniformProxy) append("uniform_proxy");
  if (degradations & kDegradationSnappedOrigin) append("snapped_origin");
  if (degradations & kDegradationDeadlineBudget) append("deadline_budget");
  if (degradations & kDegradationOverlayDropped) append("overlay_dropped");
  return out;
}

ServingContext::ServingContext(DeepSTModel* model,
                               const roadnet::SpatialIndex* index,
                               const ServingConfig& config,
                               traffic::SnapshotStore* store)
    : model_(model), index_(index), config_(config), store_(store) {}

traffic::SnapshotPin ServingContext::PinSnapshot(ContextOptions* options,
                                                 ServingResult* result) {
  if (store_ == nullptr) return traffic::SnapshotPin();
  // Admission is the pinning point: from here to the last beam step the
  // query reads this immutable generation, no matter how many swaps land.
  traffic::SnapshotPin pin = store_->Acquire();
  options->traffic_cache = pin.cache();
  result->snapshot_generation = pin.generation();
  return pin;
}

util::Status ServingContext::ResolveQuery(RouteQuery* query,
                                          bool origin_required,
                                          ContextOptions* options,
                                          uint8_t* degradations,
                                          bool* what_if) {
  const roadnet::RoadNetwork& net = model_->network();
  const DeepSTConfig& mc = model_->config();

  // -- Snapshot window ---------------------------------------------------------
  if (!std::isfinite(query->start_time_s) || query->start_time_s < 0.0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "start_time_s %f is not a sane snapshot time", query->start_time_s));
  }

  // -- Origin ------------------------------------------------------------------
  if (query->origin == roadnet::kInvalidSegment && query->has_origin_point) {
    if (!std::isfinite(query->origin_point.x) ||
        !std::isfinite(query->origin_point.y)) {
      return util::Status::InvalidArgument("origin point is not finite");
    }
    if (config_.strict) {
      return util::Status::FailedPrecondition(
          "origin is not a network segment; strict mode refuses to snap");
    }
    const roadnet::SegmentCandidate snap = index_->Nearest(query->origin_point);
    if (snap.segment == roadnet::kInvalidSegment ||
        snap.projection.distance > config_.origin_snap_radius_m) {
      return util::Status::NotFound(util::StrFormat(
          "no segment within %.0f m of origin point (%.1f, %.1f)",
          config_.origin_snap_radius_m, query->origin_point.x,
          query->origin_point.y));
    }
    query->origin = snap.segment;
    *degradations |= kDegradationSnappedOrigin;
  }
  if (origin_required &&
      (query->origin < 0 || query->origin >= net.num_segments())) {
    return util::Status::InvalidArgument(util::StrFormat(
        "origin segment %d out of range (network has %d segments)",
        static_cast<int>(query->origin), net.num_segments()));
  }

  // -- Destination -------------------------------------------------------------
  if (mc.destination_mode == DestinationMode::kProxies) {
    if (!std::isfinite(query->destination.x) ||
        !std::isfinite(query->destination.y)) {
      return util::Status::InvalidArgument("destination is not finite");
    }
    if (OutsideWithSlack(net.bounds(), query->destination,
                         config_.bounds_slack_m)) {
      if (config_.strict) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "destination (%.1f, %.1f) outside the network; strict mode "
            "refuses the uniform-proxy fallback",
            query->destination.x, query->destination.y));
      }
      options->uniform_proxy = true;
      *degradations |= kDegradationUniformProxy;
    }
  } else if (mc.destination_mode == DestinationMode::kFinalSegment) {
    if (query->final_segment < 0 ||
        query->final_segment >= net.num_segments()) {
      return util::Status::InvalidArgument(util::StrFormat(
          "final_segment %d out of range (kFinalSegment mode requires a "
          "valid final segment)",
          static_cast<int>(query->final_segment)));
    }
  }

  // -- Traffic snapshot --------------------------------------------------------
  if (mc.use_traffic) {
    // Staleness is judged against the generation the query pinned at
    // admission, not whatever the store publishes mid-query.
    traffic::TrafficTensorCache* cache = options->traffic_cache != nullptr
                                             ? options->traffic_cache
                                             : model_->traffic_cache();
    const bool missing = !cache->HasObservations(query->start_time_s);
    const bool stale =
        query->start_time_s - cache->latest_observation_time() >
        config_.max_snapshot_age_s;
    if (missing || stale) {
      if (config_.strict) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "traffic snapshot %s for t=%.0f; strict mode refuses the "
            "prior-mean fallback",
            missing ? "missing" : "stale", query->start_time_s));
      }
      options->traffic_prior_mean = true;
      *degradations |= kDegradationTrafficPriorMean;
    }
  }

  // -- What-if overlay ---------------------------------------------------------
  if (!query->overlay.empty()) {
    if (!mc.use_traffic) {
      return util::Status::InvalidArgument(
          "what-if overlay requested on a model variant without traffic "
          "conditioning");
    }
    DEEPST_RETURN_IF_ERROR(traffic::ValidateOverlay(query->overlay));
    if (options->traffic_prior_mean) {
      // The prior-mean fallback already fired (under strict it refused
      // above, so an overlay can never mask a real degradation): there is
      // no observed tensor to edit. Serve reality under the prior and say
      // so, rather than pretending the scenario applied.
      *degradations |= kDegradationOverlayDropped;
    } else {
      options->overlay = &query->overlay;
      if (what_if != nullptr) *what_if = true;
    }
  }
  return util::Status::Ok();
}

util::StatusOr<ServingResult> ServingContext::Predict(const RouteQuery& query) {
  std::vector<ServingRequest> one(1);
  one[0].query = query;
  return std::move(ExecuteBatch(&one).front());
}

util::StatusOr<ServingResult> ServingContext::ScoreRoute(
    const RouteQuery& query, const traj::Route& route) {
  std::vector<ServingRequest> one(1);
  one[0].kind = ServingRequest::Kind::kScore;
  one[0].query = query;
  one[0].routes = {route};
  return std::move(ExecuteBatch(&one).front());
}

util::Status ServingContext::ValidateScoreRoutes(
    const std::vector<traj::Route>& routes) {
  if (routes.empty()) {
    return util::Status::InvalidArgument("score request has no routes");
  }
  const roadnet::RoadNetwork& net = model_->network();
  for (const traj::Route& route : routes) {
    if (route.empty()) {
      return util::Status::InvalidArgument("route is empty");
    }
    for (roadnet::SegmentId s : route) {
      if (s < 0 || s >= net.num_segments()) {
        return util::Status::InvalidArgument(util::StrFormat(
            "route references segment %d out of range", static_cast<int>(s)));
      }
    }
  }
  return util::Status::Ok();
}

util::StatusOr<ServingResult> ServingContext::ExecuteIngest(
    const ServingRequest& request) {
  util::Stopwatch sw;
  if (store_ == nullptr) {
    return util::Status::FailedPrecondition(
        "no live traffic store attached; ingest unavailable");
  }
  traffic::IngestReport report;
  DEEPST_RETURN_IF_ERROR(store_->Ingest(request.observations, &report));
  // Returning OK here IS the durability ack: the WAL append completed.
  ServingResult result;
  result.ingested = report.accepted;
  result.ingest_rejected = report.rejected;
  result.snapshot_generation = store_->generation();
  result.latency_ms = sw.ElapsedMillis();
  return result;
}

std::vector<util::StatusOr<ServingResult>> ServingContext::ExecuteBatch(
    std::vector<ServingRequest>* requests) {
  util::Stopwatch sw;
  const size_t n = requests->size();
  std::vector<util::StatusOr<ServingResult>> results(n, ServingResult{});
  if (n == 0) return results;

  // Stage 1: each request once -- validate, pin, resolve, build its
  // context. A request that fails here only fails its own slot. Ingest
  // requests execute right here: their work is a WAL append, not a model
  // call.
  struct Admitted {
    RouteQuery resolved;
    ContextOptions options;
    util::Rng rng;  // the request's own stream, from config.rng_seed
    PredictionContext ctx;
    traffic::SnapshotPin pin;  // held until the request's result is built
    ServingResult result;      // generation, degradations and what-if so far
  };
  std::vector<Admitted> admitted(n);
  std::vector<size_t> predict_ix;
  std::vector<size_t> score_ix;
  // Settles request i: its admission result, or `status` when not OK.
  auto finish = [&](size_t i, util::Status status) {
    Admitted& a = admitted[i];
    if (status.ok()) {
      a.result.latency_ms = sw.ElapsedMillis();
      results[i] = std::move(a.result);
    } else {
      results[i] = std::move(status);
    }
    a.pin.Release();
    RecordOutcome(results[i]);
  };
  for (size_t i = 0; i < n; ++i) {
    const ServingRequest& req = (*requests)[i];
    Admitted& a = admitted[i];
    if (req.kind == ServingRequest::Kind::kIngest) {
      results[i] = ExecuteIngest(req);
      RecordOutcome(results[i]);
      continue;
    }
    const bool is_score = req.kind == ServingRequest::Kind::kScore;
    a.resolved = req.query;
    util::Status status;
    if (is_score) {
      status = ValidateScoreRoutes(req.routes);
      // Scoring does not generate from the origin; default it to the first
      // route's head so callers can score without resolving one.
      if (status.ok() && a.resolved.origin == roadnet::kInvalidSegment &&
          !a.resolved.has_origin_point) {
        a.resolved.origin = req.routes.front().front();
      }
    }
    if (status.ok()) {
      a.pin = PinSnapshot(&a.options, &a.result);
      status = ResolveQuery(&a.resolved, /*origin_required=*/!is_score,
                            &a.options, &a.result.degradations,
                            &a.result.what_if);
    }
    if (status.ok()) {
      a.rng = util::Rng(config_.rng_seed);
      status = RunModel(
          [&] { a.ctx = model_->MakeContext(a.resolved, &a.rng, a.options); });
    }
    if (!status.ok()) {
      finish(i, std::move(status));
      continue;
    }
    (is_score ? score_ix : predict_ix).push_back(i);
  }

  // Stage 2: the model calls. When a call shared by several requests throws
  // (an injected fault, allocation failure), only this stage re-runs,
  // request by request, on the context and pin each already holds, so only
  // the poisoned request fails, with its own Status. A lone request's call
  // is its own, and what it throws is that request's failure.
  if (!predict_ix.empty()) {
    const DeepSTConfig& mc = model_->config();
    std::vector<PredictItem> items(predict_ix.size());
    for (size_t k = 0; k < items.size(); ++k) {
      const size_t i = predict_ix[k];
      const double deadline_ms = (*requests)[i].deadline_ms;
      items[k].ctx = &admitted[i].ctx;
      items[k].origin = admitted[i].resolved.origin;
      items[k].deadline_ms =
          deadline_ms > 0.0 ? deadline_ms : config_.deadline_ms;
    }
    // The MAP beam draws nothing without sampled stops, so those predicts
    // share one call. A predict that draws runs alone on its request's rng:
    // a one-item beam under sample_stop, and PredictRoute's sampled loop
    // (which takes no deadline) without map_prediction.
    auto predict_alone = [&](size_t k) {
      util::Rng* rng = &admitted[predict_ix[k]].rng;
      if (!mc.map_prediction) {
        items[k].route =
            model_->PredictRoute(*items[k].ctx, items[k].origin, rng);
        return;
      }
      RunAlone(&items, k, [&](std::vector<PredictItem>* one) {
        model_->PredictRoutesBeamMulti(one, rng);
      });
    };
    util::Status shared;
    bool alone = !mc.map_prediction || mc.sample_stop;
    if (!alone) {
      shared = RunModel([&] { model_->PredictRoutesBeamMulti(&items); });
      alone = !shared.ok() && items.size() > 1;
    }
    for (size_t k = 0; k < items.size(); ++k) {
      const util::Status status =
          alone ? RunModel([&] { predict_alone(k); }) : shared;
      ServingResult& result = admitted[predict_ix[k]].result;
      if (items[k].budget_hit) {
        result.degradations |= kDegradationDeadlineBudget;
      }
      result.route = std::move(items[k].route);
      finish(predict_ix[k], status);
    }
  }
  if (!score_ix.empty()) {
    // Scoring draws nothing, so the score requests share one call under
    // every config.
    std::vector<ScoreItem> items(score_ix.size());
    for (size_t k = 0; k < items.size(); ++k) {
      items[k].ctx = &admitted[score_ix[k]].ctx;
      items[k].routes = &(*requests)[score_ix[k]].routes;
    }
    auto score_alone = [&](size_t k) {
      RunAlone(&items, k, [this](std::vector<ScoreItem>* one) {
        model_->ScoreRoutesMulti(one);
      });
    };
    const util::Status shared =
        RunModel([&] { model_->ScoreRoutesMulti(&items); });
    const bool alone = !shared.ok() && items.size() > 1;
    for (size_t k = 0; k < items.size(); ++k) {
      const util::Status status =
          alone ? RunModel([&] { score_alone(k); }) : shared;
      ServingResult& result = admitted[score_ix[k]].result;
      result.scores = std::move(items[k].scores);
      result.score = result.scores.empty() ? 0.0 : result.scores.front();
      finish(score_ix[k], status);
    }
  }
  return results;
}

void ServingContext::RecordOutcome(
    const util::StatusOr<ServingResult>& outcome) {
  if (!outcome.ok()) {
    n_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const ServingResult& r = outcome.value();
  n_queries_.fetch_add(1, std::memory_order_relaxed);
  if (r.degraded()) {
    n_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationTrafficPriorMean) {
    n_traffic_prior_mean_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationUniformProxy) {
    n_uniform_proxy_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationSnappedOrigin) {
    n_snapped_origin_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationDeadlineBudget) {
    n_deadline_budget_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.degradations & kDegradationOverlayDropped) {
    n_overlay_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.what_if) {
    n_what_if_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServingStats ServingContext::stats() const {
  ServingStats s;
  s.queries = n_queries_.load(std::memory_order_relaxed);
  s.failures = n_failures_.load(std::memory_order_relaxed);
  s.degraded = n_degraded_.load(std::memory_order_relaxed);
  s.traffic_prior_mean = n_traffic_prior_mean_.load(std::memory_order_relaxed);
  s.uniform_proxy = n_uniform_proxy_.load(std::memory_order_relaxed);
  s.snapped_origin = n_snapped_origin_.load(std::memory_order_relaxed);
  s.deadline_budget = n_deadline_budget_.load(std::memory_order_relaxed);
  s.overlay_dropped = n_overlay_dropped_.load(std::memory_order_relaxed);
  s.what_if = n_what_if_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace core
}  // namespace deepst
