#include "serve/metrics.h"

#include <cmath>

#include "util/string_util.h"

namespace deepst {
namespace serve {

void LatencyHistogram::Record(double millis) {
  double us = millis * 1000.0;
  if (!(us >= 0.0)) us = 0.0;  // NaN and negatives land in bucket 0
  int b = 0;
  while (b + 1 < kBuckets && us >= 2.0) {
    us *= 0.5;
    ++b;
  }
  buckets_[static_cast<size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double LatencyHistogram::Quantile(double q) const {
  const int64_t total = count_.load(std::memory_order_relaxed);
  if (total <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based, ceil), as in nearest-rank quantiles.
  int64_t rank = static_cast<int64_t>(std::ceil(q * total));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper bucket edge, converted back to milliseconds.
      return std::ldexp(1.0, b + 1) / 1000.0;
    }
  }
  return std::ldexp(1.0, kBuckets) / 1000.0;
}

void BatchShapeHistogram::Record(int64_t rows) {
  if (rows < 1) rows = 1;
  int b = 0;
  while (b + 1 < kBuckets && rows >= 2) {
    rows >>= 1;
    ++b;
  }
  buckets_[static_cast<size_t>(b)].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot Snapshot(const ServeMetrics& metrics) {
  MetricsSnapshot s;
  s.submitted = metrics.submitted.load(std::memory_order_relaxed);
  s.admitted = metrics.admitted.load(std::memory_order_relaxed);
  s.shed_queue_full = metrics.shed_queue_full.load(std::memory_order_relaxed);
  s.rejected_draining =
      metrics.rejected_draining.load(std::memory_order_relaxed);
  s.completed_ok = metrics.completed_ok.load(std::memory_order_relaxed);
  s.failed = metrics.failed.load(std::memory_order_relaxed);
  s.expired_in_queue = metrics.expired_in_queue.load(std::memory_order_relaxed);
  s.batches = metrics.batches.load(std::memory_order_relaxed);
  s.batch_requests = metrics.batch_requests.load(std::memory_order_relaxed);
  s.watchdog_recycles =
      metrics.watchdog_recycles.load(std::memory_order_relaxed);
  s.workers_spawned = metrics.workers_spawned.load(std::memory_order_relaxed);
  s.p50_ms = metrics.latency.Quantile(0.50);
  s.p99_ms = metrics.latency.Quantile(0.99);
  for (int b = 0; b < BatchShapeHistogram::kBuckets; ++b) {
    s.batch_shape[static_cast<size_t>(b)] = metrics.batch_shape.bucket(b);
  }
  return s;
}

std::string MetricsSnapshot::ToJson() const {
  std::string shape = "[";
  for (size_t b = 0; b < batch_shape.size(); ++b) {
    if (b > 0) shape += ", ";
    shape += util::StrFormat("%lld", static_cast<long long>(batch_shape[b]));
  }
  shape += "]";
  return util::StrFormat(
      "{\"submitted\": %lld, \"admitted\": %lld, \"shed_queue_full\": %lld, "
      "\"rejected_draining\": %lld, \"completed_ok\": %lld, \"failed\": %lld, "
      "\"expired_in_queue\": %lld, \"batches\": %lld, "
      "\"batch_requests\": %lld, \"batch_shape\": %s, "
      "\"watchdog_recycles\": %lld, "
      "\"workers_spawned\": %lld, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
      "\"cache\": {\"lookups\": %lld, \"hits\": %lld, \"misses\": %lld, "
      "\"insertions\": %lld, \"invalidations\": %lld, \"epoch\": %lld, "
      "\"capacity\": %lld}, "
      "\"context_cache\": {\"lookups\": %lld, \"hits\": %lld, "
      "\"misses\": %lld, \"entries\": %lld}, "
      "\"traffic\": {\"enabled\": %s, \"generation\": %lld, \"swaps\": %lld, "
      "\"snapshot_age_s\": %.3f, \"rows_accepted\": %lld, "
      "\"rows_rejected\": %lld, \"rows_pending\": %lld, "
      "\"wal_bytes\": %lld, \"wal_fsyncs\": %lld, "
      "\"pinned_readers\": %lld, \"pinned_high_water\": %lld}}",
      static_cast<long long>(submitted), static_cast<long long>(admitted),
      static_cast<long long>(shed_queue_full),
      static_cast<long long>(rejected_draining),
      static_cast<long long>(completed_ok), static_cast<long long>(failed),
      static_cast<long long>(expired_in_queue),
      static_cast<long long>(batches), static_cast<long long>(batch_requests),
      shape.c_str(), static_cast<long long>(watchdog_recycles),
      static_cast<long long>(workers_spawned), p50_ms, p99_ms,
      static_cast<long long>(cache_lookups), static_cast<long long>(cache_hits),
      static_cast<long long>(cache_misses),
      static_cast<long long>(cache_insertions),
      static_cast<long long>(cache_invalidations),
      static_cast<long long>(cache_epoch),
      static_cast<long long>(cache_capacity),
      static_cast<long long>(context_cache_lookups),
      static_cast<long long>(context_cache_hits),
      static_cast<long long>(context_cache_misses),
      static_cast<long long>(context_cache_entries),
      traffic_enabled ? "true" : "false",
      static_cast<long long>(traffic_generation),
      static_cast<long long>(traffic_swaps), traffic_snapshot_age_s,
      static_cast<long long>(traffic_rows_accepted),
      static_cast<long long>(traffic_rows_rejected),
      static_cast<long long>(traffic_rows_pending),
      static_cast<long long>(traffic_wal_bytes),
      static_cast<long long>(traffic_wal_fsyncs),
      static_cast<long long>(traffic_pinned_readers),
      static_cast<long long>(traffic_pinned_high_water));
}

}  // namespace serve
}  // namespace deepst
