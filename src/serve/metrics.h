#ifndef DEEPST_SERVE_METRICS_H_
#define DEEPST_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace deepst {
namespace serve {

// Lock-free log-bucketed latency histogram: bucket b holds samples in
// [2^b, 2^(b+1)) microseconds, so 48 buckets span sub-microsecond to ~eight
// years. Record is two relaxed atomic increments -- cheap enough to sit on
// the per-request completion path -- and quantiles are read by walking the
// bucket counts (resolution: one power of two, plenty for gating p99
// regressions an order of magnitude apart).
class LatencyHistogram {
 public:
  void Record(double millis);
  // Quantile in milliseconds (q in [0, 1]); 0 when empty. Returns the upper
  // edge of the bucket containing the q-th sample.
  double Quantile(double q) const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  static constexpr int kBuckets = 48;
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
};

// Log2 histogram of executed batch shapes: bucket b counts batches whose
// post-expiry request count landed in [2^b, 2^(b+1)), so bucket 0 is
// single-request batches and the top bucket absorbs anything >= 2^11. The
// batching win comes from the blocked GEMM kernels amortizing weight reads
// across rows, so the shape distribution (not just the mean
// batch_requests/batches) is what says whether cross-query coalescing is
// actually producing multi-row steps. Record is one relaxed increment on
// the worker's per-batch path.
class BatchShapeHistogram {
 public:
  static constexpr int kBuckets = 12;

  void Record(int64_t rows);
  int64_t bucket(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
};

// Monotonic counters covering every way a request can leave the daemon,
// plus the batching and watchdog activity behind them. One shed request is
// exactly one increment of exactly one rejection counter: the chaos soak
// cross-checks submitted == admitted + shed_queue_full + rejected_draining
// and admitted == completed_ok + failed + expired_in_queue.
struct ServeMetrics {
  std::atomic<int64_t> submitted{0};          // Submit calls
  std::atomic<int64_t> admitted{0};           // accepted into the queue
  std::atomic<int64_t> shed_queue_full{0};    // rejected: queue at capacity
  std::atomic<int64_t> rejected_draining{0};  // rejected: drain in progress
  std::atomic<int64_t> completed_ok{0};       // finished with an OK result
  std::atomic<int64_t> failed{0};             // finished with a non-OK Status
  std::atomic<int64_t> expired_in_queue{0};   // deadline died waiting
  std::atomic<int64_t> batches{0};            // worker dequeues
  std::atomic<int64_t> batch_requests{0};     // requests across all batches
  BatchShapeHistogram batch_shape;            // executed (post-expiry) rows
  std::atomic<int64_t> watchdog_recycles{0};  // hung-worker lease retirements
  std::atomic<int64_t> workers_spawned{0};    // incl. watchdog replacements
  LatencyHistogram latency;                   // admission -> completion
};

// Plain-value copy of the counters for reporting.
struct MetricsSnapshot {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t shed_queue_full = 0;
  int64_t rejected_draining = 0;
  int64_t completed_ok = 0;
  int64_t failed = 0;
  int64_t expired_in_queue = 0;
  int64_t batches = 0;
  int64_t batch_requests = 0;
  // batch_shape[b] = executed batches with rows in [2^b, 2^(b+1)).
  // sum(batch_shape) <= batches: only non-empty post-expiry batches record.
  std::array<int64_t, BatchShapeHistogram::kBuckets> batch_shape{};
  int64_t watchdog_recycles = 0;
  int64_t workers_spawned = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  // Transition-memo cache counters, sampled from the model's shared
  // TransitionMemoCache at snapshot time (Server::snapshot) rather than
  // accumulated here. Invariant at quiescence: hits + misses == lookups.
  int64_t cache_lookups = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_insertions = 0;
  int64_t cache_invalidations = 0;
  int64_t cache_epoch = 0;
  int64_t cache_capacity = 0;  // 0 = memoization disabled

  // Traffic posterior memo counters (DeepSTModel::
  // traffic_posterior_memo_stats), sampled the same way. Invariant at
  // quiescence: hits + misses == lookups; entries never exceeds the memo's
  // fixed capacity.
  int64_t context_cache_lookups = 0;
  int64_t context_cache_hits = 0;
  int64_t context_cache_misses = 0;
  int64_t context_cache_entries = 0;

  // Live traffic pipeline counters, sampled from the SnapshotStore at
  // snapshot time (zeros when serving a static snapshot). Invariants at
  // quiescence: traffic_generation == traffic_swaps + 1 (generation 1 is
  // the seed snapshot), traffic_pinned_readers == 0 once drained, and
  // traffic_pinned_high_water never exceeds the peak concurrent queries.
  bool traffic_enabled = false;
  int64_t traffic_generation = 0;
  int64_t traffic_swaps = 0;
  double traffic_snapshot_age_s = 0.0;
  int64_t traffic_rows_accepted = 0;
  int64_t traffic_rows_rejected = 0;
  int64_t traffic_rows_pending = 0;
  int64_t traffic_wal_bytes = 0;
  int64_t traffic_wal_fsyncs = 0;
  int64_t traffic_pinned_readers = 0;
  int64_t traffic_pinned_high_water = 0;

  // One-line JSON object (stable key order) for the stats command and logs.
  // Transition-memo counters nest under a "cache" object, posterior-memo
  // counters under "context_cache", live-traffic counters under "traffic".
  std::string ToJson() const;
};

MetricsSnapshot Snapshot(const ServeMetrics& metrics);

}  // namespace serve
}  // namespace deepst

#endif  // DEEPST_SERVE_METRICS_H_
