#ifndef DEEPST_SERVE_SERVER_H_
#define DEEPST_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/serving.h"
#include "serve/metrics.h"
#include "serve/queue.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace deepst {
namespace serve {

struct ServeOptions {
  // Worker threads draining the request queue. Each worker executes one
  // coalesced batch at a time through ServingContext::ExecuteBatch, so
  // peak concurrent inference sessions == live workers.
  int workers = 2;
  // Admission bound: requests beyond this depth are shed, not queued.
  size_t queue_capacity = 64;
  // Batching scheduler: up to max_batch requests per dequeue, lingering up
  // to batch_window_us after the first request for co-riders.
  size_t max_batch = 8;
  int64_t batch_window_us = 200;
  // Default end-to-end budget stamped onto requests that carry none
  // (deadline includes queue wait); 0 = no deadline.
  double default_deadline_ms = 0.0;
  // Suggested client backoff reported with every shed rejection.
  double retry_after_ms = 5.0;
  // Watchdog: scan period, and how long a worker may stay busy on one batch
  // before it is declared hung (0 disables the watchdog).
  double watchdog_period_ms = 20.0;
  double hung_query_ms = 0.0;
  // Cap on replacement workers the watchdog may add beyond `workers`.
  int max_replacement_workers = 4;
};

// The `deepst serve` daemon core: a bounded MPMC queue in front of worker
// threads that drain it in coalesced cross-client batches, with admission
// control, end-to-end deadlines, a hung-worker watchdog, and graceful
// drain. In-process by design -- the CLI speaks a line protocol over stdin
// on top of it, tests and benches call Submit directly.
//
// Lifecycle: construct -> Start() -> Submit()... -> Shutdown(). Submissions
// before Start() queue up (deadlines ticking -- queue wait always counts);
// submissions after RequestDrain()/Shutdown() are rejected. Shutdown drains:
// admitted requests are finished or deadline-expired, never dropped.
class Server {
 public:
  Server(core::ServingContext* context, const ServeOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Spawns the worker and watchdog threads. Call once.
  void Start();

  // Admission. The returned future resolves when the request completes.
  // Sheds synchronously with a ready future carrying
  //  - ResourceExhausted("... retry after ...") when the queue is full,
  //  - FailedPrecondition when the server is draining.
  std::future<util::StatusOr<core::ServingResult>> Submit(
      core::ServingRequest request);

  // Blocking convenience: Submit + wait.
  util::StatusOr<core::ServingResult> Execute(core::ServingRequest request);

  // Stops admission; already-admitted requests keep executing.
  void RequestDrain();
  // RequestDrain + wait for the queue to empty and all threads to exit.
  // Idempotent; also run by the destructor.
  void Shutdown();

  bool draining() const;
  // Counter snapshot, with the model's transition-memo and posterior-memo
  // counters filled into the cache_* and context_cache_* fields (zeros when
  // memoization is disabled).
  MetricsSnapshot snapshot() const;
  const ServeMetrics& metrics() const { return metrics_; }
  size_t queue_depth() const { return queue_.size(); }

 private:
  // One queued request: payload + completion promise + admission clock.
  struct Pending {
    core::ServingRequest request;
    std::promise<util::StatusOr<core::ServingResult>> promise;
    util::Stopwatch queued;     // running since admission
    double deadline_ms = 0.0;   // total end-to-end budget; 0 = none
  };
  // Per-worker liveness record for the watchdog. `busy_epoch` is even when
  // idle and odd while executing a batch; `busy_since_ms` timestamps the
  // current batch (monotonic clock).
  struct WorkerState {
    std::atomic<uint64_t> busy_epoch{0};
    std::atomic<int64_t> busy_since_ms{0};
    uint64_t punished_epoch = 0;  // watchdog-only bookkeeping
  };

  void WorkerLoop(WorkerState* state);
  void WatchdogLoop();
  void SpawnWorkerLocked();
  static int64_t NowMs();

  core::ServingContext* context_;
  const ServeOptions options_;
  BoundedQueue<std::unique_ptr<Pending>> queue_;
  ServeMetrics metrics_;

  mutable std::mutex threads_mu_;
  std::vector<std::thread> threads_;  // workers + replacements
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  std::thread watchdog_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_watchdog_{false};
};

}  // namespace serve
}  // namespace deepst

#endif  // DEEPST_SERVE_SERVER_H_
