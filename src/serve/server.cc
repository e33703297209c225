#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace deepst {
namespace serve {

Server::Server(core::ServingContext* context, const ServeOptions& options)
    : context_(context), options_(options), queue_(options.queue_capacity) {
  DEEPST_CHECK(context_ != nullptr);
  DEEPST_CHECK(options_.workers > 0);
  DEEPST_CHECK(options_.max_batch > 0);
}

Server::~Server() { Shutdown(); }

MetricsSnapshot Server::snapshot() const {
  MetricsSnapshot s = Snapshot(metrics_);
  const core::DeepSTModel* model = context_->model();
  if (model != nullptr) {
    const nn::infer::MemoStats ms = model->transition_memo_stats();
    s.cache_lookups = ms.lookups;
    s.cache_hits = ms.hits;
    s.cache_misses = ms.misses;
    s.cache_insertions = ms.insertions;
    s.cache_invalidations = ms.invalidations;
    s.cache_epoch = static_cast<int64_t>(ms.epoch);
    s.cache_capacity = ms.capacity;
    const nn::infer::MemoStats ps = model->traffic_posterior_memo_stats();
    s.context_cache_lookups = ps.lookups;
    s.context_cache_hits = ps.hits;
    s.context_cache_misses = ps.misses;
    s.context_cache_entries = ps.entries;
  }
  traffic::SnapshotStore* store = context_->snapshot_store();
  if (store != nullptr) {
    const traffic::SnapshotStoreStats ts = store->stats();
    s.traffic_enabled = true;
    s.traffic_generation = static_cast<int64_t>(ts.generation);
    s.traffic_swaps = ts.swaps;
    s.traffic_snapshot_age_s = ts.snapshot_age_s;
    s.traffic_rows_accepted = ts.rows_accepted;
    s.traffic_rows_rejected = ts.rows_rejected;
    s.traffic_rows_pending = ts.rows_pending;
    s.traffic_wal_bytes = ts.wal_bytes;
    s.traffic_wal_fsyncs = ts.wal_fsyncs;
    s.traffic_pinned_readers = ts.pinned_readers;
    s.traffic_pinned_high_water = ts.pinned_reader_high_water;
  }
  return s;
}

int64_t Server::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Server::SpawnWorkerLocked() {
  worker_states_.push_back(std::make_unique<WorkerState>());
  WorkerState* state = worker_states_.back().get();
  threads_.emplace_back([this, state] { WorkerLoop(state); });
  metrics_.workers_spawned.fetch_add(1, std::memory_order_relaxed);
}

void Server::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (int i = 0; i < options_.workers; ++i) SpawnWorkerLocked();
  if (options_.hung_query_ms > 0.0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

std::future<util::StatusOr<core::ServingResult>> Server::Submit(
    core::ServingRequest request) {
  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  auto reject = [](util::Status status) {
    std::promise<util::StatusOr<core::ServingResult>> p;
    std::future<util::StatusOr<core::ServingResult>> f = p.get_future();
    p.set_value(std::move(status));
    return f;
  };
  if (draining_.load(std::memory_order_acquire)) {
    metrics_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
    return reject(util::Status::FailedPrecondition(
        "server is draining; not admitting new requests"));
  }
  auto pending = std::make_unique<Pending>();
  pending->deadline_ms = request.deadline_ms > 0.0
                             ? request.deadline_ms
                             : options_.default_deadline_ms;
  pending->request = std::move(request);
  std::future<util::StatusOr<core::ServingResult>> future =
      pending->promise.get_future();
  if (!queue_.TryPush(std::move(pending))) {
    // Overload shedding: the queue is the only buffer, and it is full. Tell
    // the client when to come back instead of letting latency collapse.
    metrics_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
    return reject(util::Status::ResourceExhausted(util::StrFormat(
        "request queue full (%zu deep); retry after %.1f ms",
        queue_.capacity(), options_.retry_after_ms)));
  }
  metrics_.admitted.fetch_add(1, std::memory_order_relaxed);
  return future;
}

util::StatusOr<core::ServingResult> Server::Execute(
    core::ServingRequest request) {
  return Submit(std::move(request)).get();
}

void Server::WorkerLoop(WorkerState* state) {
  std::vector<std::unique_ptr<Pending>> batch;
  std::vector<core::ServingRequest> requests;
  std::vector<size_t> live;  // batch index of each request in `requests`
  while (true) {
    batch.clear();
    if (!queue_.PopBatch(&batch, options_.max_batch,
                         std::chrono::microseconds(options_.batch_window_us))) {
      return;  // queue closed and drained
    }
    state->busy_since_ms.store(NowMs(), std::memory_order_relaxed);
    state->busy_epoch.fetch_add(1, std::memory_order_release);  // -> odd

    metrics_.batches.fetch_add(1, std::memory_order_relaxed);
    metrics_.batch_requests.fetch_add(static_cast<int64_t>(batch.size()),
                                      std::memory_order_relaxed);
    // Deadline accounting: the time a request spent queued comes out of its
    // budget before the model sees it. Already-expired requests complete
    // here with DeadlineExceeded -- never silently dropped, never executed.
    requests.clear();
    live.clear();
    for (size_t i = 0; i < batch.size(); ++i) {
      Pending& p = *batch[i];
      if (p.deadline_ms > 0.0) {
        const double waited = p.queued.ElapsedMillis();
        const double remaining = p.deadline_ms - waited;
        if (remaining <= 0.0) {
          metrics_.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
          metrics_.failed.fetch_add(1, std::memory_order_relaxed);
          metrics_.latency.Record(waited);
          p.promise.set_value(util::Status::DeadlineExceeded(
              util::StrFormat("deadline %.1f ms expired after %.1f ms in "
                              "queue",
                              p.deadline_ms, waited)));
          continue;
        }
        p.request.deadline_ms = remaining;
      }
      requests.push_back(std::move(p.request));
      live.push_back(i);
    }
    if (!requests.empty()) {
      metrics_.batch_shape.Record(static_cast<int64_t>(requests.size()));
      // ExecuteBatch is exception-isolated internally; each slot always
      // carries a Status or a result, so every promise below resolves.
      std::vector<util::StatusOr<core::ServingResult>> results =
          context_->ExecuteBatch(&requests);
      for (size_t k = 0; k < live.size(); ++k) {
        Pending& p = *batch[live[k]];
        const double total_ms = p.queued.ElapsedMillis();
        if (results[k].ok()) {
          // Latency reported to the client spans admission to completion,
          // consistent with the deadline the budget was charged against.
          results[k].value().latency_ms = total_ms;
          metrics_.completed_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          metrics_.failed.fetch_add(1, std::memory_order_relaxed);
        }
        metrics_.latency.Record(total_ms);
        p.promise.set_value(std::move(results[k]));
      }
    }

    state->busy_epoch.fetch_add(1, std::memory_order_release);  // -> even
  }
}

void Server::WatchdogLoop() {
  const auto period = std::chrono::microseconds(
      static_cast<int64_t>(options_.watchdog_period_ms * 1000.0));
  while (!stop_watchdog_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& state : worker_states_) {
      const uint64_t epoch = state->busy_epoch.load(std::memory_order_acquire);
      if ((epoch & 1) == 0) continue;  // idle
      if (epoch == state->punished_epoch) continue;  // already handled
      const int64_t busy_ms =
          NowMs() - state->busy_since_ms.load(std::memory_order_relaxed);
      if (busy_ms < static_cast<int64_t>(options_.hung_query_ms)) continue;
      // The worker has been stuck on one batch past the hang threshold.
      // Retire the model's session pool: the stuck worker's leased session
      // is now stale and will be destroyed (not re-pooled) whenever it
      // finally unwinds, so its possibly-poisoned scratch state can never
      // serve another query. Then add a replacement worker (up to the cap)
      // so throughput survives the stuck thread.
      state->punished_epoch = epoch;
      metrics_.watchdog_recycles.fetch_add(1, std::memory_order_relaxed);
      context_->model()->RetirePooledSessions();
      const int spawned = static_cast<int>(worker_states_.size());
      if (spawned < options_.workers + options_.max_replacement_workers &&
          !queue_.closed()) {
        SpawnWorkerLocked();
      }
    }
  }
}

void Server::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  queue_.Close();
}

void Server::Shutdown() {
  RequestDrain();
  stop_watchdog_.store(true, std::memory_order_release);
  std::vector<std::thread> threads;
  std::thread watchdog;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads.swap(threads_);
    watchdog.swap(watchdog_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (watchdog.joinable()) watchdog.join();
}

bool Server::draining() const {
  return draining_.load(std::memory_order_acquire);
}

}  // namespace serve
}  // namespace deepst
