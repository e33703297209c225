// Run step of the end-to-end serving benchmark: set-up from the prepared
// files, warm-up, the timed capacity and paced phases through the real
// serve::Server, output checks, and (with --trace 1) the traced per-layer
// replay. See README.md for the workloads and metric definitions.
#include "bench.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "core/infer/session.h"
#include "core/serving.h"
#include "eval/metrics.h"
#include "roadnet/io.h"
#include "serve/server.h"
#include "traffic/store.h"
#include "traffic/wal.h"
#include "traj/dataset.h"
#include "traj/generator.h"
#include "traj/io.h"

namespace perfbench {

int64_t AllocationCount();  // alloc_count.cc

namespace {

using Clock = std::chrono::steady_clock;
using Result = util::StatusOr<core::ServingResult>;

// Closed-loop depth. Two workers with max_batch 8 need well over 8 requests
// in flight, or one worker takes every batch while the other idles. 64 keeps
// ~6 batches queued (the queue admits 64), so a stall of the load thread of a
// few milliseconds does not starve the workers.
constexpr int kDepth = 64;
// The capacity and paced phases are each cut into this many slices and
// alternated, so both sample the host over the whole run rather than one
// stretch of it.
constexpr int kRounds = 5;
// Capacity slices keep the routes of their first this many requests for the
// route checks (and a hash of every route), so the benchmark's own records
// stay a small, steady part of the peak RSS.
constexpr size_t kKeptRoutes = 2000;
// The paced generator sleeps to this long before each due time, then spins:
// a sleeping thread's wake-up on a virtual CPU can run milliseconds late.
constexpr std::chrono::microseconds kSpin(500);

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Host CPU accounting from /proc/stat (all CPUs), for the steal share.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  for (int field = 0; field < 10 && in; ++field) {
    double v = 0.0;
    in >> v;
    if (field < 8) t.total += v;  // guest time is already inside user
    if (field == 7) t.steal = v;
  }
  return t;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::ceil(q * static_cast<double>(v.size())) - 1.0;
  const size_t ix = static_cast<size_t>(
      std::clamp(pos, 0.0, static_cast<double>(v.size() - 1)));
  return v[ix];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

uint64_t RouteHash(const traj::Route& r) {
  uint64_t h = 1469598103934665603ULL;
  for (roadnet::SegmentId s : r) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(s))) *
        1099511628211ULL;
  }
  return h;
}

const char* DispatchedIsa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2,fma";
  }
  return "default";
}

// -- Served stack and set-up ----------------------------------------------------

// Everything one run serves from. Members are destroyed in reverse order, so
// the server drains before the context, store and model go away.
struct Stack {
  roadnet::LoadedCity city;
  std::vector<traj::TripRecord> records;
  traj::DatasetSplit split;
  std::unique_ptr<traffic::TrafficTensorCache> cache;
  std::unique_ptr<core::DeepSTModel> model;
  std::unique_ptr<traffic::SnapshotStore> store;
  std::unique_ptr<core::ServingContext> serving;
  std::unique_ptr<serve::Server> server;
};

struct SetupTimes {
  double total_s = 0.0;
  double city_s = 0.0;
  double data_s = 0.0;
  double model_s = 0.0;
  double pack_s = 0.0;
  double wal_s = 0.0;
};

core::ServingRequest ToServing(const Request& r) {
  core::ServingRequest q;
  q.kind = r.kind == Kind::kScore    ? core::ServingRequest::Kind::kScore
           : r.kind == Kind::kIngest ? core::ServingRequest::Kind::kIngest
                                     : core::ServingRequest::Kind::kPredict;
  q.query = r.query;
  q.routes = r.routes;
  q.observations = r.rows;
  return q;
}

// Writes the WAL the live server finds on disk at start (untimed).
util::Status WriteWalPreimage(const std::string& path,
                              const std::vector<traffic::SpeedObservation>& rows) {
  std::remove(path.c_str());
  auto wal = traffic::ObservationWal::Open(
      path, traffic::ObservationWal::Options(), nullptr, nullptr);
  DEEPST_RETURN_IF_ERROR(wal.status());
  for (size_t i = 0; i < rows.size(); i += 16) {
    const std::vector<traffic::SpeedObservation> frame(
        rows.begin() + static_cast<std::ptrdiff_t>(i),
        rows.begin() + static_cast<std::ptrdiff_t>(std::min(rows.size(), i + 16)));
    DEEPST_RETURN_IF_ERROR(wal.value()->Append(frame));
  }
  return wal.value()->Sync();
}

// From files on disk to the first request accepted by the server.
util::StatusOr<SetupTimes> Setup(const WorldSpec& world,
                                 const RunOptions& opt, bool live,
                                 const Request& first, Stack* s,
                                 std::future<Result>* first_result) {
  SetupTimes t;
  const auto t0 = Clock::now();
  auto city = roadnet::LoadCity(CityPath(opt.world_dir));
  DEEPST_RETURN_IF_ERROR(city.status());
  s->city = std::move(city).value();
  const auto t1 = Clock::now();
  auto records = traj::LoadDataset(DatasetPath(opt.world_dir));
  DEEPST_RETURN_IF_ERROR(records.status());
  s->records = std::move(records).value();
  s->split = traj::SplitByDay(s->records, world.train_days, world.val_days);
  s->cache = std::make_unique<traffic::TrafficTensorCache>(
      geo::GridSpec(s->city.net->bounds(), world.traffic_cell_m),
      world.slot_seconds, world.window_seconds);
  s->cache->AddObservations(traj::CollectObservations(s->records));
  const auto t2 = Clock::now();
  auto model = core::DeepSTModel::LoadFromFile(
      *s->city.net, ServedModelConfig(s->city.net->num_segments()),
      s->cache.get(), ModelPath(opt.world_dir));
  DEEPST_RETURN_IF_ERROR(model.status());
  s->model = std::move(model).value();
  const auto t3 = Clock::now();
  (void)s->model->shared_infer_weights();
  const auto t4 = Clock::now();
  if (live) {
    std::vector<traffic::SpeedObservation> replayed;
    traffic::WalReplayReport report;
    auto wal = traffic::ObservationWal::Open(
        opt.wal_path, traffic::ObservationWal::Options(), &replayed, &report);
    DEEPST_RETURN_IF_ERROR(wal.status());
    s->store = std::make_unique<traffic::SnapshotStore>(
        s->cache->Clone(), std::move(wal).value());
    core::DeepSTModel* model_ptr = s->model.get();
    s->store->set_on_swap(
        [model_ptr](uint64_t) { model_ptr->InvalidateTransitionCache(); });
    if (!replayed.empty()) {
      s->store->QueueRecovered(std::move(replayed));
      s->store->SwapNow();
    }
  }
  const auto t5 = Clock::now();
  s->serving = std::make_unique<core::ServingContext>(
      s->model.get(), s->city.index.get(), core::ServingConfig(),
      s->store.get());
  // `deepst_cli serve` starts from the defaults too (2 workers, queue 64,
  // batches of <= 8 with a 200 us linger, watchdog off).
  s->server = std::make_unique<serve::Server>(s->serving.get(),
                                              serve::ServeOptions());
  s->server->Start();
  *first_result = s->server->Submit(ToServing(first));
  const auto t6 = Clock::now();
  t.city_s = Millis(t1 - t0) / 1e3;
  t.data_s = Millis(t2 - t1) / 1e3;
  t.model_s = Millis(t3 - t2) / 1e3;
  t.pack_s = Millis(t4 - t3) / 1e3;
  t.wal_s = Millis(t5 - t4) / 1e3;
  t.total_s = Millis(t6 - t0) / 1e3;
  return t;
}

// -- Tracing ----------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t parent = -1;   // index of the enclosing span, -1 for roots
  int64_t request = -1;  // request id, -1 for batch-level spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t allocs = -1;   // allocations inside the span; -1 = not counted
};

// In-memory span log, written out when the run ends. Open/Close run on one
// thread; Reserve before a traced section so recording a span never
// allocates inside another span's counted interval.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  int64_t Open(const char* name, int64_t parent, int64_t request,
               bool count_allocs = false) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.allocs = count_allocs ? AllocationCount() : -1;
    s.start_ns = Ns(Clock::now());
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t ix) {
    Span& s = spans_[static_cast<size_t>(ix)];
    s.end_ns = Ns(Clock::now());
    if (s.allocs >= 0) s.allocs = AllocationCount() - s.allocs;
  }
  void Reserve(size_t more) { spans_.reserve(spans_.size() + more); }
  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  // Self time of every span: its duration minus its direct children's.
  std::vector<double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = 1e-6 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -=
            1e-6 * static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    return self;
  }

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// -- Load generator ----------------------------------------------------------------

struct Sent {
  size_t ix = 0;  // position in the phase's stream (cycled streams wrap)
  Kind kind = Kind::kPredict;
  Clock::time_point due;        // paced: scheduled; closed loop: submit time
  Clock::time_point submitted;
  Clock::time_point done;
  bool completed = false;
  bool ok = false;
  util::Status::Code code = util::Status::Code::kOk;
  uint64_t generation = 0;
  uint64_t route_hash = 0;
  bool route_kept = false;  // all but capacity requests past kKeptRoutes
  traj::Route route;
  std::vector<double> scores;
  int64_t ingested = 0;

  double latency_ms() const { return Millis(done - due); }
  bool shed() const { return code == util::Status::Code::kResourceExhausted; }
};

enum class Mode { kClosedCount, kClosedTimed, kPaced };

// What one phase drives through the server:
//  - kClosedCount: entries [begin, end) once, at most kDepth in flight;
//  - kClosedTimed: cycles the stream from `begin` at kDepth in flight for
//    `seconds`;
//  - kPaced: open loop over entries [begin, end), entry i due at the phase
//    start + due_s[i] - due_base, each request timed from its due time.
struct PhaseSpec {
  std::string name;
  Mode mode = Mode::kClosedCount;
  const std::vector<Request>* reqs = nullptr;
  size_t begin = 0;
  size_t end = 0;
  double seconds = 0.0;
  const std::vector<double>* due_s = nullptr;
  double due_base = 0.0;
};

struct Phase {
  std::string name;
  const std::vector<Request>* reqs = nullptr;
  std::deque<Sent> sent;  // deque: in-flight entries point into it
  size_t consumed = 0;    // stream entries used, swaps included
  Clock::time_point start;
  Clock::time_point stop;  // end of the submission window
  double cpu_s = 0.0;      // process CPU time inside the window
  std::vector<double> swap_ms;
  std::map<size_t, std::string> errors;  // the first failures' statuses
  int64_t ok = 0;
  int64_t failed = 0;

  int64_t attempted() const { return static_cast<int64_t>(sent.size()); }
  const Request& request(const Sent& s) const {
    return (*reqs)[s.ix % reqs->size()];
  }
};

// One load-generating thread, the caller, which also collects the results:
// with two serve workers that makes three busy threads on a four-vCPU guest.
// The completion time of an OK result is the server's own stamp (admission
// to completion, ServingResult::latency_ms), so how late the generator gets
// to a finished future never adds to a measured latency. kSwap entries are
// executed by the generator (SwapNow) when reached.
Phase RunPhase(const PhaseSpec& spec, serve::Server* server,
               traffic::SnapshotStore* store) {
  Phase ph;
  ph.name = spec.name;
  ph.reqs = spec.reqs;
  const std::vector<Request>& reqs = *spec.reqs;
  struct Inflight {
    Sent* sent;
    std::future<Result> fut;
  };
  std::deque<Inflight> inflight;  // submission order

  auto finish = [&](Inflight& f) {
    Sent* s = f.sent;
    Result r = f.fut.get();
    s->completed = true;
    s->ok = r.ok();
    if (r.ok()) {
      core::ServingResult& v = r.value();
      s->done = s->submitted + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       v.latency_ms));
      s->generation = v.snapshot_generation;
      s->route_hash = RouteHash(v.route);
      s->route_kept =
          spec.mode != Mode::kClosedTimed || s->ix - spec.begin < kKeptRoutes;
      if (s->route_kept) s->route = std::move(v.route);
      s->scores = std::move(v.scores);
      s->ingested = v.ingested;
    } else {
      s->done = Clock::now();
      s->code = r.status().code();
      if (ph.errors.size() < 16) ph.errors[s->ix] = r.status().ToString();
    }
  };
  // Finishes every ready request; with `block`, waits for the oldest first.
  auto collect = [&](bool block) {
    if (block && !inflight.empty()) inflight.front().fut.wait();
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      finish(*it);
      it = inflight.erase(it);
    }
  };

  ph.start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  const auto end = ph.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(spec.seconds));
  for (size_t i = spec.begin;; ++i) {
    if (spec.mode != Mode::kClosedTimed && i >= spec.end) break;
    const Request& r = reqs[i % reqs.size()];
    Clock::time_point due;
    if (spec.mode == Mode::kPaced) {
      due = ph.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>((*spec.due_s)[i] -
                                                         spec.due_base));
      collect(false);
      std::this_thread::sleep_until(due - kSpin);
      while (Clock::now() < due) {
      }
    } else {
      if (spec.mode == Mode::kClosedTimed && Clock::now() >= end) break;
      while (inflight.size() >= static_cast<size_t>(kDepth)) collect(true);
    }
    ++ph.consumed;
    if (r.kind == Kind::kSwap) {
      const auto t0 = Clock::now();
      store->SwapNow();
      ph.swap_ms.push_back(Millis(Clock::now() - t0));
      continue;
    }
    Sent& s = ph.sent.emplace_back();
    s.ix = i;
    s.kind = r.kind;
    s.submitted = Clock::now();
    s.due = spec.mode == Mode::kPaced ? due : s.submitted;
    inflight.push_back({&s, server->Submit(ToServing(r))});
  }
  ph.stop = Clock::now();
  ph.cpu_s = ProcessCpuSeconds() - cpu0;
  while (!inflight.empty()) collect(true);
  for (const Sent& s : ph.sent) (s.ok ? ph.ok : ph.failed) += 1;
  return ph;
}

// The two timed phases, interleaved in kRounds rounds of one capacity slice
// and one paced segment, with the server counters they moved.
struct Timed {
  std::vector<Phase> capacity;
  std::vector<Phase> paced;
  int64_t batches = 0;     // capacity slices: executed batches ...
  int64_t batch_rows = 0;  // ... and the requests in them
  int64_t paced_batches = 0;       // paced segments: executed batches ...
  int64_t paced_single_row = 0;    // ... of one request
  int64_t shed = 0;
  int64_t expired = 0;
};

Timed RunTimed(serve::Server* server, traffic::SnapshotStore* store,
               const Stream& stream, double seconds) {
  Timed t;
  const size_t n = stream.paced.size();
  const double paced_len = n > 0 ? stream.paced_due_s.back() : 0.0;
  size_t pos = 0;
  size_t p = 0;
  const serve::MetricsSnapshot s0 = server->snapshot();
  for (int r = 0; r < kRounds; ++r) {
    PhaseSpec cap;
    cap.name = "capacity";
    cap.mode = Mode::kClosedTimed;
    cap.reqs = &stream.capacity;
    cap.begin = pos;
    cap.seconds = kCapacityShare * seconds / kRounds;
    const serve::MetricsSnapshot a = server->snapshot();
    t.capacity.push_back(RunPhase(cap, server, store));
    pos += t.capacity.back().consumed;
    const serve::MetricsSnapshot b = server->snapshot();

    PhaseSpec paced;
    paced.name = "paced";
    paced.mode = Mode::kPaced;
    paced.reqs = &stream.paced;
    paced.due_s = &stream.paced_due_s;
    paced.due_base = paced_len * r / kRounds;
    paced.begin = p;
    paced.end = p;
    while (paced.end < n && (r + 1 == kRounds ||
                             stream.paced_due_s[paced.end] <
                                 paced_len * (r + 1) / kRounds)) {
      ++paced.end;
    }
    t.paced.push_back(RunPhase(paced, server, store));
    p = paced.end;
    const serve::MetricsSnapshot c = server->snapshot();
    t.batches += b.batches - a.batches;
    t.batch_rows += b.batch_requests - a.batch_requests;
    for (int k = 0; k < serve::BatchShapeHistogram::kBuckets; ++k) {
      t.paced_batches += c.batch_shape[static_cast<size_t>(k)] -
                         b.batch_shape[static_cast<size_t>(k)];
    }
    t.paced_single_row += c.batch_shape[0] - b.batch_shape[0];
  }
  const serve::MetricsSnapshot s1 = server->snapshot();
  t.shed = s1.shed_queue_full - s0.shed_queue_full;
  t.expired = s1.expired_in_queue - s0.expired_in_queue;
  return t;
}

// Due time to completion of the OK predict and score requests.
std::vector<double> PacedLatencies(const Timed& t) {
  std::vector<double> lat;
  for (const Phase& ph : t.paced) {
    for (const Sent& s : ph.sent) {
      if (s.ok && s.kind != Kind::kIngest) lat.push_back(s.latency_ms());
    }
  }
  return lat;
}

// OK completions inside a capacity slice's submission window.
int64_t OkInWindow(const Phase& ph) {
  int64_t ok = 0;
  for (const Sent& s : ph.sent) ok += s.ok && s.done <= ph.stop;
  return ok;
}

double WindowSeconds(const Phase& ph) { return Millis(ph.stop - ph.start) / 1e3; }

// Closed-loop throughput: OK completions inside the capacity windows per
// second of them.
double Throughput(const std::vector<Phase>& slices) {
  double seconds = 0.0;
  int64_t ok = 0;
  for (const Phase& ph : slices) {
    seconds += WindowSeconds(ph);
    ok += OkInWindow(ph);
  }
  return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
}

// Process CPU time inside the capacity windows per OK completion in them.
double CpuMsPerRequest(const Timed& t) {
  double cpu_s = 0.0;
  int64_t ok = 0;
  for (const Phase& ph : t.capacity) {
    cpu_s += ph.cpu_s;
    ok += OkInWindow(ph);
  }
  return 1e3 * cpu_s / static_cast<double>(std::max<int64_t>(1, ok));
}

std::vector<const Phase*> PhasesOf(const Timed& t) {
  std::vector<const Phase*> out;
  for (const Phase& ph : t.capacity) out.push_back(&ph);
  for (const Phase& ph : t.paced) out.push_back(&ph);
  return out;
}

// -- Metrics ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double v, int64_t n) {
  return n > 0 ? v / static_cast<double>(n) : 0.0;
}

// -- Traced replay ------------------------------------------------------------------

// Replayed predicts, compared with direct ServingContext calls by the checks.
struct Replay {
  std::vector<traj::Route> routes;
  std::vector<const Request*> reqs;
  int64_t rows_ingested = 0;
  int64_t requests = 0;  // replayed requests, ingests included
};

// Replays the tail of the capacity stream (never reached by the capacity
// phases, so full_cold stays memo-cold) through the layers' public
// functions, in batches of `batch` requests, in the order the server calls
// them. Returns the per-layer metrics the spans and counters give.
std::vector<Metric> ReplayLayers(Stack* stack, const WorkloadSpec& wl,
                                 const Stream& stream, int batch,
                                 std::vector<double> swap_ms, Tracer* tracer,
                                 Replay* replay) {
  const core::ServingConfig sc;  // the served context's defaults
  const roadnet::RoadNetwork& net = *stack->city.net;
  core::DeepSTModel* model = stack->model.get();
  traffic::SnapshotStore* store = stack->store.get();
  const size_t n = stream.capacity.size();
  const size_t replay_n = std::min(n, static_cast<size_t>(wl.replay_requests));
  tracer->Reserve(8 * replay_n + 64);
  auto span_ms = [&](int64_t ix) {
    const Span& s = tracer->spans()[static_cast<size_t>(ix)];
    return 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
  };
  std::vector<double> ingest_ms;
  int64_t rid = 0;
  int64_t predicts = 0;
  int64_t scores = 0;
  int64_t routes_scored = 0;
  int64_t snaps = 0;
  int64_t steps = 0;
  nn::infer::MemoStats memo;
  size_t i = n - replay_n;
  while (i < n) {
    std::vector<const Request*> group;
    while (i < n && static_cast<int>(group.size()) < batch) {
      const Request& r = stream.capacity[i++];
      if (r.kind == Kind::kSwap) {
        const int64_t sp = tracer->Open("traffic.swap", -1, -1);
        store->SwapNow();
        tracer->Close(sp);
        swap_ms.push_back(span_ms(sp));
      } else if (r.kind == Kind::kIngest) {
        const int64_t sp = tracer->Open("traffic.ingest", -1, rid++);
        const util::Status st = store->Ingest(r.rows);
        tracer->Close(sp);
        ingest_ms.push_back(span_ms(sp));
        if (st.ok()) replay->rows_ingested += static_cast<int64_t>(r.rows.size());
      } else {
        group.push_back(&r);
      }
    }
    if (group.empty()) continue;
    const int64_t root = tracer->Open("batch", -1, -1);
    std::vector<traffic::SnapshotPin> pins(group.size());
    std::vector<core::PredictionContext> ctx(group.size());
    std::vector<core::PredictItem> pitems;
    std::vector<const Request*> preqs;
    std::vector<core::ScoreItem> sitems;
    for (size_t k = 0; k < group.size(); ++k) {
      const Request& r = *group[k];
      const int64_t id = rid++;
      core::ContextOptions options;
      if (store != nullptr) {
        const int64_t sp = tracer->Open("traffic.acquire", root, id);
        pins[k] = store->Acquire();
        tracer->Close(sp);
        options.traffic_cache = pins[k].cache();
      }
      core::RouteQuery q = r.query;
      if (r.kind == Kind::kScore && q.origin == roadnet::kInvalidSegment &&
          !q.has_origin_point) {
        q.origin = r.routes.front().front();
      }
      if (q.has_origin_point) {
        const int64_t sp = tracer->Open("index.snap", root, id);
        q.origin = stack->city.index->Nearest(q.origin_point).segment;
        tracer->Close(sp);
        ++snaps;
      }
      // The serving context's fallbacks under its default configuration.
      traffic::TrafficTensorCache* cache = options.traffic_cache != nullptr
                                               ? options.traffic_cache
                                               : model->traffic_cache();
      options.traffic_prior_mean =
          !cache->HasObservations(q.start_time_s) ||
          q.start_time_s - cache->latest_observation_time() >
              sc.max_snapshot_age_s;
      const geo::BoundingBox& b = net.bounds();
      options.uniform_proxy = q.destination.x < b.min.x - sc.bounds_slack_m ||
                              q.destination.x > b.max.x + sc.bounds_slack_m ||
                              q.destination.y < b.min.y - sc.bounds_slack_m ||
                              q.destination.y > b.max.y + sc.bounds_slack_m;
      const int64_t sp = tracer->Open("context", root, id, true);
      util::Rng rng(sc.rng_seed);
      ctx[k] = model->MakeContext(q, &rng, options);
      tracer->Close(sp);
      if (r.kind == Kind::kPredict) {
        core::PredictItem item;
        item.ctx = &ctx[k];
        item.origin = q.origin;
        // Output routes are the caller's buffers; size them outside the
        // counted beam span.
        item.route.reserve(static_cast<size_t>(model->config().max_route_steps) + 1);
        pitems.push_back(std::move(item));
        preqs.push_back(&r);
      } else {
        core::ScoreItem item;
        item.ctx = &ctx[k];
        item.routes = &r.routes;
        sitems.push_back(std::move(item));
        routes_scored += static_cast<int64_t>(r.routes.size());
      }
    }
    if (!pitems.empty()) {
      const nn::infer::MemoStats m0 = model->transition_memo_stats();
      const int64_t sp = tracer->Open("beam", root, -1, true);
      model->PredictRoutesBeamMulti(&pitems);
      tracer->Close(sp);
      const nn::infer::MemoStats m1 = model->transition_memo_stats();
      memo.lookups += m1.lookups - m0.lookups;
      memo.hits += m1.hits - m0.hits;
      memo.misses += m1.misses - m0.misses;
      predicts += static_cast<int64_t>(pitems.size());
      for (size_t k = 0; k < pitems.size(); ++k) {
        steps += std::max<int64_t>(0, static_cast<int64_t>(pitems[k].route.size()) - 1);
        if (replay->routes.size() < 16) {
          replay->routes.push_back(pitems[k].route);
          replay->reqs.push_back(preqs[k]);
        }
      }
    }
    if (!sitems.empty()) {
      const int64_t sp = tracer->Open("score", root, -1, true);
      model->ScoreRoutesMulti(&sitems);
      tracer->Close(sp);
      scores += static_cast<int64_t>(sitems.size());
    }
    for (auto& pin : pins) pin.Release();
    tracer->Close(root);
  }

  replay->requests = rid;

  // Self time and allocations per span name.
  struct Agg {
    double self_ms = 0.0;
    int64_t calls = 0;
    int64_t allocs = 0;
  };
  std::map<std::string, Agg> agg;
  const std::vector<double> self = tracer->SelfMs();
  for (size_t k = 0; k < tracer->size(); ++k) {
    const Span& s = tracer->spans()[k];
    Agg& a = agg[s.name];
    a.self_ms += self[k];
    a.calls += 1;
    if (s.allocs > 0) a.allocs += s.allocs;
  }
  const Agg& context = agg["context"];
  const Agg& beam = agg["beam"];
  const Agg& score = agg["score"];
  const double model_ms = context.self_ms + beam.self_ms + score.self_ms;
  const double misses_per_req = Ratio(static_cast<double>(memo.misses), predicts);
  // Kernel work is computed, not measured: one memo miss runs one GEMV per
  // packed GRU matrix plus the alpha head.
  const auto weights = model->shared_infer_weights();
  double elems = static_cast<double>(weights->alpha_w.rows * weights->alpha_w.cols);
  for (const auto& cell : weights->gru.cells) {
    elems += static_cast<double>(cell.w_ih.rows * cell.w_ih.cols +
                                 cell.w_hh.rows * cell.w_hh.cols);
  }
  const traffic::SnapshotStoreStats ts =
      store != nullptr ? store->stats() : traffic::SnapshotStoreStats();
  return {
      {"context.ms_per_req", Ratio(context.self_ms, context.calls), "ms"},
      {"context.allocs_per_req",
       Ratio(static_cast<double>(context.allocs), context.calls), "count"},
      {"context.model_share", model_ms > 0 ? context.self_ms / model_ms : 0.0, "ratio"},
      {"beam.ms_per_req", Ratio(beam.self_ms, predicts), "ms"},
      {"beam.steps_per_req", Ratio(static_cast<double>(steps), predicts), "count"},
      {"beam.allocs_per_req", Ratio(static_cast<double>(beam.allocs), predicts), "count"},
      {"beam.model_share", model_ms > 0 ? beam.self_ms / model_ms : 0.0, "ratio"},
      {"memo.lookups", static_cast<double>(memo.lookups), "count"},
      {"memo.hit_ratio",
       Ratio(static_cast<double>(memo.hits), memo.lookups), "ratio"},
      {"memo.misses_per_req", misses_per_req, "count"},
      {"memo.invalidations",
       static_cast<double>(model->transition_memo_stats().invalidations), "count"},
      {"gemv.mflop_per_req", misses_per_req * 2.0 * elems / 1e6, "Mflop"},
      {"gemv.mbyte_per_req", misses_per_req * elems * sizeof(double) / 1e6, "MB"},
      {"mem.packed_weight_mb",
       static_cast<double>(weights->packed_weight_bytes) / (1 << 20), "MiB"},
      {"mem.panel_mb", static_cast<double>(weights->packed_panel_bytes) / (1 << 20),
       "MiB"},
      {"score.ms_per_route", Ratio(score.self_ms, routes_scored), "ms"},
      {"score.allocs_per_req", Ratio(static_cast<double>(score.allocs), scores),
       "count"},
      {"index.snap_us_per_req", 1e3 * Ratio(agg["index.snap"].self_ms, snaps), "us"},
      {"traffic.ingest_ms.p50", Quantile(ingest_ms, 0.5), "ms"},
      {"traffic.ingest_ms.p99", Quantile(ingest_ms, 0.99), "ms"},
      {"traffic.swap_ms.p50", Quantile(swap_ms, 0.5), "ms"},
      {"traffic.swap_ms.max", Quantile(swap_ms, 1.0), "ms"},
      {"traffic.swaps", static_cast<double>(ts.swaps), "count"},
      {"traffic.wal_fsyncs", static_cast<double>(ts.wal_fsyncs), "count"},
      {"traffic.pinned_high_water", static_cast<double>(ts.pinned_reader_high_water),
       "count"},
  };
}

// Queue wait of the paced predicts and scores: latency from submission
// minus the request's own execution time. ServingResult::latency_ms cannot
// give the latter, because the server stamps it with admission-to-completion
// time. So each request runs again alone through ServingContext::ExecuteBatch,
// as a single-row batch runs in a worker, with the memo emptied first so a
// repeat does not hit transitions its served run left behind.
std::vector<double> QueueWaits(Stack* stack, const Timed& timed) {
  stack->model->InvalidateTransitionCache();
  std::vector<double> wait;
  for (const Phase& ph : timed.paced) {
    for (const Sent& s : ph.sent) {
      if (!s.ok || s.kind == Kind::kIngest) continue;
      std::vector<core::ServingRequest> one = {ToServing(ph.request(s))};
      const auto t0 = Clock::now();
      (void)stack->serving->ExecuteBatch(&one);
      const double exec_ms = Millis(Clock::now() - t0);
      wait.push_back(std::max(0.0, Millis(s.done - s.submitted) - exec_ms));
    }
  }
  return wait;
}

// The tracer's own cost per replayed request: Open/Close timed on empty spans
// that count allocations (the dearer kind), times the replay's spans per
// request. Measured directly because the difference between a traced and an
// untraced pass is far below run-to-run noise.
double TracerUsPerRequest(const Tracer& replay_tracer, int64_t requests) {
  constexpr int kProbes = 20000;
  Tracer probe(Clock::now());
  probe.Reserve(kProbes);
  const auto t0 = Clock::now();
  for (int k = 0; k < kProbes; ++k) probe.Close(probe.Open("probe", -1, k, true));
  const double us_per_span = 1e3 * Millis(Clock::now() - t0) / kProbes;
  return us_per_span * Ratio(static_cast<double>(replay_tracer.size()), requests);
}

// The traced run, after the timed phases: the serve layer's figures from
// them (Server::snapshot() deltas) and from a direct re-execution of the
// paced requests, then the per-layer replay with spans.
std::vector<Metric> TracedRun(Stack* stack, const WorkloadSpec& wl,
                              const Stream& stream, const Timed& timed,
                              const std::vector<SetupTimes>& setups,
                              Tracer* tracer, Replay* replay) {
  const double batch_rows_mean =
      timed.batches > 0 ? static_cast<double>(timed.batch_rows) /
                              static_cast<double>(timed.batches)
                        : 1.0;
  std::vector<double> swap_ms;
  for (const Phase* ph : PhasesOf(timed)) {
    swap_ms.insert(swap_ms.end(), ph->swap_ms.begin(), ph->swap_ms.end());
  }
  const int batch = std::max(1, static_cast<int>(std::lround(batch_rows_mean)));
  std::vector<Metric> layers =
      ReplayLayers(stack, wl, stream, batch, swap_ms, tracer, replay);
  const std::vector<double> queue_wait = QueueWaits(stack, timed);

  std::vector<Metric> out = {
      {"serve.queue_wait_ms.p50", Quantile(queue_wait, 0.5), "ms"},
      {"serve.queue_wait_ms.p99", Quantile(queue_wait, 0.99), "ms"},
      {"serve.batch_rows_mean", batch_rows_mean, "rows"},
      {"serve.single_row_batch_share",
       Ratio(static_cast<double>(timed.paced_single_row), timed.paced_batches),
       "ratio"},
      {"serve.shed", static_cast<double>(timed.shed), "count"},
      {"serve.expired_in_queue", static_cast<double>(timed.expired), "count"},
  };
  for (Metric& m : layers) out.push_back(std::move(m));
  out.push_back({"trace.overhead_us_per_req",
                 TracerUsPerRequest(*tracer, replay->requests), "us"});

  const core::ServingStats ss = stack->serving->stats();
  out.push_back({"serving.degraded_share",
                 Ratio(static_cast<double>(ss.degraded), ss.queries), "ratio"});
  out.push_back({"serving.snapped_share",
                 Ratio(static_cast<double>(ss.snapped_origin), ss.queries), "ratio"});
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  out.push_back({"setup.city_load_s", setup_median(&SetupTimes::city_s), "s"});
  out.push_back({"setup.data_load_s", setup_median(&SetupTimes::data_s), "s"});
  out.push_back({"setup.model_load_s", setup_median(&SetupTimes::model_s), "s"});
  out.push_back({"setup.pack_s", setup_median(&SetupTimes::pack_s), "s"});
  out.push_back({"setup.wal_replay_s", setup_median(&SetupTimes::wal_s), "s"});
  return out;
}

// -- Output checks ------------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  void Expect(bool cond, const std::string& what) {
    if (!cond && failures.size() < 50) failures.push_back(what);
  }
};

std::string Where(const Phase& ph, const Sent& s) {
  return ph.name + "[" + std::to_string(s.ix) + "]";
}

// Every request got exactly one response; OK predicts are contiguous routes
// from the (snapped) origin; scores are one finite-or--inf value per
// candidate; ingests acked every row; non-shed failures are errors.
void CheckResponses(const Phase& ph, const Stack& stack, Checks* checks) {
  const roadnet::RoadNetwork& net = *stack.city.net;
  for (const Sent& s : ph.sent) {
    const Request& r = ph.request(s);
    if (!s.completed) {
      checks->Expect(false, Where(ph, s) + ": no response");
      continue;
    }
    if (!s.ok) {
      const auto error = ph.errors.find(s.ix);
      checks->Expect(s.shed(), Where(ph, s) + ": failed: " +
                                   (error != ph.errors.end() ? error->second : "?"));
      continue;
    }
    if (r.kind == Kind::kPredict && s.route_kept) {
      const roadnet::SegmentId origin =
          r.query.has_origin_point
              ? stack.city.index->Nearest(r.query.origin_point).segment
              : r.query.origin;
      bool contiguous = !s.route.empty() && s.route.front() == origin;
      for (size_t k = 1; contiguous && k < s.route.size(); ++k) {
        contiguous = s.route[k] >= 0 && s.route[k] < net.num_segments() &&
                     net.AreConsecutive(s.route[k - 1], s.route[k]);
      }
      checks->Expect(contiguous, Where(ph, s) + ": route is not a contiguous "
                                                "path from the query origin");
    } else if (r.kind == Kind::kScore) {
      bool valid = s.scores.size() == r.routes.size();
      for (double v : s.scores) valid = valid && !std::isnan(v) && v <= 0.0;
      checks->Expect(valid, Where(ph, s) + ": bad score vector");
    } else if (r.kind == Kind::kIngest) {
      checks->Expect(s.ingested == static_cast<int64_t>(r.rows.size()),
                     Where(ph, s) + ": ingest acked " + std::to_string(s.ingested) +
                         " of " + std::to_string(r.rows.size()) + " rows");
    }
  }
}

// Equal queries served from the same traffic generation get equal routes,
// whatever batch they rode in and whether the memo hit.
void CheckRepeats(const std::vector<const Phase*>& phases, Checks* checks) {
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> seen;
  for (const Phase* ph : phases) {
    for (const Sent& s : ph->sent) {
      if (!s.ok || s.kind != Kind::kPredict) continue;
      const auto key = std::make_pair(ph->request(s).key, s.generation);
      const uint64_t h = s.route_hash;
      auto [it, inserted] = seen.emplace(key, h);
      checks->Expect(inserted || it->second == h,
                     Where(*ph, s) + ": repeated query served a different route");
    }
  }
}

// Request id -> route hash over the paced phase and the capacity prefix,
// compared with the digest an earlier run of the same binary on the same
// prepared stream left. Only a run that passed every other check and had
// nothing injected writes the digest the later runs compare against.
void CheckDigest(const Timed& t, size_t prefix, const std::string& path,
                 bool may_write, Checks* checks, std::string* summary) {
  std::map<std::string, uint64_t> digest;
  for (const Phase* ph : PhasesOf(t)) {
    const bool paced = ph->name == "paced";
    for (const Sent& s : ph->sent) {
      if (s.ok && s.kind == Kind::kPredict && (paced || s.ix < prefix)) {
        digest[(paced ? "p" : "c") + std::to_string(s.ix)] = s.route_hash;
      }
    }
  }
  uint64_t all = 1469598103934665603ULL;
  for (const auto& [id, h] : digest) all = (all ^ h) * 1099511628211ULL;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx over %zu routes",
                static_cast<unsigned long long>(all), digest.size());
  *summary = buf;
  if (path.empty()) return;
  std::ifstream in(path);
  if (!in) {
    if (may_write) {
      const std::string tmp = path + ".tmp";
      {
        std::ofstream out(tmp);
        for (const auto& [id, h] : digest) out << id << " " << h << "\n";
      }
      std::rename(tmp.c_str(), path.c_str());
    }
    return;
  }
  std::string id;
  uint64_t h = 0;
  int64_t compared = 0;
  int64_t mismatched = 0;
  while (in >> id >> h) {
    auto it = digest.find(id);
    if (it == digest.end()) continue;
    ++compared;
    mismatched += it->second != h;
  }
  checks->Expect(mismatched == 0,
                 "route digest: " + std::to_string(mismatched) + " of " +
                     std::to_string(compared) +
                     " routes differ from an earlier run of this binary and stream");
}

// Served results of the sample burst equal direct ServingContext calls; on
// the static workloads so do the timed results of the same requests, and
// the replayed layer calls.
void CheckDirect(Stack* stack, const Phase& sample, const Timed& timed,
                 const Replay& replay, bool live, Checks* checks) {
  std::map<size_t, const Sent*> paced_by_ix;
  for (const Phase& ph : timed.paced) {
    for (const Sent& s : ph.sent) paced_by_ix[s.ix] = &s;
  }
  for (const Sent& s : sample.sent) {
    if (!s.ok) continue;
    const Request& r = sample.request(s);
    if (r.kind == Kind::kPredict) {
      auto direct = stack->serving->Predict(r.query);
      checks->Expect(direct.ok() && direct.value().route == s.route,
                     Where(sample, s) + ": served route differs from a direct "
                                        "ServingContext::Predict");
    } else if (r.kind == Kind::kScore) {
      bool same = s.scores.size() == r.routes.size();
      for (size_t k = 0; same && k < r.routes.size(); ++k) {
        auto direct = stack->serving->ScoreRoute(r.query, r.routes[k]);
        same = direct.ok() && direct.value().score == s.scores[k];
      }
      checks->Expect(same, Where(sample, s) + ": served scores differ from "
                                              "direct ServingContext::ScoreRoute");
    }
  }
  if (live) return;
  for (const Phase& ph : timed.paced) {
    for (const Sent& s : ph.sent) {
      if (!s.ok || s.ix >= 64) continue;
      auto direct = stack->serving->Predict(ph.request(s).query);
      checks->Expect(direct.ok() && direct.value().route == s.route,
                     Where(ph, s) + ": served route differs from a direct "
                                    "ServingContext::Predict");
    }
  }
  for (size_t k = 0; k < replay.routes.size(); ++k) {
    auto direct = stack->serving->Predict(replay.reqs[k]->query);
    checks->Expect(direct.ok() && direct.value().route == replay.routes[k],
                   "replay: direct layer calls disagree with ServingContext::Predict");
  }
}

// Ingest rows the server admitted, plus the rows the WAL held at start.
int64_t RowsSent(const std::vector<const Phase*>& phases, const Stream& stream) {
  int64_t rows = static_cast<int64_t>(stream.recovered_rows.size());
  for (const Phase* ph : phases) {
    for (const Sent& s : ph->sent) {
      if (s.kind == Kind::kIngest && !s.shed()) {
        rows += static_cast<int64_t>(ph->request(s).rows.size());
      }
    }
  }
  return rows;
}

}  // namespace

// -- The run --------------------------------------------------------------------------

int Run(const RunOptions& opt) {
  auto wl_or = WorkloadByName(opt.workload);
  auto stream_or = LoadStream(opt.stream_path);
  if (!wl_or.ok() || !stream_or.ok()) {
    std::fprintf(stderr, "%s\n", (!wl_or.ok() ? wl_or.status() : stream_or.status())
                                     .ToString().c_str());
    return 2;
  }
  const WorkloadSpec wl = wl_or.value();
  const WorldSpec world = WorldByName(wl.world).value();
  Stream& stream = stream_or.value();
  const bool live = wl.id == Workload::kMiniLive;
  const auto origin = Clock::now();

  // Set-up, several times; the last stack serves the run.
  const auto first = std::find_if(stream.warmup.begin(), stream.warmup.end(),
                                  [](const Request& r) { return r.kind == Kind::kPredict; });
  if (first == stream.warmup.end()) {
    std::fprintf(stderr, "stream has no warm-up predict\n");
    return 2;
  }
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < wl.setups; ++k) {
    stack.reset();
    // Hand the freed stack back to the OS, so every repetition faults its
    // memory in as a fresh process does rather than reusing the last one's.
    malloc_trim(0);
    if (live) {
      const util::Status s = WriteWalPreimage(opt.wal_path, stream.recovered_rows);
      if (!s.ok()) {
        std::fprintf(stderr, "WAL pre-image: %s\n", s.ToString().c_str());
        return 2;
      }
    }
    stack = std::make_unique<Stack>();
    std::future<Result> first_result;
    auto t = Setup(world, opt, live, *first, stack.get(), &first_result);
    const Result r = t.ok() ? first_result.get() : Result(t.status());
    if (!r.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", r.status().ToString().c_str());
      return 2;
    }
    setups.push_back(t.value());
  }
  serve::Server* server = stack->server.get();
  traffic::SnapshotStore* store = stack->store.get();

  // Warm-up, then the timed phases.
  PhaseSpec warm;
  warm.name = "warmup";
  warm.reqs = &stream.warmup;
  warm.end = stream.warmup.size();
  const Phase warmup = RunPhase(warm, server, store);
  const CpuTicks host0 = ReadCpuTicks();
  Timed timed = RunTimed(server, store, stream, opt.seconds);
  const CpuTicks host1 = ReadCpuTicks();

  std::unique_ptr<Tracer> tracer;
  std::vector<Metric> layer;
  Replay replay;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>(origin);
    layer = TracedRun(stack.get(), wl, stream, timed, setups, tracer.get(), &replay);
  }

  // Verify: accuracy on the test split, served through the server, and a
  // burst of sampled paced requests for the direct-call comparison.
  std::vector<Request> verify;
  std::vector<const traj::Trip*> truth;
  for (const auto* rec : stack->split.test) {
    if (rec->trip.route.size() < 2) continue;
    Request r;
    r.query.origin = rec->trip.origin_segment();
    r.query.destination = rec->trip.destination;
    r.query.start_time_s = rec->trip.start_time_s;
    verify.push_back(r);
    truth.push_back(&rec->trip);
  }
  PhaseSpec acc_spec;
  acc_spec.name = "accuracy";
  acc_spec.reqs = &verify;
  acc_spec.end = verify.size();
  const Phase accuracy = RunPhase(acc_spec, server, store);
  eval::MetricAccumulator acc;
  for (const Sent& s : accuracy.sent) {
    if (s.ok) acc.Add(truth[s.ix]->route, s.route);
  }
  std::vector<Request> sample;
  {
    std::map<uint64_t, bool> keys;
    int predicts = 0;
    int scores = 0;
    for (const Request& r : stream.paced) {
      if (r.kind == Kind::kPredict && predicts < 16 && keys.emplace(r.key, true).second) {
        sample.push_back(r);
        ++predicts;
      } else if (r.kind == Kind::kScore && scores < 8) {
        sample.push_back(r);
        ++scores;
      }
    }
  }
  PhaseSpec sample_spec;
  sample_spec.name = "sample";
  sample_spec.reqs = &sample;
  sample_spec.end = sample.size();
  const Phase sample_phase = RunPhase(sample_spec, server, store);
  server->Shutdown();

  std::vector<const Phase*> all = PhasesOf(timed);
  all.push_back(&warmup);
  all.push_back(&accuracy);
  all.push_back(&sample_phase);
  int64_t rows_sent = RowsSent(all, stream) + replay.rows_ingested;

  // Self-test hooks: corrupt what the checks see, never what was measured.
  Phase& first_paced = timed.paced.front();
  if (opt.inject == "perturb_route") {
    for (Sent& s : first_paced.sent) {
      if (s.ok && s.kind == Kind::kPredict && !s.route.empty()) {
        s.route.back() = (s.route.back() + 1) % stack->city.net->num_segments();
        s.route_hash = RouteHash(s.route);
        break;
      }
    }
  } else if (opt.inject == "drop_response") {
    if (!first_paced.sent.empty()) first_paced.sent.front().completed = false;
  } else if (opt.inject == "break_invariant") {
    rows_sent += 1;
  } else if (!opt.inject.empty()) {
    std::fprintf(stderr, "unknown --inject '%s'\n", opt.inject.c_str());
    return 2;
  }

  Checks checks;
  for (const Phase* ph : all) CheckResponses(*ph, *stack, &checks);
  // Stream requests carry query keys; the accuracy set does not.
  std::vector<const Phase*> keyed = all;
  keyed.erase(std::find(keyed.begin(), keyed.end(), &accuracy));
  CheckRepeats(keyed, &checks);
  CheckDirect(stack.get(), sample_phase, timed, replay, live, &checks);
  const serve::MetricsSnapshot snap = server->snapshot();
  checks.Expect(snap.submitted == snap.admitted + snap.shed_queue_full +
                                      snap.rejected_draining,
                "submitted != admitted + shed + rejected");
  checks.Expect(stack->model->outstanding_session_leases() == 0,
                "session leases outstanding after drain");
  if (live) {
    const traffic::SnapshotStoreStats ts = store->stats();
    checks.Expect(ts.generation == static_cast<uint64_t>(ts.swaps) + 1,
                  "generation " + std::to_string(ts.generation) + " != swaps + 1 (" +
                      std::to_string(ts.swaps) + ")");
    checks.Expect(ts.rows_accepted == rows_sent,
                  "rows accepted " + std::to_string(ts.rows_accepted) +
                      " != rows sent " + std::to_string(rows_sent));
    checks.Expect(ts.pinned_readers == 0, "pinned readers after drain");
    checks.Expect(snap.cache_invalidations >= ts.swaps, "memo invalidations < swaps");
  }

  // End-to-end metrics, from the timed phases only (never the replay).
  const std::vector<double> lat = PacedLatencies(timed);
  std::vector<double> lag;
  int64_t good = 0;
  int64_t paced_sent = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Phase* ph : PhasesOf(timed)) {
    attempted += ph->attempted();
    failed += ph->failed;
  }
  for (const Phase& ph : timed.paced) {
    paced_sent += ph.attempted();
    for (const Sent& s : ph.sent) {
      lag.push_back(Millis(s.submitted - s.due));
      good += s.ok && s.latency_ms() <= wl.latency_limit_ms;
    }
  }
  std::vector<double> setup_total;
  for (const SetupTimes& t : setups) setup_total.push_back(t.total_s);
  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_total), "s"},
      {"throughput_rps", Throughput(timed.capacity), "req/s"},
      {"cpu_ms_per_req", CpuMsPerRequest(timed), "ms"},
      {"p50_ms", Quantile(lat, 0.5), "ms"},
      {"goodput", Ratio(static_cast<double>(good), paced_sent), "ratio"},
      {"ok_ratio", Ratio(static_cast<double>(attempted - failed), attempted), "ratio"},
      {"accuracy", acc.mean_accuracy(), "ratio"},
      {"rss_mb", PeakRssMb(), "MiB"},
  };
  // The run record's paced p99 rests on at least 1000 samples.
  checks.Expect(lat.size() >= 1000,
                "paced phase produced fewer than 1000 latency samples");
  std::string digest = "n/a";
  if (!live) {
    CheckDigest(timed, static_cast<size_t>(wl.digest_capacity_prefix),
                opt.digest_path, checks.failures.empty() && opt.inject.empty(),
                &checks, &digest);
  }

  // Run record beside the metrics (no gate on it).
  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
                          std::to_string(opt.trace ? 1 : 0);
  const double steal = host1.total > host0.total
                           ? (host1.steal - host0.steal) / (host1.total - host0.total)
                           : 0.0;
  {
    std::map<std::string, std::array<int64_t, 3>> phases;
    for (const Phase* ph : all) {
      auto& c = phases[ph->name];
      c[0] += ph->attempted();
      c[1] += ph->ok;
      c[2] += ph->failed;
    }
    std::ofstream rec(opt.out_dir + "/" + tag + "-record.json");
    rec << "{\"workload\": " << Json(opt.workload) << ", \"seed\": " << opt.seed
        << ", \"seconds\": " << Num(opt.seconds) << ",\n \"machine\": {\"nproc\": "
        << sysconf(_SC_NPROCESSORS_ONLN) << ", \"isa\": " << Json(DispatchedIsa())
        << ", \"compiler\": " << Json(std::string("g++ ") + __VERSION__)
        << ", \"git_sha\": " << Json(opt.git_sha) << "},\n \"host_steal_share\": "
        << Num(steal) << ",\n \"paced_lag_ms\": {\"max\": " << Num(Quantile(lag, 1.0))
        << ", \"p99\": " << Num(Quantile(lag, 0.99))
        << "},\n \"paced_latency_ms\": {\"samples\": " << lat.size()
        << ", \"p50\": " << Num(Quantile(lat, 0.5)) << ", \"p90\": "
        << Num(Quantile(lat, 0.9)) << ", \"p99\": " << Num(Quantile(lat, 0.99))
        << "},\n \"route_digest\": "
        << Json(digest) << ",\n \"phases\": {";
    const char* sep = "";
    for (const auto& [name, c] : phases) {
      rec << sep << Json(name) << ": {\"sent\": " << c[0] << ", \"succeeded\": " << c[1]
          << ", \"failed\": " << c[2] << "}";
      sep = ", ";
    }
    rec << "},\n \"setup_s\": [";
    for (size_t k = 0; k < setups.size(); ++k) {
      rec << (k ? ", " : "") << Num(setups[k].total_s);
    }
    rec << "],\n \"capacity_slices_rps\": [";
    for (size_t k = 0; k < timed.capacity.size(); ++k) {
      const Phase& ph = timed.capacity[k];
      rec << (k ? ", " : "")
          << Num(static_cast<double>(OkInWindow(ph)) / WindowSeconds(ph));
    }
    rec << "],\n \"end_to_end\": {";
    for (size_t k = 0; k < e2e.size(); ++k) {
      rec << (k ? ", " : "") << Json(e2e[k].name) << ": " << Num(e2e[k].value);
    }
    rec << "},\n \"check_failures\": [";
    for (size_t k = 0; k < checks.failures.size(); ++k) {
      rec << (k ? ", " : "") << Json(checks.failures[k]);
    }
    rec << "]}\n";
  }
  if (tracer != nullptr) {
    std::ofstream spans(opt.out_dir + "/" + tag + "-spans.csv");
    spans << "span,name,parent,request,start_us,end_us,allocs\n";
    for (size_t k = 0; k < tracer->size(); ++k) {
      const Span& s = tracer->spans()[k];
      spans << k << "," << s.name << "," << s.parent << "," << s.request << ","
            << Num(1e-3 * static_cast<double>(s.start_ns)) << ","
            << Num(1e-3 * static_cast<double>(s.end_ns)) << "," << s.allocs << "\n";
    }
    std::ostringstream table;
    table << "per-layer table: " << opt.workload << " seed " << opt.seed
          << " (gemv.* computed from packed shapes x memo.misses_per_req)\n";
    for (const Metric& m : layer) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      table << line;
    }
    std::ofstream(opt.out_dir + "/" + tag + "-layers.txt") << table.str();
    std::fprintf(stderr, "%s", table.str().c_str());
  }
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::fprintf(stderr, "digest %s; steal %.3f; paced p99 %.2f ms; paced lag max %.2f ms\n",
               digest.c_str(), steal, Quantile(lat, 0.99), Quantile(lag, 1.0));

  const bool correct = checks.failures.empty();
  const std::vector<Metric>& out = opt.trace ? layer : e2e;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t k = 0; k < out.size(); ++k) {
    json += (k ? ", " : "") + Json(out[k].name) + ": {\"value\": " + Num(out[k].value) +
            ", \"unit\": " + Json(out[k].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
