// Prepare step, streams: the workloads, and one workload's request stream
// drawn from the run seed over a prepared world. Deterministic in its inputs;
// run.py caches each stream under a key derived from the world's key, this
// file, the workload, the seed and the run length.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>

#include "common.h"
#include "roadnet/io.h"
#include "roadnet/shortest_path.h"
#include "traj/dataset.h"
#include "traj/generator.h"
#include "traj/io.h"

namespace perfbench {

util::StatusOr<WorkloadSpec> WorkloadByName(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "mini_hot") {
    w.id = Workload::kMiniHot;
    w.world = "mini";
    // Well under capacity (~5500/s), where paced latency repeats.
    w.paced_rate = 300.0;
    w.latency_limit_ms = 25.0;
    w.warmup_requests = 3000;
    w.capacity_stream = 60000;
    w.min_paced_requests = 1200;
    w.replay_requests = 3000;
    w.digest_capacity_prefix = 4000;
    w.setups = 25;
    // A pool this size puts ~90% of beam steps on memo hits after warm-up.
    w.pool_trips = 128;
    w.fresh_share = 0.03;
  } else if (name == "full_cold") {
    w.id = Workload::kFullCold;
    w.world = "full";
    // Under a third of capacity (~110/s): at 50/s a stretch of host steal
    // pushed the paced phase into queueing.
    w.paced_rate = 40.0;
    w.latency_limit_ms = 250.0;
    w.warmup_requests = 200;
    w.capacity_stream = 6000;
    w.min_paced_requests = 1100;
    w.replay_requests = 300;
    w.digest_capacity_prefix = 400;
    w.setups = 15;
  } else if (name == "mini_live") {
    w.id = Workload::kMiniLive;
    w.world = "mini";
    // Well under capacity (~3500/s).
    w.paced_rate = 250.0;
    w.latency_limit_ms = 25.0;
    w.warmup_requests = 2000;
    w.capacity_stream = 40000;
    w.min_paced_requests = 1200;
    w.replay_requests = 3000;
    w.setups = 25;
    w.pool_trips = 128;
    w.score_share = 0.2;
    w.ingest_share = 0.1;
    w.ingest_rows = 16;
    w.swap_every_requests = 1000;
  } else {
    return util::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

// -- Stream (de)serialization --------------------------------------------------

namespace {

class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}
  template <typename T>
  void Pod(const T& v) {
    ok_ = ok_ && std::fwrite(&v, sizeof(T), 1, f_) == 1;
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Pod<uint64_t>(v.size());
    if (!v.empty()) {
      ok_ = ok_ && std::fwrite(v.data(), sizeof(T), v.size(), f_) == v.size();
    }
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::FILE* f) : f_(f) {}
  template <typename T>
  void Pod(T* v) {
    ok_ = ok_ && std::fread(v, sizeof(T), 1, f_) == 1;
  }
  template <typename T>
  void Vec(std::vector<T>* v) {
    uint64_t n = 0;
    Pod(&n);
    if (!ok_ || n > (1ull << 32)) {
      ok_ = false;
      return;
    }
    v->resize(n);
    if (n > 0) ok_ = ok_ && std::fread(v->data(), sizeof(T), n, f_) == n;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

constexpr uint64_t kStreamMagic = 0x3153455250424550ULL;  // "PEPBPRES1"

void WriteRequests(Writer* w, const std::vector<Request>& reqs) {
  w->Pod<uint64_t>(reqs.size());
  for (const Request& r : reqs) {
    w->Pod(r.kind);
    w->Pod(r.key);
    w->Pod(r.query.origin);
    w->Pod(r.query.destination);
    w->Pod(r.query.start_time_s);
    w->Pod(r.query.has_origin_point);
    w->Pod(r.query.origin_point);
    w->Pod<uint64_t>(r.routes.size());
    for (const traj::Route& route : r.routes) w->Vec(route);
    w->Vec(r.rows);
  }
}

void ReadRequests(Reader* rd, std::vector<Request>* reqs) {
  uint64_t n = 0;
  rd->Pod(&n);
  if (!rd->ok() || n > (1ull << 26)) return;
  reqs->resize(n);
  for (Request& r : *reqs) {
    rd->Pod(&r.kind);
    rd->Pod(&r.key);
    rd->Pod(&r.query.origin);
    rd->Pod(&r.query.destination);
    rd->Pod(&r.query.start_time_s);
    rd->Pod(&r.query.has_origin_point);
    rd->Pod(&r.query.origin_point);
    uint64_t routes = 0;
    rd->Pod(&routes);
    if (!rd->ok() || routes > 64) return;
    r.routes.resize(routes);
    for (traj::Route& route : r.routes) rd->Vec(&route);
    rd->Vec(&r.rows);
    if (!rd->ok()) return;
  }
}

}  // namespace

util::Status SaveStream(const Stream& s, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return util::Status::Internal("cannot write " + path);
  Writer w(f);
  w.Pod(kStreamMagic);
  WriteRequests(&w, s.warmup);
  WriteRequests(&w, s.capacity);
  WriteRequests(&w, s.paced);
  w.Vec(s.paced_due_s);
  w.Vec(s.recovered_rows);
  const bool ok = w.ok() && std::fclose(f) == 0;
  if (!ok) return util::Status::Internal("short write on " + path);
  return util::Status::Ok();
}

util::StatusOr<Stream> LoadStream(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return util::Status::NotFound("cannot read " + path);
  Reader rd(f);
  uint64_t magic = 0;
  rd.Pod(&magic);
  Stream s;
  if (magic == kStreamMagic) {
    ReadRequests(&rd, &s.warmup);
    ReadRequests(&rd, &s.capacity);
    ReadRequests(&rd, &s.paced);
    rd.Vec(&s.paced_due_s);
    rd.Vec(&s.recovered_rows);
  }
  std::fclose(f);
  if (magic != kStreamMagic || !rd.ok() ||
      s.paced_due_s.size() != s.paced.size()) {
    return util::Status::InvalidArgument("corrupt stream file " + path);
  }
  return s;
}

// -- Streams ---------------------------------------------------------------------

namespace {

struct Draw {
  explicit Draw(uint64_t seed) : gen(seed) {}
  size_t Index(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(gen);
  }
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen);
  }
  std::mt19937_64 gen;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

Request PredictOf(const traj::Trip& trip, uint64_t key) {
  Request r;
  r.kind = Kind::kPredict;
  r.key = key;
  r.query.origin = trip.origin_segment();
  r.query.destination = trip.destination;
  r.query.start_time_s = trip.start_time_s;
  return r;
}

geo::Point Clamp(const geo::BoundingBox& b, geo::Point p) {
  p.x = std::min(std::max(p.x, b.min.x), b.max.x);
  p.y = std::min(std::max(p.y, b.min.y), b.max.y);
  return p;
}

// Poisson arrivals at `rate` over `seconds`, never fewer than `min_count`.
std::vector<double> PoissonArrivals(Draw* d, double rate, double seconds,
                                    int min_count) {
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  double t = 0.0;
  while (t < seconds || static_cast<int>(due.size()) < min_count) {
    t += gap(d->gen);
    due.push_back(t);
  }
  return due;
}

// Inserts a swap entry after every `every` requests. With `due` (paced
// streams), each swap is due with the request before it.
void InsertSwaps(int every, std::vector<Request>* reqs,
                 std::vector<double>* due = nullptr) {
  std::vector<Request> out;
  std::vector<double> out_due;
  for (size_t i = 0; i < reqs->size(); ++i) {
    out.push_back(std::move((*reqs)[i]));
    if (due != nullptr) out_due.push_back((*due)[i]);
    if ((i + 1) % static_cast<size_t>(every) == 0) {
      out.emplace_back().kind = Kind::kSwap;
      if (due != nullptr) out_due.push_back((*due)[i]);
    }
  }
  *reqs = std::move(out);
  if (due != nullptr) *due = std::move(out_due);
}

}  // namespace

util::Status PrepareStream(const WorkloadSpec& wl, uint64_t seed,
                           double seconds, const std::string& world_dir,
                           const std::string& out_path) {
  auto world = WorldByName(wl.world);
  DEEPST_RETURN_IF_ERROR(world.status());
  auto city = roadnet::LoadCity(CityPath(world_dir));
  DEEPST_RETURN_IF_ERROR(city.status());
  const roadnet::RoadNetwork& net = *city.value().net;
  auto records = traj::LoadDataset(DatasetPath(world_dir));
  DEEPST_RETURN_IF_ERROR(records.status());
  const traj::DatasetSplit split = traj::SplitByDay(
      records.value(), world.value().train_days, world.value().val_days);
  // Queries start only where the traffic window holds observations, so the
  // served contexts are never the prior-mean fallback.
  traffic::TrafficTensorCache cache(
      geo::GridSpec(net.bounds(), world.value().traffic_cell_m),
      world.value().slot_seconds, world.value().window_seconds);
  cache.AddObservations(traj::CollectObservations(records.value()));
  std::vector<const traj::Trip*> test;
  for (const auto* rec : split.test) {
    if (rec->trip.route.size() >= 2 &&
        cache.HasObservations(rec->trip.start_time_s)) {
      test.push_back(&rec->trip);
    }
  }
  if (test.size() < 16) {
    return util::Status::FailedPrecondition("too few test trips");
  }

  Draw d(Mix(seed, static_cast<uint64_t>(wl.id) + 1));
  const double paced_s = (1.0 - kCapacityShare) * seconds;

  // Draws one request of the workload's mix.
  std::function<Request()> next;

  // The pool of test trips that repeated queries come from: one trip drawn
  // from each of pool_trips strata of route length, so every seed's pool has
  // the same mix of short and long routes and the seed draws the trips
  // without moving the mean cost of a request.
  std::vector<size_t> by_length(test.size());
  for (size_t i = 0; i < test.size(); ++i) by_length[i] = i;
  std::stable_sort(by_length.begin(), by_length.end(), [&](size_t a, size_t b) {
    return test[a]->route.size() < test[b]->route.size();
  });
  std::vector<size_t> pool;
  const size_t strata = std::min(test.size(), static_cast<size_t>(wl.pool_trips));
  for (size_t k = 0; k < strata; ++k) {
    const size_t lo = k * test.size() / strata;
    const size_t hi = (k + 1) * test.size() / strata;
    pool.push_back(by_length[lo + d.Index(hi - lo)]);
  }
  std::shuffle(pool.begin(), pool.end(), d.gen);

  // full_cold inputs: dataset OD distances and test start times.
  std::vector<double> od_m;
  std::vector<double> starts;
  // mini_live inputs: k-shortest candidate sets.
  std::vector<std::pair<size_t, std::vector<traj::Route>>> candidates;
  uint64_t unique = 0;

  switch (wl.id) {
    case Workload::kMiniHot:
      // Pooled queries repeat; a fresh one pairs one test trip's OD with
      // another's start time, so its context is new.
      next = [&]() {
        if (d.Uniform(0.0, 1.0) >= wl.fresh_share) {
          const size_t t = pool[d.Index(pool.size())];
          return PredictOf(*test[t], Mix(t, t));
        }
        const size_t a = d.Index(test.size());
        const size_t b = d.Index(test.size());
        Request r = PredictOf(*test[a], Mix(a, b));
        r.query.start_time_s = test[b]->start_time_s;
        return r;
      };
      break;
    case Workload::kFullCold: {
      for (const traj::TripRecord& rec : records.value()) {
        const geo::Point o = net.SegmentMidpoint(rec.trip.origin_segment());
        od_m.push_back(std::hypot(rec.trip.destination.x - o.x,
                                  rec.trip.destination.y - o.y));
      }
      for (const traj::Trip* t : test) starts.push_back(t->start_time_s);
      next = [&]() {
        Request r;
        r.kind = Kind::kPredict;
        r.key = Mix(~0ull, unique++);
        const auto origin = static_cast<roadnet::SegmentId>(
            d.Index(static_cast<size_t>(net.num_segments())));
        const geo::Point mid = net.SegmentMidpoint(origin);
        const double dist = od_m[d.Index(od_m.size())];
        geo::Point dest = mid;
        for (int attempt = 0; attempt < 64; ++attempt) {
          const double angle = d.Uniform(0.0, 2.0 * M_PI);
          dest = {mid.x + dist * std::cos(angle),
                  mid.y + dist * std::sin(angle)};
          if (net.bounds().Contains(dest)) break;
        }
        r.query.destination = Clamp(net.bounds(), dest);
        r.query.start_time_s = starts[d.Index(starts.size())];
        // Half of the origins arrive as raw coordinates for the spatial
        // index to snap.
        if (d.Uniform(0.0, 1.0) < 0.5) {
          r.query.has_origin_point = true;
          const double angle = d.Uniform(0.0, 2.0 * M_PI);
          const double off = d.Uniform(0.0, 20.0);
          r.query.origin_point = {mid.x + off * std::cos(angle),
                                  mid.y + off * std::sin(angle)};
        } else {
          r.query.origin = origin;
        }
        return r;
      };
      break;
    }
    case Workload::kMiniLive: {
      const roadnet::SegmentCostFn cost = roadnet::LengthCost(net);
      for (size_t i = 0; i < pool.size(); ++i) {
        const traj::Trip& t = *test[pool[i]];
        std::vector<traj::Route> routes;
        for (const auto& p : roadnet::KShortestPaths(
                 net, t.origin_segment(), t.final_segment(), 3, cost)) {
          routes.push_back(p.path);
        }
        if (routes.size() >= 2) candidates.emplace_back(pool[i], routes);
      }
      if (candidates.empty()) {
        return util::Status::FailedPrecondition("no score candidate sets");
      }
      next = [&]() {
        const double u = d.Uniform(0.0, 1.0);
        if (u >= wl.score_share + wl.ingest_share) {
          const size_t t = pool[d.Index(pool.size())];
          return PredictOf(*test[t], Mix(t, t));
        }
        if (u < wl.score_share) {
          const auto& c = candidates[d.Index(candidates.size())];
          Request r = PredictOf(*test[c.first], Mix(c.first, ~0ull));
          r.kind = Kind::kScore;
          r.routes = c.second;
          return r;
        }
        // An ingest batch inside the traffic window of a pooled query,
        // around its destination.
        Request r;
        r.kind = Kind::kIngest;
        const traj::Trip& t = *test[pool[d.Index(pool.size())]];
        for (int k = 0; k < wl.ingest_rows; ++k) {
          traffic::SpeedObservation obs;
          obs.pos = Clamp(net.bounds(),
                          {t.destination.x + d.Uniform(-600.0, 600.0),
                           t.destination.y + d.Uniform(-600.0, 600.0)});
          obs.time_s = std::max(
              0.0, t.start_time_s -
                       d.Uniform(0.0, world.value().window_seconds));
          obs.speed_mps = d.Uniform(2.0, 16.0);
          r.rows.push_back(obs);
        }
        return r;
      };
      break;
    }
  }

  Stream s;
  for (int i = 0; i < wl.warmup_requests; ++i) s.warmup.push_back(next());
  for (int i = 0; i < wl.capacity_stream; ++i) s.capacity.push_back(next());
  // mini_live: the WAL's content at server start, from the same ingest mix.
  while (wl.ingest_share > 0.0 && s.recovered_rows.size() < 512) {
    Request r = next();
    if (r.kind == Kind::kIngest) {
      s.recovered_rows.insert(s.recovered_rows.end(), r.rows.begin(),
                              r.rows.end());
    }
  }
  // Arrival gaps come from their own generator, so paced entry i is the same
  // query whatever the run length.
  Draw gaps(Mix(seed, static_cast<uint64_t>(wl.id) + 101));
  s.paced_due_s =
      PoissonArrivals(&gaps, wl.paced_rate, paced_s, wl.min_paced_requests);
  for (size_t i = 0; i < s.paced_due_s.size(); ++i) s.paced.push_back(next());
  if (wl.swap_every_requests > 0) {
    InsertSwaps(wl.swap_every_requests, &s.warmup);
    InsertSwaps(wl.swap_every_requests, &s.capacity);
    InsertSwaps(wl.swap_every_requests, &s.paced, &s.paced_due_s);
  }
  return SaveStream(s, out_path);
}

}  // namespace perfbench
