// Micro-benchmarks of the hot paths, including an empirical check of the
// paper's Section IV-F complexity claim: route prediction and likelihood
// scoring are O(|r|) in the route length.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "baselines/neural_router.h"
#include "bench/bench_common.h"
#include "core/trainer.h"
#include "eval/world.h"
#include "mapmatch/hmm_matcher.h"
#include "nn/backend.h"
#include "nn/infer/forward.h"
#include "nn/infer/memo.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "roadnet/shortest_path.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace deepst {
namespace bench {
namespace {

eval::World& MicroWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.2);
    cfg.name = "micro-world";
    cfg.generator.num_days = 4;
    cfg.train_days = 2;
    cfg.val_days = 1;
    return new eval::World(cfg);
  }();
  return *world;
}

core::DeepSTModel& MicroModel() {
  static core::DeepSTModel* model = [] {
    core::DeepSTConfig cfg =
        baselines::DeepStCConfigOf(eval::DefaultModelConfig(MicroWorld()));
    return new core::DeepSTModel(MicroWorld().net(), cfg, nullptr);
  }();
  return *model;
}

// -- nn kernels ------------------------------------------------------------------

void BM_GruStep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  util::Rng rng(1);
  nn::StackedGru gru(32, 64, 2, &rng);
  nn::VarPtr x = nn::Constant(nn::Tensor::Uniform({batch, 32}, -1, 1, &rng));
  for (auto _ : state) {
    auto s = gru.InitialState(batch);
    benchmark::DoNotOptimize(gru.Step(x, &s));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GruStep)->Arg(1)->Arg(16)->Arg(64);

void BM_LinearForwardBackward(benchmark::State& state) {
  util::Rng rng(2);
  nn::LinearLayer fc(256, 256, &rng);
  nn::VarPtr x =
      nn::MakeVar(nn::Tensor::Uniform({64, 256}, -1, 1, &rng), true);
  for (auto _ : state) {
    nn::VarPtr loss = nn::ops::Sum(fc.Forward(x));
    nn::Backward(loss);
    x->ZeroGrad();
    benchmark::DoNotOptimize(loss->value()[0]);
  }
}
BENCHMARK(BM_LinearForwardBackward);

// -- backend kernels -------------------------------------------------------------

// GEMM through the backend at the thread count given by the benchmark arg.
// The --threads flag is ignored here on purpose: the sweep sets the backend
// itself so one run covers all counts.
void BM_MatmulKernel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  const int prev = nn::GetBackendThreads();
  nn::SetBackendThreads(threads);
  util::Rng rng(7);
  const nn::Tensor a = nn::Tensor::Uniform({n, n}, -1, 1, &rng);
  const nn::Tensor b = nn::Tensor::Uniform({n, n}, -1, 1, &rng);
  nn::Tensor c = nn::Tensor::Zeros({n, n});
  for (auto _ : state) {
    nn::kernels::GemmAcc(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  nn::SetBackendThreads(prev);
}
BENCHMARK(BM_MatmulKernel)->ArgsProduct({{1, 2, 4}, {64, 256}});

void BM_Conv2dKernel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int prev = nn::GetBackendThreads();
  nn::SetBackendThreads(threads);
  util::Rng rng(8);
  const nn::Tensor x = nn::Tensor::Uniform({8, 8, 24, 24}, -1, 1, &rng);
  const nn::Tensor w = nn::Tensor::Uniform({16, 8, 3, 3}, -1, 1, &rng);
  nn::Tensor out = nn::Tensor::Zeros({8, 16, 24, 24});
  for (auto _ : state) {
    nn::kernels::Conv2dForward(x, w, /*bias=*/nullptr, /*stride=*/1,
                               /*pad=*/1, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * out.numel());
  nn::SetBackendThreads(prev);
}
BENCHMARK(BM_Conv2dKernel)->Arg(1)->Arg(2)->Arg(4);

// One-shot sweep of the two FLOP-dominant kernels over thread counts,
// exported as bench_out/BENCH_kernels.json (seconds per call and speedup
// over the single-thread run, per kernel and thread count).
void BM_KernelThreadSweep(benchmark::State& state) {
  const int64_t n = eval::FastMode() ? 128 : 256;
  const int reps = eval::FastMode() ? 5 : 10;
  util::Rng rng(9);
  const nn::Tensor a = nn::Tensor::Uniform({n, n}, -1, 1, &rng);
  const nn::Tensor b = nn::Tensor::Uniform({n, n}, -1, 1, &rng);
  nn::Tensor c = nn::Tensor::Zeros({n, n});
  const nn::Tensor x = nn::Tensor::Uniform({8, 8, 24, 24}, -1, 1, &rng);
  const nn::Tensor w = nn::Tensor::Uniform({16, 8, 3, 3}, -1, 1, &rng);
  nn::Tensor out = nn::Tensor::Zeros({8, 16, 24, 24});

  auto time_best = [reps](const std::function<void()>& fn) {
    fn();  // warmup
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      util::Stopwatch watch;
      for (int i = 0; i < reps; ++i) fn();
      best = std::min(best, watch.ElapsedSeconds() / reps);
    }
    return best;
  };

  struct Row {
    const char* kernel;
    int threads;
    double seconds;
  };
  std::vector<Row> rows;
  const int prev = nn::GetBackendThreads();
  for (auto _ : state) {
    rows.clear();
    for (int threads : {1, 2, 4}) {
      nn::SetBackendThreads(threads);
      rows.push_back({"matmul", threads, time_best([&] {
                        nn::kernels::GemmAcc(a.data(), b.data(), c.data(), n,
                                             n, n);
                      })});
      rows.push_back({"conv2d", threads, time_best([&] {
                        nn::kernels::Conv2dForward(x, w, nullptr, 1, 1, &out);
                      })});
    }
  }
  nn::SetBackendThreads(prev);

  auto baseline = [&rows](const char* kernel) {
    for (const Row& r : rows) {
      if (r.threads == 1 && std::string(kernel) == r.kernel) return r.seconds;
    }
    return 0.0;
  };
  std::ofstream json(OutDir() + "/BENCH_kernels.json");
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "  {\"kernel\": \"" << r.kernel << "\", \"threads\": " << r.threads
         << ", \"seconds_per_call\": " << r.seconds
         << ", \"speedup_vs_1\": " << baseline(r.kernel) / r.seconds << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "]\n";
  for (const Row& r : rows) {
    state.counters[std::string(r.kernel) + "_t" + std::to_string(r.threads) +
                   "_speedup"] = baseline(r.kernel) / r.seconds;
  }
}
BENCHMARK(BM_KernelThreadSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

// -- roadnet ---------------------------------------------------------------------

void BM_Dijkstra(benchmark::State& state) {
  auto& world = MicroWorld();
  const auto cost = roadnet::FreeFlowTimeCost(world.net());
  util::Rng rng(3);
  for (auto _ : state) {
    const auto src = static_cast<roadnet::SegmentId>(rng.UniformInt(
        static_cast<uint64_t>(world.net().num_segments())));
    benchmark::DoNotOptimize(
        roadnet::ShortestPathTree(world.net(), src, cost));
  }
}
BENCHMARK(BM_Dijkstra);

void BM_SpatialIndexNearest(benchmark::State& state) {
  auto& world = MicroWorld();
  util::Rng rng(4);
  const auto& box = world.net().bounds();
  for (auto _ : state) {
    geo::Point p{rng.Uniform(box.min.x, box.max.x),
                 rng.Uniform(box.min.y, box.max.y)};
    benchmark::DoNotOptimize(world.index().Nearest(p));
  }
}
BENCHMARK(BM_SpatialIndexNearest);

// -- mapmatch --------------------------------------------------------------------

void BM_HmmMatch(benchmark::State& state) {
  auto& world = MicroWorld();
  mapmatch::HmmMapMatcher matcher(world.net(), world.index());
  const auto& gps = world.records().front().gps;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(gps));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(gps.size()));
}
BENCHMARK(BM_HmmMatch);

// -- DeepST prediction/scoring: O(|r|) (paper IV-F) --------------------------------

// A route of the requested length: the prefix of the longest shortest path
// rooted at segment 0 (paths in an 11x11 grid reach ~20+ segments).
traj::Route SyntheticRoute(int target_len) {
  auto& world = MicroWorld();
  const auto cost = roadnet::LengthCost(world.net());
  const auto dist = roadnet::ShortestPathTree(world.net(), 0, cost);
  roadnet::SegmentId far = 0;
  for (roadnet::SegmentId s = 0; s < world.net().num_segments(); ++s) {
    if (std::isfinite(dist[static_cast<size_t>(s)]) &&
        dist[static_cast<size_t>(s)] > dist[static_cast<size_t>(far)]) {
      far = s;
    }
  }
  traj::Route route =
      roadnet::ShortestPath(world.net(), 0, far, cost).value().path;
  if (static_cast<int>(route.size()) > target_len) {
    route.resize(static_cast<size_t>(target_len));
  }
  return route;
}

// Scores a synthetic straight-line route of the requested length; time per
// iteration should grow linearly with the length argument.
void BM_ScoreRouteByLength(benchmark::State& state) {
  auto& world = MicroWorld();
  auto& model = MicroModel();
  traj::Route route = SyntheticRoute(static_cast<int>(state.range(0)));
  util::Rng rng(5);
  core::RouteQuery query;
  query.origin = route.front();
  query.destination = world.net().SegmentEnd(route.back());
  core::PredictionContext ctx = model.MakeContext(query, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ScoreRoute(ctx, route));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(route.size()));
  state.counters["route_len"] =
      static_cast<double>(route.size());
}
BENCHMARK(BM_ScoreRouteByLength)->Arg(5)->Arg(10)->Arg(19);

void BM_PredictRoute(benchmark::State& state) {
  auto& world = MicroWorld();
  auto& model = MicroModel();
  util::Rng rng(6);
  const auto* rec = world.split().test.front();
  core::RouteQuery query = eval::QueryFor(rec->trip);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictRoute(query, &rng));
  }
}
BENCHMARK(BM_PredictRoute);

// The beam alone on a built context: a one-item PredictRoutesBeamMulti, as
// the serving layer runs a lone predict.
void BM_BeamOneItem(benchmark::State& state) {
  auto& world = MicroWorld();
  auto& model = MicroModel();
  util::Rng rng(6);
  const auto* rec = world.split().test.front();
  core::RouteQuery query = eval::QueryFor(rec->trip);
  core::PredictionContext ctx = model.MakeContext(query, &rng);
  std::vector<core::PredictItem> one(1);
  one[0].ctx = &ctx;
  one[0].origin = query.origin;
  for (auto _ : state) {
    util::Rng step_rng(7);
    model.PredictRoutesBeamMulti(&one, &step_rng);
    benchmark::DoNotOptimize(one[0].route.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BeamOneItem);

// Context build with and without the traffic posterior memo (arg 1 / 0):
// on a hit MakeContext skips the traffic CNN and runs only the proxy MLP,
// the reparameterization and the logit projections.
void BM_MakeContext(benchmark::State& state) {
  auto& world = MicroWorld();
  core::DeepSTConfig cfg =
      baselines::DeepStConfigOf(eval::DefaultModelConfig(world));
  if (state.range(0) == 0) cfg.memo_cache_capacity = 0;
  core::DeepSTModel model(world.net(), cfg, world.traffic_cache());
  const core::RouteQuery query = eval::QueryFor(world.split().test.front()->trip);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(model.MakeContext(query, &rng));
  }
  const nn::infer::MemoStats memo = model.traffic_posterior_memo_stats();
  state.counters["memo_hits"] = static_cast<double>(memo.hits);
}
BENCHMARK(BM_MakeContext)->Arg(0)->Arg(1);

// The proxy encoder's output layer for one destination: ops::Linear (the
// autodiff forward MakeContext ran before, here under NoGradGuard) against
// the output-major row kernel it runs now, at chengdu-full's served
// K = segments / 6 = 18,523 and chengdu-mini's 71, from 64 hidden units,
// single-threaded. Exported as bench_out/BENCH_proxy.json; each row's
// bitwise_equal field says whether the kernel reproduced ops::Linear
// exactly (tools/check_perf.sh asserts it).
void BM_ProxyLogits(benchmark::State& state) {
  struct Row {
    int64_t out = 0;
    double seconds = 0.0;
    double baseline_seconds = 0.0;  // ops::Linear
    bool bitwise_equal = false;
  };
  std::vector<Row> rows;
  const int prev = nn::GetBackendThreads();
  nn::SetBackendThreads(1);
  const int64_t in = 64;
  for (const int64_t out : {int64_t{18523}, int64_t{71}}) {
    util::Rng rng(23);
    const nn::VarPtr w =
        nn::Constant(nn::Tensor::Uniform({out, in}, -1, 1, &rng));
    const nn::VarPtr b = nn::Constant(nn::Tensor::Uniform({out}, -1, 1, &rng));
    const nn::Tensor x = nn::Tensor::Uniform({1, in}, -1, 1, &rng);
    const nn::infer::OutputMajorMatrix packed =
        nn::infer::OutputMajorMatrix::Pack(w->value().data(), out, in);
    std::vector<float> got(static_cast<size_t>(out));
    const int reps = (eval::FastMode() ? 50 : 500) * (out < 1000 ? 100 : 1);
    const auto time = [reps](const std::function<void()>& fn) {
      fn();  // warmup
      util::Stopwatch watch;
      for (int i = 0; i < reps; ++i) fn();
      return watch.ElapsedSeconds() / reps;
    };
    nn::NoGradGuard no_grad;
    Row row;
    row.out = out;
    row.baseline_seconds = time([&] {
      benchmark::DoNotOptimize(nn::ops::Linear(nn::Constant(x), w, b));
    });
    row.seconds = time([&] {
      nn::infer::LinearRowOutputMajor(x.data(), packed, b->value().data(),
                                      got.data());
      benchmark::DoNotOptimize(got.data());
    });
    const nn::Tensor ref = nn::ops::Linear(nn::Constant(x), w, b)->value();
    row.bitwise_equal = std::memcmp(ref.data(), got.data(),
                                    got.size() * sizeof(float)) == 0;
    rows.push_back(row);
  }
  nn::SetBackendThreads(prev);

  std::ofstream json(OutDir() + "/BENCH_proxy.json");
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const std::string variant = "proxy_logits_k" + std::to_string(r.out);
    const double speedup =
        r.seconds > 0.0 ? r.baseline_seconds / r.seconds : 0.0;
    json << "  {\"variant\": \"" << variant << "\", \"in\": " << in
         << ", \"out\": " << r.out << ", \"ns_per_op\": " << r.seconds * 1e9
         << ", \"ops_linear_ns_per_op\": " << r.baseline_seconds * 1e9
         << ", \"speedup_vs_ops_linear\": " << speedup
         << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    state.counters[variant + "_speedup"] = speedup;
    state.counters[variant + "_bitwise_equal"] = r.bitwise_equal ? 1 : 0;
  }
  json << "]\n";
  for (auto _ : state) {
  }
}
BENCHMARK(BM_ProxyLogits)->Iterations(1)->Unit(benchmark::kMillisecond);

// GruGates' vector expf/tanhf against libm, and the gate kernel against the
// scalar libm composition it replaced:
//   - an exhaustive check: ExpLanes and TanhLanes against std::exp and
//     std::tanh over all 2^32 float bit patterns, counting mismatching bits
//     (full size even under DEEPST_FAST; ~30 s on 4 threads);
//   - GruGates ns per unit at H = 64, batches 1/4/16/32, single-threaded,
//     kernel vs the scalar loop below, with a bitwise output comparison.
// Exported as bench_out/BENCH_gates.json; tools/check_perf.sh fails unless
// every row is bitwise_equal.
void ScalarGates(const nn::Tensor& gi, const nn::Tensor& gh,
                 const nn::Tensor& h_prev, nn::Tensor* h_out) {
  const int64_t hd = h_prev.dim(1);
  for (int64_t b = 0; b < gi.dim(0); ++b) {
    const float* g = gi.data() + b * 3 * hd;
    const float* u = gh.data() + b * 3 * hd;
    const float* hrow = h_prev.data() + b * hd;
    float* orow = h_out->data() + b * hd;
    for (int64_t j = 0; j < hd; ++j) {
      const float r = 1.0f / (1.0f + std::exp(-(g[j] + u[j])));
      const float z = 1.0f / (1.0f + std::exp(-(g[hd + j] + u[hd + j])));
      const float n = std::tanh(g[2 * hd + j] + r * u[2 * hd + j]);
      orow[j] = (1.0f - z) * n + z * hrow[j];
    }
  }
}

void BM_GateMath(benchmark::State& state) {
  struct Row {
    std::string variant;
    int64_t batch = 0;
    uint64_t inputs = 0;
    uint64_t mismatches = 0;
    double ns_per_unit = 0.0;
    double scalar_ns_per_unit = 0.0;
  };
  std::vector<Row> rows;

  // Exhaustive: each worker takes every num_workers-th chunk of bit patterns
  // and counts, per function, the outputs whose bits differ from libm's.
  struct LaneFn {
    const char* variant;
    void (*lanes)(const float*, float*, int64_t);
    float (*libm)(float);
  };
  const LaneFn fns[] = {
      {"expf_all_floats", nn::infer::ExpLanes,
       [](float v) { return std::exp(v); }},
      {"tanhf_all_floats", nn::infer::TanhLanes,
       [](float v) { return std::tanh(v); }}};
  constexpr uint64_t kChunk = uint64_t{1} << 16;
  const int num_workers = static_cast<int>(
      std::min<unsigned>(4, std::max(1u, std::thread::hardware_concurrency())));
  std::vector<std::array<uint64_t, 2>> bad(static_cast<size_t>(num_workers),
                                           {0, 0});
  util::Stopwatch scan_watch;
  std::vector<std::thread> workers;
  for (int w = 0; w < num_workers; ++w) {
    workers.emplace_back([&, w] {
      std::vector<float> x(kChunk), y(kChunk);
      for (uint64_t base = static_cast<uint64_t>(w) * kChunk;
           base < (uint64_t{1} << 32); base += num_workers * kChunk) {
        for (uint64_t i = 0; i < kChunk; ++i) {
          const uint32_t bits = static_cast<uint32_t>(base + i);
          std::memcpy(&x[i], &bits, sizeof(float));
        }
        for (size_t f = 0; f < 2; ++f) {
          fns[f].lanes(x.data(), y.data(), kChunk);
          uint64_t chunk_bad = 0;
          for (uint64_t i = 0; i < kChunk; ++i) {
            const float want = fns[f].libm(x[i]);
            chunk_bad += std::memcmp(&want, &y[i], sizeof(float)) != 0;
          }
          bad[static_cast<size_t>(w)][f] += chunk_bad;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double scan_seconds = scan_watch.ElapsedSeconds();
  for (size_t f = 0; f < 2; ++f) {
    Row row;
    row.variant = fns[f].variant;
    row.inputs = uint64_t{1} << 32;
    for (const auto& worker_bad : bad) row.mismatches += worker_bad[f];
    rows.push_back(row);
  }

  // Timing: the served hidden size, single-threaded.
  const int prev = nn::GetBackendThreads();
  nn::SetBackendThreads(1);
  const int64_t hd = 64;
  for (const int64_t batch : {int64_t{1}, int64_t{4}, int64_t{16},
                              int64_t{32}}) {
    util::Rng rng(37);
    const nn::Tensor gi = nn::Tensor::Uniform({batch, 3 * hd}, -4, 4, &rng);
    const nn::Tensor gh = nn::Tensor::Uniform({batch, 3 * hd}, -4, 4, &rng);
    const nn::Tensor h = nn::Tensor::Uniform({batch, hd}, -1, 1, &rng);
    nn::Tensor out = nn::Tensor::Zeros({batch, hd});
    nn::Tensor ref = nn::Tensor::Zeros({batch, hd});
    const int reps = (eval::FastMode() ? 2000 : 20000) / static_cast<int>(batch);
    const auto time = [reps, batch](const std::function<void()>& fn) {
      fn();  // warmup
      double best = 0.0;
      for (int trial = 0; trial < 3; ++trial) {
        util::Stopwatch watch;
        for (int i = 0; i < reps; ++i) fn();
        const double s = watch.ElapsedSeconds();
        if (trial == 0 || s < best) best = s;
      }
      return best / reps / static_cast<double>(batch * hd) * 1e9;
    };
    Row row;
    row.variant = "gru_gates_h64_b" + std::to_string(batch);
    row.batch = batch;
    row.inputs = static_cast<uint64_t>(batch * hd);
    row.scalar_ns_per_unit = time([&] {
      ScalarGates(gi, gh, h, &ref);
      benchmark::DoNotOptimize(ref.data());
    });
    row.ns_per_unit = time([&] {
      nn::infer::GruGates(gi, gh, h, &out);
      benchmark::DoNotOptimize(out.data());
    });
    for (int64_t i = 0; i < batch * hd; ++i) {
      row.mismatches += std::memcmp(&out[i], &ref[i], sizeof(float)) != 0;
    }
    rows.push_back(row);
  }
  nn::SetBackendThreads(prev);

  std::ofstream json(OutDir() + "/BENCH_gates.json");
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "  {\"variant\": \"" << r.variant << "\", \"inputs\": " << r.inputs
         << ", \"mismatches\": " << r.mismatches;
    if (r.batch > 0) {
      const double speedup =
          r.ns_per_unit > 0.0 ? r.scalar_ns_per_unit / r.ns_per_unit : 0.0;
      json << ", \"hidden\": " << hd << ", \"batch\": " << r.batch
           << ", \"ns_per_unit\": " << r.ns_per_unit
           << ", \"scalar_ns_per_unit\": " << r.scalar_ns_per_unit
           << ", \"speedup_vs_scalar\": " << speedup;
      state.counters[r.variant + "_speedup"] = speedup;
    } else {
      json << ", \"seconds\": " << scan_seconds << ", \"workers\": "
           << num_workers;
    }
    json << ", \"bitwise_equal\": " << (r.mismatches == 0 ? "true" : "false")
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    state.counters[r.variant + "_mismatches"] =
        static_cast<double>(r.mismatches);
  }
  json << "]\n";
  for (auto _ : state) {
  }
}
BENCHMARK(BM_GateMath)->Iterations(1)->Unit(benchmark::kMillisecond);

// What the posterior memo adds to a miss: one hash over the bytes of the
// [2, side, side] traffic tensor (chengdu-mini's grid is 12x12,
// chengdu-full's 52x52).
void BM_PosteriorMemoKey(benchmark::State& state) {
  const int64_t side = state.range(0);
  const std::vector<float> tensor(static_cast<size_t>(2 * side * side), 0.5f);
  const size_t bytes = tensor.size() * sizeof(float);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::infer::HashBytesKey(tensor.data(), bytes, nn::infer::MemoKey()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PosteriorMemoKey)->Arg(12)->Arg(52);

// Batched candidate-set scoring (the route-ranking / recovery hot path):
// one padded batch through the engine vs `batch` sequential ScoreRoute
// calls' worth of work.
void BM_ScoreRoutesBatched(benchmark::State& state) {
  auto& model = MicroModel();
  const int batch = static_cast<int>(state.range(0));
  const traj::Route route = SyntheticRoute(19);
  std::vector<traj::Route> candidates;
  for (int i = 0; i < batch; ++i) {
    candidates.emplace_back(route.begin(),
                            route.end() - (i % 4));  // mixed lengths
  }
  util::Rng rng(5);
  core::RouteQuery query;
  query.origin = route.front();
  query.destination = MicroWorld().net().SegmentEnd(route.back());
  core::PredictionContext ctx = model.MakeContext(query, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ScoreRoutes(ctx, candidates));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScoreRoutesBatched)->Arg(1)->Arg(8)->Arg(32);

// One-shot sweep comparing the autodiff reference predictors ("graph")
// against the graph-free engine ("fast") on the two prediction-time
// workloads, over backend thread counts, on one model and one context per
// workload. Exported as bench_out/BENCH_inference.json; tools/check_perf.sh
// asserts the single-thread fast-path speedups from it.
void BM_InferenceSweep(benchmark::State& state) {
  auto& world = MicroWorld();
  core::DeepSTModel model(
      world.net(), baselines::DeepStCConfigOf(eval::DefaultModelConfig(world)),
      nullptr);

  const traj::Route route = SyntheticRoute(19);
  core::RouteQuery score_query;
  score_query.origin = route.front();
  score_query.destination = world.net().SegmentEnd(route.back());
  core::RouteQuery pred_query = eval::QueryFor(world.split().test.front()->trip);
  util::Rng rng(5);
  const core::PredictionContext score_ctx =
      model.MakeContext(score_query, &rng);
  const core::PredictionContext pred_ctx = model.MakeContext(pred_query, &rng);
  std::vector<core::PredictItem> pred_item(1);
  pred_item[0].ctx = &pred_ctx;
  pred_item[0].origin = pred_query.origin;

  const int reps = eval::FastMode() ? 10 : 30;
  auto time_best = [reps](const std::function<void()>& fn) {
    fn();  // warmup
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      util::Stopwatch watch;
      for (int i = 0; i < reps; ++i) fn();
      best = std::min(best, watch.ElapsedSeconds() / reps);
    }
    return best;
  };

  struct Row {
    const char* engine;
    const char* workload;
    int threads;
    double seconds;
  };
  std::vector<Row> rows;
  const int prev = nn::GetBackendThreads();
  for (auto _ : state) {
    rows.clear();
    for (int threads : {1, 2, 4}) {
      nn::SetBackendThreads(threads);
      for (const bool graph : {true, false}) {
        const char* engine = graph ? "graph" : "fast";
        rows.push_back({engine, "score_route_len19", threads, time_best([&] {
                          benchmark::DoNotOptimize(
                              graph ? model.ScoreRouteReference(score_ctx, route)
                                    : model.ScoreRoute(score_ctx, route));
                        })});
        rows.push_back({engine, "predict_route", threads, time_best([&] {
                          util::Rng r(7);
                          if (graph) {
                            benchmark::DoNotOptimize(
                                model.PredictRouteBeamReference(
                                    pred_ctx, pred_query.origin, &r));
                          } else {
                            model.PredictRoutesBeamMulti(&pred_item, &r);
                            benchmark::DoNotOptimize(
                                pred_item[0].route.data());
                            benchmark::ClobberMemory();
                          }
                        })});
      }
    }
  }
  nn::SetBackendThreads(prev);

  // Cross-engine agreement on the timed workloads (also parity-tested at
  // 1e-5 in tests/inference_test.cc; recorded here for the bench artifact).
  const double score_diff =
      std::abs(model.ScoreRoute(score_ctx, route) -
               model.ScoreRouteReference(score_ctx, route));

  auto seconds_of = [&rows](const char* engine, const char* workload,
                            int threads) {
    for (const Row& r : rows) {
      if (std::string(engine) == r.engine &&
          std::string(workload) == r.workload && r.threads == threads) {
        return r.seconds;
      }
    }
    return 0.0;
  };
  std::ofstream json(OutDir() + "/BENCH_inference.json");
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "  {\"engine\": \"" << r.engine << "\", \"workload\": \""
         << r.workload << "\", \"threads\": " << r.threads
         << ", \"seconds_per_call\": " << r.seconds << ", \"speedup_vs_graph\": "
         << seconds_of("graph", r.workload, r.threads) / r.seconds
         << ", \"speedup_vs_1\": "
         << seconds_of(r.engine, r.workload, 1) / r.seconds
         << ", \"score_abs_diff\": " << score_diff << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "]\n";
  for (const Row& r : rows) {
    if (std::string(r.engine) != "fast") continue;
    state.counters[std::string(r.workload) + "_t" + std::to_string(r.threads) +
                   "_speedup"] =
        seconds_of("graph", r.workload, r.threads) / r.seconds;
  }
}
BENCHMARK(BM_InferenceSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

// One-shot sweep of the transition memo (docs/inference.md). Measures,
// single-threaded, the steady-state beam-prediction workload (8 hot queries
// replayed) with memoization off and on, plus the memo's steady-state hit
// rate. Exported as bench_out/BENCH_memo.json; tools/check_perf.sh gates
// the hit rate and, on AVX2 hardware, the memoized speedup (>= 2x).
void BM_MemoSweep(benchmark::State& state) {
  auto& world = MicroWorld();
  const int reps = eval::FastMode() ? 10 : 30;
  auto time_best = [reps](const std::function<void()>& fn) {
    fn();  // warmup (also brings the memo to steady state)
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 3; ++round) {
      util::Stopwatch watch;
      for (int i = 0; i < reps; ++i) fn();
      best = std::min(best, watch.ElapsedSeconds() / reps);
    }
    return best;
  };

  // Train briefly so the beam follows a model's decisions rather than
  // random-init noise.
  const core::DeepSTConfig base_cfg =
      baselines::DeepStCConfigOf(eval::DefaultModelConfig(world));
  std::vector<nn::NamedTensor> trained;
  {
    core::DeepSTModel teacher(world.net(), base_cfg, nullptr);
    core::TrainerConfig tcfg;
    tcfg.max_epochs = eval::FastMode() ? 1 : 2;
    tcfg.patience = 100;
    tcfg.verbose = false;
    core::Trainer trainer(&teacher, tcfg);
    (void)trainer.Fit(world.split().train, {});
    trained = nn::SnapshotParameters(teacher);
  }

  struct Variant {
    const char* name;
    bool memo;
  };
  const Variant variants[] = {{"double_nomemo", false}, {"double_memo", true}};

  // The hot-query beam workload: 8 test trips replayed to steady state, the
  // serving pattern the memo targets.
  std::vector<core::RouteQuery> queries;
  for (const auto* rec : world.split().test) {
    if (rec->trip.route.size() < 2) continue;
    queries.push_back(eval::QueryFor(rec->trip));
    if (queries.size() == 8) break;
  }

  struct Row {
    std::string variant;
    double seconds = 0.0;
    double hit_rate = 0.0;  // steady-state memo hit rate (memo rows)
  };
  std::vector<Row> rows;

  const int prev = nn::GetBackendThreads();
  nn::SetBackendThreads(1);
  for (auto _ : state) {
    for (const Variant& v : variants) {
      core::DeepSTConfig cfg = base_cfg;
      cfg.memo_cache_capacity = v.memo ? 16384 : 0;
      core::DeepSTModel model(world.net(), cfg, nullptr);
      DEEPST_CHECK(nn::ApplyNamedTensors(&model, trained).ok());
      util::Rng crng(5);
      std::vector<core::PredictionContext> ctxs;
      for (const core::RouteQuery& q : queries) {
        ctxs.push_back(model.MakeContext(q, &crng));
      }
      std::vector<core::PredictItem> one(1);
      auto replay = [&] {
        for (size_t q = 0; q < queries.size(); ++q) {
          util::Rng r(7);
          one[0].ctx = &ctxs[q];
          one[0].origin = queries[q].origin;
          model.PredictRoutesBeamMulti(&one, &r);
          benchmark::DoNotOptimize(one[0].route.data());
          benchmark::ClobberMemory();
        }
      };
      Row row;
      row.variant = v.name;
      row.seconds = time_best(replay);
      if (v.memo) {
        // Steady-state hit rate: one more replay round on the warm cache.
        const auto before = model.transition_memo_stats();
        replay();
        const auto after = model.transition_memo_stats();
        const int64_t lookups = after.lookups - before.lookups;
        row.hit_rate = lookups > 0
                           ? static_cast<double>(after.hits - before.hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
      }
      rows.push_back(row);
    }
  }
  nn::SetBackendThreads(prev);

  const double nomemo_seconds = rows.front().seconds;
  std::ofstream json(OutDir() + "/BENCH_memo.json");
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup = r.seconds > 0.0 ? nomemo_seconds / r.seconds : 0.0;
    json << "  {\"variant\": \"" << r.variant
         << "\", \"workload\": \"predict_beam_x8\", \"ns_per_op\": "
         << r.seconds * 1e9 << ", \"speedup_vs_nomemo\": " << speedup
         << ", \"steady_hit_rate\": " << r.hit_rate << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    state.counters[r.variant + "_speedup"] = speedup;
  }
  json << "]\n";
}
BENCHMARK(BM_MemoSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

// One-shot sweep of the register-blocked GEMM path: blocked (panel-packed)
// vs chunk GEMV at batched beam shapes, with a bitwise-equality cross-check
// (the blocking must only reorder work across output elements, never
// within one, so blocked == chunk bit for bit). Exported as
// bench_out/BENCH_gemm.json; tools/check_perf.sh gates the bitwise fields
// everywhere and, on AVX2 hardware, a >= 1.5x blocked speedup at the
// served batched GRU-step shapes (m 28 and 32, k 32 and 64).
void BM_GemmSweep(benchmark::State& state) {
  struct Row {
    std::string variant;
    std::string workload;
    double seconds = 0.0;
    double baseline_seconds = 0.0;  // unblocked counterpart
    bool bitwise_equal = true;
  };
  std::vector<Row> rows;

  // Kernel micro: a serve-size step shape ([3H, H] with H = 128) across
  // batch sizes spanning partial tiles, one warm band sweep; then the
  // GRU-step shapes the served models run (H = 32 or 64, 3H = 192 gate
  // rows, no K tail), whose full tiles reduce through the transposed
  // lane-tree epilogue.
  util::Rng rng(21);
  const int reps = eval::FastMode() ? 500 : 5000;
  struct Shape {
    int64_t m;
    int64_t k = 128;
    int64_t n = 3 * 128;
  };
  const Shape shapes[] = {
      {4},           {16},          {33},
      {4, 32, 192},  {28, 32, 192}, {32, 32, 192},
      {4, 64, 192},  {28, 64, 192}, {32, 64, 192},
  };
  for (const Shape& s : shapes) {
    const int64_t k = s.k, n = s.n;
    const nn::Tensor w = nn::Tensor::Uniform({n, k}, -1, 1, &rng);
    const nn::Tensor b = nn::Tensor::Uniform({n}, -1, 1, &rng);
    std::vector<double> x(static_cast<size_t>(s.m * k));
    for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
    const auto chunk = nn::infer::PackedMatrix::Pack(w.data(), n, k, k);
    auto blocked = nn::infer::PackedMatrix::Pack(w.data(), n, k, k);
    blocked.BuildPanels();
    std::vector<float> out_chunk(static_cast<size_t>(s.m * n));
    std::vector<float> out_blocked(out_chunk.size());
    auto time_gemv = [&](const nn::infer::PackedMatrix& p, float* out) {
      nn::infer::GemvForward(x.data(), k, p, b.data(), nullptr, out, s.m,
                             n);  // warmup
      util::Stopwatch watch;
      for (int i = 0; i < reps; ++i) {
        nn::infer::GemvForward(x.data(), k, p, b.data(), nullptr, out,
                               s.m, n);
        benchmark::DoNotOptimize(out);
      }
      return watch.ElapsedSeconds() / reps;
    };
    Row row;
    row.variant = "gemm_double_m" + std::to_string(s.m) +
                  (k == 128 ? "" : "_k" + std::to_string(k));
    row.workload =
        "gemv_k" + std::to_string(k) + "_n" + std::to_string(n);
    row.baseline_seconds = time_gemv(chunk, out_chunk.data());
    row.seconds = time_gemv(blocked, out_blocked.data());
    row.bitwise_equal =
        std::memcmp(out_chunk.data(), out_blocked.data(),
                    out_chunk.size() * sizeof(float)) == 0;
    rows.push_back(row);
  }

  std::ofstream json(OutDir() + "/BENCH_gemm.json");
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup =
        r.seconds > 0.0 ? r.baseline_seconds / r.seconds : 0.0;
    json << "  {\"variant\": \"" << r.variant << "\", \"workload\": \""
         << r.workload << "\", \"ns_per_op\": " << r.seconds * 1e9
         << ", \"baseline_ns_per_op\": " << r.baseline_seconds * 1e9
         << ", \"speedup_vs_unblocked\": " << speedup
         << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    state.counters[r.variant + "_speedup"] = speedup;
  }
  json << "]\n";
  for (auto _ : state) {
  }
}
BENCHMARK(BM_GemmSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

// One-shot sweep of the training engine: the legacy single-graph tape
// ("serial", one batch = one autodiff graph) against data-parallel
// micro-sharding (docs/training-perf.md) on 1, 2 and 4 backend threads.
// Exported as bench_out/BENCH_training.json; tools/check_perf.sh gates the
// single-thread sharding overhead everywhere and the 4-thread epoch speedup
// on machines that actually have >= 4 cores. Sharded runs must train
// bitwise identical parameters for every thread count (the
// `bitwise_identical_params` field records the cross-thread comparison).
void BM_TrainingSweep(benchmark::State& state) {
  auto& world = MicroWorld();
  const core::DeepSTConfig mcfg =
      baselines::DeepStConfigOf(eval::DefaultModelConfig(world));
  const int epochs = eval::FastMode() ? 2 : 3;

  struct Run {
    double epoch_seconds = std::numeric_limits<double>::infinity();
    double transitions_per_sec = 0.0;
    std::vector<std::vector<float>> params;
  };
  // Fresh model per run (same config seed, so every run starts from the
  // same initialization). Epoch time is the best epoch's batch-loop
  // wall-clock, reconstructed from the trainer's throughput stats so
  // validation-free Fit overhead stays out of the measurement.
  auto train = [&](int shard_size, int threads) {
    core::DeepSTModel model(world.net(), mcfg, world.traffic_cache());
    core::TrainerConfig tcfg;
    tcfg.max_epochs = epochs;
    tcfg.patience = 100;
    tcfg.verbose = false;
    tcfg.num_threads = threads;
    tcfg.micro_shard_size = shard_size;
    core::Trainer trainer(&model, tcfg);
    auto result = trainer.Fit(world.split().train, {});
    Run run;
    for (const auto& e : result.epochs) {
      if (e.transitions_per_sec <= 0.0) continue;
      const double sec =
          static_cast<double>(e.transitions) / e.transitions_per_sec;
      if (sec < run.epoch_seconds) {
        run.epoch_seconds = sec;
        run.transitions_per_sec = e.transitions_per_sec;
      }
    }
    for (const auto& p : model.Parameters()) {
      const nn::Tensor& v = p.var->value();
      run.params.emplace_back(v.data(), v.data() + v.numel());
    }
    return run;
  };

  struct Row {
    const char* mode;
    int threads;
    Run run;
  };
  std::vector<Row> rows;
  for (auto _ : state) {
    rows.clear();
    rows.push_back({"serial", 1, train(/*shard_size=*/0, /*threads=*/1)});
    for (int threads : {1, 2, 4}) {
      rows.push_back({"sharded", threads, train(/*shard_size=*/16, threads)});
    }
  }

  // The determinism contract, measured on the artifact itself: every
  // sharded run trains the same parameters bit for bit.
  bool bitwise = true;
  const Row* sharded1 = nullptr;
  for (const Row& r : rows) {
    if (std::string(r.mode) != "sharded") continue;
    if (sharded1 == nullptr) {
      sharded1 = &r;
      continue;
    }
    for (size_t p = 0; p < sharded1->run.params.size() && bitwise; ++p) {
      bitwise = r.run.params[p].size() == sharded1->run.params[p].size() &&
                std::memcmp(r.run.params[p].data(),
                            sharded1->run.params[p].data(),
                            r.run.params[p].size() * sizeof(float)) == 0;
    }
  }

  const double serial_seconds = rows.front().run.epoch_seconds;
  std::ofstream json(OutDir() + "/BENCH_training.json");
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "  {\"mode\": \"" << r.mode << "\", \"threads\": " << r.threads
         << ", \"epoch_seconds\": " << r.run.epoch_seconds
         << ", \"transitions_per_sec\": " << r.run.transitions_per_sec
         << ", \"speedup_vs_serial\": "
         << serial_seconds / r.run.epoch_seconds
         << ", \"bitwise_identical_params\": " << (bitwise ? "true" : "false")
         << ", \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "]\n";
  for (const Row& r : rows) {
    state.counters[std::string(r.mode) + "_t" + std::to_string(r.threads) +
                   "_speedup"] = serial_seconds / r.run.epoch_seconds;
  }
  state.counters["bitwise_identical_params"] = bitwise ? 1.0 : 0.0;
}
BENCHMARK(BM_TrainingSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace deepst

DEEPST_BENCHMARK_MAIN();
