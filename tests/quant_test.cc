// Coverage of the packed GEMV kernels and the transition memo: GEMV parity
// against a sequential reference, batch-composition invariance, the blocked
// and output-major kernels and the GRU gates bitwise against their
// references, panel packing of the shared weights, bitwise memo parity
// across greedy/beam/multi entry points, epoch invalidation on weight
// swaps, and exact concurrent hit accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/neural_router.h"
#include "core/deepst_model.h"
#include "core/infer/session.h"
#include "eval/world.h"
#include "nn/backend.h"
#include "nn/infer/forward.h"
#include "nn/infer/memo.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "nn/variable.h"
#include "util/rng.h"

namespace deepst {
namespace core {
namespace {

using nn::infer::MemoKey;
using nn::infer::MixKey;
using nn::infer::PackedMatrix;
using nn::infer::TransitionMemoCache;

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "quant-test-world";
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

DeepSTConfig SmallConfig() {
  DeepSTConfig cfg;
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

// Base test config: DeepST-C (no traffic dependency, deterministic MAP
// beam) at the default memo capacity.
DeepSTConfig MemoConfig() { return baselines::DeepStCConfigOf(SmallConfig()); }

std::vector<const traj::TripRecord*> TestTrips(int n) {
  std::vector<const traj::TripRecord*> out;
  for (const auto* rec : TestWorld().split().test) {
    if (static_cast<int>(out.size()) >= n) break;
    if (rec->trip.route.size() >= 3) out.push_back(rec);
  }
  return out;
}

// The single-query beam: a one-item PredictRoutesBeamMulti.
traj::Route BeamRoute(DeepSTModel& model, const PredictionContext& ctx,
                      roadnet::SegmentId origin, util::Rng* rng) {
  std::vector<PredictItem> one(1);
  one[0].ctx = &ctx;
  one[0].origin = origin;
  model.PredictRoutesBeamMulti(&one, rng);
  return std::move(one[0].route);
}

// Reference GEMV over the packed doubles, accumulated sequentially: the
// value the kernel approximates.
void ReferenceGemv(const std::vector<double>& x, const PackedMatrix& w,
                   const float* bias, std::vector<float>* out, int64_t m) {
  const int64_t k = w.cols;
  const int64_t n = w.rows;
  out->assign(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += x[static_cast<size_t>(i * k + kk)] *
               w.d[static_cast<size_t>(j * k + kk)];
      }
      float v = static_cast<float>(acc);
      if (bias != nullptr) v += bias[j];
      (*out)[static_cast<size_t>(i * n + j)] = v;
    }
  }
}

TEST(GemvTest, MatchesSequentialReference) {
  util::Rng rng(5);
  const int64_t m = 5, k = 37, n = 29;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.5, 1.5, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k);
  std::vector<float> got(static_cast<size_t>(m * n));
  nn::infer::GemvForward(x.data(), k, p, bias.data(), nullptr, got.data(), m,
                         n);
  std::vector<float> want;
  ReferenceGemv(x, p, bias.data(), &want, m);
  for (size_t e = 0; e < got.size(); ++e) {
    // The kernel differs from the sequential reference only in the order of
    // its 8 double lanes, which can move the float cast by one ulp.
    EXPECT_NEAR(got[e], want[e], 1e-5) << "element " << e;
  }
}

TEST(GemvTest, RowBiasMatchesPerRowCalls) {
  util::Rng rng(6);
  const int64_t m = 6, k = 24, n = 17, queries = 3;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({queries, n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const std::vector<int> bias_row = {0, 2, 1, 1, 0, 2};
  const PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k);
  std::vector<float> got(static_cast<size_t>(m * n));
  nn::infer::GemvForward(x.data(), k, p, bias.data(), bias_row.data(),
                         got.data(), m, n);
  for (int64_t i = 0; i < m; ++i) {
    std::vector<float> row(static_cast<size_t>(n));
    nn::infer::GemvForward(x.data() + i * k, k, p,
                           bias.data() + bias_row[static_cast<size_t>(i)] * n,
                           nullptr, row.data(), 1, n);
    for (int64_t j = 0; j < n; ++j) {
      // Bitwise: identical arithmetic per element, only the bias pointer
      // plumbing differs.
      EXPECT_EQ(got[static_cast<size_t>(i * n + j)],
                row[static_cast<size_t>(j)]);
    }
  }
}

TEST(GemvTest, BatchCompositionIsBitwiseInvariant) {
  util::Rng rng(7);
  const int64_t m = 8, k = 40, n = 23;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k);
  std::vector<float> batched(static_cast<size_t>(m * n));
  nn::infer::GemvForward(x.data(), k, p, nullptr, nullptr, batched.data(), m,
                         n);
  for (int64_t i = 0; i < m; ++i) {
    std::vector<float> single(static_cast<size_t>(n));
    nn::infer::GemvForward(x.data() + i * k, k, p, nullptr, nullptr,
                           single.data(), 1, n);
    EXPECT_EQ(std::memcmp(batched.data() + i * n, single.data(),
                          static_cast<size_t>(n) * sizeof(float)),
              0)
        << "row " << i;
  }
}

// -- Register-blocked GEMM (fast path round three) ---------------------------
// BuildPanels() packs a K-major panel sidecar and batched (m > 1) calls then
// route through the blocked micro-kernel. The blocking only reorders work
// ACROSS output elements — each element's accumulation sequence is exactly
// the chunk kernel's — so results must be bitwise identical to the unpacked
// chunk path for every shape and batch composition.

TEST(GemmTest, BlockedMatchesChunkBitwiseAcrossShapes) {
  util::Rng rng(11);
  // k = 43: K-tail past the 8-wide panel blocks. n = 23: odd NR=2 tail row.
  // m sweeps partial and full micro-tile bands (MR = 4).
  const int64_t k = 43, n = 23;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.2, 1.2, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({n}, -1.0, 1.0, &rng);
  for (int64_t m : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5},
                    int64_t{16}, int64_t{33}}) {
    std::vector<double> x(static_cast<size_t>(m * k));
    for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
    const PackedMatrix bare = PackedMatrix::Pack(wt.data(), n, k, k);
    PackedMatrix blocked = PackedMatrix::Pack(wt.data(), n, k, k);
    blocked.BuildPanels();
    ASSERT_TRUE(blocked.has_panels());
    std::vector<float> chunk(static_cast<size_t>(m * n));
    std::vector<float> gemm(static_cast<size_t>(m * n));
    nn::infer::GemvForward(x.data(), k, bare, bias.data(), nullptr,
                           chunk.data(), m, n);
    nn::infer::GemvForward(x.data(), k, blocked, bias.data(), nullptr,
                           gemm.data(), m, n);
    EXPECT_EQ(
        std::memcmp(chunk.data(), gemm.data(), chunk.size() * sizeof(float)),
        0)
        << "m=" << m;
  }
}

TEST(GemmTest, BlockedDoubleIsBitwiseLinearForward) {
  util::Rng rng(12);
  const int64_t m = 9, k = 50, n = 21;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k);
  p.BuildPanels();
  std::vector<float> gemm(static_cast<size_t>(m * n));
  nn::infer::GemvForward(x.data(), k, p, bias.data(), nullptr, gemm.data(),
                         m, n);
  std::vector<double> wd(static_cast<size_t>(n * k));
  for (int64_t e = 0; e < n * k; ++e)
    wd[static_cast<size_t>(e)] = static_cast<double>(wt.data()[e]);
  std::vector<float> ref(static_cast<size_t>(m * n));
  nn::infer::LinearForward(x.data(), k, wd.data(), k, bias.data(), nullptr,
                           ref.data(), m, k, n);
  EXPECT_EQ(std::memcmp(gemm.data(), ref.data(), ref.size() * sizeof(float)),
            0);
}

TEST(GemmTest, RowBiasBlockedMatchesChunkBitwise) {
  util::Rng rng(13);
  const int64_t m = 7, k = 24, n = 17, queries = 3;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({queries, n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const std::vector<int> bias_row = {0, 2, 1, 1, 0, 2, 1};
  const PackedMatrix bare = PackedMatrix::Pack(wt.data(), n, k, k);
  PackedMatrix blocked = PackedMatrix::Pack(wt.data(), n, k, k);
  blocked.BuildPanels();
  std::vector<float> chunk(static_cast<size_t>(m * n));
  std::vector<float> gemm(static_cast<size_t>(m * n));
  nn::infer::GemvForward(x.data(), k, bare, bias.data(), bias_row.data(),
                         chunk.data(), m, n);
  nn::infer::GemvForward(x.data(), k, blocked, bias.data(), bias_row.data(),
                         gemm.data(), m, n);
  EXPECT_EQ(
      std::memcmp(chunk.data(), gemm.data(), chunk.size() * sizeof(float)), 0);
}

TEST(GemmTest, BatchCompositionThroughBlockedPath) {
  util::Rng rng(14);
  const int64_t m = 11, k = 40, n = 23;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k);
  p.BuildPanels();
  std::vector<float> batched(static_cast<size_t>(m * n));
  nn::infer::GemvForward(x.data(), k, p, nullptr, nullptr, batched.data(), m,
                         n);
  // Single rows take the chunk path (m == 1 never dispatches to the
  // blocked kernel); a blocked batch must reproduce them bitwise.
  for (int64_t i = 0; i < m; ++i) {
    std::vector<float> single(static_cast<size_t>(n));
    nn::infer::GemvForward(x.data() + i * k, k, p, nullptr, nullptr,
                           single.data(), 1, n);
    EXPECT_EQ(std::memcmp(batched.data() + i * n, single.data(),
                          static_cast<size_t>(n) * sizeof(float)),
              0)
        << "row " << i;
  }
}

// The batched GRU-step shapes the served models run (k in {32, 64} hidden
// columns, n = 3H = 192 gate rows, no K tail, full and ragged bands): every
// full 4x2 tile goes through the transposed lane-tree epilogue. Row 1 is
// all zeros and row 2 all negative zeros, so zero products and signed-zero
// sums go through the tree too. In row 3, lanes 0 and 4 carry +-2^40-scale
// products that cancel only in the tree's last add, so the low bits of the
// result depend on the exact pairing of every earlier add (any other
// association of the eight lanes reads differently in float).
TEST(GemmTest, BlockedMatchesChunkBitwiseAtServedShapes) {
  util::Rng rng(16);
  const int64_t n = 192;
  for (const int64_t k : {int64_t{32}, int64_t{64}}) {
    nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
    for (int64_t j = 0; j < n; ++j) wt.at(j, 4) = -wt.at(j, 0);
    nn::Tensor bias = nn::Tensor::Uniform({n}, -1.0, 1.0, &rng);
    const PackedMatrix bare = PackedMatrix::Pack(wt.data(), n, k, k);
    PackedMatrix blocked = PackedMatrix::Pack(wt.data(), n, k, k);
    blocked.BuildPanels();
    for (const int64_t m : {int64_t{4}, int64_t{28}, int64_t{30},
                            int64_t{32}}) {
      std::vector<double> x(static_cast<size_t>(m * k));
      for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
      for (int64_t kk = 0; kk < k; ++kk) {
        x[static_cast<size_t>(1 * k + kk)] = 0.0;
        x[static_cast<size_t>(2 * k + kk)] = -0.0;
      }
      x[static_cast<size_t>(3 * k + 0)] = std::ldexp(1.0, 40);
      x[static_cast<size_t>(3 * k + 4)] = std::ldexp(1.0, 40);
      for (const float* b : {static_cast<const float*>(nullptr),
                             static_cast<const float*>(bias.data())}) {
        std::vector<float> chunk(static_cast<size_t>(m * n));
        std::vector<float> gemm(static_cast<size_t>(m * n));
        nn::infer::GemvForward(x.data(), k, bare, b, nullptr, chunk.data(),
                               m, n);
        nn::infer::GemvForward(x.data(), k, blocked, b, nullptr, gemm.data(),
                               m, n);
        EXPECT_EQ(std::memcmp(chunk.data(), gemm.data(),
                              chunk.size() * sizeof(float)),
                  0)
            << "k=" << k << " m=" << m << " bias=" << (b != nullptr);
      }
    }
  }
}

// The output-major row kernel repeats nn::ops::Linear's arithmetic element
// by element, so it must equal it bitwise: output counts below, equal to,
// at a multiple of and past the panel width, input widths of the proxy
// encoder's two layers, with and without bias, on random rows, on an
// all-zero row (whose sums meet the `0.0f +` of ops::Linear's zeroed
// output), and on a row whose first and last products are +-2^30-scale and
// cancel, so the result keeps the rounding of every add in between (any
// other summation order reads differently).
TEST(OutputMajorTest, LinearRowIsBitwiseOpsLinear) {
  util::Rng rng(17);
  const int64_t block = nn::infer::kOutBlock;
  for (const int64_t in : {int64_t{2}, int64_t{64}}) {
    for (const int64_t out : {int64_t{7}, block, 2 * block, block + 13,
                              int64_t{71}}) {
      nn::Tensor wv = nn::Tensor::Uniform({out, in}, -1.5, 1.5, &rng);
      for (int64_t j = 0; j < out; ++j) wv.at(j, in - 1) = wv.at(j, 0);
      const nn::VarPtr w = nn::Constant(std::move(wv));
      const nn::VarPtr b =
          nn::Constant(nn::Tensor::Uniform({out}, -1.0, 1.0, &rng));
      const nn::infer::OutputMajorMatrix packed =
          nn::infer::OutputMajorMatrix::Pack(w->value().data(), out, in);
      for (int row = 0; row < 5; ++row) {
        nn::Tensor x = row == 0 ? nn::Tensor::Zeros({1, in})
                                : nn::Tensor::Uniform({1, in}, -3.0, 3.0,
                                                      &rng);
        if (row == 4) {
          x[0] = std::ldexp(1.0f, 30);
          x[in - 1] = -std::ldexp(1.0f, 30);
        }
        for (const bool with_bias : {false, true}) {
          nn::NoGradGuard no_grad;
          const nn::Tensor ref =
              nn::ops::Linear(nn::Constant(x), w, with_bias ? b : nullptr)
                  ->value();
          std::vector<float> got(static_cast<size_t>(out));
          nn::infer::LinearRowOutputMajor(
              x.data(), packed, with_bias ? b->value().data() : nullptr,
              got.data());
          EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                got.size() * sizeof(float)),
                    0)
              << "in=" << in << " out=" << out << " row=" << row
              << " bias=" << with_bias;
        }
      }
    }
  }
}

// -- GRU gates -----------------------------------------------------------

// The scalar composition GruGates computed before its vector kernel, kept as
// the specification (this file is built without -march flags, so nothing in
// it fuses).
void ReferenceGates(const nn::Tensor& gi, const nn::Tensor& gh,
                    const nn::Tensor& h_prev, nn::Tensor* h_out) {
  const int64_t hd = h_prev.dim(1);
  for (int64_t b = 0; b < gi.dim(0); ++b) {
    for (int64_t j = 0; j < hd; ++j) {
      const float r = 1.0f / (1.0f + std::exp(-(gi.at(b, j) + gh.at(b, j))));
      const float z =
          1.0f / (1.0f + std::exp(-(gi.at(b, hd + j) + gh.at(b, hd + j))));
      const float n =
          std::tanh(gi.at(b, 2 * hd + j) + r * gh.at(b, 2 * hd + j));
      h_out->at(b, j) = (1.0f - z) * n + z * h_prev.at(b, j);
    }
  }
}

uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float FloatOfBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Runs GruGates in place, as the session does (h_out == h_prev), and
// returns how many units differ in any bit from ReferenceGates.
int64_t GateMismatches(const nn::Tensor& gi, const nn::Tensor& gh,
                       const nn::Tensor& h, const std::string& what) {
  nn::Tensor ref = nn::Tensor::Zeros({h.dim(0), h.dim(1)});
  ReferenceGates(gi, gh, h, &ref);
  nn::Tensor got = h;
  nn::infer::GruGates(gi, gh, got, &got);
  int64_t bad = 0;
  for (int64_t b = 0; b < h.dim(0); ++b) {
    for (int64_t j = 0; j < h.dim(1); ++j) {
      if (FloatBits(got.at(b, j)) == FloatBits(ref.at(b, j))) continue;
      if (bad++ == 0) {
        const int64_t hd = h.dim(1);
        ADD_FAILURE() << what << " unit (" << b << ", " << j << "): got "
                      << got.at(b, j) << " want " << ref.at(b, j)
                      << " gi r/z/n " << gi.at(b, j) << " "
                      << gi.at(b, hd + j) << " " << gi.at(b, 2 * hd + j)
                      << " gh r/z/n " << gh.at(b, j) << " "
                      << gh.at(b, hd + j) << " " << gh.at(b, 2 * hd + j);
      }
    }
  }
  return bad;
}

const int64_t kGateHidden[] = {1, 15, 16, 17, 64, 100};

// Random pre-activations over [-40, 40] (and a narrow [-3, 3] band, where
// the served gates live) at every batch 1-33 and hidden sizes on, below and
// past the 16-lane block.
TEST(GruGatesTest, BitwiseScalarLibmCompositionInPlace) {
  util::Rng rng(29);
  for (const double range : {3.0, 40.0}) {
    for (const int64_t hd : kGateHidden) {
      for (int64_t batch = 1; batch <= 33; ++batch) {
        const nn::Tensor gi =
            nn::Tensor::Uniform({batch, 3 * hd}, -range, range, &rng);
        const nn::Tensor gh =
            nn::Tensor::Uniform({batch, 3 * hd}, -range, range, &rng);
        const nn::Tensor h = nn::Tensor::Uniform({batch, hd}, -1, 1, &rng);
        EXPECT_EQ(GateMismatches(gi, gh, h,
                                 "range " + std::to_string(range) + " B=" +
                                     std::to_string(batch) + " H=" +
                                     std::to_string(hd)),
                  0);
      }
    }
  }
}

// Every float within +-64 ulps of each branch boundary of glibc's expf
// (|x| = 88, 88.72, 103.28, 103.97) and of fdlibm's tanhf and the
// expm1f(+-2|x|) it calls (|x| = 2^-55, 2^-26, 0.5 ln2 / 2, 1.5 ln2 / 2, 1,
// 27 ln2 / 2, 22), both signs, plus +-0, subnormals, +-inf and NaN. Each
// probe is fed to one gate of a unit so that gate sees it exactly (the
// paired gh is -0) while the unit's other gates draw random values, and
// the probes rotate through all three gates, every lane position and the
// same batch/hidden shapes as above.
TEST(GruGatesTest, BitwiseAtLibmBranchBoundaries) {
  const float boundaries[] = {
      88.0f,       0x1.62e42ep6f,  0x1.9d1d9ep6f,  0x1.9fe368p6f,
      0x1p-55f,    0x1p-26f,       0x1.62e430p-3f, 0x1.0a2b24p-1f,
      1.0f,        0x1.2b7088p3f,  22.0f};
  std::vector<float> probes;
  for (const float edge : boundaries) {
    for (const float sign : {1.0f, -1.0f}) {
      const uint32_t mid = FloatBits(sign * edge);
      for (uint32_t u = mid - 64; u <= mid + 64; ++u) {
        probes.push_back(FloatOfBits(u));
      }
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v : {0.0f, -0.0f, inf, -inf,
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(),
                        FloatOfBits(0x00400000u), FloatOfBits(0x807fffffu),
                        std::numeric_limits<float>::max(),
                        -std::numeric_limits<float>::max(),
                        // The only two floats whose expf changes when its
                        // r = fma(InvLn2N, xd, -kd) is split into a multiply
                        // and an add (an exhaustive search; splitting any of
                        // its other four fmas changes no result at all).
                        0x1.04845ep+5f, -0x1.f8cbb2p+5f}) {
    probes.push_back(v);
  }
  const int64_t num_probes = static_cast<int64_t>(probes.size());

  // The lane functions alone, on the same probes.
  std::vector<float> got_exp(probes.size()), got_tanh(probes.size());
  nn::infer::ExpLanes(probes.data(), got_exp.data(), num_probes);
  nn::infer::TanhLanes(probes.data(), got_tanh.data(), num_probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(FloatBits(got_exp[i]), FloatBits(std::exp(probes[i])))
        << "exp(" << probes[i] << ")";
    EXPECT_EQ(FloatBits(got_tanh[i]), FloatBits(std::tanh(probes[i])))
        << "tanh(" << probes[i] << ")";
  }

  util::Rng rng(31);
  int64_t unit = 0;
  for (const int64_t hd : kGateHidden) {
    for (int64_t batch = 1; batch <= 33; ++batch) {
      nn::Tensor gi = nn::Tensor::Uniform({batch, 3 * hd}, -8, 8, &rng);
      nn::Tensor gh = nn::Tensor::Uniform({batch, 3 * hd}, -8, 8, &rng);
      const nn::Tensor h = nn::Tensor::Uniform({batch, hd}, -1, 1, &rng);
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t j = 0; j < hd; ++j, ++unit) {
          const float v = probes[static_cast<size_t>(unit % num_probes)];
          const int64_t gate = (unit / num_probes) % 3;
          const int64_t col = gate * hd + j;
          // r and z exponentiate -(gi + gh), n takes tanh of gi + r * gh.
          gi.at(b, col) = gate == 2 ? v : -v;
          gh.at(b, col) = -0.0f;
        }
      }
      EXPECT_EQ(GateMismatches(gi, gh, h,
                               "probes B=" + std::to_string(batch) +
                                   " H=" + std::to_string(hd)),
                0);
    }
  }
  EXPECT_GT(unit, 3 * num_probes);  // every probe reached every gate
}

TEST(GemmTest, PanelPackingRoundTrip) {
  util::Rng rng(15);
  const int64_t k = 40, n = 22;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k);
  p.BuildPanels();
  p.BuildPanels();  // idempotent
  ASSERT_TRUE(p.has_panels());
  const int64_t bw = 8;  // doubles per K block
  const int64_t np = n / nn::infer::kGemmNr;
  const int64_t kb = k / bw;
  EXPECT_EQ(p.PanelBytes(),
            static_cast<size_t>(np * kb * nn::infer::kGemmNr * bw) *
                sizeof(double));
  // pd[pn][b][r][lane] holds row-major element
  // (pn * kGemmNr + r, b * bw + lane).
  for (int64_t pn = 0; pn < np; ++pn) {
    for (int64_t b = 0; b < kb; ++b) {
      for (int64_t r = 0; r < nn::infer::kGemmNr; ++r) {
        for (int64_t lane = 0; lane < bw; ++lane) {
          const size_t pe = static_cast<size_t>(
              ((pn * kb + b) * nn::infer::kGemmNr + r) * bw + lane);
          const size_t fe = static_cast<size_t>(
              (pn * nn::infer::kGemmNr + r) * k + b * bw + lane);
          EXPECT_EQ(p.pd[pe], p.d[fe]);
        }
      }
    }
  }
}

// Packed weights are built once per model generation and shared (pointer
// identity) across calls, and the default config's weights carry GEMM
// panels on alpha and on every GRU matrix, so batched steps run the
// blocked kernel.
TEST(SharedWeightsTest, PackedOncePerGenerationWithPanels) {
  auto& world = TestWorld();
  DeepSTModel model(world.net(), DeepSTConfig(), world.traffic_cache());
  const auto first = model.shared_infer_weights();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), model.shared_infer_weights().get());
  model.RetirePooledSessions();
  EXPECT_NE(first.get(), model.shared_infer_weights().get());

  const auto packed = model.shared_infer_weights();
  EXPECT_TRUE(packed->alpha_w.has_panels());
  ASSERT_FALSE(packed->gru.cells.empty());
  size_t panel_bytes = packed->alpha_w.PanelBytes();
  for (const nn::infer::GruCellView& cell : packed->gru.cells) {
    EXPECT_TRUE(cell.w_ih.has_panels());
    EXPECT_TRUE(cell.w_hh.has_panels());
    panel_bytes += cell.w_ih.PanelBytes() + cell.w_hh.PanelBytes();
  }
  EXPECT_GT(packed->packed_panel_bytes, 0u);
  EXPECT_EQ(packed->packed_panel_bytes, panel_bytes);
}

// -- Transition memo -----------------------------------------------------------

TEST(MemoCacheTest, InsertLookupRoundTripIsExact) {
  const int64_t logits_len = 11, hd = 5;
  const int layers = 2;
  TransitionMemoCache cache(logits_len, layers, hd, 64);
  util::Rng rng(8);
  std::vector<float> logits(static_cast<size_t>(logits_len));
  for (auto& v : logits) v = static_cast<float>(rng.Uniform(-9.0, 9.0));
  std::vector<float> s0(static_cast<size_t>(hd)), s1(static_cast<size_t>(hd));
  for (auto& v : s0) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : s1) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const float* states[] = {s0.data(), s1.data()};

  const MemoKey key = MixKey(MemoKey{1, 2}, 42);
  const uint64_t epoch = cache.current_epoch();
  std::vector<float> lo(static_cast<size_t>(logits_len));
  std::vector<float> o0(static_cast<size_t>(hd)), o1(static_cast<size_t>(hd));
  float* outs[] = {o0.data(), o1.data()};
  EXPECT_FALSE(cache.Lookup(key, epoch, lo.data(), outs));
  cache.Insert(key, epoch, logits.data(), states);
  ASSERT_TRUE(cache.Lookup(key, epoch, lo.data(), outs));
  EXPECT_EQ(std::memcmp(lo.data(), logits.data(),
                        logits.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(o0.data(), s0.data(), s0.size() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(o1.data(), s1.data(), s1.size() * sizeof(float)), 0);

  const auto st = cache.stats();
  EXPECT_EQ(st.lookups, 2);
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.insertions, 1);
  EXPECT_EQ(st.hits + st.misses, st.lookups);
}

TEST(MemoCacheTest, StaleEpochIsNeverServed) {
  TransitionMemoCache cache(4, 1, 3, 16);
  const float logits[4] = {1, 2, 3, 4};
  const float state[3] = {5, 6, 7};
  const float* states[] = {state};
  const MemoKey key{7, 9};
  const uint64_t old_epoch = cache.current_epoch();
  cache.Insert(key, old_epoch, logits, states);
  cache.Invalidate();
  float lo[4];
  float so[3];
  float* outs[] = {so};
  // Neither the new epoch nor the pinned old epoch may see... the old
  // epoch still may: an in-flight query that pinned before the swap keeps
  // its self-consistent view.
  EXPECT_FALSE(cache.Lookup(key, cache.current_epoch(), lo, outs));
  EXPECT_TRUE(cache.Lookup(key, old_epoch, lo, outs));
  // An insert under the current epoch replaces the stale entry for good.
  cache.Insert(key, cache.current_epoch(), logits, states);
  EXPECT_TRUE(cache.Lookup(key, cache.current_epoch(), lo, outs));
  EXPECT_FALSE(cache.Lookup(key, old_epoch, lo, outs));
  const auto st = cache.stats();
  EXPECT_EQ(st.invalidations, 1);
  EXPECT_EQ(st.hits + st.misses, st.lookups);
}

TEST(MemoCacheTest, EntriesCountsTheCurrentEpochOnly) {
  TransitionMemoCache cache(2, 1, 2, 64);
  const float logits[2] = {1, 2};
  const float state[2] = {3, 4};
  const float* states[] = {state};
  const uint64_t old_epoch = cache.current_epoch();
  for (uint64_t i = 0; i < 5; ++i) {
    cache.Insert(MixKey(MemoKey{}, i), old_epoch, logits, states);
  }
  cache.Insert(MixKey(MemoKey{}, 0), old_epoch, logits, states);  // refresh
  EXPECT_EQ(cache.stats().entries, 5);
  cache.Invalidate();
  EXPECT_EQ(cache.stats().entries, 0);
  // An in-flight query's insert under the old epoch is not an entry of the
  // current one; a current insert over its way is.
  cache.Insert(MixKey(MemoKey{}, 7), old_epoch, logits, states);
  EXPECT_EQ(cache.stats().entries, 0);
  cache.Insert(MixKey(MemoKey{}, 7), cache.current_epoch(), logits, states);
  cache.Insert(MixKey(MemoKey{}, 8), cache.current_epoch(), logits, states);
  EXPECT_EQ(cache.stats().entries, 2);
  // Eviction replaces entries: the count never exceeds the capacity.
  for (uint64_t i = 0; i < 500; ++i) {
    cache.Insert(MixKey(MemoKey{}, 100 + i), cache.current_epoch(), logits,
                 states);
  }
  EXPECT_EQ(cache.stats().entries, cache.stats().capacity);
}

TEST(MemoCacheTest, EvictionKeepsServingCorrectValues) {
  // Tiny cache, many distinct keys: every hit must still return the value
  // inserted under that exact key.
  const int64_t logits_len = 3;
  TransitionMemoCache cache(logits_len, 1, 2, 8);
  const uint64_t epoch = cache.current_epoch();
  float state[2] = {0, 0};
  const float* states[] = {state};
  float lo[3];
  float so[2];
  float* outs[] = {so};
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 64; ++i) {
      const MemoKey key = MixKey(MemoKey{}, i);
      const float logits[3] = {static_cast<float>(i), 0.5f,
                               static_cast<float>(i) * 2.0f};
      if (cache.Lookup(key, epoch, lo, outs)) {
        EXPECT_EQ(lo[0], logits[0]);
        EXPECT_EQ(lo[2], logits[2]);
      } else {
        state[0] = static_cast<float>(i);
        cache.Insert(key, epoch, logits, states);
        // Immediate re-lookup must hit (nothing else inserted in between)
        // and return the just-inserted values. (Cycling the full 64-key
        // working set sequentially through a 16-entry 2-way LRU gives zero
        // cross-round hits by design — classic LRU thrash — so this is
        // where the hit path gets exercised.)
        ASSERT_TRUE(cache.Lookup(key, epoch, lo, outs));
        EXPECT_EQ(lo[0], logits[0]);
        EXPECT_EQ(so[0], state[0]);
      }
    }
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, st.lookups);
  EXPECT_EQ(st.insertions, st.misses);
  EXPECT_GT(st.hits, 0);
}

// Memoized prediction must be bitwise identical to the memo-off model, on
// both cold and warm (cache-hit) calls, for greedy and beam.
TEST(MemoParityTest, PredictionIsBitwiseIdenticalWithMemo) {
  auto& world = TestWorld();
  const auto trips = TestTrips(5);
  DeepSTConfig base = MemoConfig();
  DeepSTModel ref_model(world.net(), base, nullptr);
  const std::vector<nn::NamedTensor> snapshot =
      nn::SnapshotParameters(ref_model);

  for (int beam_width : {1, base.beam_width}) {
    DeepSTConfig off = base;
    off.beam_width = beam_width;
    off.memo_cache_capacity = 0;
    DeepSTConfig on = off;
    on.memo_cache_capacity = 4096;
    auto m_off = DeepSTModel::LoadFromParams(world.net(), off, nullptr, snapshot);
    auto m_on = DeepSTModel::LoadFromParams(world.net(), on, nullptr, snapshot);
    ASSERT_TRUE(m_off.ok() && m_on.ok());
    EXPECT_EQ(m_off.value()->transition_memo(), nullptr);
    ASSERT_NE(m_on.value()->transition_memo(), nullptr);
    util::Rng rng_a(41), rng_b(41);
    for (const auto* rec : trips) {
      const RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx_off = m_off.value()->MakeContext(query, &rng_a);
      PredictionContext ctx_on = m_on.value()->MakeContext(query, &rng_b);
      util::Rng r1(1), r2(1), r3(1);
      const traj::Route want =
          m_off.value()->PredictRoute(ctx_off, query.origin, &r1);
      // Cold pass fills the cache, warm pass replays it; both must equal
      // the memo-off route exactly.
      const traj::Route cold =
          m_on.value()->PredictRoute(ctx_on, query.origin, &r2);
      const traj::Route warm =
          m_on.value()->PredictRoute(ctx_on, query.origin, &r3);
      EXPECT_EQ(want, cold) << "width=" << beam_width;
      EXPECT_EQ(want, warm);
    }
    const auto st = m_on.value()->transition_memo_stats();
    EXPECT_GT(st.lookups, 0);
    EXPECT_GT(st.hits, 0);  // the warm passes must actually hit
    EXPECT_EQ(st.hits + st.misses, st.lookups);
  }
}

TEST(MemoParityTest, MultiQueryBatchMatchesSingleQueryCalls) {
  auto& world = TestWorld();
  const auto trips = TestTrips(6);
  ASSERT_GE(trips.size(), 4u);
  DeepSTConfig cfg = MemoConfig();
  DeepSTModel model(world.net(), cfg, nullptr);
  ASSERT_NE(model.transition_memo(), nullptr);

  util::Rng crng(51);
  std::vector<PredictionContext> ctxs;
  std::vector<RouteQuery> queries;
  for (const auto* rec : trips) {
    queries.push_back(eval::QueryFor(rec->trip));
    ctxs.push_back(model.MakeContext(queries.back(), &crng));
  }
  // Singles first (filling the memo), then the coalesced batch (served
  // partly from it), then singles again: all three must agree bitwise.
  std::vector<traj::Route> singles;
  for (size_t i = 0; i < queries.size(); ++i) {
    util::Rng r(2);
    singles.push_back(BeamRoute(model, ctxs[i], queries[i].origin, &r));
  }
  std::vector<PredictItem> items(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    items[i].ctx = &ctxs[i];
    items[i].origin = queries[i].origin;
  }
  model.PredictRoutesBeamMulti(&items);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(items[i].route, singles[i]) << "query " << i;
    util::Rng r(2);
    EXPECT_EQ(BeamRoute(model, ctxs[i], queries[i].origin, &r),
              singles[i]);
  }
  const auto st = model.transition_memo_stats();
  EXPECT_GT(st.hits, 0);
  EXPECT_EQ(st.hits + st.misses, st.lookups);
}

// After an in-place weight mutation plus RetirePooledSessions, predictions
// must match a freshly built model with the mutated weights — a stale
// cached distribution from the old weights must never be served.
TEST(MemoInvalidationTest, WeightSwapNeverServesStaleEntries) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  DeepSTConfig cfg = MemoConfig();
  DeepSTModel model(world.net(), cfg, nullptr);
  ASSERT_NE(model.transition_memo(), nullptr);

  // Warm the cache under the original weights.
  util::Rng crng(61);
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    PredictionContext ctx = model.MakeContext(query, &crng);
    util::Rng r(3);
    (void)BeamRoute(model, ctx, query.origin, &r);
  }
  const auto before = model.transition_memo_stats();
  EXPECT_GT(before.insertions, 0);

  // Mutate the logit head in place (scale by -0.5 so argmax decisions
  // actually change), then retire the pool — the documented contract for
  // in-place weight swaps, which also bumps the memo epoch.
  for (const auto& p : model.Parameters()) {
    if (p.name == "alpha/weight") {
      nn::Tensor& t = p.var->value();
      for (int64_t e = 0; e < t.numel(); ++e) t.data()[e] *= -0.5f;
    }
  }
  model.RetirePooledSessions();
  EXPECT_GT(model.transition_memo_stats().invalidations,
            before.invalidations);
  EXPECT_GT(model.transition_memo_stats().epoch, before.epoch);

  // A fresh model built from the mutated weights is the ground truth.
  const std::vector<nn::NamedTensor> snapshot = nn::SnapshotParameters(model);
  auto fresh = DeepSTModel::LoadFromParams(world.net(), cfg, nullptr,
                                           snapshot);
  ASSERT_TRUE(fresh.ok());
  util::Rng crng_a(62), crng_b(62);
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    PredictionContext ctx_m = model.MakeContext(query, &crng_a);
    PredictionContext ctx_f = fresh.value()->MakeContext(query, &crng_b);
    util::Rng r1(4), r2(4);
    EXPECT_EQ(BeamRoute(model, ctx_m, query.origin, &r1),
              BeamRoute(*fresh.value(), ctx_f, query.origin, &r2));
    EXPECT_EQ(model.ScoreRoute(ctx_m, rec->trip.route),
              fresh.value()->ScoreRoute(ctx_f, rec->trip.route));
  }
}

// Concurrent pool traffic: counters must stay exact (hits + misses ==
// lookups, insertions == misses at quiescence) and every thread must see
// the same bitwise routes.
TEST(MemoConcurrencyTest, HitAccountingIsExactUnderConcurrency) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  ASSERT_GE(trips.size(), 2u);
  DeepSTConfig cfg = MemoConfig();
  DeepSTModel model(world.net(), cfg, nullptr);
  ASSERT_NE(model.transition_memo(), nullptr);

  util::Rng crng(71);
  std::vector<PredictionContext> ctxs;
  std::vector<RouteQuery> queries;
  std::vector<traj::Route> want;
  for (const auto* rec : trips) {
    queries.push_back(eval::QueryFor(rec->trip));
    ctxs.push_back(model.MakeContext(queries.back(), &crng));
    util::Rng r(5);
    want.push_back(
        BeamRoute(model, ctxs.back(), queries.back().origin, &r));
  }

  constexpr int kThreads = 4;
  constexpr int kReps = 6;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (size_t q = 0; q < queries.size(); ++q) {
          util::Rng r(5);
          const traj::Route got =
              BeamRoute(model, ctxs[q], queries[q].origin, &r);
          if (got != want[q]) ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  const auto st = model.transition_memo_stats();
  EXPECT_GT(st.lookups, 0);
  EXPECT_GT(st.hits, 0);
  EXPECT_EQ(st.hits + st.misses, st.lookups);
  EXPECT_EQ(st.insertions, st.misses);
  EXPECT_EQ(model.outstanding_session_leases(), 0);
}

}  // namespace
}  // namespace core
}  // namespace deepst
