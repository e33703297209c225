#include "nn/infer/forward.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/backend.h"
#include "nn/infer/clones.h"
#include "nn/kernels.h"

// The GEMV kernels below are plain IEEE arithmetic with a source-fixed
// accumulation order; which multiply-adds fuse depends on the clone that
// runs (nn/infer/clones.h), nothing else does.

namespace deepst {
namespace nn {
namespace infer {
namespace {

typedef double Vec8 __attribute__((vector_size(64)));
typedef int64_t VecI8 __attribute__((vector_size(64)));  // Vec8 shuffle masks
typedef float VecF8x32 __attribute__((vector_size(32)));
// 16-lane float types for the reduced-precision kernels: same 64-byte
// register budget as Vec8, twice the elements per op.
typedef float VecF16 __attribute__((vector_size(64)));
typedef uint16_t VecH16 __attribute__((vector_size(32)));
typedef uint32_t VecU16 __attribute__((vector_size(64)));
typedef int8_t VecQ16 __attribute__((vector_size(16)));
typedef int16_t VecW16 __attribute__((vector_size(32)));
typedef int32_t VecI16 __attribute__((vector_size(64)));

// bfloat16 <-> float: the top 16 bits of the float pattern, packed with
// round-to-nearest-even and decoded by a plain 16-bit shift (exact).
DEEPST_FORCE_INLINE uint16_t PackBf16(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  u += 0x7fffu + ((u >> 16) & 1u);
  return static_cast<uint16_t>(u >> 16);
}

DEEPST_FORCE_INLINE float UnpackBf16(uint16_t h) {
  const uint32_t u = static_cast<uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// The fixed pairwise combine of one 8-lane double accumulator.
DEEPST_FORCE_INLINE double LaneSum(const Vec8& acc) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

// Epilogue of one double output element given its lane sum: the scalar K
// tail [k0, k) from the row-major rows, the float cast, the bias adds.
DEEPST_FORCE_INLINE float FinishSum(double lanes, const double* xrow,
                                    const double* wrow, int64_t k, int64_t k0,
                                    const float* bias, const float* bias2,
                                    int64_t j) {
  double tail = 0.0;
  for (int64_t kk = k0; kk < k; ++kk) tail += xrow[kk] * wrow[kk];
  float v = static_cast<float>(lanes + tail);
  if (bias != nullptr) v += bias[j];
  if (bias2 != nullptr) v += bias2[j];
  return v;
}

// One output element: an 8-lane double dot over k, lanes combined pairwise
// in a fixed order, plus the optional biases. Inlined into each ISA clone
// of LinearChunk so the lane arithmetic picks up the clone's vector width.
DEEPST_FORCE_INLINE float DotBias(const double* xrow, const double* wrow, int64_t k,
                     const float* bias, const float* bias2, int64_t j) {
  Vec8 acc = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    Vec8 xv, wv;
    std::memcpy(&xv, xrow + kk, sizeof(xv));
    std::memcpy(&wv, wrow + kk, sizeof(wv));
    acc += xv * wv;
  }
  return FinishSum(LaneSum(acc), xrow, wrow, k, kk, bias, bias2, j);
}

// One contiguous run [begin, end) of the flat row-major output; (i, j) are
// tracked incrementally to keep integer divisions out of the loop.
DEEPST_INFER_CLONES
void LinearChunk(const double* x, int64_t ldx, const double* w, int64_t ldw,
                 const float* bias, const float* bias2, float* out, int64_t k,
                 int64_t n, int64_t begin, int64_t end) {
  int64_t i = begin / n;
  int64_t j = begin % n;
  for (int64_t e = begin; e < end; ++e) {
    out[e] = DotBias(x + i * ldx, w + j * ldw, k, bias, bias2, j);
    if (++j == n) {
      j = 0;
      ++i;
    }
  }
}

// Row-mapped bias counterpart of LinearChunk: the bias rows live in a
// [num_queries, n] block and `bias_row[i]` picks the row for output row i.
// Reuses DotBias with per-row-offset pointers, so each element's arithmetic
// is exactly LinearChunk's.
DEEPST_INFER_CLONES
void LinearChunkRowBias(const double* x, int64_t ldx, const double* w,
                        int64_t ldw, const float* bias, const float* bias2,
                        const int* bias_row, float* out, int64_t k, int64_t n,
                        int64_t begin, int64_t end) {
  int64_t i = begin / n;
  int64_t j = begin % n;
  for (int64_t e = begin; e < end; ++e) {
    const int64_t off = static_cast<int64_t>(bias_row[i]) * n;
    out[e] = DotBias(x + i * ldx, w + j * ldw, k,
                     bias != nullptr ? bias + off : nullptr,
                     bias2 != nullptr ? bias2 + off : nullptr, j);
    if (++j == n) {
      j = 0;
      ++i;
    }
  }
}

// The reduced-precision kernels accumulate in float, not double: the
// operands carry at most bf16 (8-bit mantissa) or int8 information, so a
// 24-bit float accumulator over a source-fixed 16-lane order keeps the
// rounding noise orders of magnitude below the quantization error itself
// (the accuracy-parity gate in tools/check_perf.sh bounds the end-to-end
// effect). 16 float lanes fill the same 64-byte registers as the double
// kernel's 8 double lanes with twice the elements per op, which is what
// pays for the weight decode and lets the packed kernels keep up with (or
// beat) the double kernel while touching 4-8x less weight memory.
//
// Each chunk converts the activation row double -> float once (exact
// rounding) into a stack buffer and reuses it across that row's outputs.
// Rows are capped at kMaxFloatK columns (checked; every model here is far
// under). Both passes are row-local with a source-fixed order, so batch
// composition and chunk boundaries stay invisible.
inline constexpr int64_t kMaxFloatK = 1024;

DEEPST_FORCE_INLINE float LaneSumF(const VecF8x32& acc) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

DEEPST_FORCE_INLINE float LaneSumF16(const VecF16& a) {
  return (((a[0] + a[1]) + (a[2] + a[3])) +
          ((a[4] + a[5]) + (a[6] + a[7]))) +
         (((a[8] + a[9]) + (a[10] + a[11])) +
          ((a[12] + a[13]) + (a[14] + a[15])));
}

// dst[i] = float(src[i]); returns the fixed 8-lane float sum of dst (the
// int8 kernel's zero-point term, free in the conversion pass).
DEEPST_FORCE_INLINE float ToFloatRowSum(const double* src, float* dst, int64_t k) {
  VecF8x32 xs = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    Vec8 xv;
    std::memcpy(&xv, src + kk, sizeof(xv));
    const VecF8x32 fv = __builtin_convertvector(xv, VecF8x32);
    std::memcpy(dst + kk, &fv, sizeof(fv));
    xs += fv;
  }
  float tail = 0.0f;
  for (; kk < k; ++kk) {
    dst[kk] = static_cast<float>(src[kk]);
    tail += dst[kk];
  }
  return LaneSumF(xs) + tail;
}

// bf16 dot: weights widen to float lanes in-register (u16 -> u32<<16,
// bit-cast); fixed 16-lane float accumulation.
DEEPST_FORCE_INLINE float DotBiasBf16(const float* xrow, const uint16_t* wrow, int64_t k,
                         const float* bias, const float* bias2, int64_t j) {
  VecF16 acc = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  int64_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    VecF16 xv;
    VecH16 hv;
    std::memcpy(&xv, xrow + kk, sizeof(xv));
    std::memcpy(&hv, wrow + kk, sizeof(hv));
    const VecU16 bits = __builtin_convertvector(hv, VecU16) << 16;
    VecF16 fv;
    std::memcpy(&fv, &bits, sizeof(fv));
    acc += xv * fv;
  }
  float tail = 0.0f;
  for (; kk < k; ++kk) tail += xrow[kk] * UnpackBf16(wrow[kk]);
  float v = LaneSumF16(acc) + tail;
  if (bias != nullptr) v += bias[j];
  if (bias2 != nullptr) v += bias2[j];
  return v;
}

// int8 dot: the affine dequant s*(q - z) factors out of the accumulation,
//   dot = s * (sum_k x_k q_k  -  z * sum_k x_k),
// so the inner loop runs on raw int8 lanes (widened to float) with no
// per-tap dequant; `xsum` (the activation sum, independent of the output
// row) is computed once per activation row by the caller. The combine runs
// in double because z*xsum can be ~2^7 times the dot itself.
DEEPST_FORCE_INLINE float DotBiasI8(const float* xrow, float xsum, const int8_t* qrow,
                       int64_t k, float scale, int32_t zero, const float* bias,
                       const float* bias2, int64_t j) {
  VecF16 acc = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  int64_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    VecF16 xv;
    VecQ16 qv;
    std::memcpy(&xv, xrow + kk, sizeof(xv));
    std::memcpy(&qv, qrow + kk, sizeof(qv));
    // Stepwise widen (i8 -> i16 -> i32 -> f32): each hop maps to one
    // sign-extend / convert instruction; a direct i8 -> i32 conversion
    // gets scalarized byte-by-byte by GCC.
    const VecW16 wv = __builtin_convertvector(qv, VecW16);
    acc += xv * __builtin_convertvector(__builtin_convertvector(wv, VecI16),
                                        VecF16);
  }
  float tacc = 0.0f;
  for (; kk < k; ++kk) tacc += xrow[kk] * static_cast<float>(qrow[kk]);
  const double qsum = static_cast<double>(LaneSumF16(acc) + tacc);
  const double sum = static_cast<double>(scale) *
                     (qsum - static_cast<double>(zero) *
                                 static_cast<double>(xsum));
  float v = static_cast<float>(sum);
  if (bias != nullptr) v += bias[j];
  if (bias2 != nullptr) v += bias2[j];
  return v;
}

// Per-chunk activation-row staging for the float kernels: re-converts only
// when the output row index advances (outputs are row-major, so each row
// converts once per chunk).
struct FloatRow {
  float xf[kMaxFloatK];
  float xsum = 0.0f;
  int64_t row = -1;

  DEEPST_FORCE_INLINE const float* Refresh(const double* x, int64_t ldx, int64_t k,
                              int64_t i) {
    if (i != row) {
      xsum = ToFloatRowSum(x + i * ldx, xf, k);
      row = i;
    }
    return xf;
  }
};

// Packed-precision counterparts of LinearChunk / LinearChunkRowBias: same
// flat [begin, end) partition and incremental (i, j) bookkeeping, different
// weight decode. Cloned per ISA like the double kernels.
DEEPST_INFER_CLONES
void GemvChunkBf16(const double* x, int64_t ldx, const uint16_t* w,
                   const float* bias, const float* bias2, float* out,
                   int64_t k, int64_t n, int64_t begin, int64_t end) {
  DEEPST_CHECK(k <= kMaxFloatK);
  FloatRow fr;
  int64_t i = begin / n;
  int64_t j = begin % n;
  for (int64_t e = begin; e < end; ++e) {
    out[e] = DotBiasBf16(fr.Refresh(x, ldx, k, i), w + j * k, k, bias, bias2,
                         j);
    if (++j == n) {
      j = 0;
      ++i;
    }
  }
}

DEEPST_INFER_CLONES
void GemvChunkBf16RowBias(const double* x, int64_t ldx, const uint16_t* w,
                          const float* bias, const float* bias2,
                          const int* bias_row, float* out, int64_t k,
                          int64_t n, int64_t begin, int64_t end) {
  DEEPST_CHECK(k <= kMaxFloatK);
  FloatRow fr;
  int64_t i = begin / n;
  int64_t j = begin % n;
  for (int64_t e = begin; e < end; ++e) {
    const int64_t off = static_cast<int64_t>(bias_row[i]) * n;
    out[e] = DotBiasBf16(fr.Refresh(x, ldx, k, i), w + j * k, k,
                         bias != nullptr ? bias + off : nullptr,
                         bias2 != nullptr ? bias2 + off : nullptr, j);
    if (++j == n) {
      j = 0;
      ++i;
    }
  }
}

DEEPST_INFER_CLONES
void GemvChunkI8(const double* x, int64_t ldx, const int8_t* w,
                 const float* scale, const int32_t* zero, const float* bias,
                 const float* bias2, float* out, int64_t k, int64_t n,
                 int64_t begin, int64_t end) {
  DEEPST_CHECK(k <= kMaxFloatK);
  FloatRow fr;
  int64_t i = begin / n;
  int64_t j = begin % n;
  for (int64_t e = begin; e < end; ++e) {
    const float* xf = fr.Refresh(x, ldx, k, i);
    out[e] = DotBiasI8(xf, fr.xsum, w + j * k, k, scale[j], zero[j], bias,
                       bias2, j);
    if (++j == n) {
      j = 0;
      ++i;
    }
  }
}

DEEPST_INFER_CLONES
void GemvChunkI8RowBias(const double* x, int64_t ldx, const int8_t* w,
                        const float* scale, const int32_t* zero,
                        const float* bias, const float* bias2,
                        const int* bias_row, float* out, int64_t k, int64_t n,
                        int64_t begin, int64_t end) {
  DEEPST_CHECK(k <= kMaxFloatK);
  FloatRow fr;
  int64_t i = begin / n;
  int64_t j = begin % n;
  for (int64_t e = begin; e < end; ++e) {
    const int64_t off = static_cast<int64_t>(bias_row[i]) * n;
    const float* xf = fr.Refresh(x, ldx, k, i);
    out[e] = DotBiasI8(xf, fr.xsum, w + j * k, k, scale[j], zero[j],
                       bias != nullptr ? bias + off : nullptr,
                       bias2 != nullptr ? bias2 + off : nullptr, j);
    if (++j == n) {
      j = 0;
      ++i;
    }
  }
}

// ---------------------------------------------------------------------------
// Register-blocked GEMM micro-kernels (the batched fast path).
//
// The chunk kernels above compute one output element per DotBias* call, so a
// weight row is re-streamed from memory once per activation row — at serve
// batches of 16-64 beam lanes the step is bandwidth-bound. The kernels below
// tile the output into kGemmMr x kGemmNr micro-tiles: each K-panel of
// kGemmNr weight rows is streamed once and multiplied against kGemmMr
// activation rows held in registers, cutting weight traffic by kGemmMr x.
//
// Bitwise contract: blocking reorders work only ACROSS output elements,
// never within one. Each of the MR*NR accumulators executes exactly the
// chunk kernel's per-element sequence — the same ascending vector blocks,
// the same `acc += xv * wv` expression (so FP contraction fuses
// identically), the same pairwise lane reduction (the double tile runs it
// for all eight accumulators at once, LaneSums8), the same scalar K tail
// from the row-major arrays, the same cast and bias adds — so the blocked
// path is bitwise identical to the chunk path for all three precisions.
// Partial bands (m % kGemmMr), row tails (n % kGemmNr) and K tails run
// through the retained per-element helpers.

constexpr Vec8 kZero8 = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
constexpr VecF16 kZeroF16 = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};

// Per-activation-row bias base: the row-mapped variant offsets bias/bias2 by
// bias_row[i] * n, the shared variant uses one base for every row. Folding
// the offset into a per-row pointer lets one band kernel serve both call
// forms; per element the arithmetic (v += bias[j]) is unchanged.
DEEPST_FORCE_INLINE const float* BiasBase(const float* base, const int* bias_row, int64_t i,
                             int64_t n) {
  if (base == nullptr || bias_row == nullptr) return base;
  return base + static_cast<int64_t>(bias_row[i]) * n;
}

// Adjacent-lane pair sums of two accumulators side by side: lanes 0-3 of
// *out hold a's pairs (a[0]+a[1], a[2]+a[3], a[4]+a[5], a[6]+a[7]), lanes
// 4-7 b's. (Vectors pass by reference: a by-value 64-byte vector would
// change the default clone's ABI.)
DEEPST_FORCE_INLINE void PairSums(const Vec8& a, const Vec8& b, Vec8* out) {
  constexpr VecI8 kEven = {0, 2, 4, 6, 8, 10, 12, 14};
  constexpr VecI8 kOdd = {1, 3, 5, 7, 9, 11, 13, 15};
  *out = __builtin_shuffle(a, b, kEven) + __builtin_shuffle(a, b, kOdd);
}

// LaneSum of eight accumulators at once, as one transposed pairwise tree:
// lane i of *sums is LaneSum(a_i). Stage one forms every adjacent pair,
// stage two every (pair + pair), stage three the two halves, and each add
// keeps LaneSum's left and right operands, so every lane is bitwise
// LaneSum's. Seven vector adds replace 56 lane extracts and adds.
DEEPST_FORCE_INLINE void LaneSums8(const Vec8& a0, const Vec8& a1,
                                   const Vec8& a2, const Vec8& a3,
                                   const Vec8& a4, const Vec8& a5,
                                   const Vec8& a6, const Vec8& a7,
                                   Vec8* sums) {
  Vec8 p01, p23, p45, p67, q0, q1;
  PairSums(a0, a1, &p01);
  PairSums(a2, a3, &p23);
  PairSums(a4, a5, &p45);
  PairSums(a6, a7, &p67);
  PairSums(p01, p23, &q0);
  PairSums(p45, p67, &q1);
  PairSums(q0, q1, sums);
}

// DotBiasBf16's epilogue for one accumulator.
DEEPST_FORCE_INLINE float FinishBf16(const VecF16& acc, const float* xrow,
                        const uint16_t* wrow, int64_t k, int64_t k0,
                        const float* bias, const float* bias2, int64_t j) {
  float tail = 0.0f;
  for (int64_t kk = k0; kk < k; ++kk) tail += xrow[kk] * UnpackBf16(wrow[kk]);
  float v = LaneSumF16(acc) + tail;
  if (bias != nullptr) v += bias[j];
  if (bias2 != nullptr) v += bias2[j];
  return v;
}

// DotBiasI8's epilogue for one accumulator (double combine, see DotBiasI8).
DEEPST_FORCE_INLINE float FinishI8(const VecF16& acc, const float* xrow, float xsum,
                      const int8_t* qrow, int64_t k, int64_t k0, float scale,
                      int32_t zero, const float* bias, const float* bias2,
                      int64_t j) {
  float tacc = 0.0f;
  for (int64_t kk = k0; kk < k; ++kk) {
    tacc += xrow[kk] * static_cast<float>(qrow[kk]);
  }
  const double qsum = static_cast<double>(LaneSumF16(acc) + tacc);
  const double sum = static_cast<double>(scale) *
                     (qsum - static_cast<double>(zero) *
                                 static_cast<double>(xsum));
  float v = static_cast<float>(sum);
  if (bias != nullptr) v += bias[j];
  if (bias2 != nullptr) v += bias2[j];
  return v;
}

// Blocked double GEMM over bands [band_begin, band_end); a band is kGemmMr
// consecutive activation rows across all n outputs, so chunk boundaries can
// never split a micro-tile. `panels` is the K-major sidecar of
// PackedMatrix::BuildPanels, `w` the retained row-major matrix for tails.
DEEPST_INFER_CLONES
void GemmBandsD(const double* x, int64_t ldx, const double* w,
                const double* panels, const float* bias, const float* bias2,
                const int* bias_row, float* out, int64_t m, int64_t k,
                int64_t n, int64_t band_begin, int64_t band_end) {
  const int64_t kb = k / 8;
  const int64_t np = n / kGemmNr;
  const int64_t pstride = kb * kGemmNr * 8;
  for (int64_t band = band_begin; band < band_end; ++band) {
    const int64_t i0 = band * kGemmMr;
    const int64_t mr = std::min<int64_t>(kGemmMr, m - i0);
    const double* xr[kGemmMr] = {};
    const float* b0[kGemmMr] = {};
    const float* b1[kGemmMr] = {};
    for (int64_t r = 0; r < mr; ++r) {
      xr[r] = x + (i0 + r) * ldx;
      b0[r] = BiasBase(bias, bias_row, i0 + r, n);
      b1[r] = BiasBase(bias2, bias_row, i0 + r, n);
    }
    if (mr == kGemmMr) {
      for (int64_t p = 0; p < np; ++p) {
        const int64_t j0 = p * kGemmNr;
        const double* pp = panels + p * pstride;
        Vec8 a00 = kZero8, a01 = kZero8, a10 = kZero8, a11 = kZero8;
        Vec8 a20 = kZero8, a21 = kZero8, a30 = kZero8, a31 = kZero8;
        int64_t kk = 0;
        for (; kk + 8 <= k; kk += 8, pp += 16) {
          Vec8 w0, w1, xv;
          std::memcpy(&w0, pp, sizeof(w0));
          std::memcpy(&w1, pp + 8, sizeof(w1));
          std::memcpy(&xv, xr[0] + kk, sizeof(xv));
          a00 += xv * w0;
          a01 += xv * w1;
          std::memcpy(&xv, xr[1] + kk, sizeof(xv));
          a10 += xv * w0;
          a11 += xv * w1;
          std::memcpy(&xv, xr[2] + kk, sizeof(xv));
          a20 += xv * w0;
          a21 += xv * w1;
          std::memcpy(&xv, xr[3] + kk, sizeof(xv));
          a30 += xv * w0;
          a31 += xv * w1;
        }
        // Tile element (r, c) is lane 2r + c of the reduced sums.
        Vec8 s;
        LaneSums8(a00, a01, a10, a11, a20, a21, a30, a31, &s);
        const double* w0r = w + j0 * k;
        const double* w1r = w0r + k;
        float* o0 = out + (i0 + 0) * n + j0;
        float* o1 = out + (i0 + 1) * n + j0;
        float* o2 = out + (i0 + 2) * n + j0;
        float* o3 = out + (i0 + 3) * n + j0;
        o0[0] = FinishSum(s[0], xr[0], w0r, k, kk, b0[0], b1[0], j0);
        o0[1] = FinishSum(s[1], xr[0], w1r, k, kk, b0[0], b1[0], j0 + 1);
        o1[0] = FinishSum(s[2], xr[1], w0r, k, kk, b0[1], b1[1], j0);
        o1[1] = FinishSum(s[3], xr[1], w1r, k, kk, b0[1], b1[1], j0 + 1);
        o2[0] = FinishSum(s[4], xr[2], w0r, k, kk, b0[2], b1[2], j0);
        o2[1] = FinishSum(s[5], xr[2], w1r, k, kk, b0[2], b1[2], j0 + 1);
        o3[0] = FinishSum(s[6], xr[3], w0r, k, kk, b0[3], b1[3], j0);
        o3[1] = FinishSum(s[7], xr[3], w1r, k, kk, b0[3], b1[3], j0 + 1);
      }
      for (int64_t j = np * kGemmNr; j < n; ++j) {
        for (int64_t r = 0; r < kGemmMr; ++r) {
          out[(i0 + r) * n + j] = DotBias(xr[r], w + j * k, k, b0[r], b1[r],
                                          j);
        }
      }
    } else {
      for (int64_t r = 0; r < mr; ++r) {
        for (int64_t j = 0; j < n; ++j) {
          out[(i0 + r) * n + j] = DotBias(xr[r], w + j * k, k, b0[r], b1[r],
                                          j);
        }
      }
    }
  }
}

// Blocked bf16 GEMM: the band's activation rows convert double -> float
// once (same exact conversion the chunk path does per chunk), then each
// K-panel decodes to float lanes once for kGemmMr activation rows.
DEEPST_INFER_CLONES
void GemmBandsBf16(const double* x, int64_t ldx, const uint16_t* w,
                   const uint16_t* panels, const float* bias,
                   const float* bias2, const int* bias_row, float* out,
                   int64_t m, int64_t k, int64_t n, int64_t band_begin,
                   int64_t band_end) {
  DEEPST_CHECK(k <= kMaxFloatK);
  const int64_t kb = k / 16;
  const int64_t np = n / kGemmNr;
  const int64_t pstride = kb * kGemmNr * 16;
  float xf[kGemmMr][kMaxFloatK];
  for (int64_t band = band_begin; band < band_end; ++band) {
    const int64_t i0 = band * kGemmMr;
    const int64_t mr = std::min<int64_t>(kGemmMr, m - i0);
    const float* b0[kGemmMr] = {};
    const float* b1[kGemmMr] = {};
    for (int64_t r = 0; r < mr; ++r) {
      ToFloatRowSum(x + (i0 + r) * ldx, xf[r], k);
      b0[r] = BiasBase(bias, bias_row, i0 + r, n);
      b1[r] = BiasBase(bias2, bias_row, i0 + r, n);
    }
    if (mr == kGemmMr) {
      for (int64_t p = 0; p < np; ++p) {
        const int64_t j0 = p * kGemmNr;
        const uint16_t* pp = panels + p * pstride;
        VecF16 a00 = kZeroF16, a01 = kZeroF16, a10 = kZeroF16,
               a11 = kZeroF16;
        VecF16 a20 = kZeroF16, a21 = kZeroF16, a30 = kZeroF16,
               a31 = kZeroF16;
        int64_t kk = 0;
        for (; kk + 16 <= k; kk += 16, pp += 32) {
          VecH16 hv;
          VecF16 fv0, fv1, xv;
          std::memcpy(&hv, pp, sizeof(hv));
          const VecU16 bits0 = __builtin_convertvector(hv, VecU16) << 16;
          std::memcpy(&fv0, &bits0, sizeof(fv0));
          std::memcpy(&hv, pp + 16, sizeof(hv));
          const VecU16 bits1 = __builtin_convertvector(hv, VecU16) << 16;
          std::memcpy(&fv1, &bits1, sizeof(fv1));
          std::memcpy(&xv, xf[0] + kk, sizeof(xv));
          a00 += xv * fv0;
          a01 += xv * fv1;
          std::memcpy(&xv, xf[1] + kk, sizeof(xv));
          a10 += xv * fv0;
          a11 += xv * fv1;
          std::memcpy(&xv, xf[2] + kk, sizeof(xv));
          a20 += xv * fv0;
          a21 += xv * fv1;
          std::memcpy(&xv, xf[3] + kk, sizeof(xv));
          a30 += xv * fv0;
          a31 += xv * fv1;
        }
        const uint16_t* w0r = w + j0 * k;
        const uint16_t* w1r = w0r + k;
        float* o0 = out + (i0 + 0) * n + j0;
        float* o1 = out + (i0 + 1) * n + j0;
        float* o2 = out + (i0 + 2) * n + j0;
        float* o3 = out + (i0 + 3) * n + j0;
        o0[0] = FinishBf16(a00, xf[0], w0r, k, kk, b0[0], b1[0], j0);
        o0[1] = FinishBf16(a01, xf[0], w1r, k, kk, b0[0], b1[0], j0 + 1);
        o1[0] = FinishBf16(a10, xf[1], w0r, k, kk, b0[1], b1[1], j0);
        o1[1] = FinishBf16(a11, xf[1], w1r, k, kk, b0[1], b1[1], j0 + 1);
        o2[0] = FinishBf16(a20, xf[2], w0r, k, kk, b0[2], b1[2], j0);
        o2[1] = FinishBf16(a21, xf[2], w1r, k, kk, b0[2], b1[2], j0 + 1);
        o3[0] = FinishBf16(a30, xf[3], w0r, k, kk, b0[3], b1[3], j0);
        o3[1] = FinishBf16(a31, xf[3], w1r, k, kk, b0[3], b1[3], j0 + 1);
      }
      for (int64_t j = np * kGemmNr; j < n; ++j) {
        for (int64_t r = 0; r < kGemmMr; ++r) {
          out[(i0 + r) * n + j] =
              DotBiasBf16(xf[r], w + j * k, k, b0[r], b1[r], j);
        }
      }
    } else {
      for (int64_t r = 0; r < mr; ++r) {
        for (int64_t j = 0; j < n; ++j) {
          out[(i0 + r) * n + j] =
              DotBiasBf16(xf[r], w + j * k, k, b0[r], b1[r], j);
        }
      }
    }
  }
}

// Blocked int8 GEMM: per-band double -> float conversion also yields each
// activation row's sum (the zero-point term), shared by every output row.
DEEPST_INFER_CLONES
void GemmBandsI8(const double* x, int64_t ldx, const int8_t* w,
                 const int8_t* panels, const float* scale,
                 const int32_t* zero, const float* bias, const float* bias2,
                 const int* bias_row, float* out, int64_t m, int64_t k,
                 int64_t n, int64_t band_begin, int64_t band_end) {
  DEEPST_CHECK(k <= kMaxFloatK);
  const int64_t kb = k / 16;
  const int64_t np = n / kGemmNr;
  const int64_t pstride = kb * kGemmNr * 16;
  float xf[kGemmMr][kMaxFloatK];
  float xsum[kGemmMr] = {};
  for (int64_t band = band_begin; band < band_end; ++band) {
    const int64_t i0 = band * kGemmMr;
    const int64_t mr = std::min<int64_t>(kGemmMr, m - i0);
    const float* b0[kGemmMr] = {};
    const float* b1[kGemmMr] = {};
    for (int64_t r = 0; r < mr; ++r) {
      xsum[r] = ToFloatRowSum(x + (i0 + r) * ldx, xf[r], k);
      b0[r] = BiasBase(bias, bias_row, i0 + r, n);
      b1[r] = BiasBase(bias2, bias_row, i0 + r, n);
    }
    if (mr == kGemmMr) {
      for (int64_t p = 0; p < np; ++p) {
        const int64_t j0 = p * kGemmNr;
        const int8_t* pp = panels + p * pstride;
        VecF16 a00 = kZeroF16, a01 = kZeroF16, a10 = kZeroF16,
               a11 = kZeroF16;
        VecF16 a20 = kZeroF16, a21 = kZeroF16, a30 = kZeroF16,
               a31 = kZeroF16;
        int64_t kk = 0;
        for (; kk + 16 <= k; kk += 16, pp += 32) {
          VecQ16 qv;
          VecF16 xv;
          std::memcpy(&qv, pp, sizeof(qv));
          const VecF16 fv0 = __builtin_convertvector(
              __builtin_convertvector(__builtin_convertvector(qv, VecW16),
                                      VecI16),
              VecF16);
          std::memcpy(&qv, pp + 16, sizeof(qv));
          const VecF16 fv1 = __builtin_convertvector(
              __builtin_convertvector(__builtin_convertvector(qv, VecW16),
                                      VecI16),
              VecF16);
          std::memcpy(&xv, xf[0] + kk, sizeof(xv));
          a00 += xv * fv0;
          a01 += xv * fv1;
          std::memcpy(&xv, xf[1] + kk, sizeof(xv));
          a10 += xv * fv0;
          a11 += xv * fv1;
          std::memcpy(&xv, xf[2] + kk, sizeof(xv));
          a20 += xv * fv0;
          a21 += xv * fv1;
          std::memcpy(&xv, xf[3] + kk, sizeof(xv));
          a30 += xv * fv0;
          a31 += xv * fv1;
        }
        const int8_t* w0r = w + j0 * k;
        const int8_t* w1r = w0r + k;
        float* o0 = out + (i0 + 0) * n + j0;
        float* o1 = out + (i0 + 1) * n + j0;
        float* o2 = out + (i0 + 2) * n + j0;
        float* o3 = out + (i0 + 3) * n + j0;
        o0[0] = FinishI8(a00, xf[0], xsum[0], w0r, k, kk, scale[j0],
                         zero[j0], b0[0], b1[0], j0);
        o0[1] = FinishI8(a01, xf[0], xsum[0], w1r, k, kk, scale[j0 + 1],
                         zero[j0 + 1], b0[0], b1[0], j0 + 1);
        o1[0] = FinishI8(a10, xf[1], xsum[1], w0r, k, kk, scale[j0],
                         zero[j0], b0[1], b1[1], j0);
        o1[1] = FinishI8(a11, xf[1], xsum[1], w1r, k, kk, scale[j0 + 1],
                         zero[j0 + 1], b0[1], b1[1], j0 + 1);
        o2[0] = FinishI8(a20, xf[2], xsum[2], w0r, k, kk, scale[j0],
                         zero[j0], b0[2], b1[2], j0);
        o2[1] = FinishI8(a21, xf[2], xsum[2], w1r, k, kk, scale[j0 + 1],
                         zero[j0 + 1], b0[2], b1[2], j0 + 1);
        o3[0] = FinishI8(a30, xf[3], xsum[3], w0r, k, kk, scale[j0],
                         zero[j0], b0[3], b1[3], j0);
        o3[1] = FinishI8(a31, xf[3], xsum[3], w1r, k, kk, scale[j0 + 1],
                         zero[j0 + 1], b0[3], b1[3], j0 + 1);
      }
      for (int64_t j = np * kGemmNr; j < n; ++j) {
        for (int64_t r = 0; r < kGemmMr; ++r) {
          out[(i0 + r) * n + j] = DotBiasI8(xf[r], xsum[r], w + j * k, k,
                                            scale[j], zero[j], b0[r], b1[r],
                                            j);
        }
      }
    } else {
      for (int64_t r = 0; r < mr; ++r) {
        for (int64_t j = 0; j < n; ++j) {
          out[(i0 + r) * n + j] = DotBiasI8(xf[r], xsum[r], w + j * k, k,
                                            scale[j], zero[j], b0[r], b1[r],
                                            j);
        }
      }
    }
  }
}

// Routes one batched GEMV through the blocked kernels. Thread partitioning
// runs over whole bands (grain 1 band = kGemmMr activation rows x all n
// outputs) so a micro-tile is never split; each band's outputs depend only
// on (x, w), not on which chunk computed them.
void GemmBlocked(const double* x, int64_t ldx, const PackedMatrix& w,
                 const float* bias, const float* bias2, const int* bias_row,
                 float* out, int64_t m, int64_t n) {
  const int64_t k = w.cols;
  const int64_t bands = (m + kGemmMr - 1) / kGemmMr;
  switch (w.precision) {
    case Precision::kDouble:
      ParallelFor(bands, 1, [&](int64_t b0, int64_t b1) {
        GemmBandsD(x, ldx, w.d.data(), w.pd.data(), bias, bias2, bias_row,
                   out, m, k, n, b0, b1);
      });
      return;
    case Precision::kBf16:
      ParallelFor(bands, 1, [&](int64_t b0, int64_t b1) {
        GemmBandsBf16(x, ldx, w.h.data(), w.ph.data(), bias, bias2, bias_row,
                      out, m, k, n, b0, b1);
      });
      return;
    case Precision::kInt8:
      ParallelFor(bands, 1, [&](int64_t b0, int64_t b1) {
        GemmBandsI8(x, ldx, w.q.data(), w.pq.data(), w.scale.data(),
                    w.zero.data(), bias, bias2, bias_row, out, m, k, n, b0,
                    b1);
      });
      return;
  }
}

// Output panels [p_begin, p_end) of LinearRowOutputMajor. Lane l of
// accumulator g holds output p * kOutBlock + 8g + l and runs GemmAccBT's
// scalar sequence for it: a float product, widened exactly, added to a
// double sum that starts at 0.0, in ascending kk. The float product lanes
// are plain IEEE multiplies, and the widening between product and sum
// leaves nothing to contract into an FMA.
DEEPST_INFER_CLONES
void OutputMajorPanels(const float* x, const float* panels, const float* bias,
                       float* out, int64_t k, int64_t n, int64_t p_begin,
                       int64_t p_end) {
  static_assert(kOutBlock == 32, "four 8-lane accumulators per panel");
  for (int64_t p = p_begin; p < p_end; ++p) {
    const float* pp = panels + p * k * kOutBlock;
    Vec8 a0 = kZero8, a1 = kZero8, a2 = kZero8, a3 = kZero8;
    for (int64_t kk = 0; kk < k; ++kk, pp += kOutBlock) {
      const float xk = x[kk];
      VecF8x32 w0, w1, w2, w3;
      std::memcpy(&w0, pp, sizeof(w0));
      std::memcpy(&w1, pp + 8, sizeof(w1));
      std::memcpy(&w2, pp + 16, sizeof(w2));
      std::memcpy(&w3, pp + 24, sizeof(w3));
      a0 += __builtin_convertvector(xk * w0, Vec8);
      a1 += __builtin_convertvector(xk * w1, Vec8);
      a2 += __builtin_convertvector(xk * w2, Vec8);
      a3 += __builtin_convertvector(xk * w3, Vec8);
    }
    double sums[kOutBlock];
    std::memcpy(sums, &a0, sizeof(a0));
    std::memcpy(sums + 8, &a1, sizeof(a1));
    std::memcpy(sums + 16, &a2, sizeof(a2));
    std::memcpy(sums + 24, &a3, sizeof(a3));
    const int64_t j0 = p * kOutBlock;
    const int64_t lanes = std::min(kOutBlock, n - j0);
    for (int64_t l = 0; l < lanes; ++l) {
      // ops::Linear's epilogue: the cast added onto the zeroed output, then
      // AddRowBroadcast's `+= 1.0f * bias`.
      float v = 0.0f + static_cast<float>(sums[l]);
      if (bias != nullptr) v += 1.0f * bias[j0 + l];
      out[j0 + l] = v;
    }
  }
}

// Panels per LinearRowOutputMajor work chunk (512 outputs).
inline constexpr int64_t kOutPanelGrain = 16;

}  // namespace

void ToDouble(const float* src, double* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

void LinearForward(const double* x, int64_t ldx, const double* w, int64_t ldw,
                   const float* bias, const float* bias2, float* out,
                   int64_t m, int64_t k, int64_t n) {
  // Flat partition over output elements (i, j): chunk boundaries depend only
  // on (m*n, kDotGrain) and each element's accumulation order is fixed, so
  // the schedule is invisible in the result.
  ParallelFor(m * n, kDotGrain, [&](int64_t begin, int64_t end) {
    LinearChunk(x, ldx, w, ldw, bias, bias2, out, k, n, begin, end);
  });
}

void LinearForwardRowBias(const double* x, int64_t ldx, const double* w,
                          int64_t ldw, const float* bias, const float* bias2,
                          const int* bias_row, float* out, int64_t m,
                          int64_t k, int64_t n) {
  ParallelFor(m * n, kDotGrain, [&](int64_t begin, int64_t end) {
    LinearChunkRowBias(x, ldx, w, ldw, bias, bias2, bias_row, out, k, n,
                       begin, end);
  });
}

PackedMatrix PackedMatrix::Pack(const float* w, int64_t rows, int64_t cols,
                                int64_t ldw, Precision precision) {
  PackedMatrix p;
  p.precision = precision;
  p.rows = rows;
  p.cols = cols;
  const size_t numel = static_cast<size_t>(rows * cols);
  switch (precision) {
    case Precision::kDouble: {
      p.d.resize(numel);
      for (int64_t r = 0; r < rows; ++r) {
        ToDouble(w + r * ldw, p.d.data() + r * cols, cols);
      }
      break;
    }
    case Precision::kBf16: {
      p.h.resize(numel);
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
          p.h[static_cast<size_t>(r * cols + c)] = PackBf16(w[r * ldw + c]);
        }
      }
      break;
    }
    case Precision::kInt8: {
      p.q.resize(numel);
      p.scale.resize(static_cast<size_t>(rows));
      p.zero.resize(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) {
        const float* row = w + r * ldw;
        float mn = cols > 0 ? row[0] : 0.0f;
        float mx = mn;
        for (int64_t c = 1; c < cols; ++c) {
          mn = std::min(mn, row[c]);
          mx = std::max(mx, row[c]);
        }
        const double range = static_cast<double>(mx) - static_cast<double>(mn);
        const double amax = std::max(std::fabs(static_cast<double>(mn)),
                                     std::fabs(static_cast<double>(mx)));
        // (Near-)constant rows get scale = |value| so the zero-point lands
        // one step away and reconstructs the value exactly; the relative
        // cutoff also keeps w/scale far from integer overflow.
        const double s = range > amax * 1e-6
                             ? range / 255.0
                             : std::max(amax, 1e-12);
        p.scale[static_cast<size_t>(r)] = static_cast<float>(s);
        // Quantize against the float32 scale actually stored, so the kernel
        // and Dequant reproduce the packer's arithmetic exactly.
        const double sf =
            static_cast<double>(p.scale[static_cast<size_t>(r)]);
        const int32_t z = static_cast<int32_t>(
            std::lround(-128.0 - static_cast<double>(mn) / sf));
        p.zero[static_cast<size_t>(r)] = z;
        for (int64_t c = 0; c < cols; ++c) {
          const long qi =
              std::lround(static_cast<double>(row[c]) / sf) +
              static_cast<long>(z);
          p.q[static_cast<size_t>(r * cols + c)] = static_cast<int8_t>(
              std::clamp<long>(qi, -128, 127));
        }
      }
      break;
    }
  }
  return p;
}

double PackedMatrix::Dequant(int64_t r, int64_t c) const {
  const size_t e = static_cast<size_t>(r * cols + c);
  switch (precision) {
    case Precision::kDouble:
      return d[e];
    case Precision::kBf16:
      return static_cast<double>(UnpackBf16(h[e]));
    case Precision::kInt8:
      return static_cast<double>(scale[static_cast<size_t>(r)]) *
             (static_cast<double>(q[e]) -
              static_cast<double>(zero[static_cast<size_t>(r)]));
  }
  return 0.0;
}

size_t PackedMatrix::PackedBytes() const {
  return d.size() * sizeof(double) + h.size() * sizeof(uint16_t) +
         q.size() * sizeof(int8_t) + scale.size() * sizeof(float) +
         zero.size() * sizeof(int32_t);
}

void PackedMatrix::BuildPanels() {
  if (has_panels()) return;
  const int64_t bw = PanelBlock();
  const int64_t np = rows / kGemmNr;  // full panels of kGemmNr rows
  const int64_t kb = cols / bw;       // full K vector blocks
  // A matrix too small for even one full panel/block gains nothing from
  // blocking; GemvForward keeps the chunk path when has_panels() is false.
  if (np == 0 || kb == 0) return;
  const size_t numel = static_cast<size_t>(np * kb * kGemmNr * bw);
  // panel[p][b][r][lane] = element (p*kGemmNr + r, b*bw + lane): the
  // micro-kernel streams one contiguous panel per K block instead of
  // kGemmNr strided rows.
  const auto fill = [&](auto* dst, const auto* src) {
    size_t e = 0;
    for (int64_t p = 0; p < np; ++p) {
      for (int64_t b = 0; b < kb; ++b) {
        for (int64_t r = 0; r < kGemmNr; ++r) {
          const auto* row = src + (p * kGemmNr + r) * cols + b * bw;
          for (int64_t l = 0; l < bw; ++l) dst[e++] = row[l];
        }
      }
    }
  };
  switch (precision) {
    case Precision::kDouble:
      pd.resize(numel);
      fill(pd.data(), d.data());
      break;
    case Precision::kBf16:
      ph.resize(numel);
      fill(ph.data(), h.data());
      break;
    case Precision::kInt8:
      pq.resize(numel);
      fill(pq.data(), q.data());
      break;
  }
}

size_t PackedMatrix::PanelBytes() const {
  return pd.size() * sizeof(double) + ph.size() * sizeof(uint16_t) +
         pq.size() * sizeof(int8_t);
}

void GemvForward(const double* x, int64_t ldx, const PackedMatrix& w,
                 const float* bias, const float* bias2, float* out, int64_t m,
                 int64_t n) {
  DEEPST_DCHECK(w.rows == n);
  const int64_t k = w.cols;
  if (m > 1 && w.has_panels()) {
    GemmBlocked(x, ldx, w, bias, bias2, nullptr, out, m, n);
    return;
  }
  switch (w.precision) {
    case Precision::kDouble:
      LinearForward(x, ldx, w.d.data(), k, bias, bias2, out, m, k, n);
      return;
    case Precision::kBf16:
      ParallelFor(m * n, kDotGrain, [&](int64_t begin, int64_t end) {
        GemvChunkBf16(x, ldx, w.h.data(), bias, bias2, out, k, n, begin, end);
      });
      return;
    case Precision::kInt8:
      ParallelFor(m * n, kDotGrain, [&](int64_t begin, int64_t end) {
        GemvChunkI8(x, ldx, w.q.data(), w.scale.data(), w.zero.data(), bias,
                    bias2, out, k, n, begin, end);
      });
      return;
  }
}

void GemvForwardRowBias(const double* x, int64_t ldx, const PackedMatrix& w,
                        const float* bias, const float* bias2,
                        const int* bias_row, float* out, int64_t m,
                        int64_t n) {
  DEEPST_DCHECK(w.rows == n);
  const int64_t k = w.cols;
  if (m > 1 && w.has_panels()) {
    GemmBlocked(x, ldx, w, bias, bias2, bias_row, out, m, n);
    return;
  }
  switch (w.precision) {
    case Precision::kDouble:
      LinearForwardRowBias(x, ldx, w.d.data(), k, bias, bias2, bias_row, out,
                           m, k, n);
      return;
    case Precision::kBf16:
      ParallelFor(m * n, kDotGrain, [&](int64_t begin, int64_t end) {
        GemvChunkBf16RowBias(x, ldx, w.h.data(), bias, bias2, bias_row, out,
                             k, n, begin, end);
      });
      return;
    case Precision::kInt8:
      ParallelFor(m * n, kDotGrain, [&](int64_t begin, int64_t end) {
        GemvChunkI8RowBias(x, ldx, w.q.data(), w.scale.data(), w.zero.data(),
                           bias, bias2, bias_row, out, k, n, begin, end);
      });
      return;
  }
}

OutputMajorMatrix OutputMajorMatrix::Pack(const float* w, int64_t rows,
                                          int64_t cols) {
  OutputMajorMatrix p;
  p.rows = rows;
  p.cols = cols;
  const int64_t np = NumChunks(rows, kOutBlock);
  p.panels.resize(static_cast<size_t>(np * cols * kOutBlock));  // zeroed
  // Tile by tile: panel i's source is the contiguous kOutBlock x cols block
  // of rows [i * kOutBlock, ...), small enough to stay in L1 while it is
  // read column by column and written out contiguously.
  for (int64_t i = 0; i < np; ++i) {
    const float* src = w + i * kOutBlock * cols;
    float* dst = p.panels.data() + i * cols * kOutBlock;
    const int64_t lanes = std::min(kOutBlock, rows - i * kOutBlock);
    for (int64_t kk = 0; kk < cols; ++kk, dst += kOutBlock) {
      for (int64_t l = 0; l < lanes; ++l) dst[l] = src[l * cols + kk];
    }
  }
  return p;
}

void LinearRowOutputMajor(const float* x, const OutputMajorMatrix& w,
                          const float* bias, float* out) {
  ParallelFor(NumChunks(w.rows, kOutBlock), kOutPanelGrain,
              [&](int64_t p0, int64_t p1) {
                OutputMajorPanels(x, w.panels.data(), bias, out, w.cols,
                                  w.rows, p0, p1);
              });
}

MlpView MlpView::Of(const Mlp& mlp) {
  DEEPST_CHECK(mlp.activation() == Activation::kLeakyRelu);
  MlpView v;
  for (size_t l = 0; l < mlp.num_layers(); ++l) {
    const Tensor& w = mlp.layer(l).weight();
    v.weights.push_back(OutputMajorMatrix::Pack(w.data(), w.dim(0), w.dim(1)));
    v.biases.push_back(mlp.layer(l).bias());
  }
  return v;
}

size_t MlpView::PackedBytes() const {
  size_t bytes = 0;
  for (const OutputMajorMatrix& w : weights) bytes += w.PackedBytes();
  return bytes;
}

void MlpView::Forward(const float* x, float* out) const {
  std::vector<float> hidden, next;
  const float* in = x;
  for (size_t l = 0; l < weights.size(); ++l) {
    const bool last = l + 1 == weights.size();
    if (!last) next.resize(static_cast<size_t>(weights[l].rows));
    float* dst = last ? out : next.data();
    LinearRowOutputMajor(in, weights[l],
                         biases[l] != nullptr ? biases[l]->data() : nullptr,
                         dst);
    if (last) break;
    for (float& v : next) v = v > 0 ? v : kLeakyReluSlope * v;
    hidden.swap(next);
    in = hidden.data();
  }
}

GruStackView GruStackView::Of(const StackedGru& gru, int64_t emb_dim,
                              Precision precision) {
  GruStackView view;
  view.hidden_dim = gru.hidden_dim();
  view.cells.reserve(static_cast<size_t>(gru.num_layers()));
  for (int l = 0; l < gru.num_layers(); ++l) {
    const GruCell& cell = gru.cell(l);
    GruCellView v;
    v.b_ih = &cell.b_ih();
    v.b_hh = &cell.b_hh();
    v.input_dim = cell.input_dim();
    v.hidden_dim = cell.hidden_dim();
    const int64_t h3 = 3 * cell.hidden_dim();
    const float* wih = cell.w_ih().data();
    if (l == 0) {
      // Split input: pack only the per-step embedding columns; the context
      // columns stay exact doubles (folded once per query, see GruCellView).
      const int64_t ctx_dim = cell.input_dim() - emb_dim;
      v.w_ih =
          PackedMatrix::Pack(wih, h3, emb_dim, cell.input_dim(), precision);
      v.w_ih_ctx.resize(static_cast<size_t>(h3 * ctx_dim));
      for (int64_t r = 0; r < h3; ++r) {
        ToDouble(wih + r * cell.input_dim() + emb_dim,
                 v.w_ih_ctx.data() + r * ctx_dim, ctx_dim);
      }
    } else {
      v.w_ih = PackedMatrix::Pack(wih, h3, cell.input_dim(),
                                  cell.input_dim(), precision);
    }
    v.w_hh = PackedMatrix::Pack(cell.w_hh().data(), h3, cell.hidden_dim(),
                                cell.hidden_dim(), precision);
    view.cells.push_back(std::move(v));
  }
  return view;
}

}  // namespace infer
}  // namespace nn
}  // namespace deepst
