// GruGates' nonlinearities in vector lanes. The kernel repeats, operation for
// operation, the C library this project builds against (glibc 2.36, x86-64):
//
//   expf   glibc's __expf_fma (sysdeps/ieee754/flt-32/e_expf.c as its x86-64
//          ifunc selects it on CPUs with FMA and AVX2): a 32-entry 2^(i/32)
//          table and a cubic in double precision, five fused multiply-adds;
//   tanhf  fdlibm's s_tanhf.c over s_expm1f.c: float arithmetic, nothing
//          fused.
//
// On that library every lane is bitwise std::exp / std::tanh, so GruGates is
// bitwise the scalar libm composition it replaces (BM_GateMath checks all
// 2^32 floats; GruGatesTest checks the composition). Elsewhere the kernel
// still gives the same bits on every clone, thread count and batch.
//
// Two rules keep the bits fixed in every clone (nn/infer/clones.h). This file
// is compiled with -ffp-contract=off (src/nn/CMakeLists.txt): GCC would
// otherwise fuse fdlibm's float polynomial and the gate's own
// `gi_n + r * gh_n` and `(1 - z) * n + z * h` in the FMA-capable clones. And
// glibc's fused multiply-adds are explicit __builtin_fma calls: a vfmadd in
// the avx512f and x86-64-v3 clones, libm's fma() (same bits, slower) in the
// default clone, which the ASan/TSan builds run.
//
// Lanes outside a vector path's domain are recomputed with std::exp /
// std::tanh, so they are exact by construction: expf's own special cases
// (|x| >= 88, inf, NaN) and, for tanhf, the non-finite lanes, |x| < 2^-26
// and |x| >= 27 ln2 / 2 ~ 9.357, where expm1f(2|x|) leaves its main path.
// Those lanes enter the vector arithmetic as a benign stand-in, so no
// out-of-range float is ever converted to an integer.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "nn/infer/clones.h"
#include "nn/infer/forward.h"
#include "nn/kernels.h"

namespace deepst {
namespace nn {
namespace infer {
namespace {

constexpr int kLanes = 16;

typedef float VecF __attribute__((vector_size(64)));     // 16 lanes
typedef int32_t VecI __attribute__((vector_size(64)));   // lane masks, ints
typedef uint32_t VecU __attribute__((vector_size(64)));  // float bit patterns
typedef float VecF8 __attribute__((vector_size(32)));    // one expf half
typedef double VecD __attribute__((vector_size(64)));
typedef uint64_t VecQ __attribute__((vector_size(64)));  // double bit patterns
typedef uint64_t VecQ4 __attribute__((vector_size(32)));
typedef uint64_t VecQ2 __attribute__((vector_size(16)));

template <typename V, typename S>
DEEPST_FORCE_INLINE V Splat(S s) {
  V v;
  for (size_t i = 0; i < sizeof(V) / sizeof(S); ++i) v[i] = s;
  return v;
}

DEEPST_FORCE_INLINE VecF FromBits(VecU u) { return std::bit_cast<VecF>(u); }
DEEPST_FORCE_INLINE VecU Bits(VecF f) { return std::bit_cast<VecU>(f); }
DEEPST_FORCE_INLINE VecI Signed(VecU u) { return std::bit_cast<VecI>(u); }
DEEPST_FORCE_INLINE VecU Unsigned(VecI i) { return std::bit_cast<VecU>(i); }

// Lane masks and selects are built from shifts and bitwise ops: GCC 12
// turns 512-bit vector compares and `?:` into per-lane scalar code in the
// x86-64-v3 clone (and an OR of two compares even in the avx512f clone),
// while shifts and bitwise ops split cleanly into its 256-bit registers.
//
// All-ones where a < b, lane by lane (either side may be a scalar), for
// values whose difference cannot overflow: every caller compares bit
// patterns below 2^31 or small integers.
template <typename A, typename B>
DEEPST_FORCE_INLINE VecI Less(A a, B b) {
  return (a - b) >> 31;
}
DEEPST_FORCE_INLINE VecF Select(VecI mask, VecF a, VecF b) {
  const VecU m = Unsigned(mask);
  return FromBits((Bits(a) & m) | (Bits(b) & ~m));
}
DEEPST_FORCE_INLINE VecI Select(VecI mask, VecI a, VecI b) {
  return (a & mask) | (b & ~mask);
}

DEEPST_FORCE_INLINE bool AnyLane(VecI mask) {
  const VecQ q = std::bit_cast<VecQ>(mask);
  const VecQ4 a = __builtin_shufflevector(q, q, 0, 1, 2, 3) |
                  __builtin_shufflevector(q, q, 4, 5, 6, 7);
  const VecQ2 b = __builtin_shufflevector(a, a, 0, 1) |
                  __builtin_shufflevector(a, a, 2, 3);
  return (b[0] | b[1]) != 0;
}

// Recomputes the flagged lanes [0, n) of y from x with libm. Rare, so kept
// out of line (and off the vector ABI: it takes pointers), which leaves the
// vector path its registers.
__attribute__((noinline, cold)) void LibmLanes(float (*fn)(float),
                                               const VecF* x,
                                               const VecI* special, int n,
                                               VecF* y) {
  for (int i = 0; i < n; ++i) {
    if ((*special)[i]) (*y)[i] = fn((*x)[i]);
  }
}

// Lanes [0, n) of p; the rest read as zero.
DEEPST_FORCE_INLINE VecF Load(const float* p, int n) {
  VecF v = {};
  std::memcpy(&v, p, static_cast<size_t>(n) * sizeof(float));
  return v;
}

DEEPST_FORCE_INLINE void Store(float* p, const VecF& v, int n) {
  std::memcpy(p, &v, static_cast<size_t>(n) * sizeof(float));
}

// One rounding per lane, like the scalar fma(); see the file comment.
DEEPST_FORCE_INLINE VecD Fma(VecD a, VecD b, VecD c) {
  VecD r;
  for (int i = 0; i < 8; ++i) r[i] = __builtin_fma(a[i], b[i], c[i]);
  return r;
}

// glibc's __exp2f_data.tab: T[i] = bits(2^(i/32)) - (i << 47).
alignas(64) constexpr uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};

// T[idx & 31] as two two-register permutes and a select.
DEEPST_FORCE_INLINE VecQ Exp2Table(VecQ idx) {
  VecQ t[4];
  std::memcpy(t, kExp2Table, sizeof(t));
  const VecQ lo = __builtin_shuffle(t[0], t[1], idx & 15);
  const VecQ hi = __builtin_shuffle(t[2], t[3], idx & 15);
  const VecQ upper = -((idx >> 4) & 1);  // all-ones where idx & 16
  return (hi & upper) | (lo & ~upper);
}

// __expf_fma's main path on eight lanes, before the final rounding to float:
//   kd = fma(xd, InvLn2N, Shift); ki = bits(kd); kd -= Shift;
//   r = fma(InvLn2N, xd, -kd); s = from_bits(T[ki & 31] + (ki << 47));
//   y = fma(fma(C0, r, C1), r * r, fma(r, C2, 1.0)) * s.
DEEPST_FORCE_INLINE VecD ExpHalf(VecF8 x) {
  const VecD inv_ln2_n = Splat<VecD>(0x1.71547652b82fep+5);
  const VecD shift = Splat<VecD>(0x1.8p+52);
  const VecD xd = __builtin_convertvector(x, VecD);
  VecD kd = Fma(xd, inv_ln2_n, shift);
  const VecQ ki = std::bit_cast<VecQ>(kd);
  kd -= shift;
  const VecD r = Fma(inv_ln2_n, xd, -kd);
  const VecD s = std::bit_cast<VecD>(Exp2Table(ki) + (ki << 47));
  const VecD z = Fma(Splat<VecD>(0x1.c6af84b912394p-20), r,
                     Splat<VecD>(0x1.ebfce50fac4f3p-13));
  const VecD r2 = r * r;
  VecD y = Fma(r, Splat<VecD>(0x1.62e42ff0c52d6p-6), Splat<VecD>(1.0));
  y = Fma(z, r2, y);
  return y * s;
}

// std::exp on lanes [0, n). expf's main path takes (bits(x) >> 20 & 0x7ff)
// <= 0x42a, i.e. |x| < 88 and finite; other lanes are computed from 0 and
// then recomputed by libm.
DEEPST_FORCE_INLINE VecF Exp(VecF x, int n) {
  const VecI special = Less(0x42a, Signed((Bits(x) >> 20) & 0x7ffu));
  const VecF xs = FromBits(Bits(x) & ~Unsigned(special));
  const VecF8 lo = __builtin_convertvector(
      ExpHalf(__builtin_shufflevector(xs, xs, 0, 1, 2, 3, 4, 5, 6, 7)), VecF8);
  const VecF8 hi = __builtin_convertvector(
      ExpHalf(__builtin_shufflevector(xs, xs, 8, 9, 10, 11, 12, 13, 14, 15)),
      VecF8);
  VecF y = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                   11, 12, 13, 14, 15);
  if (AnyLane(special)) {
    LibmLanes([](float v) { return std::exp(v); }, &x, &special, n, &y);
  }
  return y;
}

// expm1f(a) for |a| in [2^-25, 27 ln2), s_expm1f.c's main path, with tanhf's
// arguments: a = -2|x| in (-2, 0) or a = 2|x| in [2, 27 ln2), so the
// reduction's k lies in [-3, 27] and the k == 1 and k > 56 returns are never
// needed. k = 0 and the |a| < 1.5 ln2 reduction (k = +-1, hi = a -+ ln2_hi,
// lo = +-ln2_lo) are the general reduction with t = k, bit for bit.
DEEPST_FORCE_INLINE VecF Expm1(VecF a) {
  const VecI ha = Signed(Bits(a) & 0x7fffffffu);
  const VecI neg = Signed(Bits(a)) >> 31;  // a is never +-0 or NaN here
  const VecF half = FromBits(Bits(Splat<VecF>(0.5f)) |  // +-0.5 with a's sign
                             (Bits(a) & 0x80000000u));
  const VecF kf = FromBits(Splat<VecU>(0x3fb8aa3bu)) * a + half;  // invln2
  VecI k = __builtin_convertvector(kf, VecI);  // truncates, like (int32_t)
  k = Select(Less(ha, 0x3f851592), neg | 1, k);  // +-1 below 1.5 ln2
  k &= Less(0x3eb17218, ha);                     // 0 up to 0.5 ln2
  const VecF t = __builtin_convertvector(k, VecF);
  const VecF hi = a - t * FromBits(Splat<VecU>(0x3f317180u));  // ln2_hi
  const VecF lo = t * FromBits(Splat<VecU>(0x3717f7d1u));       // ln2_lo
  const VecF x = hi - lo;
  const VecF c = (hi - x) - lo;

  const VecF hfx = 0.5f * x;
  const VecF hxs = x * hfx;
  VecF r1 = FromBits(Splat<VecU>(0xb457edbbu)) * hxs +  // Q5
            FromBits(Splat<VecU>(0x36867e54u));         // Q4
  r1 = r1 * hxs + FromBits(Splat<VecU>(0xb8a670cdu));   // Q3
  r1 = r1 * hxs + FromBits(Splat<VecU>(0x3ad00d01u));   // Q2
  r1 = r1 * hxs + FromBits(Splat<VecU>(0xbd088889u));   // Q1
  r1 = r1 * hxs + 1.0f;
  const VecF t3 = 3.0f - r1 * hfx;
  VecF e = hxs * ((r1 - t3) / (6.0f - x * t3));
  const VecF k0 = x - (x * e - hxs);
  e = (x * (e - c) - c) - hxs;
  const VecF km1 = 0.5f * (x - e) - 0.5f;
  // The remaining returns scale y by 2^k through its exponent bits.
  const VecU kexp = std::bit_cast<VecU>(k) << 23;
  const VecF kneg = FromBits(Bits(1.0f - (e - x)) + kexp) - 1.0f;  // k <= -2
  const VecU ks = std::bit_cast<VecU>(k) & 31u;  // shift counts in range
  const VecF t_lo = FromBits(0x3f800000u - (0x1000000u >> ks));  // 1 - 2^-k
  const VecF k22 = FromBits(Bits(t_lo - (e - x)) + kexp);        // k < 23
  const VecF t_hi = FromBits((0x7fu - ks) << 23);                // 2^-k
  const VecF k56 = FromBits(Bits((x - (e + t_hi)) + 1.0f) + kexp);
  VecF y = Select(Less(k, 23), k22, k56);
  y = Select(Less(k, 1), k0, y);
  y = Select(Less(k, 0), km1, y);
  return Select(Less(k, -1), kneg, y);
}

// std::tanh on lanes [0, n): tanhf(x) = sign(x) * (|x| >= 1
// ? 1 - 2 / (expm1f(2|x|) + 2) : -t / (t + 2) with t = expm1f(-2|x|)).
DEEPST_FORCE_INLINE VecF Tanh(VecF x, int n) {
  const VecI ix = Signed(Bits(x) & 0x7fffffffu);
  const VecI special = Less(ix, 0x32800000) | ~Less(ix, 0x4115b844);
  const VecF ax = Select(special, Splat<VecF>(1.0f), FromBits(Unsigned(ix)));
  const VecI big = ~Less(Signed(Bits(ax)), 0x3f800000);  // |x| >= 1
  const VecF t = Expm1(Select(big, ax + ax, ax * -2.0f));
  const VecF q = Select(big, Splat<VecF>(2.0f), -t) / (t + 2.0f);
  const VecF z = Select(big, 1.0f - q, q);
  VecF y = FromBits(Bits(z) | (Bits(x) & 0x80000000u));
  if (AnyLane(special)) {
    LibmLanes([](float v) { return std::tanh(v); }, &x, &special, n, &y);
  }
  return y;
}

// Units [j, j + n) of one row, n <= kLanes; the scalar composition was
//   r = 1 / (1 + exp(-(gi_r + gh_r))),  z = 1 / (1 + exp(-(gi_z + gh_z))),
//   n = tanh(gi_n + r * gh_n),          h' = (1 - z) * n + z * h.
// All inputs are read before the output is stored, so out may alias h.
DEEPST_FORCE_INLINE void GateBlock(const float* gi, const float* gh,
                                   const float* h, float* out, int64_t hd,
                                   int64_t j, int n) {
  const VecF r = 1.0f / (1.0f + Exp(-(Load(gi + j, n) + Load(gh + j, n)), n));
  const VecF z = 1.0f / (1.0f + Exp(-(Load(gi + hd + j, n) +
                                      Load(gh + hd + j, n)), n));
  const VecF cand =
      Tanh(Load(gi + 2 * hd + j, n) + r * Load(gh + 2 * hd + j, n), n);
  Store(out + j, (1.0f - z) * cand + z * Load(h + j, n), n);
}

DEEPST_INFER_CLONES
void GateRow(const float* gi, const float* gh, const float* h, float* out,
             int64_t hd) {
  int64_t j = 0;
  for (; j + kLanes <= hd; j += kLanes) GateBlock(gi, gh, h, out, hd, j, kLanes);
  if (j < hd) GateBlock(gi, gh, h, out, hd, j, static_cast<int>(hd - j));
}

// y[i] = f(x[i]) for i in [0, n), a block of lanes at a time.
template <VecF (*F)(VecF, int)>
DEEPST_FORCE_INLINE void MapLanes(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(y + i, F(Load(x + i, kLanes), kLanes), kLanes);
  }
  const int m = static_cast<int>(n - i);
  if (m > 0) Store(y + i, F(Load(x + i, m), m), m);
}

}  // namespace

DEEPST_INFER_CLONES
void ExpLanes(const float* x, float* y, int64_t n) { MapLanes<Exp>(x, y, n); }

DEEPST_INFER_CLONES
void TanhLanes(const float* x, float* y, int64_t n) {
  MapLanes<Tanh>(x, y, n);
}

void GruGates(const Tensor& gi, const Tensor& gh, const Tensor& h_prev,
              Tensor* h_out) {
  const int64_t batch = gi.dim(0);
  const int64_t hd = h_prev.dim(1);
  DEEPST_DCHECK(gi.dim(1) == 3 * hd && gh.dim(1) == 3 * hd);
  DEEPST_DCHECK(h_out->dim(0) == batch && h_out->dim(1) == hd);
  const float* gip = gi.data();
  const float* ghp = gh.data();
  const float* hp = h_prev.data();
  float* op = h_out->data();
  kernels::RowLoop(batch, [gip, ghp, hp, op, hd](int64_t b) {
    GateRow(gip + b * 3 * hd, ghp + b * 3 * hd, hp + b * hd, op + b * hd, hd);
  });
}

}  // namespace infer
}  // namespace nn
}  // namespace deepst
