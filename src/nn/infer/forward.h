#ifndef DEEPST_NN_INFER_FORWARD_H_
#define DEEPST_NN_INFER_FORWARD_H_

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"

namespace deepst {
namespace nn {
namespace infer {

// Graph-free forward kernels for the inference fast path. Unlike the ops in
// nn/ops.h these never construct autodiff Variables: they read raw weight
// tensors (via the layer accessors of nn/layers.h) and write into
// caller-provided scratch tensors, so a generation loop performs zero heap
// allocation at steady state.
//
// The GEMV kernel works on double-precision inputs: weights are converted
// once per session (they are fixed at inference time) and the small
// activation rows per step. A float*float product is exactly representable
// in double, so converting up front loses nothing and removes every
// conversion from the inner loop, which then vectorizes to pure double
// multiply-adds (8 fixed lanes, dispatched to the widest available vector
// ISA at runtime; every ISA computes the identical correctly-rounded
// result).
//
// Determinism contract (docs/parallelism.md): every kernel partitions work
// with chunk boundaries that depend only on the problem size, and each
// output element is accumulated in a fixed order — results are bitwise
// identical for every backend and thread count. The 8-lane accumulation
// deviates from the strictly sequential reference GEMM at the ~1e-7 level;
// parity tests bound the end-to-end deviation at 1e-5.

// Work grain: outputs (dot products) per chunk.
inline constexpr int64_t kDotGrain = 32;

// Register-blocked GEMM micro-tile shape: kGemmMr activation rows by
// kGemmNr output rows per tile. Thread partitioning for the blocked path
// runs over whole bands of kGemmMr activation rows, so a micro-tile is
// never split across chunks and the per-element accumulation order (which
// is what the determinism contract fixes) is identical to the chunk path.
inline constexpr int64_t kGemmMr = 4;
inline constexpr int64_t kGemmNr = 2;

// dst[i] = double(src[i]); exact for every float.
void ToDouble(const float* src, double* dst, int64_t n);

// out[i, j] = sum_kk x[i*ldx + kk] * w[j*ldw + kk] + (bias ? b_i[j] : 0)
// for i in [0, m), j in [0, n), kk in [0, k). `ldx`/`ldw` are the row
// strides of x and w (>= k), so callers can multiply against a column slice
// of a [Out, In] weight matrix without materializing it. Overwrites out.
//
// `bias_row` maps output rows onto the rows of a [rows, n] bias block:
// b_i = bias + bias_row[i] * n, or b_i = bias for every row when bias_row
// is null. Cross-query batches use it to give each batch row its own
// query's context bias. Per output element the arithmetic is the same
// either way (double-precision dot, one float cast, one float bias add), so
// a row's result depends only on its own x row and bias row, never on the
// rows batched beside it.
void LinearForward(const double* x, int64_t ldx, const double* w, int64_t ldw,
                   const float* bias, const int* bias_row, float* out,
                   int64_t m, int64_t k, int64_t n);

// A weight matrix packed once for the GEMV fast path: exact widening to
// double, so GemvForward over it is the same arithmetic as LinearForward
// (bitwise identical). Packing reads a [rows, cols] block of a float source
// with row stride `ldw` (>= cols), so callers can pack a column slice —
// e.g. the embedding columns of the layer-0 GRU input weight — without
// materializing it.
struct PackedMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<double> d;  // [rows, cols]

  // K-major panel-packed sidecar for the blocked GEMM path (built by
  // BuildPanels, empty after a bare Pack). Rows are grouped into panels of
  // kGemmNr; within a panel the full 8-double blocks of the K dimension are
  // interleaved row-by-row, so the micro-kernel streams one contiguous
  // panel instead of kGemmNr strided rows:
  //   pd[p][b][r][lane] = element (p*kGemmNr + r, b*8 + lane)
  // Only full panels and full K blocks are packed; row/K tails go through
  // the row-major array.
  std::vector<double> pd;

  static PackedMatrix Pack(const float* w, int64_t rows, int64_t cols,
                           int64_t ldw);
  // Builds the panel sidecar above; idempotent. Worth calling whenever the
  // matrix will see batched (m > 1) GEMVs — GemvForward routes through the
  // blocked kernel exactly when panels are present and m > 1.
  void BuildPanels();
  bool has_panels() const { return !pd.empty(); }
  // Bytes of the row-major array and of the panel sidecar (0 until
  // BuildPanels), reported separately for footprint accounting.
  size_t PackedBytes() const { return d.size() * sizeof(double); }
  size_t PanelBytes() const { return pd.size() * sizeof(double); }
  bool empty() const { return rows == 0; }
};

// GEMV against a packed matrix:
//   out[i, j] = dot(x[i, :], w[j, :]) + (bias ? b_i[j] : 0)
// Same contract as LinearForward (bias_row included) with w.rows == n,
// w.cols == k, and bitwise identical to it: row-local, fixed-order
// accumulation, the same bits across ISA clones, thread counts and batch
// compositions.
//
// When `m > 1` and the matrix carries a panel sidecar (BuildPanels), the
// call routes through a register-blocked kGemmMr x kGemmNr GEMM
// micro-kernel that amortizes each streamed weight panel across kGemmMr
// activation rows. Blocking reorders work only *across* output elements,
// never within one: each element still accumulates in the chunk kernel's
// exact 8-lane pairwise order, so the blocked path is bitwise identical to
// the chunk path — it is purely a bandwidth optimization. The tile
// reduces its eight accumulators together (a transposed pairwise tree,
// each sum in the chunk kernel's pairing order).
void GemvForward(const double* x, int64_t ldx, const PackedMatrix& w,
                 const float* bias, const int* bias_row, float* out, int64_t m,
                 int64_t n);

// Outputs per panel of an OutputMajorMatrix: LinearRowOutputMajor keeps one
// panel's outputs in vector accumulators across the whole K loop.
inline constexpr int64_t kOutBlock = 32;

// A float Linear weight [rows = outputs, cols = inputs] packed output-major
// for single-row inference, in panels of kOutBlock consecutive outputs:
//   panels[p][kk][l] = w[(p * kOutBlock + l) * cols + kk],
// zero past `rows` in the last panel. A panel's source is one contiguous
// kOutBlock x cols tile of w, so packing transposes tile by tile in cache,
// and the kernel streams the pack front to back exactly once.
struct OutputMajorMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<float> panels;

  static OutputMajorMatrix Pack(const float* w, int64_t rows, int64_t cols);
  size_t PackedBytes() const { return panels.size() * sizeof(float); }
};

// One activation row through a Linear layer with nn::ops::Linear's
// arithmetic, vectorized across outputs:
//   out[j] = (0.0f + float(sum_kk double(x[kk] * w[j, kk]))) + 1.0f * bias[j]
// -- a float product per tap, a double sum in ascending kk (GemmAccBT into
// a zeroed row), then AddRowBroadcast's bias add, skipped for a null bias.
// Each lane runs one output's scalar sequence, so every element is bitwise
// ops::Linear's for every ISA clone.
void LinearRowOutputMajor(const float* x, const OutputMajorMatrix& w,
                          const float* bias, float* out);

// A leaky-ReLU nn::Mlp (the proxy encoder's kind; checked by Of) packed
// output-major, layer by layer, its biases read in place from the model.
// Forward repeats Mlp::Forward element for element -- each layer through
// LinearRowOutputMajor, ops::LeakyRelu's float expression between them --
// so its output row is bitwise the autodiff forward's.
struct MlpView {
  std::vector<OutputMajorMatrix> weights;
  std::vector<const Tensor*> biases;  // per layer; null without a bias

  static MlpView Of(const Mlp& mlp);
  int64_t out_dim() const { return weights.back().rows; }
  size_t PackedBytes() const;
  // x: [weights[0].cols], out: [out_dim()].
  void Forward(const float* x, float* out) const;
};

// Fused GRU gate update (PyTorch gate layout, matching nn::GruCell::Step):
//   r = sigmoid(gi[:, 0:H]  + gh[:, 0:H])
//   z = sigmoid(gi[:, H:2H] + gh[:, H:2H])
//   n = tanh  (gi[:, 2H:3H] + r * gh[:, 2H:3H])
//   h_out = (1 - z) * n + z * h_prev
// gi/gh are [B, 3H] pre-activation batches, h_prev/h_out [B, H]; h_out may
// not alias gi/gh but may alias h_prev. The nonlinearities run 16 units at a
// time (gates.cc) and give the same bits on every clone, thread count and
// batch: on glibc 2.36 x86-64 the bits of the float composition above with
// std::exp / std::tanh (see ExpLanes).
void GruGates(const Tensor& gi, const Tensor& gh, const Tensor& h_prev,
              Tensor* h_out);

// GruGates' vector expf and tanhf over n floats (y may alias x): glibc
// 2.36's x86-64 algorithms repeated lane by lane, so y[i] is bitwise
// std::exp(x[i]) / std::tanh(x[i]) on that C library (BM_GateMath compares
// all 2^32 inputs) and may differ in the last bit on another.
void ExpLanes(const float* x, float* y, int64_t n);
void TanhLanes(const float* x, float* y, int64_t n);

// Per-layer GRU weights, packed once for the GEMV kernel (the biases stay
// float; they are added after the accumulation). Layer 0 supports the
// split-input optimization: the GRU input is [token_embedding, context]
// where context is constant per query, so w_ih holds only the per-step
// embedding columns while the context columns sit in w_ih_ctx — their
// product (+ b_ih) is folded once per query into the layer-0 bias.
struct GruCellView {
  PackedMatrix w_ih;             // [3H, emb_dim] (layer 0) or [3H, H]
  PackedMatrix w_hh;             // [3H, H]
  std::vector<double> w_ih_ctx;  // layer 0 only: [3H, ctx_dim] row-major
  const Tensor* b_ih;            // [3H]
  const Tensor* b_hh;            // [3H]
  int64_t input_dim;
  int64_t hidden_dim;
};

struct GruStackView {
  std::vector<GruCellView> cells;
  int64_t hidden_dim = 0;

  // `emb_dim` is the layer-0 embedding-column count (the context columns
  // input_dim - emb_dim go to w_ih_ctx, see GruCellView).
  static GruStackView Of(const StackedGru& gru, int64_t emb_dim);
  int num_layers() const { return static_cast<int>(cells.size()); }
};

// Scratch-buffer arena: a fixed set of slots whose tensors are re-shaped in
// place per use, reusing storage capacity. After warmup (the first call at
// the largest batch/shape), Acquire never allocates; grow_count() exposes
// the number of storage growths so tests can assert the steady state.
class Arena {
 public:
  explicit Arena(int num_slots) : slots_(static_cast<size_t>(num_slots)) {}

  // Returns the slot's tensor re-shaped in place to [rows, cols] (contents
  // unspecified). Allocates only when the slot's storage grows.
  Tensor* Acquire(int slot, int64_t rows, int64_t cols) {
    Tensor* t = &slots_[static_cast<size_t>(slot)];
    if (t->ResetShape(rows, cols)) ++grow_count_;
    return t;
  }
  // Slot tensor with whatever shape it last had (for state that persists
  // across steps).
  Tensor* Get(int slot) { return &slots_[static_cast<size_t>(slot)]; }

  int64_t grow_count() const { return grow_count_; }

 private:
  std::vector<Tensor> slots_;
  int64_t grow_count_ = 0;
};

}  // namespace infer
}  // namespace nn
}  // namespace deepst

#endif  // DEEPST_NN_INFER_FORWARD_H_
