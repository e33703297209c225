#ifndef DEEPST_NN_TENSOR_H_
#define DEEPST_NN_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace deepst {
namespace nn {

// While an instance is alive on this thread, Tensor::Uniform / Gaussian
// allocate zero-filled storage instead of drawing from the rng (and do not
// advance the rng stream). Checkpoint/parameter loading constructs models
// under this guard: every parameter is about to be overwritten by the saved
// values, so drawing O(params) random numbers first -- the dominant cost of
// constructing a model over a 100k-segment city -- is pure waste. Only use
// it when *all* randomly-initialized parameters are subsequently replaced.
class ScopedDeferInit {
 public:
  ScopedDeferInit();
  ~ScopedDeferInit();
  ScopedDeferInit(const ScopedDeferInit&) = delete;
  ScopedDeferInit& operator=(const ScopedDeferInit&) = delete;

  // True when any instance is alive on the current thread.
  static bool active();
};

// Dense row-major float32 n-dimensional array. This is the storage type of
// the from-scratch autodiff engine that replaces PyTorch in this
// reproduction (see DESIGN.md, substitution table). It is deliberately
// simple: contiguous storage, no views, value semantics (copy copies data).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int64_t> shape);

  // Storage lifecycle routes through nn::detail::AcquireBuffer /
  // ReleaseBuffer (see nn/arena.h): inside an active AutodiffArena scope the
  // float storage is leased from and recycled into the arena's BufferPool,
  // so training steps stop allocating once the pool is warm; outside a scope
  // these are ordinary vector operations.
  Tensor(const Tensor& other);
  // Copy-assign reuses this tensor's own capacity when it fits (vector
  // copy-assignment semantics), so it needs no pool hook.
  Tensor& operator=(const Tensor& other) = default;
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept;  // recycles replaced storage
  ~Tensor();

  // -- Factories ------------------------------------------------------------
  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  static Tensor FromVector(std::vector<int64_t> shape,
                           const std::vector<float>& values);
  // I.i.d. uniform in [lo, hi).
  static Tensor Uniform(std::vector<int64_t> shape, float lo, float hi,
                        util::Rng* rng);
  // I.i.d. normal(mean, stddev).
  static Tensor Gaussian(std::vector<int64_t> shape, float mean, float stddev,
                         util::Rng* rng);

  // -- Shape ---------------------------------------------------------------
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string ShapeString() const;

  // Returns a copy with a new shape of identical element count.
  Tensor Reshape(std::vector<int64_t> new_shape) const;

  // Re-shapes this tensor in place to [rows, cols], reusing the existing
  // storage and shape capacity (no allocation when the element count fits
  // in capacity and the tensor already had two or more dimensions once).
  // Contents are unspecified afterwards. Returns true when the storage had
  // to grow — scratch arenas use this to verify they reach a
  // zero-allocation steady state.
  bool ResetShape(int64_t rows, int64_t cols);

  // ResetShape to `like`'s shape: the shape is copy-assigned, so a reused
  // tensor re-shapes with zero allocations. Same return contract as
  // ResetShape.
  bool ResetShapeLike(const Tensor& like);

  // -- Element access --------------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) {
    DEEPST_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    DEEPST_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  // 2-D accessor (row, col).
  float& at(int64_t r, int64_t c) {
    DEEPST_DCHECK(ndim() == 2);
    DEEPST_DCHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    return const_cast<Tensor*>(this)->at(r, c);
  }
  // 4-D accessor (n, c, h, w) for image-like tensors.
  float& at4(int64_t n, int64_t c, int64_t h, int64_t w);
  float at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
    return const_cast<Tensor*>(this)->at4(n, c, h, w);
  }

  // -- In-place helpers -------------------------------------------------------
  void Fill(float value);
  void AddInPlace(const Tensor& other);  // this += other (same shape)
  void ScaleInPlace(float s);

  // -- Reductions / stats (double accumulation) -------------------------------
  double Sum() const;
  double Mean() const;
  float MaxAbs() const;
  bool AllFinite() const;

  // Index of the max element (ties -> first).
  int64_t ArgMax() const;

  std::string ToString(int64_t max_elems = 32) const;

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

// Row-wise softmax of a [B, C] tensor (pure tensor helper, used by no-grad
// prediction paths).
Tensor SoftmaxRows(const Tensor& logits);

// Row-wise log-softmax of a [B, C] tensor.
Tensor LogSoftmaxRows(const Tensor& logits);

}  // namespace nn
}  // namespace deepst

#endif  // DEEPST_NN_TENSOR_H_
