#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/arena.h"
#include "nn/kernels.h"

namespace deepst {
namespace nn {
namespace {

int64_t NumelOf(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DEEPST_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  detail::AcquireBuffer(static_cast<size_t>(NumelOf(shape_)), &data_);
  std::fill(data_.begin(), data_.end(), 0.0f);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  detail::AcquireBuffer(other.data_.size(), &data_);
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    detail::ReleaseBuffer(&data_);
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
  }
  return *this;
}

Tensor::~Tensor() { detail::ReleaseBuffer(&data_); }

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          const std::vector<float>& values) {
  Tensor t(std::move(shape));
  DEEPST_CHECK_EQ(t.numel(), static_cast<int64_t>(values.size()));
  std::copy(values.begin(), values.end(), t.data_.begin());
  return t;
}

namespace {
// Nesting depth of live ScopedDeferInit guards on this thread.
thread_local int defer_init_depth = 0;
}  // namespace

ScopedDeferInit::ScopedDeferInit() { ++defer_init_depth; }
ScopedDeferInit::~ScopedDeferInit() { --defer_init_depth; }
bool ScopedDeferInit::active() { return defer_init_depth > 0; }

Tensor Tensor::Uniform(std::vector<int64_t> shape, float lo, float hi,
                       util::Rng* rng) {
  Tensor t(std::move(shape));
  if (ScopedDeferInit::active()) return t;
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Gaussian(std::vector<int64_t> shape, float mean, float stddev,
                        util::Rng* rng) {
  Tensor t(std::move(shape));
  if (ScopedDeferInit::active()) return t;
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  DEEPST_CHECK(i >= 0 && i < ndim());
  return shape_[static_cast<size_t>(i)];
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ',';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  DEEPST_CHECK_EQ(NumelOf(new_shape), numel());
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  return out;
}

bool Tensor::ResetShape(int64_t rows, int64_t cols) {
  DEEPST_CHECK(rows >= 0 && cols >= 0);
  const int64_t n = rows * cols;
  const bool grew = static_cast<size_t>(n) > data_.capacity();
  data_.resize(static_cast<size_t>(n));
  shape_.resize(2);
  shape_[0] = rows;
  shape_[1] = cols;
  return grew;
}

bool Tensor::ResetShapeLike(const Tensor& like) {
  const int64_t n = like.numel();
  const bool grew = static_cast<size_t>(n) > data_.capacity();
  data_.resize(static_cast<size_t>(n));
  shape_ = like.shape_;
  return grew;
}

float& Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) {
  DEEPST_DCHECK(ndim() == 4);
  DEEPST_DCHECK(n >= 0 && n < shape_[0]);
  DEEPST_DCHECK(c >= 0 && c < shape_[1]);
  DEEPST_DCHECK(h >= 0 && h < shape_[2]);
  DEEPST_DCHECK(w >= 0 && w < shape_[3]);
  const int64_t idx = ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  return data_[static_cast<size_t>(idx)];
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::AddInPlace(const Tensor& other) {
  DEEPST_CHECK(SameShape(other));
  kernels::AxpyAcc(data_.data(), other.data_.data(),
                   static_cast<int64_t>(data_.size()), 1.0f);
}

void Tensor::ScaleInPlace(float s) {
  float* p = data_.data();
  kernels::ElementLoop(static_cast<int64_t>(data_.size()),
                       [p, s](int64_t i) { p[i] *= s; });
}

double Tensor::Sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return acc;
}

double Tensor::Mean() const {
  DEEPST_CHECK_GT(numel(), 0);
  return Sum() / static_cast<double>(numel());
}

float Tensor::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Tensor::AllFinite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

int64_t Tensor::ArgMax() const {
  DEEPST_CHECK_GT(numel(), 0);
  int64_t best = 0;
  for (int64_t i = 1; i < numel(); ++i) {
    if (data_[static_cast<size_t>(i)] > data_[static_cast<size_t>(best)]) {
      best = i;
    }
  }
  return best;
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << ShapeString() << " {";
  const int64_t n = std::min(max_elems, numel());
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (n < numel()) os << ", ...";
  os << '}';
  return os.str();
}

Tensor SoftmaxRows(const Tensor& logits) {
  DEEPST_CHECK_EQ(logits.ndim(), 2);
  Tensor out = logits;
  kernels::SoftmaxRowsTo(logits.data(), out.data(), logits.dim(0),
                         logits.dim(1));
  return out;
}

Tensor LogSoftmaxRows(const Tensor& logits) {
  DEEPST_CHECK_EQ(logits.ndim(), 2);
  Tensor out = logits;
  kernels::LogSoftmaxRowsTo(logits.data(), out.data(), logits.dim(0),
                            logits.dim(1));
  return out;
}

}  // namespace nn
}  // namespace deepst
