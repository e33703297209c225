#include "nn/conv_ops.h"

#include <cmath>

#include "nn/kernels.h"

namespace deepst {
namespace nn {
namespace ops {
namespace {

VarPtr MakeNode(Tensor value, std::vector<VarPtr> parents,
                std::function<void(Variable*)> backward) {
  VarPtr out = MakeVar(std::move(value));
  if (!GradEnabled()) return out;  // inference: plain value node
  out->SetParents(std::move(parents));
  if (out->requires_grad()) out->SetBackwardFn(std::move(backward));
  return out;
}

thread_local BnStatsLog* t_bn_log = nullptr;

}  // namespace

void BnStatsLog::Record(BatchNormState* state, const Tensor& mean,
                        const Tensor& var) {
  if (used_ == entries_.size()) entries_.emplace_back();
  Entry& e = entries_[used_++];
  e.state = state;
  e.mean.assign(mean.data(), mean.data() + mean.numel());
  e.var.assign(var.data(), var.data() + var.numel());
}

void BnStatsLog::Apply() const {
  for (size_t i = 0; i < used_; ++i) {
    const Entry& e = entries_[i];
    BatchNormState* state = e.state;
    const float momentum = state->momentum;
    for (size_t c = 0; c < e.mean.size(); ++c) {
      const int64_t ci = static_cast<int64_t>(c);
      state->running_mean[ci] = (1.0f - momentum) * state->running_mean[ci] +
                                momentum * e.mean[c];
      state->running_var[ci] = (1.0f - momentum) * state->running_var[ci] +
                               momentum * e.var[c];
    }
  }
}

ScopedBnStatsLog::ScopedBnStatsLog(BnStatsLog* log) : prev_(t_bn_log) {
  t_bn_log = log;
}

ScopedBnStatsLog::~ScopedBnStatsLog() { t_bn_log = prev_; }

BnStatsLog* ActiveBnStatsLog() { return t_bn_log; }

VarPtr Conv2d(const VarPtr& x, const VarPtr& w, const VarPtr& b, int stride,
              int pad) {
  const Tensor& xv = x->value();
  const Tensor& wv = w->value();
  DEEPST_CHECK_EQ(xv.ndim(), 4);
  DEEPST_CHECK_EQ(wv.ndim(), 4);
  DEEPST_CHECK_EQ(xv.dim(1), wv.dim(1));
  DEEPST_CHECK_GE(stride, 1);
  DEEPST_CHECK_GE(pad, 0);
  const int64_t batch = xv.dim(0), h = xv.dim(2), w_in = xv.dim(3);
  const int64_t cout = wv.dim(0), kh = wv.dim(2), kw = wv.dim(3);
  const int64_t h_out = (h + 2 * pad - kh) / stride + 1;
  const int64_t w_out = (w_in + 2 * pad - kw) / stride + 1;
  DEEPST_CHECK_GT(h_out, 0);
  DEEPST_CHECK_GT(w_out, 0);

  Tensor out = Tensor::Zeros({batch, cout, h_out, w_out});
  std::vector<VarPtr> parents = {x, w};
  const Tensor* bias = nullptr;
  if (b != nullptr) {
    DEEPST_CHECK_EQ(b->value().numel(), cout);
    bias = &b->value();
    parents.push_back(b);
  }
  kernels::Conv2dForward(xv, wv, bias, stride, pad, &out);
  const bool has_bias = b != nullptr;
  return MakeNode(
      std::move(out), std::move(parents), [=](Variable* node) {
        const Tensor& g = node->grad();
        const auto& ps = node->parents();
        const Tensor& xv = ps[0]->value();
        const Tensor& wv = ps[1]->value();
        Tensor* dx = ps[0]->requires_grad() ? &ps[0]->grad() : nullptr;
        Tensor* dw = ps[1]->requires_grad() ? &ps[1]->grad() : nullptr;
        Tensor* db = has_bias && ps[2]->requires_grad() ? &ps[2]->grad()
                                                        : nullptr;
        kernels::Conv2dBackward(xv, wv, g, stride, pad, dx, dw, db);
      });
}

VarPtr BatchNorm2d(const VarPtr& x, const VarPtr& gamma, const VarPtr& beta,
                   BatchNormState* state, bool training) {
  const Tensor& xv = x->value();
  DEEPST_CHECK_EQ(xv.ndim(), 4);
  const int64_t batch = xv.dim(0), ch = xv.dim(1), h = xv.dim(2),
                w = xv.dim(3);
  DEEPST_CHECK_EQ(gamma->value().numel(), ch);
  DEEPST_CHECK_EQ(beta->value().numel(), ch);
  DEEPST_CHECK_EQ(state->running_mean.numel(), ch);
  const int64_t count = batch * h * w;
  DEEPST_CHECK_GT(count, 0);
  const float eps = state->eps;
  const int64_t plane = h * w;

  // All loops below partition over channels: each channel owns its stats,
  // running-stat slots, and strided x/out planes, so the partition is
  // race-free and deterministic.
  Tensor mean({ch}), var({ch});
  if (training) {
    kernels::HeavyLoop(ch, [&](int64_t c) {
      double m = 0.0;
      for (int64_t n = 0; n < batch; ++n) {
        const float* plane_p = xv.data() + (n * ch + c) * plane;
        for (int64_t i = 0; i < plane; ++i) m += plane_p[i];
      }
      m /= static_cast<double>(count);
      double v = 0.0;
      for (int64_t n = 0; n < batch; ++n) {
        const float* plane_p = xv.data() + (n * ch + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          const double d = plane_p[i] - m;
          v += d * d;
        }
      }
      v /= static_cast<double>(count);
      mean[c] = static_cast<float>(m);
      var[c] = static_cast<float>(v);
    });
    // Running-stat EMA update. The running stats never enter the
    // training-mode math above/below, so the update can be deferred: a
    // sharded trainer logs it (and replays the logs in shard order after
    // the join); otherwise it applies in place, same values either way.
    if (BnStatsLog* log = ActiveBnStatsLog()) {
      log->Record(state, mean, var);
    } else {
      const float momentum = state->momentum;
      for (int64_t c = 0; c < ch; ++c) {
        state->running_mean[c] = (1.0f - momentum) * state->running_mean[c] +
                                 momentum * mean[c];
        state->running_var[c] = (1.0f - momentum) * state->running_var[c] +
                                momentum * var[c];
      }
    }
  } else {
    mean = state->running_mean;
    var = state->running_var;
  }

  // xhat = (x - mean)/sqrt(var+eps); y = gamma*xhat + beta.
  Tensor xhat(xv.shape());
  Tensor out(xv.shape());
  const Tensor& gv = gamma->value();
  const Tensor& bv = beta->value();
  kernels::HeavyLoop(ch, [&](int64_t c) {
    const float inv_std = 1.0f / std::sqrt(var[c] + eps);
    for (int64_t n = 0; n < batch; ++n) {
      const float* xp = xv.data() + (n * ch + c) * plane;
      float* xhp = xhat.data() + (n * ch + c) * plane;
      float* op = out.data() + (n * ch + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        const float xh = (xp[i] - mean[c]) * inv_std;
        xhp[i] = xh;
        op[i] = gv[c] * xh + bv[c];
      }
    }
  });
  return MakeNode(
      std::move(out), {x, gamma, beta}, [=](Variable* node) {
        const Tensor& g = node->grad();
        const auto& ps = node->parents();
        const Tensor& gv = ps[1]->value();
        // d_beta, d_gamma. The gradient tensors are resolved before the
        // per-channel loop: the first grad() call allocates and zero-fills
        // the storage, which must not happen concurrently in the workers.
        if (ps[1]->requires_grad() || ps[2]->requires_grad()) {
          float* dgamma =
              ps[1]->requires_grad() ? ps[1]->grad().data() : nullptr;
          float* dbeta =
              ps[2]->requires_grad() ? ps[2]->grad().data() : nullptr;
          kernels::HeavyLoop(ch, [&](int64_t c) {
            double dg = 0.0, db = 0.0;
            for (int64_t n = 0; n < batch; ++n) {
              const float* gp = g.data() + (n * ch + c) * plane;
              const float* xhp = xhat.data() + (n * ch + c) * plane;
              for (int64_t i = 0; i < plane; ++i) {
                dg += gp[i] * xhp[i];
                db += gp[i];
              }
            }
            if (dgamma != nullptr) dgamma[c] += static_cast<float>(dg);
            if (dbeta != nullptr) dbeta[c] += static_cast<float>(db);
          });
        }
        if (!ps[0]->requires_grad()) return;
        Tensor& dx = ps[0]->grad();
        if (training) {
          // Full batch-norm backward (batch statistics participate).
          kernels::HeavyLoop(ch, [&](int64_t c) {
            const float inv_std = 1.0f / std::sqrt(var[c] + eps);
            double sum_dy = 0.0, sum_dy_xhat = 0.0;
            for (int64_t n = 0; n < batch; ++n) {
              const float* gp = g.data() + (n * ch + c) * plane;
              const float* xhp = xhat.data() + (n * ch + c) * plane;
              for (int64_t i = 0; i < plane; ++i) {
                sum_dy += gp[i];
                sum_dy_xhat += gp[i] * xhp[i];
              }
            }
            const float m = static_cast<float>(count);
            for (int64_t n = 0; n < batch; ++n) {
              const float* gp = g.data() + (n * ch + c) * plane;
              const float* xhp = xhat.data() + (n * ch + c) * plane;
              float* dxp = dx.data() + (n * ch + c) * plane;
              for (int64_t i = 0; i < plane; ++i) {
                dxp[i] += gv[c] * inv_std / m *
                          (m * gp[i] - static_cast<float>(sum_dy) -
                           xhp[i] * static_cast<float>(sum_dy_xhat));
              }
            }
          });
        } else {
          kernels::HeavyLoop(ch, [&](int64_t c) {
            const float inv_std = 1.0f / std::sqrt(var[c] + eps);
            for (int64_t n = 0; n < batch; ++n) {
              const float* gp = g.data() + (n * ch + c) * plane;
              float* dxp = dx.data() + (n * ch + c) * plane;
              for (int64_t i = 0; i < plane; ++i) {
                dxp[i] += gp[i] * gv[c] * inv_std;
              }
            }
          });
        }
      });
}

VarPtr GlobalAvgPool2d(const VarPtr& x) {
  const Tensor& xv = x->value();
  DEEPST_CHECK_EQ(xv.ndim(), 4);
  const int64_t batch = xv.dim(0), ch = xv.dim(1), h = xv.dim(2),
                w = xv.dim(3);
  const int64_t plane = h * w;
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor out({batch, ch});
  {
    const float* xp = xv.data();
    float* op = out.data();
    kernels::HeavyLoop(batch * ch, [xp, op, plane, inv](int64_t nc) {
      const float* pp = xp + nc * plane;
      double acc = 0.0;
      for (int64_t i = 0; i < plane; ++i) acc += pp[i];
      op[nc] = static_cast<float>(acc) * inv;
    });
  }
  return MakeNode(std::move(out), {x}, [batch, ch, plane, inv](Variable* node) {
    auto& p = node->parents()[0];
    if (!p->requires_grad()) return;
    const Tensor& g = node->grad();
    const float* gp = g.data();
    float* dxp = p->grad().data();
    kernels::HeavyLoop(batch * ch, [gp, dxp, plane, inv](int64_t nc) {
      const float gv = gp[nc] * inv;
      float* pp = dxp + nc * plane;
      for (int64_t i = 0; i < plane; ++i) pp[i] += gv;
    });
  });
}

VarPtr AvgPool2d(const VarPtr& x, int kernel) {
  const Tensor& xv = x->value();
  DEEPST_CHECK_EQ(xv.ndim(), 4);
  DEEPST_CHECK_GE(kernel, 1);
  const int64_t batch = xv.dim(0), ch = xv.dim(1), h = xv.dim(2),
                w = xv.dim(3);
  const int64_t h_out = (h + kernel - 1) / kernel;
  const int64_t w_out = (w + kernel - 1) / kernel;
  Tensor out({batch, ch, h_out, w_out});
  {
    const float* xp = xv.data();
    float* op = out.data();
    kernels::HeavyLoop(batch * ch, [=](int64_t nc) {
      const float* pp = xp + nc * h * w;
      float* orow = op + nc * h_out * w_out;
      for (int64_t oh = 0; oh < h_out; ++oh) {
        for (int64_t ow = 0; ow < w_out; ++ow) {
          double acc = 0.0;
          int cnt = 0;
          const int64_t i_end = std::min<int64_t>(h, (oh + 1) * kernel);
          const int64_t j_end = std::min<int64_t>(w, (ow + 1) * kernel);
          for (int64_t i = oh * kernel; i < i_end; ++i) {
            for (int64_t j = ow * kernel; j < j_end; ++j) {
              acc += pp[i * w + j];
              ++cnt;
            }
          }
          orow[oh * w_out + ow] = static_cast<float>(acc / cnt);
        }
      }
    });
  }
  return MakeNode(std::move(out), {x}, [batch, ch, h, w, h_out, w_out,
                                        kernel](Variable* node) {
    auto& p = node->parents()[0];
    if (!p->requires_grad()) return;
    const Tensor& g = node->grad();
    const float* gp = g.data();
    float* dxp = p->grad().data();
    kernels::HeavyLoop(batch * ch, [=](int64_t nc) {
      const float* grow = gp + nc * h_out * w_out;
      float* pp = dxp + nc * h * w;
      for (int64_t oh = 0; oh < h_out; ++oh) {
        for (int64_t ow = 0; ow < w_out; ++ow) {
          const int64_t i_end = std::min<int64_t>(h, (oh + 1) * kernel);
          const int64_t j_end = std::min<int64_t>(w, (ow + 1) * kernel);
          const int cnt = static_cast<int>((i_end - oh * kernel) *
                                           (j_end - ow * kernel));
          const float gv = grow[oh * w_out + ow] / cnt;
          for (int64_t i = oh * kernel; i < i_end; ++i) {
            for (int64_t j = ow * kernel; j < j_end; ++j) {
              pp[i * w + j] += gv;
            }
          }
        }
      }
    });
  });
}

}  // namespace ops
}  // namespace nn
}  // namespace deepst
