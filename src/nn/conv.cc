#include "nn/conv.h"

#include <algorithm>
#include <cmath>

#include "common/aligned.h"
#include "tensor/kernels.h"

namespace qcore {

// Both conv layers run on the blocked GEMM substrate as implicit GEMMs: the
// B operand is the lowered ("im2col") matrix of the input, which Gemm's
// packer reads straight from x (kernels::ConvInput), so no column matrix
// is ever built for the forward pass or the weight gradient.
//
// Forward is one GEMM over every sample's output positions. Each output
// element is bias + its ascending-k FMA chain regardless of which sample
// shares its tile, so per-sample results are bit-identical however rows
// were batched (the serving batcher's bit-identity property). Backward
// stays per sample, in batch order, so gradient accumulation order is
// fixed.

namespace {

// out[n, F, S] = bias + W[F, P] * col(in) with S = in.out_h * in.out_w.
// The GEMM fills C[F, n*S]: bias first, then the product, then a scatter
// to sample-major order. A single sample's C already has the output
// layout, so it is computed in place.
void ConvForward(const Tensor& weight, const Tensor& bias,
                 const kernels::ConvInput& in, float* out) {
  const int64_t f = weight.dim(0);
  const int64_t p = in.rows();
  const int64_t cols = in.cols();
  const int64_t s = in.out_h() * in.out_w();
  // Scratch is per thread, like Gemm's pack buffers: concurrent sessions
  // never share it, and its footprint scales with threads, not models.
  thread_local AlignedFloatVec scratch;
  float* c = out;
  if (in.n > 1) {
    if (scratch.size() < static_cast<size_t>(f * cols)) {
      scratch.resize(static_cast<size_t>(f * cols));
    }
    c = scratch.data();
  }
  const float* pb = bias.data();
  for (int64_t fo = 0; fo < f; ++fo) {
    std::fill(c + fo * cols, c + (fo + 1) * cols, pb[fo]);
  }
  kernels::Gemm(f, cols, p, weight.data(), p, /*trans_a=*/false, in,
                /*trans_b=*/false, c, cols);
  if (c == out) return;
  for (int64_t i = 0; i < in.n; ++i) {
    for (int64_t fo = 0; fo < f; ++fo) {
      const float* src = c + fo * cols + i * s;
      std::copy(src, src + s, out + (i * f + fo) * s);
    }
  }
}

// The per-sample backward products: accumulates dW[F, P] += dY_i * col_i^T
// and db += row sums of dY_i, and leaves dcol[P, S] = W^T * dY_i for the
// caller's col2im. `sample` is the conv input of sample i alone (n = 1).
void ConvBackwardSample(Parameter* weight, Parameter* bias,
                        const kernels::ConvInput& sample, const float* gplane,
                        float* dcol) {
  const int64_t f = weight->value.dim(0);
  const int64_t p = sample.rows();
  const int64_t s = sample.cols();
  float* pdb = bias->grad.data();
  // Bias gradient: plain row sums, double accumulator (reduction policy).
  for (int64_t fo = 0; fo < f; ++fo) {
    double db = 0.0;
    for (int64_t o = 0; o < s; ++o) db += gplane[fo * s + o];
    pdb[fo] += static_cast<float>(db);
  }
  // dW[F, P] += dY_i[F, S] * col_i[P, S]^T, on top of running grads.
  kernels::Gemm(f, p, s, gplane, s, /*trans_a=*/false, sample,
                /*trans_b=*/true, weight->grad.data(), p);
  // dcol[P, S] = W[F, P]^T * dY_i[F, S].
  std::fill(dcol, dcol + p * s, 0.0f);
  kernels::Gemm(p, s, f, weight->value.data(), p, /*trans_a=*/true, gplane, s,
                /*trans_b=*/false, dcol, s);
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

Conv1d::Conv1d(int64_t in_channels, int64_t out_channels, int kernel,
               int stride, int pad, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  QCORE_CHECK_GT(in_channels, 0);
  QCORE_CHECK_GT(out_channels, 0);
  QCORE_CHECK_GT(kernel, 0);
  QCORE_CHECK_GT(stride, 0);
  QCORE_CHECK_GE(pad, 0);
  QCORE_CHECK(rng != nullptr);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_channels * kernel));
  weight_ = Parameter(
      "conv1d.weight",
      Tensor::Randn({out_channels, in_channels, kernel}, rng, stddev));
  bias_ = Parameter("conv1d.bias", Tensor::Zeros({out_channels}));
}

Tensor Conv1d::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_EQ(x.ndim(), 3);
  QCORE_CHECK_EQ(x.dim(1), in_channels_);
  const int64_t n = x.dim(0), l = x.dim(2);
  const int64_t lo = (l + 2 * pad_ - kernel_) / stride_ + 1;
  QCORE_CHECK_MSG(lo > 0, "conv1d output length would be non-positive");
  if (training) cached_input_ = x;
  Tensor out({n, out_channels_, lo});
  ConvForward(weight_.value, bias_.value, LoweredInput(x.data(), n, l),
              out.data());
  return out;
}

Tensor Conv1d::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const Tensor& x = cached_input_;
  const int64_t n = x.dim(0), c = in_channels_, l = x.dim(2);
  const int64_t lo = grad_out.dim(2);
  QCORE_CHECK_EQ(grad_out.dim(0), n);
  QCORE_CHECK_EQ(grad_out.dim(1), out_channels_);

  Tensor grad_in(x.shape());
  const float* px = x.data();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  const size_t pack_size = static_cast<size_t>(c * kernel_ * lo);
  if (dcol_scratch_.size() < pack_size) dcol_scratch_.resize(pack_size);
  for (int64_t i = 0; i < n; ++i) {
    ConvBackwardSample(&weight_, &bias_,
                       LoweredInput(px + i * c * l, 1, l),
                       pg + i * out_channels_ * lo, dcol_scratch_.data());
    kernels::Col2Im1d(dcol_scratch_.data(), c, l, kernel_, stride_, pad_, lo,
                      pgi + i * c * l);
  }
  return grad_in;
}

kernels::ConvInput Conv1d::LoweredInput(const float* x, int64_t n,
                                        int64_t l) const {
  kernels::ConvInput in;
  in.x = x;
  in.n = n;
  in.c = in_channels_;
  in.w = l;
  in.kernel_w = kernel_;
  in.stride = stride_;
  in.pad_w = pad_;
  return in;
}

std::unique_ptr<Layer> Conv1d::Clone() const {
  auto copy = std::unique_ptr<Conv1d>(
      new Conv1d(in_channels_, out_channels_, kernel_, stride_, pad_));
  copy->weight_ = Parameter(weight_.name, weight_.value);
  copy->bias_ = Parameter(bias_.name, bias_.value);
  return copy;
}

std::string Conv1d::name() const {
  return "conv1d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) + ")";
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int kernel,
               int stride, int pad, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  QCORE_CHECK_GT(in_channels, 0);
  QCORE_CHECK_GT(out_channels, 0);
  QCORE_CHECK_GT(kernel, 0);
  QCORE_CHECK_GT(stride, 0);
  QCORE_CHECK_GE(pad, 0);
  QCORE_CHECK(rng != nullptr);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_channels * kernel * kernel));
  weight_ = Parameter(
      "conv2d.weight",
      Tensor::Randn({out_channels, in_channels, kernel, kernel}, rng, stddev));
  bias_ = Parameter("conv2d.bias", Tensor::Zeros({out_channels}));
}

Tensor Conv2d::Forward(const Tensor& x, bool training) {
  QCORE_CHECK_EQ(x.ndim(), 4);
  QCORE_CHECK_EQ(x.dim(1), in_channels_);
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t ho = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const int64_t wo = (w + 2 * pad_ - kernel_) / stride_ + 1;
  QCORE_CHECK_MSG(ho > 0 && wo > 0, "conv2d output would be non-positive");
  if (training) cached_input_ = x;
  Tensor out({n, out_channels_, ho, wo});
  ConvForward(weight_.value, bias_.value, LoweredInput(x.data(), n, h, w),
              out.data());
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const Tensor& x = cached_input_;
  const int64_t n = x.dim(0), c = in_channels_, h = x.dim(2), w = x.dim(3);
  const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  QCORE_CHECK_EQ(grad_out.dim(0), n);
  QCORE_CHECK_EQ(grad_out.dim(1), out_channels_);

  Tensor grad_in(x.shape());
  const float* px = x.data();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  const int64_t howo = ho * wo;
  const size_t pack_size =
      static_cast<size_t>(c * kernel_ * kernel_ * howo);
  if (dcol_scratch_.size() < pack_size) dcol_scratch_.resize(pack_size);
  for (int64_t i = 0; i < n; ++i) {
    ConvBackwardSample(&weight_, &bias_,
                       LoweredInput(px + i * c * h * w, 1, h, w),
                       pg + i * out_channels_ * howo, dcol_scratch_.data());
    kernels::Col2Im2d(dcol_scratch_.data(), c, h, w, kernel_, stride_, pad_,
                      ho, wo, pgi + i * c * h * w);
  }
  return grad_in;
}

kernels::ConvInput Conv2d::LoweredInput(const float* x, int64_t n, int64_t h,
                                        int64_t w) const {
  kernels::ConvInput in;
  in.x = x;
  in.n = n;
  in.c = in_channels_;
  in.h = h;
  in.w = w;
  in.kernel_h = kernel_;
  in.kernel_w = kernel_;
  in.stride = stride_;
  in.pad_h = pad_;
  in.pad_w = pad_;
  return in;
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::unique_ptr<Conv2d>(
      new Conv2d(in_channels_, out_channels_, kernel_, stride_, pad_));
  copy->weight_ = Parameter(weight_.name, weight_.value);
  copy->bias_ = Parameter(bias_.name, bias_.value);
  return copy;
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) + ")";
}

}  // namespace qcore
