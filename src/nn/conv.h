// 1-D and 2-D convolution layers on the blocked GEMM substrate
// (tensor/kernels.h): the forward pass and the weight gradient are implicit
// GEMMs whose B panels are packed straight from the input, and the input
// gradient folds a GEMM result back with col2im. The scalar direct-loop
// implementations survive as qcore::naive::Conv{1,2}dForward/Backward — the
// oracle for kernels_test and the baseline for the perf CI gate.
#ifndef QCORE_NN_CONV_H_
#define QCORE_NN_CONV_H_

#include <memory>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "nn/layer.h"
#include "tensor/kernels.h"

namespace qcore {

// Temporal convolution: x [N, C, L] -> [N, F, Lo] with
// Lo = (L + 2*pad - kernel) / stride + 1. Weight is [F, C, K], bias [F].
class Conv1d : public Layer {
 public:
  Conv1d(int64_t in_channels, int64_t out_channels, int kernel, int stride,
         int pad, Rng* rng);

  // Padding that preserves length for stride 1 and odd kernels.
  static int SamePad(int kernel) { return (kernel - 1) / 2; }

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  const Tensor* cached_input() const override {
    return cached_input_.size() > 0 ? &cached_input_ : nullptr;
  }
  void ReleaseCaches() override { cached_input_ = Tensor(); }

 private:
  Conv1d(int64_t ic, int64_t oc, int k, int s, int p)
      : in_channels_(ic), out_channels_(oc), kernel_(k), stride_(s), pad_(p) {}

  // The input of n samples of length l as Gemm's implicit B operand.
  kernels::ConvInput LoweredInput(const float* x, int64_t n, int64_t l) const;

  int64_t in_channels_;
  int64_t out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
  // Backward's per-sample dcol buffer, persisted across calls on the same
  // layer. Grown on demand, never shrunk, zero-filled before every use, so
  // reuse cannot leak state between calls. The forward pass and the weight
  // gradient need no lowering buffer: Gemm packs their B panels straight
  // from the input. Not cloned: layers are not internally synchronized
  // anyway (see serving/session.h), so the scratch adds no new threading
  // constraint.
  AlignedFloatVec dcol_scratch_;
};

// Spatial convolution with square kernels: x [N, C, H, W] -> [N, F, Ho, Wo].
// Weight is [F, C, K, K], bias [F].
class Conv2d : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int kernel, int stride,
         int pad, Rng* rng);

  static int SamePad(int kernel) { return (kernel - 1) / 2; }

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;
  const Tensor* cached_input() const override {
    return cached_input_.size() > 0 ? &cached_input_ : nullptr;
  }
  void ReleaseCaches() override { cached_input_ = Tensor(); }

 private:
  Conv2d(int64_t ic, int64_t oc, int k, int s, int p)
      : in_channels_(ic), out_channels_(oc), kernel_(k), stride_(s), pad_(p) {}

  // The input of n samples of h x w as Gemm's implicit B operand.
  kernels::ConvInput LoweredInput(const float* x, int64_t n, int64_t h,
                                  int64_t w) const;

  int64_t in_channels_;
  int64_t out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
  // Backward's dcol buffer; see the Conv1d note.
  AlignedFloatVec dcol_scratch_;
};

}  // namespace qcore

#endif  // QCORE_NN_CONV_H_
