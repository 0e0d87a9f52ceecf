// Composite layers: Sequential (the model container), Residual (skip
// connections for ResNet/InceptionTime), and ParallelConcat (multi-branch
// blocks with channel concatenation, used by InceptionTime/OmniScaleCNN).
#ifndef QCORE_NN_COMPOSITE_H_
#define QCORE_NN_COMPOSITE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace qcore {

class Sequential : public Layer {
 public:
  Sequential() = default;

  // Appends a layer; returns *this for fluent building.
  Sequential& Add(std::unique_ptr<Layer> layer);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor MemoForward(const Tensor& x, ActivationMemo* memo) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override;
  std::vector<Tensor*> Buffers() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;
  void ForEachChild(const std::function<void(Layer*)>& fn) override {
    for (auto& l : layers_) fn(l.get());
  }

  size_t size() const { return layers_.size(); }
  Layer* layer(size_t i) {
    QCORE_CHECK_LT(i, layers_.size());
    return layers_[i].get();
  }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// y = body(x) + shortcut(x); shortcut may be null (identity — requires the
// body to preserve shape). The classic pre-activation-free residual block:
// any inner ReLU/BN lives inside `body`.
class Residual : public Layer {
 public:
  Residual(std::unique_ptr<Layer> body, std::unique_ptr<Layer> shortcut);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor MemoForward(const Tensor& x, ActivationMemo* memo) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override;
  std::vector<Tensor*> Buffers() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return "residual"; }
  void ForEachChild(const std::function<void(Layer*)>& fn) override {
    fn(body_.get());
    if (shortcut_) fn(shortcut_.get());
  }

 private:
  // main + skip, the combine step of Forward and MemoForward.
  static Tensor AddSkip(Tensor main, const Tensor& skip);

  std::unique_ptr<Layer> body_;
  std::unique_ptr<Layer> shortcut_;  // may be null
};

// Runs each branch on the same input and concatenates branch outputs along
// the channel axis (axis 1). All branches must produce outputs that agree on
// every axis except channels. Works for [N, C, L] and [N, C, H, W].
class ParallelConcat : public Layer {
 public:
  explicit ParallelConcat(std::vector<std::unique_ptr<Layer>> branches);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor MemoForward(const Tensor& x, ActivationMemo* memo) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Params() override;
  std::vector<Tensor*> Buffers() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override;
  void ForEachChild(const std::function<void(Layer*)>& fn) override {
    for (auto& b : branches_) fn(b.get());
  }

 private:
  // Concatenates branch outputs along the channel axis (the combine step
  // of Forward and MemoForward); records branch_channels_.
  Tensor Concat(const std::vector<Tensor>& outs);
  // Copies branch `b`'s output into its channel range of `out`.
  void CopyBranch(size_t b, const Tensor& branch_out, Tensor* out) const;

  std::vector<std::unique_ptr<Layer>> branches_;
  std::vector<int64_t> branch_channels_;  // channels of each branch output
};

}  // namespace qcore

#endif  // QCORE_NN_COMPOSITE_H_
