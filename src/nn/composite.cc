#include "nn/composite.h"

#include "nn/activation_memo.h"
#include "tensor/tensor_ops.h"

namespace qcore {

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  QCORE_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::Forward(const Tensor& x, bool training) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->Forward(h, training);
  return h;
}

Tensor Sequential::MemoForward(const Tensor& x, ActivationMemo* memo) {
  // On the dirty path the children before the dirty one are unchanged:
  // resume from the dirty child's memoised input. Slot j holds the input of
  // child j (j > 0).
  size_t first = 0;
  if (memo->OnDirtyPath(this)) {
    while (!memo->OnDirtyPath(layers_[first].get())) ++first;
  }
  const Tensor* in =
      first == 0 ? &x : &memo->Get(this, static_cast<int>(first));
  Tensor h;
  for (size_t j = first; j < layers_.size(); ++j) {
    if (j > first && memo->Editable(layers_[j].get())) {
      memo->Put(this, static_cast<int>(j), h);
    }
    h = layers_[j]->MemoForward(*in, memo);
    in = &h;
  }
  return h;
}

Tensor Sequential::Backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::Buffers() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* b : layer->Buffers()) out.push_back(b);
  }
  return out;
}

std::unique_ptr<Layer> Sequential::Clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) copy->Add(layer->Clone());
  return copy;
}

std::string Sequential::name() const {
  return "sequential[" + std::to_string(layers_.size()) + "]";
}

// ---------------------------------------------------------------------------
// Residual
// ---------------------------------------------------------------------------

Residual::Residual(std::unique_ptr<Layer> body,
                   std::unique_ptr<Layer> shortcut)
    : body_(std::move(body)), shortcut_(std::move(shortcut)) {
  QCORE_CHECK(body_ != nullptr);
}

Tensor Residual::AddSkip(Tensor main, const Tensor& skip) {
  QCORE_CHECK_MSG(main.SameShape(skip),
                  "residual body/shortcut shape mismatch");
  AddInPlace(&main, skip);
  return main;
}

Tensor Residual::Forward(const Tensor& x, bool training) {
  Tensor main = body_->Forward(x, training);
  if (!shortcut_) return AddSkip(std::move(main), x);
  return AddSkip(std::move(main), shortcut_->Forward(x, training));
}

Tensor Residual::MemoForward(const Tensor& x, ActivationMemo* memo) {
  // On the dirty path only the dirty side is recomputed; the other side's
  // output is memoised (slot 0: body, slot 1: projection shortcut).
  const bool body_dirty = memo->OnDirtyPath(body_.get());
  const bool shortcut_dirty = shortcut_ && memo->OnDirtyPath(shortcut_.get());
  Tensor main;
  if (shortcut_dirty) {
    main = memo->Get(this, 0);
  } else {
    main = body_->MemoForward(x, memo);
    if (shortcut_ && memo->Editable(shortcut_.get())) memo->Put(this, 0, main);
  }
  if (!shortcut_) return AddSkip(std::move(main), x);
  if (body_dirty) return AddSkip(std::move(main), memo->Get(this, 1));
  Tensor skip = shortcut_->MemoForward(x, memo);
  if (memo->Editable(body_.get())) memo->Put(this, 1, skip);
  return AddSkip(std::move(main), skip);
}

Tensor Residual::Backward(const Tensor& grad_out) {
  Tensor grad_in = body_->Backward(grad_out);
  if (shortcut_) {
    AddInPlace(&grad_in, shortcut_->Backward(grad_out));
  } else {
    AddInPlace(&grad_in, grad_out);
  }
  return grad_in;
}

std::vector<Parameter*> Residual::Params() {
  std::vector<Parameter*> out = body_->Params();
  if (shortcut_) {
    for (Parameter* p : shortcut_->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Residual::Buffers() {
  std::vector<Tensor*> out = body_->Buffers();
  if (shortcut_) {
    for (Tensor* b : shortcut_->Buffers()) out.push_back(b);
  }
  return out;
}

std::unique_ptr<Layer> Residual::Clone() const {
  return std::make_unique<Residual>(body_->Clone(),
                                    shortcut_ ? shortcut_->Clone() : nullptr);
}

// ---------------------------------------------------------------------------
// ParallelConcat
// ---------------------------------------------------------------------------

ParallelConcat::ParallelConcat(std::vector<std::unique_ptr<Layer>> branches)
    : branches_(std::move(branches)) {
  QCORE_CHECK(!branches_.empty());
  for (const auto& b : branches_) QCORE_CHECK(b != nullptr);
}

Tensor ParallelConcat::Forward(const Tensor& x, bool training) {
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());
  for (auto& branch : branches_) outs.push_back(branch->Forward(x, training));
  return Concat(outs);
}

Tensor ParallelConcat::MemoForward(const Tensor& x, ActivationMemo* memo) {
  // On the dirty path only the dirty branch is recomputed and patched into
  // the memoised concatenation (slot 0).
  Tensor out;
  if (memo->OnDirtyPath(this)) {
    out = memo->Get(this, 0);
    for (size_t b = 0; b < branches_.size(); ++b) {
      if (memo->OnDirtyPath(branches_[b].get())) {
        CopyBranch(b, branches_[b]->MemoForward(x, memo), &out);
      }
    }
  } else {
    std::vector<Tensor> outs;
    outs.reserve(branches_.size());
    for (auto& branch : branches_) {
      outs.push_back(branch->MemoForward(x, memo));
    }
    out = Concat(outs);
  }
  if (memo->Editable(this)) memo->Put(this, 0, out);
  return out;
}

Tensor ParallelConcat::Concat(const std::vector<Tensor>& outs) {
  branch_channels_.clear();
  int64_t total_channels = 0;
  for (const Tensor& o : outs) {
    QCORE_CHECK_GE(o.ndim(), 3);
    branch_channels_.push_back(o.dim(1));
    total_channels += o.dim(1);
  }
  // Validate non-channel axes agree.
  for (size_t b = 1; b < outs.size(); ++b) {
    QCORE_CHECK_EQ(outs[b].ndim(), outs[0].ndim());
    QCORE_CHECK_EQ(outs[b].dim(0), outs[0].dim(0));
    for (int d = 2; d < outs[0].ndim(); ++d) {
      QCORE_CHECK_EQ(outs[b].dim(d), outs[0].dim(d));
    }
  }

  std::vector<int64_t> out_shape = outs[0].shape();
  out_shape[1] = total_channels;
  Tensor out(out_shape);
  for (size_t b = 0; b < outs.size(); ++b) CopyBranch(b, outs[b], &out);
  return out;
}

void ParallelConcat::CopyBranch(size_t b, const Tensor& branch_out,
                                Tensor* out) const {
  int64_t ch_off = 0;
  for (size_t i = 0; i < b; ++i) ch_off += branch_channels_[i];
  const int64_t bc = branch_channels_[b];
  const int64_t total_channels = out->dim(1);
  QCORE_CHECK_EQ(branch_out.dim(1), bc);
  QCORE_CHECK_EQ(branch_out.size(), out->size() / total_channels * bc);
  const int64_t n = out->dim(0);
  const int64_t spatial = out->size() / (n * total_channels);
  const float* src = branch_out.data();
  float* po = out->data();
  for (int64_t i = 0; i < n; ++i) {
    std::copy(src + i * bc * spatial, src + (i + 1) * bc * spatial,
              po + (i * total_channels + ch_off) * spatial);
  }
}

Tensor ParallelConcat::Backward(const Tensor& grad_out) {
  QCORE_CHECK_MSG(!branch_channels_.empty(), "Backward before Forward");
  const int64_t n = grad_out.dim(0);
  const int64_t total_channels = grad_out.dim(1);
  int64_t spatial = 1;
  for (int d = 2; d < grad_out.ndim(); ++d) spatial *= grad_out.dim(d);

  Tensor grad_in;
  int64_t ch_off = 0;
  for (size_t b = 0; b < branches_.size(); ++b) {
    const int64_t bc = branch_channels_[b];
    std::vector<int64_t> gshape = grad_out.shape();
    gshape[1] = bc;
    Tensor branch_grad(gshape);
    float* dst = branch_grad.data();
    const float* src = grad_out.data();
    for (int64_t i = 0; i < n; ++i) {
      const float* s = src + (i * total_channels + ch_off) * spatial;
      std::copy(s, s + bc * spatial, dst + i * bc * spatial);
    }
    Tensor g = branches_[b]->Backward(branch_grad);
    if (b == 0) {
      grad_in = std::move(g);
    } else {
      AddInPlace(&grad_in, g);
    }
    ch_off += bc;
  }
  QCORE_CHECK_EQ(ch_off, total_channels);
  return grad_in;
}

std::vector<Parameter*> ParallelConcat::Params() {
  std::vector<Parameter*> out;
  for (auto& b : branches_) {
    for (Parameter* p : b->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> ParallelConcat::Buffers() {
  std::vector<Tensor*> out;
  for (auto& b : branches_) {
    for (Tensor* t : b->Buffers()) out.push_back(t);
  }
  return out;
}

std::unique_ptr<Layer> ParallelConcat::Clone() const {
  std::vector<std::unique_ptr<Layer>> copies;
  copies.reserve(branches_.size());
  for (const auto& b : branches_) copies.push_back(b->Clone());
  return std::make_unique<ParallelConcat>(std::move(copies));
}

std::string ParallelConcat::name() const {
  return "parallel_concat[" + std::to_string(branches_.size()) + "]";
}

}  // namespace qcore
