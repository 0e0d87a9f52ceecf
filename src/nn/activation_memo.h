// Incremental eval-mode forward for validating a change to one leaf layer's
// parameters (the bit-flip proposals of Algorithm 3, core/bitflip.h).
//
// In eval mode every layer's output is a pure function of its input bits and
// its own parameters. After a change to the parameters of one leaf, only
// that leaf, its ancestors and everything downstream of them can produce
// different bits; every other subtree would reproduce its previous output
// exactly. ActivationMemo holds those previous outputs, and the composites'
// Layer::MemoForward overrides read them instead of recomputing:
//
//   * Sequential: the children before the dirty one are skipped; the walk
//     resumes from the memoised input of the dirty child.
//   * ParallelConcat: the untouched branches are skipped; the dirty branch's
//     fresh output is patched into the memoised concatenation.
//   * Residual: the untouched side (body or shortcut) is read from the memo.
//
// The result is bit-identical to root->Forward(x, false): the same kernels
// run on the same inputs in the same order, and skipped subtrees are
// replaced by their own earlier output. Only activations some later pass can
// read are held: the input of each Sequential child (other than the first)
// that contains an editable leaf, the output of each ParallelConcat with an
// editable branch, and the side of a Residual opposite an editable side.
//
// Usage: Record() once per input, then any number of Recompute() calls,
// each closed by Accept() (the change is kept; the memo adopts the
// recomputed activations) or Reject() (the caller restores the parameters;
// the recomputed activations are dropped). Slot buffers persist across
// passes and across recordings (of any model), grown on demand and never
// shrunk, so steady-state passes allocate nothing for the memo itself.
// Not thread-safe; one memo serves one forward at a time.
#ifndef QCORE_NN_ACTIVATION_MEMO_H_
#define QCORE_NN_ACTIVATION_MEMO_H_

#include <vector>

#include "nn/layer.h"

namespace qcore {

class ActivationMemo {
 public:
  ActivationMemo() = default;
  ActivationMemo(const ActivationMemo&) = delete;
  ActivationMemo& operator=(const ActivationMemo&) = delete;

  // Full eval-mode forward of `root` on `x` that rebuilds the memo.
  // `editable` lists the leaves whose parameters later passes may change.
  Tensor Record(Layer* root, const std::vector<const Layer*>& editable,
                const Tensor& x);

  // Eval-mode forward of the recorded root on the recorded input `x` after
  // the parameters of `dirty` (one of the editable leaves) changed.
  Tensor Recompute(const Tensor& x, const Layer* dirty);
  void Accept();
  void Reject();

  // For MemoForward overrides. OnDirtyPath is true for the dirty leaf and
  // its ancestors during Recompute, and always false during Record.
  // Editable is true for editable leaves and their ancestors.
  bool OnDirtyPath(const Layer* layer) const;
  bool Editable(const Layer* layer) const;
  // Activation `index` of composite `owner` as of the last Record/Accept.
  const Tensor& Get(const Layer* owner, int index);
  // Sets activation `index` of `owner`: immediately while recording,
  // pending the next Accept while recomputing.
  void Put(const Layer* owner, int index, const Tensor& value);

 private:
  struct Slot {
    const Layer* owner = nullptr;
    int index = 0;
    Tensor value;
    Tensor staged;  // Put during Recompute; becomes `value` on Accept
    bool pending = false;
  };

  Slot* Find(const Layer* owner, int index);

  Layer* root_ = nullptr;
  std::vector<const Layer*> editable_;    // editable leaves + ancestors
  std::vector<const Layer*> dirty_path_;  // root .. dirty leaf
  // slots_[0, num_slots_) belong to the current recording; the rest keep
  // their buffers for the next one.
  std::vector<Slot> slots_;
  size_t num_slots_ = 0;
  bool recording_ = false;
  bool open_ = false;  // a Recompute awaits Accept/Reject
};

}  // namespace qcore

#endif  // QCORE_NN_ACTIVATION_MEMO_H_
