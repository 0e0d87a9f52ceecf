#include "nn/activation_memo.h"

#include <algorithm>
#include <utility>

namespace qcore {

namespace {

// Appends `layer` and every layer under it that is in `leaves` or has a
// descendant there, children before parents. Returns whether `layer` was
// appended.
bool MarkAncestors(Layer* layer, const std::vector<const Layer*>& leaves,
                   std::vector<const Layer*>* out) {
  bool marked =
      std::find(leaves.begin(), leaves.end(), layer) != leaves.end();
  layer->ForEachChild([&](Layer* child) {
    marked = MarkAncestors(child, leaves, out) || marked;
  });
  if (marked) out->push_back(layer);
  return marked;
}

bool Contains(const std::vector<const Layer*>& set, const Layer* layer) {
  return std::find(set.begin(), set.end(), layer) != set.end();
}

}  // namespace

Tensor ActivationMemo::Record(Layer* root,
                              const std::vector<const Layer*>& editable,
                              const Tensor& x) {
  QCORE_CHECK(root != nullptr);
  QCORE_CHECK_MSG(!open_, "Record before Accept/Reject");
  root_ = root;
  editable_.clear();
  MarkAncestors(root, editable, &editable_);
  dirty_path_.clear();
  num_slots_ = 0;
  recording_ = true;
  Tensor out = root->MemoForward(x, this);
  recording_ = false;
  return out;
}

Tensor ActivationMemo::Recompute(const Tensor& x, const Layer* dirty) {
  QCORE_CHECK(root_ != nullptr);
  QCORE_CHECK_MSG(!open_, "Recompute before Accept/Reject");
  QCORE_CHECK_MSG(Editable(dirty), "dirty layer is not an editable leaf");
  dirty_path_.clear();
  MarkAncestors(root_, {dirty}, &dirty_path_);
  open_ = true;
  return root_->MemoForward(x, this);
}

void ActivationMemo::Accept() {
  QCORE_CHECK(open_);
  for (size_t i = 0; i < num_slots_; ++i) {
    if (slots_[i].pending) std::swap(slots_[i].value, slots_[i].staged);
    slots_[i].pending = false;
  }
  open_ = false;
}

void ActivationMemo::Reject() {
  QCORE_CHECK(open_);
  for (size_t i = 0; i < num_slots_; ++i) slots_[i].pending = false;
  open_ = false;
}

bool ActivationMemo::OnDirtyPath(const Layer* layer) const {
  return Contains(dirty_path_, layer);
}

bool ActivationMemo::Editable(const Layer* layer) const {
  return Contains(editable_, layer);
}

ActivationMemo::Slot* ActivationMemo::Find(const Layer* owner, int index) {
  for (size_t i = 0; i < num_slots_; ++i) {
    if (slots_[i].owner == owner && slots_[i].index == index) {
      return &slots_[i];
    }
  }
  return nullptr;
}

const Tensor& ActivationMemo::Get(const Layer* owner, int index) {
  const Slot* slot = Find(owner, index);
  QCORE_CHECK_MSG(slot != nullptr, "activation was not recorded");
  return slot->value;
}

void ActivationMemo::Put(const Layer* owner, int index, const Tensor& value) {
  if (recording_) {
    if (num_slots_ == slots_.size()) slots_.emplace_back();
    Slot& slot = slots_[num_slots_++];
    slot.owner = owner;
    slot.index = index;
    slot.value = value;  // copies into the slot's existing buffer
    return;
  }
  Slot* slot = Find(owner, index);
  QCORE_CHECK_MSG(slot != nullptr, "activation was not recorded");
  slot->staged = value;
  slot->pending = true;
}

}  // namespace qcore
