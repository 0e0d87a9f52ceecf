// QCore update (paper Algorithm 4): when a stream batch arrives, the current
// QCore is scaled up to the batch size, combined with the batch, and a new
// fixed-size QCore is resampled according to the quantization misses
// observed while the model calibrates. This keeps old and new knowledge in
// one stable-sized structure — no separate rehearsal buffer.
#ifndef QCORE_CORE_QCORE_UPDATE_H_
#define QCORE_CORE_QCORE_UPDATE_H_

#include <vector>

#include "data/dataset.h"
#include "quant/quantized_model.h"

namespace qcore {

// Builds the update pool D'_c ∪ D_t of Algorithm 4 line 4: the QCore
// replicated to (at least) the stream batch size, concatenated with the
// batch.
Dataset MakeUpdatePool(const Dataset& qcore, const Dataset& batch, Rng* rng);

// Resamples a QCore of `size` examples from `pool`, stratified by the given
// per-example miss counts (Algorithm 4 lines 11-12).
Dataset ResampleQCore(const Dataset& pool, const std::vector<int>& misses,
                      int size, Rng* rng);

// Examples of `after` that `before` does not hold: the size of the multiset
// difference after - before, matching examples by (row bytes, label). A
// resample that keeps k of the old examples replaces after.size() - k.
int CountReplaced(const Dataset& before, const Dataset& after);

// Standalone Algorithm 4 (no bit-flip interleaving): runs `epochs` inference
// passes of `qm` over the pool, counting quantization misses, and resamples
// a QCore of qcore.size(). The continual driver uses the interleaved form;
// this variant supports isolated testing and the NoBF ablation.
struct QCoreUpdateOptions {
  int epochs = 3;
};

Dataset UpdateQCore(QuantizedModel* qm, const Dataset& qcore,
                    const Dataset& batch, const QCoreUpdateOptions& options,
                    Rng* rng);

}  // namespace qcore

#endif  // QCORE_CORE_QCORE_UPDATE_H_
