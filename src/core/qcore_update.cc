#include "core/qcore_update.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "core/quant_miss.h"
#include "nn/training.h"

namespace qcore {

Dataset MakeUpdatePool(const Dataset& qcore, const Dataset& batch, Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  QCORE_CHECK(!qcore.empty());
  if (batch.empty()) return qcore;
  // Algorithm 4 line 4 scales D'_c to exactly |D_t|: replicate when the
  // QCore is smaller, subsample when it is larger. The pool is therefore
  // always balanced between retained and incoming knowledge, independent of
  // the QCore size.
  Dataset scaled =
      qcore.size() <= batch.size()
          ? qcore.ReplicateTo(batch.size(), rng)
          : qcore.Subset(rng->SampleWithoutReplacement(qcore.size(),
                                                       batch.size()));
  return Dataset::Concat(scaled, batch);
}

Dataset ResampleQCore(const Dataset& pool, const std::vector<int>& misses,
                      int size, Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  QCORE_CHECK_EQ(static_cast<int>(misses.size()), pool.size());
  if (size <= pool.size()) {
    return pool.Subset(SampleByMissDistribution(misses, size, rng));
  }
  // QCore larger than the update pool (big memory budget, small stream
  // batches): keep the whole pool and top up with uniform duplicates.
  std::vector<int> indices(static_cast<size_t>(pool.size()));
  for (int i = 0; i < pool.size(); ++i) indices[static_cast<size_t>(i)] = i;
  for (int i = pool.size(); i < size; ++i) {
    indices.push_back(rng->NextInt(0, pool.size() - 1));
  }
  return pool.Subset(indices);
}

int CountReplaced(const Dataset& before, const Dataset& after) {
  // Key: (label, row bytes), so rows compare bit for bit.
  auto key = [](const Dataset& d, int i) {
    const int64_t row = d.x().size() / d.size();
    const char* bytes =
        reinterpret_cast<const char*>(d.x().data() + i * row);
    return std::make_pair(d.labels()[static_cast<size_t>(i)],
                          std::string(bytes, static_cast<size_t>(row) *
                                                 sizeof(float)));
  };
  std::map<std::pair<int, std::string>, int> held;
  for (int i = 0; i < before.size(); ++i) ++held[key(before, i)];
  int replaced = 0;
  for (int i = 0; i < after.size(); ++i) {
    auto it = held.find(key(after, i));
    if (it != held.end() && it->second > 0) {
      --it->second;
    } else {
      ++replaced;
    }
  }
  return replaced;
}

Dataset UpdateQCore(QuantizedModel* qm, const Dataset& qcore,
                    const Dataset& batch, const QCoreUpdateOptions& options,
                    Rng* rng) {
  QCORE_CHECK(qm != nullptr && rng != nullptr);
  QCORE_CHECK_GT(options.epochs, 0);
  const Dataset pool = MakeUpdatePool(qcore, batch, rng);
  QuantMissTracker tracker(pool.size(), 1);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const std::vector<int> preds = Predict(qm->model(), pool.x());
    std::vector<bool> correct(static_cast<size_t>(pool.size()));
    for (int i = 0; i < pool.size(); ++i) {
      correct[static_cast<size_t>(i)] =
          preds[static_cast<size_t>(i)] ==
          pool.labels()[static_cast<size_t>(i)];
    }
    tracker.ObserveAll(0, correct);
  }
  return ResampleQCore(pool, tracker.misses(0), qcore.size(), rng);
}

}  // namespace qcore
