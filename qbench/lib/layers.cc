#include "qbench/lib/layers.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/qcore_update.h"
#include "core/quant_miss.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/training.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace qbench {

using qcore::Dataset;
using qcore::QuantizedModel;

namespace {

double SpanMs(int64_t start_ns) {
  return static_cast<double>(SteadyNowNs() - start_ns) / 1e6;
}

}  // namespace

TracedStepper::TracedStepper(QuantizedModel* qm, qcore::BitFlipNet* bf,
                             Dataset qcore,
                             const qcore::ContinualOptions& options,
                             qcore::Rng* rng)
    : qm_(qm), bf_(bf), qcore_(std::move(qcore)), options_(options),
      rng_(rng) {
  QCORE_CHECK(qm_ != nullptr && rng_ != nullptr && !qcore_.empty());
  QCORE_CHECK(bf_ != nullptr || !options_.use_bitflip);
  QCORE_CHECK_GT(options_.iterations, 0);
}

// Must stay the same sequence of calls, with the same arguments and Rng
// draws, as ContinualDriver::ProcessBatch (src/core/continual.cc); the
// self-tests compare the two bit for bit.
StepTrace TracedStepper::Step(const Dataset& batch, const Dataset& test_slice,
                              SpanRecorder* rec) {
  StepTrace t;
  const int64_t step_start = SteadyNowNs();
  ScopedSpan step(rec, "core.step");

  int64_t start = SteadyNowNs();
  Dataset pool;
  {
    ScopedSpan s(rec, "core.pool", step.id());
    pool = qcore::MakeUpdatePool(qcore_, batch, rng_);
  }
  t.pool_ms += SpanMs(start);
  qcore::QuantMissTracker tracker(pool.size(), 1);

  qcore::SetBatchNormFrozen(qm_->model(), true);
  for (int it = 0; it < options_.iterations; ++it) {
    start = SteadyNowNs();
    {
      ScopedSpan s(rec, "core.forward", step.id());
      qcore::Tensor logits = qm_->model()->Forward(pool.x(), true);
      const std::vector<int> preds = qcore::ArgMaxRows(logits);
      std::vector<bool> correct(static_cast<size_t>(pool.size()));
      for (int i = 0; i < pool.size(); ++i) {
        correct[static_cast<size_t>(i)] =
            preds[static_cast<size_t>(i)] ==
            pool.labels()[static_cast<size_t>(i)];
      }
      tracker.ObserveAll(0, correct);
    }
    t.forward_ms += SpanMs(start);

    if (options_.use_bitflip) {
      // The code diff is taken outside the timed call; its cost shows in
      // the traced step's total, i.e. in obs.trace_overhead.
      const auto before = qm_->AllCodes();
      start = SteadyNowNs();
      {
        ScopedSpan s(rec, "core.bitflip", step.id());
        qcore::BitFlipIterationFromCaches(qm_, bf_, pool.x(), pool.labels(),
                                          options_.bf, rng_);
      }
      t.bitflip_ms += SpanMs(start);
      const auto after = qm_->AllCodes();
      ++t.bitflip_calls;
      for (size_t q = 0; q < after.size(); ++q) {
        int64_t changed = 0;
        for (size_t e = 0; e < after[q].size(); ++e) {
          changed += after[q][e] != before[q][e] ? 1 : 0;
        }
        t.codes_changed += changed;
        t.tensors_changed += changed > 0 ? 1 : 0;
      }
      t.tensors_seen += static_cast<int64_t>(after.size());
    }
  }
  qcore::SetBatchNormFrozen(qm_->model(), false);

  if (options_.use_qcore_update) {
    start = SteadyNowNs();
    Dataset updated;
    {
      ScopedSpan s(rec, "core.resample", step.id());
      updated = qcore::ResampleQCore(pool, tracker.misses(0), qcore_.size(),
                                     rng_);
    }
    t.resample_ms += SpanMs(start);
    t.qcore_churn = QCoreChurn(qcore_, updated);
    qcore_ = std::move(updated);
  }

  if (!test_slice.empty()) {
    start = SteadyNowNs();
    ScopedSpan s(rec, "core.eval", step.id());
    t.accuracy = qcore::EvaluateAccuracy(qm_->model(), test_slice.x(),
                                         test_slice.labels());
    t.eval_ms += SpanMs(start);
  }
  t.total_ms = SpanMs(step_start);
  return t;
}

namespace {

std::vector<uint64_t> ExampleHashes(const Dataset& d) {
  std::vector<uint64_t> out;
  if (d.empty()) return out;
  const int64_t row = d.x().size() / d.size();
  for (int i = 0; i < d.size(); ++i) {
    const int label = d.labels()[static_cast<size_t>(i)];
    uint64_t h = Fnv1a(d.x().data() + i * row,
                       static_cast<size_t>(row) * sizeof(float));
    out.push_back(Fnv1a(&label, sizeof(label), h));
  }
  return out;
}

}  // namespace

int QCoreChurn(const Dataset& before, const Dataset& after) {
  std::unordered_map<uint64_t, int> held;
  for (uint64_t h : ExampleHashes(before)) ++held[h];
  int churn = 0;
  for (uint64_t h : ExampleHashes(after)) {
    auto it = held.find(h);
    if (it != held.end() && it->second > 0) {
      --it->second;
    } else {
      ++churn;
    }
  }
  return churn;
}

uint64_t CodesDigest(const QuantizedModel& qm, uint64_t h) {
  if (h == 0) h = Fnv1a(nullptr, 0);
  for (const auto& codes : qm.AllCodes()) {
    h = Fnv1a(codes.data(), codes.size() * sizeof(int32_t), h);
  }
  return h;
}

namespace {

template <typename Fn>
double MedianMs(int reps, const Fn& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const int64_t start = SteadyNowNs();
    fn();
    ms.push_back(SpanMs(start));
  }
  return Quantile(ms, 0.5);
}

}  // namespace

LeafReplay ReplayLeaves(const QuantizedModel& qm, const qcore::Tensor& x,
                        int reps, SpanRecorder* rec) {
  LeafReplay out;
  std::unique_ptr<QuantizedModel> clone = qm.Clone();
  qcore::Layer* root = clone->model();
  // A training forward with BatchNorm frozen fills every conv/dense leaf's
  // input cache with exactly what an eval forward feeds it.
  qcore::SetBatchNormFrozen(root, true);
  (void)root->Forward(x, /*training=*/true);
  qcore::SetBatchNormFrozen(root, false);

  {
    ScopedSpan s(rec, "nn.forward");
    out.forward_ms = MedianMs(reps, [&] { (void)root->Forward(x, false); });
  }
  for (qcore::Layer* leaf : qcore::FlattenLeafLayers(root)) {
    const qcore::Tensor* in = leaf->cached_input();
    if (in == nullptr) continue;
    if (auto* conv = dynamic_cast<qcore::Conv1d*>(leaf)) {
      qcore::Tensor y;
      {
        ScopedSpan s(rec, "nn.conv");
        out.conv_ms += MedianMs(reps, [&] { y = conv->Forward(*in, false); });
      }
      // The per-example GEMM conv1d lowers to: W[F, C*K] x col[C*K, Lo].
      const int64_t m = conv->out_channels();
      const int64_t k = conv->in_channels() * conv->kernel();
      const int64_t n = y.dim(2);
      const qcore::Tensor& w = conv->Params()[0]->value;
      std::vector<float> col(static_cast<size_t>(k * n), 0.5f);
      std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
      ScopedSpan s(rec, "tensor.conv_gemm");
      out.conv_gemm_ms += MedianMs(reps, [&] {
        for (int64_t i = 0; i < in->dim(0); ++i) {
          qcore::kernels::Gemm(m, n, k, w.data(), k, false, col.data(), n,
                               false, c.data(), n);
        }
      });
    } else if (dynamic_cast<qcore::Dense*>(leaf) != nullptr) {
      ScopedSpan s(rec, "nn.dense");
      out.dense_ms += MedianMs(reps, [&] { (void)leaf->Forward(*in, false); });
    }
  }
  out.other_ms = std::max(0.0, out.forward_ms - out.conv_ms - out.dense_ms);
  out.rows_per_s = out.forward_ms > 0.0
                       ? static_cast<double>(x.dim(0)) / out.forward_ms * 1e3
                       : 0.0;
  return out;
}

StageTimes ServingStages(const std::vector<qcore::TraceEvent>& events) {
  using qcore::TraceKind;
  // First timestamp of each (span, kind); first member completion per
  // batched group (complete events of batched members carry the group span
  // in arg1).
  std::unordered_map<uint64_t, std::map<TraceKind, const qcore::TraceEvent*>>
      by_span;
  std::unordered_map<uint64_t, uint64_t> group_first_complete;
  for (const qcore::TraceEvent& ev : events) {
    auto& kinds = by_span[ev.span];
    kinds.emplace(ev.kind, &ev);
    if (ev.kind == TraceKind::kComplete && ev.arg1 != 0) {
      auto [it, inserted] = group_first_complete.emplace(ev.arg1, ev.ts_ns);
      if (!inserted) it->second = std::min(it->second, ev.ts_ns);
    }
  }
  auto ms = [](uint64_t from, uint64_t to) {
    return to >= from ? static_cast<double>(to - from) / 1e6 : 0.0;
  };
  StageTimes st;
  for (const auto& [span, kinds] : by_span) {
    auto at = [&kinds](TraceKind k) -> const qcore::TraceEvent* {
      auto it = kinds.find(k);
      return it != kinds.end() ? it->second : nullptr;
    };
    if (const auto* submit = at(TraceKind::kSubmitInference)) {
      const auto* enqueue = at(TraceKind::kBatchEnqueue);
      const auto* flush = at(TraceKind::kBatchFlush);
      const auto* complete = at(TraceKind::kComplete);
      if (enqueue != nullptr && flush != nullptr && complete != nullptr) {
        auto group = by_span.find(flush->arg1);
        if (group == by_span.end()) continue;
        auto start = group->second.find(TraceKind::kExecStart);
        if (start == group->second.end()) continue;
        const uint64_t first = group_first_complete[flush->arg1];
        st.admission.push_back(ms(submit->ts_ns, enqueue->ts_ns));
        st.batch_wait.push_back(ms(enqueue->ts_ns, flush->ts_ns));
        st.queue_wait.push_back(ms(flush->ts_ns, start->second->ts_ns));
        st.exec.push_back(ms(start->second->ts_ns, first));
        st.deliver.push_back(ms(first, complete->ts_ns));
      } else if (const auto* start = at(TraceKind::kExecStart)) {
        const auto* end = at(TraceKind::kExecEnd);
        if (end == nullptr || complete == nullptr) continue;
        st.admission.push_back(0.0);
        st.batch_wait.push_back(0.0);
        st.queue_wait.push_back(ms(submit->ts_ns, start->ts_ns));
        st.exec.push_back(ms(start->ts_ns, end->ts_ns));
        st.deliver.push_back(ms(end->ts_ns, complete->ts_ns));
      }
    } else if (const auto* submit = at(TraceKind::kSubmitCalibration)) {
      const auto* start = at(TraceKind::kExecStart);
      const auto* end = at(TraceKind::kExecEnd);
      if (start == nullptr || end == nullptr) continue;
      st.calib_queue_wait.push_back(ms(submit->ts_ns, start->ts_ns));
      st.calib_exec.push_back(ms(start->ts_ns, end->ts_ns));
      const auto* publish = at(TraceKind::kSnapshotPublish);
      const auto* wal = at(TraceKind::kWalAppend);
      if (publish != nullptr && wal != nullptr) {
        st.publish.push_back(ms(publish->ts_ns, wal->ts_ns));
        st.wal_bytes.push_back(static_cast<double>(wal->arg1));
      }
    }
  }
  return st;
}

}  // namespace qbench
