// Per-layer attribution for the QCore benchmark, built only from public
// calls into src/:
//   * TracedStepper — a mirror of ContinualDriver::ProcessBatch that puts a
//     span around each phase of Algorithms 3+4 (update pool, forward,
//     bit-flip round, QCore resample, evaluation) and counts what the
//     bit-flip rounds changed. Tests pin it bit-identical to ContinualDriver,
//     so a later change to ContinualDriver breaks them instead of skewing
//     core.*.
//   * ReplayLeaves — times Layer::Forward of every conv/dense leaf of a
//     cloned model on the inputs a training forward cached, and replays each
//     conv leaf's GEMM shape through kernels::Gemm (nn.*, tensor.*).
//   * ServingStages — splits the serving runtime's own TraceRing events
//     into per-request stage times (serving.*).
#ifndef QBENCH_LIB_LAYERS_H_
#define QBENCH_LIB_LAYERS_H_

#include <cstdint>
#include <vector>

#include "core/bitflip.h"
#include "core/continual.h"
#include "data/dataset.h"
#include "obs/trace.h"
#include "qbench/lib/stats.h"
#include "quant/quantized_model.h"

namespace qbench {

// Phase times (ms) and bit-flip outcome counts of one calibration step.
struct StepTrace {
  double pool_ms = 0.0;
  double forward_ms = 0.0;
  double bitflip_ms = 0.0;
  double resample_ms = 0.0;
  double eval_ms = 0.0;
  double total_ms = 0.0;
  int bitflip_calls = 0;
  int64_t codes_changed = 0;    // code elements changed by the bit-flip calls
  int64_t tensors_changed = 0;  // per call: tensors with any changed code
  int64_t tensors_seen = 0;     // per call: tensors the call could change
  int qcore_churn = 0;          // QCore examples the resample replaced
  float accuracy = 0.0f;
};

class TracedStepper {
 public:
  // Same contract as ContinualDriver's constructor.
  TracedStepper(qcore::QuantizedModel* qm, qcore::BitFlipNet* bf,
                qcore::Dataset qcore, const qcore::ContinualOptions& options,
                qcore::Rng* rng);

  // One ProcessBatch, phase by phase. Spans go to `rec` (may be null).
  // The QCore is diffed around the resample: BatchStats::qcore_changed
  // cannot serve, it always equals the QCore size.
  StepTrace Step(const qcore::Dataset& batch, const qcore::Dataset& test_slice,
                 SpanRecorder* rec);

  const qcore::Dataset& qcore() const { return qcore_; }

 private:
  qcore::QuantizedModel* qm_;
  qcore::BitFlipNet* bf_;
  qcore::Dataset qcore_;
  qcore::ContinualOptions options_;
  qcore::Rng* rng_;
};

// Examples of `after` that `before` does not hold (multiset difference by
// example contents and label): what one QCore update replaced.
int QCoreChurn(const qcore::Dataset& before, const qcore::Dataset& after);

// Hash of every code table of a model.
uint64_t CodesDigest(const qcore::QuantizedModel& qm, uint64_t h = 0);

// Median-of-`reps` leaf timings of one eval forward over `x` (ms).
struct LeafReplay {
  double forward_ms = 0.0;     // the whole model
  double conv_ms = 0.0;        // sum over Conv1d leaves
  double dense_ms = 0.0;       // sum over Dense leaves
  double other_ms = 0.0;       // forward - conv - dense (BN/pool/act/concat)
  double conv_gemm_ms = 0.0;   // the conv leaves' GEMMs alone
  double rows_per_s = 0.0;
};
LeafReplay ReplayLeaves(const qcore::QuantizedModel& qm, const qcore::Tensor& x,
                        int reps, SpanRecorder* rec);

// Per-request serving stage times (ms) from TraceRing events.
//   inference, batched: admission = submit->batchEnqueue, batch_wait =
//     batchEnqueue->batchFlush, queue_wait = batchFlush->group execStart,
//     exec = group execStart->first member complete, deliver = first
//     member complete->this member's complete (the group's scatter);
//   inference, unbatched: admission 0, queue_wait = submit->execStart,
//     exec = execStart->execEnd, deliver = execEnd->complete;
//   calibration: calib_queue_wait = submit->execStart, calib_exec =
//     execStart->execEnd, publish = snapshotPublish->walAppend.
struct StageTimes {
  std::vector<double> admission, batch_wait, queue_wait, exec, deliver;
  std::vector<double> calib_queue_wait, calib_exec, publish;
  std::vector<double> wal_bytes;
};
StageTimes ServingStages(const std::vector<qcore::TraceEvent>& events);

}  // namespace qbench

#endif  // QBENCH_LIB_LAYERS_H_
